"""The stall watchdog turns a wedged live run into a diagnosed failure.

A PBFT group with two of four replicas crashed (no fault schedule — the
crashes simply happen before the run) cannot assemble a 2f+1 quorum, so a
live run makes zero progress.  Before this PR that meant silently burning
the whole wall-clock cap and dying with an anonymous timeout; now the
watchdog fires early, snapshots the deployment, and the run raises a typed
:class:`StallError` naming the crashed replica with its queue/view state
attached.  A two-shard deployment with the same two crashes in every
group stalls through the same driver and names a ``shard<K>/`` replica.
"""

from __future__ import annotations

import json
import re
import time

import pytest

from repro.common.errors import StallError
from repro.obsv import ObservabilityConfig, snapshot_diagnostics, write_diagnostics
from repro.runtime.experiments import ExperimentScale, build_config
from repro.runtime.spec import DeploymentSpec

_SCALE = ExperimentScale(
    name="stall-test", f=1, num_clients=4, batch_size=2,
    warmup_batches=1, measured_batches=2, worker_threads=2,
    max_sim_seconds=30.0)

#: the watchdog must fire well inside this cap — that is the point.
_CAP_US = 10_000_000.0
_STALL_US = 300_000.0


def build_live_deployment(observe, backend="live", num_shards=None):
    spec = DeploymentSpec(build_config("pbft", _SCALE), backend=backend,
                          observe=observe, num_shards=num_shards)
    return spec.build()


@pytest.mark.timeout(60)
class TestStalledLiveRun:
    def run_stalled(self, num_shards=None):
        observe = ObservabilityConfig(stall_after_us=_STALL_US)
        deployment = build_live_deployment(observe, num_shards=num_shards)
        try:
            # Two of four crashed in every group: no group has a quorum.
            for group in getattr(deployment, "groups", [deployment]):
                group.crash_replica(0)
                group.crash_replica(1)
            started = time.monotonic()
            with pytest.raises(StallError) as excinfo:
                deployment.run_until_target(max_sim_time_us=_CAP_US)
            elapsed = time.monotonic() - started
        finally:
            deployment.close()
        return excinfo.value, elapsed

    @pytest.mark.parametrize("num_shards, suspect", [
        (None, r"replica-[01]"), (2, r"shard[01]/replica-[01]"),
    ], ids=["plain", "sharded"])
    def test_watchdog_names_a_crashed_replica_before_the_cap(
            self, num_shards, suspect):
        error, elapsed = self.run_stalled(num_shards)
        assert re.fullmatch(suspect, error.suspect), error.suspect
        # Fired on the stall threshold, nowhere near the 10 s wall cap.
        assert elapsed < 5.0
        bundle = error.diagnostics
        assert "crashed" in bundle["suspect_reason"]
        assert bundle["kernel"]["heap_size"] > 0
        assert bundle["kernel"]["pending_events"] > 0
        assert isinstance(bundle.get("asyncio_tasks"), list)

    def test_bundle_captures_queue_and_view_state(self):
        error, _ = self.run_stalled()
        replicas = error.diagnostics["health"]["replicas"]
        by_name = {r["name"]: r for r in replicas}
        assert set(by_name) == {f"replica-{i}" for i in range(4)}
        crashed = [r for r in replicas if not r["active"]]
        assert len(crashed) == 2
        for replica in replicas:
            assert replica["view"] >= 0
            assert "worker_queue" in replica
            assert "pending_requests" in replica
            assert replica["last_executed"] == 0  # nothing ever committed
        aggregate = error.diagnostics["aggregate"]
        assert aggregate["replicas"] == 4
        assert aggregate["active"] == 2
        # Every client is wedged on an outstanding request.
        outstanding = [c for c in error.diagnostics["clients"]
                       if c.get("outstanding")]
        assert outstanding

    def test_traced_stall_flushes_the_trace_ring_into_the_bundle(self):
        observe = ObservabilityConfig(trace=True, stall_after_us=_STALL_US)
        deployment = build_live_deployment(observe)
        try:
            deployment.crash_replica(0)
            deployment.crash_replica(1)
            with pytest.raises(StallError) as excinfo:
                deployment.run_until_target(max_sim_time_us=_CAP_US)
        finally:
            deployment.close()
        bundle = excinfo.value.diagnostics
        tail = bundle["trace_tail"]
        assert tail, "traced stall bundle carries no trace events"
        # The tail is the newest ring slice: dict-shaped events, newest last,
        # whose kinds agree with the exact per-kind counters.
        assert all(event["kind"] for event in tail)
        times = [event["time_us"] for event in tail]
        assert times == sorted(times)
        assert set(event["kind"] for event in tail) <= set(
            bundle["trace_counts"])
        assert bundle["trace_counts"]["replica.crash"] == 2
        assert bundle["trace_dropped"] >= 0

    def test_untraced_stall_bundle_has_no_trace_tail(self):
        error, _ = self.run_stalled()
        assert "trace_tail" not in error.diagnostics

    def test_bundle_round_trips_through_write_diagnostics(self, tmp_path):
        error, _ = self.run_stalled()
        path = tmp_path / "diagnostics" / "stall.json"
        write_diagnostics(error.diagnostics, path)
        loaded = json.loads(path.read_text())
        assert loaded["suspect"] == error.suspect
        assert loaded["aggregate"]["active"] == 2


@pytest.mark.timeout(60)
class TestTcpConnectionSnapshots:
    def test_bundle_includes_peer_addresses_on_tcp(self):
        observe = ObservabilityConfig(collect_health=True)
        deployment = build_live_deployment(observe, backend="live-tcp")
        try:
            deployment.run_until_target(target_requests=8,
                                        max_sim_time_us=_CAP_US)
            bundle = snapshot_diagnostics(deployment, reason="post-run probe")
        finally:
            deployment.close()
        (connections,) = bundle["connections"]
        assert connections["transport"] == "TcpTransport"
        assert connections["port"] > 0
        open_peers = [state for state in connections["destinations"].values()
                      if state["state"] == "open"]
        assert open_peers, "no open TCP connection recorded"
        for state in open_peers:
            host, _, port = state["peer"].rpartition(":")
            assert host == "127.0.0.1"
            assert int(port) > 0
        assert connections["accepted_peers"]


@pytest.mark.timeout(60)
class TestDiagCli:
    def test_repro_diag_writes_a_bundle(self, tmp_path, capsys):
        from repro.__main__ import main

        out = tmp_path / "diag.json"
        code = main(["diag", "--protocol", "pbft", "--seconds", "5",
                     "--out", str(out)])
        assert code == 0, capsys.readouterr().out
        bundle = json.loads(out.read_text())
        assert bundle["reason"] == "manual probe"
        assert bundle["aggregate"]["active"] == 4
        assert len(bundle["health"]["replicas"]) == 4
