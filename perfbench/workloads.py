"""The benchmark's three workloads, driven through the package's public API.

Each workload offers the same operations to the worker process:

* ``build_first(seed)`` builds the deployment that receives the first
  request and returns it with the call that runs it (the set-up probes);
* ``warmup(seed)`` runs whatever the workload discards before measuring and
  returns the reference digest (None on TCP);
* ``measure(seed, seconds, reference, on_start)`` runs the measured window
  and returns a :class:`Window`, including the counters the program keeps
  itself (network, key store, durable store, client and engine statistics);
* ``params()`` describes the workload for the result record.

Simulator workloads repeat one fixed *round* of work with the same seed for
the whole window: every round must reproduce the first round's digest, which
is the determinism check, and the per-round figures give the medians.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro import (DeploymentSpec, ExperimentScale, FaultSchedule,
                   RecoveryConfig, crash_at, restart_at)
from repro.common.errors import StallError
from repro.realtime.deployment import ReplyVerifier
from repro.runtime.experiments import build_config
from repro.workload.openloop import OpenLoopConfig, run_open_loop


class CheckFailed(Exception):
    """A correctness check of the benchmark failed."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def rows_digest(rows: list[dict]) -> str:
    """SHA-256 over the canonical JSON of the simulated result rows."""
    encoded = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode()).hexdigest()


@dataclass
class Point:
    """One unit of measured work: a figure point, a round or a time slice."""

    wall_s: float
    cpu_s: float
    committed: int


@dataclass
class Window:
    """Everything one measured window produced."""

    #: figure points (one protocol's run, one fault-timeline round); their
    #: wall times are the simulator workloads' latency samples.
    points: list[Point] = field(default_factory=list)
    #: the units the medians are taken over: rounds, or time slices.
    slices: list[Point] = field(default_factory=list)
    attempted: int = 0
    committed: int = 0
    #: requests that failed outright: shed at admission or abandoned at
    #: their deadline (a verification failure aborts the run instead).
    #: Requests still in flight when a window ends are not failures, but
    #: they do not count as committed either.
    failed: int = 0
    #: per-request client latencies in ms (``tcp_steady`` only).
    latencies_ms: list[float] = field(default_factory=list)
    digest: Optional[str] = None
    rounds: int = 0
    #: counters the program keeps itself, summed over the window; the
    #: per-layer metrics are computed from them.
    counters: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)


def _add(total: dict, part: dict) -> None:
    for key, value in part.items():
        if isinstance(value, list):
            total.setdefault(key, []).extend(value)
        else:
            total[key] = total.get(key, 0) + value


def _group_counters(deployment, committed: int) -> dict:
    """Counters every single-group deployment keeps."""
    replicas = deployment.replicas
    stores = [store for store in deployment.stores if store is not None]
    return {
        "committed": committed,
        "messages_sent": deployment.network.stats.messages_sent,
        "trusted_accesses": sum(r.trusted.stats.total for r in replicas
                                if r.trusted is not None),
        "view_changes": max(r.stats.view_changes_completed for r in replicas),
        "wal_appends": sum(store.stats.wal_appends for store in stores),
    }


def _keystore_counters(keystore) -> dict:
    stats = keystore.stats
    return {"verify_cache_hits": stats.verify_cache_hits,
            "verify_cache_misses": stats.verify_cache_misses}


# ---------------------------------------------------------------------------
# sim_fig1: the paper's headline comparison on the simulator
# ---------------------------------------------------------------------------
class SimFig1:
    """Five core protocols head to head, closed loop, fixed committed count."""

    name = "sim_fig1"
    simulated = True
    protocols = ("pbft", "minbft", "minzz", "flexi-bft", "flexi-zz")
    scale = ExperimentScale(
        name="perfbench-fig1", f=1, num_clients=64, batch_size=20,
        warmup_batches=10, measured_batches=40, worker_threads=8,
        max_sim_seconds=60.0)
    #: committed requests per protocol: (warmup + measured batches) x batch.
    target = (scale.warmup_batches + scale.measured_batches) * scale.batch_size

    def params(self) -> dict:
        return {"backend": "sim", "loop": "closed",
                "protocols": self.protocols,
                "f": self.scale.f, "clients": self.scale.num_clients,
                "batch": self.scale.batch_size, "regions": ["san-jose"],
                "committed_per_protocol": self.target}

    def _config(self, protocol: str, seed: int):
        return build_config(protocol, self.scale, seed=seed)

    def build_first(self, seed: int):
        config = self._config(self.protocols[0], seed)
        deployment = DeploymentSpec(config).build()
        return deployment, deployment.run_until_target

    def run_round(self, seed: int, window: Window) -> str:
        rows = []
        first = len(window.points)
        for protocol in self.protocols:
            deployment = DeploymentSpec(self._config(protocol, seed)).build()
            wall = time.perf_counter()
            cpu = time.process_time()
            result = deployment.run_until_target()
            cpu = time.process_time() - cpu
            wall = time.perf_counter() - wall
            committed = deployment.metrics.completed_count
            check(result.consensus_safe and result.rsm_safe,
                  f"{protocol}: safety violated")
            check(committed == self.target,
                  f"{protocol}: committed {committed}, expected {self.target}")
            window.points.append(Point(wall, cpu, committed))
            window.attempted += deployment.metrics.submissions
            window.committed += committed
            _add(window.counters, _group_counters(deployment, committed))
            _add(window.counters, _keystore_counters(deployment.keystore))
            _add(window.counters, {
                "resends": sum(c.stats.resends for c in deployment.clients)})
            row = {"protocol": protocol}
            row.update(result.as_row())
            rows.append(row)
        points = window.points[first:]
        window.slices.append(Point(sum(p.wall_s for p in points),
                                   sum(p.cpu_s for p in points),
                                   sum(p.committed for p in points)))
        window.rounds += 1
        return rows_digest(rows)

    def warmup(self, seed: int) -> str:
        return self.run_round(seed, Window())

    def measure(self, seed: int, seconds: float, reference: str,
                on_start: Callable[[], None]) -> Window:
        return _repeat_rounds(self, seed, seconds, reference, on_start)


def _repeat_rounds(workload, seed: int, seconds: float, reference: str,
                   on_start: Callable[[], None]) -> Window:
    """Repeat a simulator round until ``seconds`` of wall time have passed."""
    window = Window()
    on_start()
    start = time.perf_counter()
    while window.rounds < 2 or time.perf_counter() - start < seconds:
        digest = workload.run_round(seed, window)
        check(digest == reference,
              f"round {window.rounds}: digest {digest[:16]} differs from the "
              f"first round's {reference[:16]} (same seed)")
    window.digest = reference
    return window


# ---------------------------------------------------------------------------
# sim_shard_recovery: open loop, two shards, a backup crashes and recovers
# ---------------------------------------------------------------------------
class SimShardRecovery:
    """Million-user Zipf open loop over two flexi-bft shards with a restart."""

    name = "sim_shard_recovery"
    simulated = True
    protocol = "flexi-bft"
    shards = 2
    #: about 1.5 times the peak in flight, so the fault shows as latency and
    #: lane occupancy rather than as shed requests: no operation fails.
    lanes = 64
    rate_tx_s = 8_000.0
    duration_s = 0.3
    crash_at_fraction = 0.3
    restart_at_fraction = 0.5
    scale = ExperimentScale(
        name="perfbench-shard-recovery", f=1, num_clients=lanes,
        batch_size=10, warmup_batches=2, measured_batches=6,
        worker_threads=8, max_sim_seconds=60.0)
    #: the crashed backup: the highest replica of shard 0 (never the primary).
    crashed_replica = 2

    def params(self) -> dict:
        return {"backend": "sim", "loop": "open", "protocol": self.protocol,
                "f": self.scale.f, "shards": self.shards, "lanes": self.lanes,
                "batch": self.scale.batch_size, "users": 1_000_000,
                "arrival": "poisson", "rate_tx_s": self.rate_tx_s,
                "deadline_ms": 25.0, "fsync_us": 20.0,
                "round_sim_s": self.duration_s,
                "crash": f"shard0/replica-{self.crashed_replica} at "
                         f"{self.crash_at_fraction:.0%}, restart at "
                         f"{self.restart_at_fraction:.0%}"}

    def _open_loop(self) -> OpenLoopConfig:
        return OpenLoopConfig(
            num_users=1_000_000, arrival_rate_tx_s=self.rate_tx_s,
            max_in_flight=self.lanes, deadline_us=25_000.0,
            duration_s=self.duration_s)

    def _build(self, seed: int):
        config = build_config(self.protocol, self.scale, seed=seed)
        config = config.with_updates(recovery=RecoveryConfig(
            fsync_latency_us=20.0, replay_latency_us=5.0))
        span_us = self.duration_s * 1_000_000.0
        self.restart_us = self.restart_at_fraction * span_us
        schedule = FaultSchedule((
            crash_at(self.crashed_replica, self.crash_at_fraction * span_us),
            restart_at(self.crashed_replica, self.restart_us)))
        open_loop = self._open_loop()
        spec = DeploymentSpec(config, num_shards=self.shards,
                              num_clients=self.lanes,
                              fault_schedules={0: schedule},
                              open_loop=open_loop)
        return spec.build(), open_loop

    def build_first(self, seed: int):
        deployment, open_loop = self._build(seed)
        return deployment, lambda: run_open_loop(deployment, open_loop)

    def run_round(self, seed: int, window: Window) -> str:
        deployment, open_loop = self._build(seed)
        wall = time.perf_counter()
        cpu = time.process_time()
        engine, result = run_open_loop(deployment, open_loop)
        cpu = time.process_time() - cpu
        wall = time.perf_counter() - wall
        stats = engine.stats
        collector = deployment.metrics.global_collector
        committed = collector.completed_count
        in_flight = collector.in_flight()
        replica = deployment.groups[0].replicas[self.crashed_replica]
        check(result.consensus_safe and result.rsm_safe, "safety violated")
        check(stats.offered == committed + stats.shed + stats.abandoned
              + in_flight,
              f"offered {stats.offered} != committed {committed} + shed "
              f"{stats.shed} + abandoned {stats.abandoned} + in flight "
              f"{in_flight}")
        check(replica.stats.recoveries_completed >= 1,
              "the restarted replica did not recover")
        check(replica.stats.log_fill_batches_applied > 0,
              "the restarted replica applied no LogFill batches")
        window.points.append(Point(wall, cpu, committed))
        window.slices.append(window.points[-1])
        window.attempted += stats.offered
        window.committed += committed
        window.failed += stats.shed + stats.abandoned
        completed = result.per_shard_completed
        counters = {"committed": committed,
                    "messages_sent": result.messages_sent,
                    "trusted_accesses": result.trusted_accesses,
                    "shed": stats.shed, "abandoned": stats.abandoned,
                    "offered": stats.offered,
                    "resends": sum(c.resends() for c in deployment.clients),
                    "hot_shard_committed": max(completed.values()),
                    "transfer_batches": replica.stats.log_fill_batches_applied,
                    "recover_ms": [(replica.recovered_at - self.restart_us)
                                   / 1_000.0],
                    "view_changes": 0, "wal_appends": 0}
        for group in deployment.groups:
            group_counters = _group_counters(group, 0)
            counters["view_changes"] += group_counters["view_changes"]
            counters["wal_appends"] += group_counters["wal_appends"]
        _add(window.counters, counters)
        _add(window.counters, _keystore_counters(deployment.keystore))
        window.rounds += 1
        row = dict(stats.as_row())
        row.update(result.as_row())
        row["recovered_at"] = replica.recovered_at
        row["transfer_batches"] = replica.stats.log_fill_batches_applied
        return rows_digest([row])

    def warmup(self, seed: int) -> str:
        return self.run_round(seed, Window())

    def measure(self, seed: int, seconds: float, reference: str,
                on_start: Callable[[], None]) -> Window:
        return _repeat_rounds(self, seed, seconds, reference, on_start)


# ---------------------------------------------------------------------------
# tcp_steady: live TCP backend, closed loop, warmup discarded
# ---------------------------------------------------------------------------
class TcpSteady:
    """flexi-bft on localhost TCP, two closed-loop clients, steady state."""

    name = "tcp_steady"
    simulated = False
    protocol = "flexi-bft"
    scale = ExperimentScale(
        name="perfbench-tcp", f=1, num_clients=2, batch_size=2,
        warmup_batches=1, measured_batches=5, worker_threads=8,
        max_sim_seconds=60.0)
    warmup_s = 1.0
    #: the window is measured in slices; per-slice figures give the medians.
    slice_s = 0.5

    def __init__(self) -> None:
        self.deployment = None
        self._verifier = None

    def params(self) -> dict:
        return {"backend": "live-tcp", "loop": "closed",
                "protocol": self.protocol, "f": self.scale.f,
                "clients": self.scale.num_clients,
                "batch": self.scale.batch_size, "warmup_s": self.warmup_s,
                "slice_s": self.slice_s}

    def _build(self, seed: int):
        config = build_config(self.protocol, self.scale, seed=seed)
        deployment = DeploymentSpec(config, backend="live-tcp").build()
        return deployment, ReplyVerifier(deployment)

    def build_first(self, seed: int):
        deployment, _ = self._build(seed)
        deployment.start_clients()
        return deployment, lambda: deployment.backend.run_for(
            deployment.sim, 10_000_000.0)

    def warmup(self, seed: int) -> None:
        self.deployment, self._verifier = self._build(seed)
        self.deployment.start_clients()
        self._run_for(self.warmup_s)

    def _run_for(self, seconds: float) -> None:
        try:
            self.deployment.backend.run_for(self.deployment.sim,
                                             seconds * 1_000_000.0)
        except StallError as exc:
            raise CheckFailed(f"live run stalled: {exc}") from exc

    def measure(self, seed: int, seconds: float, reference,
                on_start: Callable[[], None]) -> Window:
        deployment = self.deployment
        metrics = deployment.metrics
        window = Window()
        try:
            on_start()
            start_us = deployment.sim.now
            start = time.perf_counter()
            counters_before = self._raw_counters()
            while time.perf_counter() - start < seconds:
                done = metrics.completed_count
                wall = time.perf_counter()
                cpu = time.process_time()
                self._run_for(self.slice_s)
                window.slices.append(Point(
                    time.perf_counter() - wall, time.process_time() - cpu,
                    metrics.completed_count - done))
            end_us = deployment.sim.now
            deployment.stop_clients()
            result = deployment.collect_result(warmup_fraction=0.0)
            counters_after = self._raw_counters()
        finally:
            deployment.close()
        completed = [r for r in metrics.completions
                     if start_us <= r.submitted_at]
        abandoned = [r for r in metrics.abandonments
                     if start_us <= r.submitted_at]
        window.committed = len(completed)
        window.attempted = len(completed) + len(abandoned)
        window.latencies_ms = [r.latency_us / 1_000.0 for r in completed]
        check(result.consensus_safe and result.rsm_safe, "safety violated")
        check(metrics.in_flight() == 0,
              f"{metrics.in_flight()} requests neither committed nor "
              "abandoned after the clients stopped")
        check(all(r.reason == "stopped" for r in abandoned)
              and len(abandoned) <= self.scale.num_clients,
              f"{len(abandoned)} requests abandoned in the window; only the "
              f"{self.scale.num_clients} outstanding at stop may be")
        quorum = self.scale.f + 1
        check(self._verifier.verified >= quorum * metrics.completed_count,
              f"{self._verifier.verified} verified replies for "
              f"{metrics.completed_count} committed requests "
              f"(quorum {quorum})")
        check(window.committed > 0, "no request committed in the window")
        window.counters = {key: counters_after[key] - counters_before[key]
                           for key in counters_after}
        window.counters.update(
            committed=window.committed,
            view_changes=max(r.stats.view_changes_completed
                             for r in deployment.replicas))
        window.notes = {"window_s": (end_us - start_us) / 1_000_000.0,
                        "verified_replies": self._verifier.verified}
        return window

    def _raw_counters(self) -> dict:
        deployment = self.deployment
        counters = _group_counters(deployment, 0)
        counters.update(_keystore_counters(deployment.keystore))
        counters["resends"] = sum(c.stats.resends for c in deployment.clients)
        del counters["committed"], counters["view_changes"]
        return counters


WORKLOADS = {w.name: w for w in (SimFig1, TcpSteady, SimShardRecovery)}


def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile of ``values`` (0 for an empty list)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1,
                      int(round(fraction * len(ordered) + 0.5)) - 1))
    return ordered[rank]


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0
