"""Named performance scenarios.

Two families share one registry:

* **Figure scenarios** drive full deployments through the public experiment
  machinery: ``fig1`` is the headline head-to-head throughput comparison
  (sequential trusted-counter protocols versus their FlexiTrust
  transformations, with Pbft as the untrusted baseline), ``recovery`` is the
  crash → restart → state-transfer experiment, ``sharding_scaleout`` the
  multi-group scale-out experiment.
* **Microbenchmarks** isolate one substrate layer each — the simulation
  kernel (``kernel``), the message transport (``network``), the
  serialisation/crypto layer (``crypto``) and the binary wire framing
  (``wire_codec``) — so a regression can be attributed before bisecting a
  full deployment run.

Every scenario is a function ``(PerfScale) -> list[dict]`` returning flat row
dictionaries of *simulated* results only (no wall-clock values), so the rows
can be digested for determinism checking: two runs of the same code must
produce byte-identical row digests, and an optimisation that changes them has
changed simulated behaviour, not just speed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..common.config import SGX_ENCLAVE_COUNTER
from ..common.types import RequestId
from ..crypto.digest import combine_digests, digest
from ..crypto.keystore import KeyStore
from ..execution.state_machine import Operation
from ..net.network import Envelope, Network
from ..net.topology import build_topology
from ..protocols.messages import ClientRequest, RequestBatch
from ..runtime.experiments import (
    ExperimentScale,
    build_config,
    build_sharded_config,
    figure_recovery,
    run_point,
    run_sharded_point,
)
from ..runtime.spec import DeploymentSpec
from ..sim.kernel import Simulator
from ..sim.rng import RngRegistry
from ..workload.openloop import OpenLoopConfig, open_loop_row, run_open_loop


@dataclass(frozen=True)
class RecoveryParams:
    """Sizing of the ``recovery`` scenario's fault timeline.

    Recovery runs a fixed span of simulated time under full load, so its
    wall-clock cost is dominated by ``num_clients × end_s``; the smoke scale
    shrinks both so the scenario fits a CI gate.
    """

    num_clients: int
    crash_s: float
    restart_s: float
    end_s: float
    #: sweep both trusted-hardware persistence levels (doubles the points).
    both_hardware_levels: bool = True


@dataclass(frozen=True)
class OpenLoopParams:
    """Sizing of the open-loop overload/hotspot/diurnal scenarios.

    ``offered_rates_tx_s`` should straddle the deployment's closed-loop
    capacity so the overload sweep shows the whole goodput/latency knee:
    below saturation, near it, and well past it (where admission shedding
    and deadline abandonment take over).
    """

    #: logical user population (engine state stays O(max_in_flight)).
    num_users: int = 1_000_000
    #: request lanes (= admission limit = clients the deployment builds).
    max_in_flight: int = 32
    #: offered-load sweep of ``openloop_overload``: below the lane-admission
    #: capacity (32 lanes / ~2.8 ms ≈ 11.4k tx/s at smoke), just past it,
    #: and 2× past it, where shedding dominates and goodput plateaus.
    offered_rates_tx_s: tuple[float, ...] = (2_000.0, 6_000.0,
                                             12_000.0, 24_000.0)
    #: run length per point.
    duration_s: float = 0.25
    #: per-request deadline (milliseconds).
    deadline_ms: float = 25.0
    #: keyspace size of the hotspot scenario: small enough that the Zipf
    #: head concentrates on a handful of keys owned by one shard.
    hotspot_records: int = 32
    #: offered load of the hotspot scenario.
    hotspot_rate_tx_s: float = 6_000.0
    #: piecewise rate ramp of the diurnal scenario (duration s, multiplier).
    diurnal_segments: tuple[tuple[float, float], ...] = (
        (0.08, 0.5), (0.08, 1.5), (0.08, 3.0), (0.08, 1.0))
    #: base rate the diurnal multipliers scale.
    diurnal_rate_tx_s: float = 4_000.0


@dataclass(frozen=True)
class PerfScale:
    """Size knobs for one performance-scenario run."""

    name: str
    #: deployment sizing for the figure scenarios.
    experiment: ExperimentScale
    #: operation count for the substrate microbenchmarks.
    micro_ops: int
    #: shard counts swept by ``sharding_scaleout``.
    shard_counts: tuple[int, ...]
    #: protocols compared head-to-head by ``fig1``.
    fig1_protocols: tuple[str, ...]
    #: protocols crashed and recovered by ``recovery``.
    recovery_protocols: tuple[str, ...]
    #: fault-timeline sizing of the ``recovery`` scenario.
    recovery: RecoveryParams
    #: sizing of the open-loop scenarios (million-user arrival engine).
    open_loop: OpenLoopParams = OpenLoopParams()


_SMOKE_EXPERIMENT = ExperimentScale(
    name="perf-smoke", f=1, num_clients=40, batch_size=10,
    warmup_batches=2, measured_batches=6, worker_threads=8,
    max_sim_seconds=20.0)

_MEDIUM_EXPERIMENT = ExperimentScale(
    name="perf-medium", f=2, num_clients=240, batch_size=20,
    warmup_batches=3, measured_batches=12, worker_threads=8,
    max_sim_seconds=40.0)

_LARGE_EXPERIMENT = ExperimentScale(
    name="perf-large", f=3, num_clients=480, batch_size=40,
    warmup_batches=4, measured_batches=16, worker_threads=16,
    max_sim_seconds=60.0)

PERF_SCALES: dict[str, PerfScale] = {
    "smoke": PerfScale(
        name="smoke", experiment=_SMOKE_EXPERIMENT, micro_ops=20_000,
        shard_counts=(1, 2), fig1_protocols=("minbft", "flexi-bft"),
        recovery_protocols=("minbft", "flexi-bft"),
        recovery=RecoveryParams(num_clients=12, crash_s=0.2, restart_s=0.35,
                                end_s=0.7, both_hardware_levels=False)),
    "medium": PerfScale(
        name="medium", experiment=_MEDIUM_EXPERIMENT, micro_ops=100_000,
        shard_counts=(1, 2, 4),
        fig1_protocols=("pbft", "minbft", "minzz", "flexi-bft", "flexi-zz"),
        recovery_protocols=("minbft", "flexi-bft"),
        recovery=RecoveryParams(num_clients=32, crash_s=0.4, restart_s=0.7,
                                end_s=1.3),
        open_loop=OpenLoopParams(
            num_users=2_000_000, max_in_flight=64,
            offered_rates_tx_s=(4_000.0, 12_000.0, 24_000.0),
            duration_s=0.4, hotspot_rate_tx_s=12_000.0,
            diurnal_rate_tx_s=8_000.0)),
    "large": PerfScale(
        name="large", experiment=_LARGE_EXPERIMENT, micro_ops=200_000,
        shard_counts=(1, 2, 4),
        fig1_protocols=("pbft", "minbft", "minzz", "flexi-bft", "flexi-zz"),
        recovery_protocols=("minbft", "minzz", "flexi-bft", "flexi-zz"),
        recovery=RecoveryParams(num_clients=40, crash_s=0.8, restart_s=1.4,
                                end_s=2.6),
        open_loop=OpenLoopParams(
            num_users=4_000_000, max_in_flight=96,
            offered_rates_tx_s=(6_000.0, 18_000.0, 36_000.0),
            duration_s=0.5, hotspot_rate_tx_s=18_000.0,
            diurnal_rate_tx_s=12_000.0)),
    "wan": PerfScale(
        name="wan",
        experiment=_MEDIUM_EXPERIMENT,
        micro_ops=100_000, shard_counts=(1, 2),
        fig1_protocols=("minbft", "flexi-bft", "flexi-zz"),
        recovery_protocols=("minbft", "flexi-bft"),
        recovery=RecoveryParams(num_clients=24, crash_s=0.4, restart_s=0.7,
                                end_s=1.3, both_hardware_levels=False)),
}

#: regions used by the ``wan`` scale's figure scenarios (paper order).
_WAN_REGIONS = ("san-jose", "ashburn", "sydney", "sao-paulo")


def _fig1_regions(scale: PerfScale) -> tuple[str, ...]:
    return _WAN_REGIONS if scale.name == "wan" else ("san-jose",)


# ---------------------------------------------------------------------------
# figure scenarios
# ---------------------------------------------------------------------------
def scenario_fig1(scale: PerfScale) -> list[dict]:
    """Headline comparison: trust-bft protocols vs their FlexiTrust versions."""
    rows = []
    for protocol in scale.fig1_protocols:
        config = build_config(protocol, scale.experiment,
                              regions=_fig1_regions(scale))
        result = run_point(config)
        row = {"protocol": protocol}
        row.update(result.as_row())
        rows.append(row)
    return rows


def scenario_recovery(scale: PerfScale) -> list[dict]:
    """Crash → restart → state transfer for one replica, per protocol."""
    params = scale.recovery
    experiment = replace(scale.experiment, num_clients=params.num_clients)
    hardware_levels = None if params.both_hardware_levels else (
        SGX_ENCLAVE_COUNTER,)
    # The digest gates on the bare row list, never the FigureResult wrapper.
    return list(figure_recovery(
        experiment, protocols=scale.recovery_protocols,
        hardware_levels=hardware_levels,
        crash_s=params.crash_s, restart_s=params.restart_s,
        end_s=params.end_s).rows)


def scenario_sharding_scaleout(scale: PerfScale) -> list[dict]:
    """Aggregate throughput as the number of consensus groups grows."""
    rows = []
    for protocol in ("minbft", "flexi-bft"):
        for num_shards in scale.shard_counts:
            config = build_sharded_config(protocol, scale.experiment,
                                          num_shards=num_shards)
            result = run_sharded_point(config)
            row = {"protocol": protocol}
            row.update(result.as_row())
            rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# open-loop scenarios (million-user arrival engine)
# ---------------------------------------------------------------------------
#: protocol the open-loop scenarios overload (the headline FlexiTrust one).
_OPENLOOP_PROTOCOL = "flexi-bft"


def _openloop_spec(scale: PerfScale, open_loop, *, num_shards=None,
                   records=None) -> DeploymentSpec:
    """A deployment spec sized for one open-loop point."""
    from dataclasses import replace as _replace

    config = build_config(_OPENLOOP_PROTOCOL, scale.experiment,
                          num_clients=open_loop.max_in_flight)
    if records is not None:
        config = config.with_updates(
            workload=_replace(config.workload, records=records))
    num_clients = open_loop.max_in_flight if num_shards is not None else None
    return DeploymentSpec(config, num_shards=num_shards,
                          num_clients=num_clients, open_loop=open_loop)


def _primary_utilisation(deployment) -> float:
    """Worker-pool utilisation of the view-0 primary over the whole run."""
    elapsed = deployment.sim.now
    if elapsed <= 0:
        return 0.0
    workers = deployment.primary.workers
    return workers.stats.utilisation(
        elapsed, deployment.protocol_config.worker_threads)


def scenario_openloop_overload(scale: PerfScale) -> list[dict]:
    """Open-loop offered load swept past saturation: the goodput/latency knee.

    Each point offers a fixed Poisson arrival rate from a million-user Zipf
    population against a bounded lane pool; rows show goodput, latency,
    admission shedding, deadline abandonment and how hot the primary's
    worker pool ran.  Past the knee goodput plateaus at capacity while
    offered load, shed fraction and tail latency keep climbing — the curve
    a closed loop cannot draw.
    """
    params = scale.open_loop
    rows = []
    for rate in params.offered_rates_tx_s:
        open_loop = OpenLoopConfig(
            num_users=params.num_users, arrival_rate_tx_s=rate,
            max_in_flight=params.max_in_flight,
            deadline_us=params.deadline_ms * 1_000.0,
            duration_s=params.duration_s)
        deployment = _openloop_spec(scale, open_loop).build()
        try:
            engine, result = run_open_loop(deployment, open_loop)
            # The million-user contract, enforced on every gated run: engine
            # state is O(active requests) — free-lane stack + armed deadlines
            # + the arrival/flip/boundary events — never O(num_users).
            assert (engine.stats.peak_resident
                    <= 2 * open_loop.max_in_flight + 3), (
                f"open-loop resident state {engine.stats.peak_resident} "
                f"exceeds the O(active) bound for "
                f"{open_loop.max_in_flight} lanes")
            row = {"protocol": _OPENLOOP_PROTOCOL}
            row.update(open_loop_row(engine, result))
            row["primary_utilisation"] = round(
                _primary_utilisation(deployment), 4)
        finally:
            deployment.close()
        rows.append(row)
    return rows


def scenario_openloop_hotspot(scale: PerfScale) -> list[dict]:
    """Zipf-skewed open-loop load on a sharded deployment: one shard runs hot.

    The user population is folded onto a deliberately small keyspace, so
    the Zipf head lands on a handful of keys — and the router sends their
    whole mass to the shards that own them.  The row pins the resulting
    imbalance (``hot_shard_share``) alongside the usual open-loop columns.
    """
    params = scale.open_loop
    num_shards = max(scale.shard_counts)
    open_loop = OpenLoopConfig(
        num_users=params.num_users,
        arrival_rate_tx_s=params.hotspot_rate_tx_s,
        user_theta=0.999, max_in_flight=params.max_in_flight,
        deadline_us=params.deadline_ms * 1_000.0,
        duration_s=params.duration_s)
    spec = _openloop_spec(scale, open_loop, num_shards=num_shards,
                          records=params.hotspot_records)
    deployment = spec.build()
    try:
        engine, result = run_open_loop(deployment, open_loop)
        row = {"protocol": _OPENLOOP_PROTOCOL, "shards": num_shards}
        row.update(open_loop_row(engine, result))
        completed = result.per_shard_completed
        total = max(1, sum(completed.values()))
        row["hot_shard_share"] = round(max(completed.values()) / total, 4)
        for shard in sorted(completed):
            row[f"shard{shard}_completed"] = completed[shard]
    finally:
        deployment.close()
    return [row]


def scenario_openloop_diurnal(scale: PerfScale) -> list[dict]:
    """A piecewise diurnal ramp: overload only while the rate peaks.

    One run whose arrival rate steps through the configured multipliers;
    one row per segment (offered/admitted/shed/completed/abandoned deltas)
    plus a whole-run summary row.
    """
    params = scale.open_loop
    open_loop = OpenLoopConfig(
        num_users=params.num_users,
        arrival_rate_tx_s=params.diurnal_rate_tx_s,
        max_in_flight=params.max_in_flight,
        deadline_us=params.deadline_ms * 1_000.0,
        segments=params.diurnal_segments)
    deployment = _openloop_spec(scale, open_loop).build()
    try:
        engine, result = run_open_loop(deployment, open_loop)
        rows = [dict(segment_row) for segment_row in engine.stats.segment_rows]
        summary = {"protocol": _OPENLOOP_PROTOCOL, "segment": "all"}
        summary.update(open_loop_row(engine, result))
        summary["primary_utilisation"] = round(
            _primary_utilisation(deployment), 4)
        rows.append(summary)
    finally:
        deployment.close()
    return rows


# ---------------------------------------------------------------------------
# live-backend scenarios
# ---------------------------------------------------------------------------
#: sizing of the live smoke run; fixed across perf scales because the live
#: backend's wall-clock is real time (latency sleeps and crypto), which the
#: per-scale deployment sizing knobs were not designed to bound.
_LIVE_EXPERIMENT = ExperimentScale(
    name="live-smoke", f=1, num_clients=8, batch_size=4,
    warmup_batches=1, measured_batches=5, worker_threads=4,
    max_sim_seconds=30.0)


def _live_rows(protocols: tuple[str, ...]) -> list[dict]:
    """One live-backend row per protocol at the fixed live sizing."""
    rows = []
    for protocol in protocols:
        config = build_config(protocol, _LIVE_EXPERIMENT)
        result = run_point(config, backend="live")
        row = {"protocol": protocol, "backend": "live"}
        row.update(result.as_row())
        rows.append(row)
    return rows


#: protocols driven end to end on the asyncio backend by ``live_smoke``.
_LIVE_PROTOCOLS = ("minbft", "flexi-bft")


def scenario_live_smoke(scale: PerfScale) -> list[dict]:
    """Live asyncio backend end to end: real clock, real HMAC, real replies.

    Unlike every other scenario this one is *not* deterministic — it runs
    the unchanged protocol replicas on a real event loop, so its rows hold
    genuine wall-clock throughput/latency numbers and its result carries no
    determinism digest (see :func:`repro.perf.runner.run_scenario`).
    """
    return _live_rows(_LIVE_PROTOCOLS)


scenario_live_smoke.deterministic = False
#: the scenario runs its fixed sizing regardless of the requested PerfScale,
#: so its results are always labeled (and baselined) as smoke scale.
scenario_live_smoke.fixed_scale = "smoke"


#: every core protocol of the paper's headline comparison, run live.
_LIVE_FIG1_PROTOCOLS = ("pbft", "minbft", "minzz", "flexi-bft", "flexi-zz")


def scenario_live_fig1(scale: PerfScale) -> list[dict]:
    """The fig1 head-to-head on *wall-clock*: every core protocol, live.

    The paper's headline claim — FlexiTrust protocols beat sequential
    trusted-component protocols — is checked by ``fig1`` on simulated time;
    this scenario re-runs the same comparison on the asyncio backend so the
    claim can also be read off real wall-clock throughput numbers (with real
    HMAC costs and a real scheduler).  Non-deterministic, like every live
    scenario: no digest, gated on wall-clock only.
    """
    return _live_rows(_LIVE_FIG1_PROTOCOLS)


scenario_live_fig1.deterministic = False
scenario_live_fig1.fixed_scale = "smoke"


@dataclass(frozen=True)
class LiveRecoveryParams:
    """Wall-clock fault timeline of the ``live_recovery`` scenario."""

    crash_s: float = 0.2
    restart_s: float = 0.35
    end_s: float = 0.8


#: sizing of the live recovery run (fixed, like every live scenario).
_LIVE_RECOVERY_EXPERIMENT = ExperimentScale(
    name="live-recovery", f=1, num_clients=8, batch_size=4,
    warmup_batches=1, measured_batches=5, worker_threads=4,
    max_sim_seconds=30.0)

_LIVE_RECOVERY_PROTOCOLS = ("minbft", "flexi-bft")


def scenario_live_recovery(scale: PerfScale) -> list[dict]:
    """Crash → restart → state transfer of a real replica task, live.

    A :class:`~repro.recovery.schedule.FaultSchedule` crashes the highest
    non-primary replica at a wall-clock instant and restarts it later; the
    restarted incarnation replays its durable store and state-transfers the
    missing suffix from its peers over the live transport, all while the
    clients keep offering load.  Rows carry the same dip/time-to-recover
    summary as the simulated ``recovery`` scenario, measured in real time.
    """
    from ..common.config import RecoveryConfig
    from ..recovery import (
        FaultSchedule,
        crash_at,
        recovery_summary,
        restart_at,
    )
    from ..protocols.registry import get_protocol
    from ..runtime.deployment import Deployment

    params = LiveRecoveryParams()
    crash_us = params.crash_s * 1_000_000.0
    restart_us = params.restart_s * 1_000_000.0
    end_us = params.end_s * 1_000_000.0
    rows = []
    for protocol in _LIVE_RECOVERY_PROTOCOLS:
        spec = get_protocol(protocol)
        n = spec.replicas(_LIVE_RECOVERY_EXPERIMENT.f)
        crashed = n - 1
        config = build_config(protocol, _LIVE_RECOVERY_EXPERIMENT)
        config = config.with_updates(recovery=RecoveryConfig(
            fsync_latency_us=20.0, replay_latency_us=5.0))
        schedule = FaultSchedule((crash_at(crashed, crash_us),
                                  restart_at(crashed, restart_us)))
        deployment = Deployment(config, fault_schedule=schedule,
                                backend="live")
        try:
            result = deployment.run_for(end_us)
            summary = recovery_summary(
                deployment.metrics.completions, crash_us, restart_us, end_us,
                warmup_us=0.25 * crash_us)
            replica = deployment.replica(crashed)
            row = {"protocol": protocol, "backend": "live",
                   "crashed_replica": crashed}
            row.update(result.as_row())
            row.update(summary.as_row())
            row["recovered"] = replica.stats.recoveries_completed > 0
            row["transfer_batches"] = replica.stats.log_fill_batches_applied
            rows.append(row)
        finally:
            deployment.close()
    return rows


scenario_live_recovery.deterministic = False
scenario_live_recovery.fixed_scale = "smoke"


# ---------------------------------------------------------------------------
# observability overhead
# ---------------------------------------------------------------------------
#: sizing of the observability-overhead run; fixed so the traced/untraced
#: comparison is the same deployment at every requested scale.
_OBSV_EXPERIMENT = ExperimentScale(
    name="obsv-overhead", f=1, num_clients=40, batch_size=10,
    warmup_batches=2, measured_batches=6, worker_threads=8,
    max_sim_seconds=20.0)


def scenario_obsv_overhead(scale: PerfScale) -> list[dict]:
    """Tracing + health collection must observe a run, never change it.

    Runs the same simulated deployment twice — once bare, once with the
    trace ring and health collection enabled — and pins three facts into
    deterministic rows: (1) the traced run's result row, stripped of its
    ``health_`` columns, is byte-identical to the untraced row
    (``rows_match``), so tracing is purely observational; (2) the per-kind
    trace event counts, which are a pure function of simulated behaviour;
    (3) the end-of-run aggregated health columns themselves.  The *wall
    clock* side of the ≤5% overhead claim is asserted by
    ``benchmarks/test_obsv_overhead.py``, which times both paths.

    With causal tracing the summary row additionally pins the span
    reconstruction: how many request lifecycles the trace yields, what
    fraction are complete (client send → reply quorum), and the simulated
    four-phase latency decomposition — all pure functions of the simulated
    run, so they ride the same determinism digests.
    """
    from ..obsv import ObservabilityConfig, analyze_events
    from ..runtime.deployment import Deployment

    config = build_config("flexi-bft", _OBSV_EXPERIMENT)
    baseline = run_point(config)
    base_row = {"mode": "untraced"}
    base_row.update(baseline.as_row())

    observe = ObservabilityConfig(trace=True, collect_health=True)
    deployment = Deployment(config, observe=observe)
    try:
        traced = deployment.run_until_target()
        tracer = deployment.tracer
        traced_full = traced.as_row()
        traced_row = {"mode": "traced"}
        traced_row.update(traced_full)
        stripped = {key: value for key, value in traced_full.items()
                    if not key.startswith("health_")}
        summary = {
            "mode": "summary",
            "rows_match": stripped == baseline.as_row(),
            "trace_events": tracer.total,
            "trace_retained": len(tracer),
            "trace_dropped": tracer.dropped,
        }
        for kind in sorted(tracer.counts):
            summary[f"count_{kind.replace('.', '_')}"] = tracer.counts[kind]
        summary.update(analyze_events(tracer).as_row())
    finally:
        deployment.close()
    return [base_row, traced_row, summary]


#: like the live scenarios, the comparison runs its own fixed sizing, so its
#: results are always labeled (and baselined) as smoke scale.
scenario_obsv_overhead.fixed_scale = "smoke"


# ---------------------------------------------------------------------------
# substrate microbenchmarks
# ---------------------------------------------------------------------------
def scenario_kernel(scale: PerfScale) -> list[dict]:
    """Simulation-kernel microbenchmark: schedule, cancel, chain, drain."""
    sim = Simulator()
    fired = 0

    def tick() -> None:
        nonlocal fired
        fired += 1

    # Phase 1: bulk schedule with a third of the events cancelled before the
    # run — the pattern replica timers produce, and what heap compaction is
    # for.
    events = [sim.schedule(float(i % 97) + 1.0, tick)
              for i in range(scale.micro_ops)]
    for index, event in enumerate(events):
        if index % 3 == 0:
            event.cancel()
    pending_after_cancel = sim.pending_events
    sim.run_until_idle()

    # Phase 2: a sequential chain, each callback scheduling the next —
    # the pure per-event overhead of the loop.
    remaining = scale.micro_ops

    def chain() -> None:
        nonlocal remaining, fired
        fired += 1
        remaining -= 1
        if remaining > 0:
            sim.schedule(1.0, chain)

    sim.schedule(1.0, chain)
    sim.run_until_idle()

    return [{
        "scheduled": 2 * scale.micro_ops,
        "fired": fired,
        "pending_after_cancel": pending_after_cancel,
        "events": sim.events_processed,
        "sim_time_us": sim.now,
    }]


class _Sink:
    """Network node that counts deliveries."""

    __slots__ = ("name", "received")

    def __init__(self, name: str) -> None:
        self.name = name
        self.received = 0

    def receive(self, envelope: Envelope) -> None:
        self.received += 1


def scenario_network(scale: PerfScale) -> list[dict]:
    """Transport microbenchmark: point-to-point sends through the topology."""
    sim = Simulator()
    names = [f"perf-node-{i}" for i in range(4)]
    topology = build_topology(names, [], ("san-jose",), 120.0)
    network = Network(sim, topology, RngRegistry(7))
    sinks = [_Sink(name) for name in names]
    for sink in sinks:
        network.register(sink)
    for i in range(scale.micro_ops):
        source = names[i % 4]
        destination = names[(i + 1 + i % 3) % 4]
        network.send(source, destination, i)
    sim.run_until_idle()
    return [{
        "messages_sent": network.stats.messages_sent,
        "messages_delivered": network.stats.messages_delivered,
        "received": sum(sink.received for sink in sinks),
        "events": sim.events_processed,
        "sim_time_us": round(sim.now, 3),
    }]


def scenario_crypto(scale: PerfScale) -> list[dict]:
    """Serialisation/crypto microbenchmark: digest, sign, verify, re-verify.

    Mirrors the per-message life cycle inside a deployment: a request is
    digested when batched, re-digested when the batch is hashed, signed once,
    then verified by every receiving replica — so repeated digests and
    verifies of the *same* object dominate, which is exactly what the
    memoisation layer exists to make cheap.
    """
    keystore = KeyStore(seed=7)
    key = keystore.register("perf-signer")
    iterations = max(1, scale.micro_ops // 20)
    rolling = b"\x00" * 32
    signs = verifies = digests = 0
    for i in range(iterations):
        request = ClientRequest(
            request_id=RequestId(client="perf-client", number=i),
            operations=(Operation(action="write", key=f"user{i % 997}",
                                  value=f"value-{i}"),))
        batch = RequestBatch(requests=(request,) * 4)
        for _ in range(3):  # sign -> verify -> re-verify re-digest pattern
            rolling = combine_digests(rolling, batch.digest(),
                                      request.payload_digest())
            digests += 2
        signature = key.sign(request.signed_part())
        signs += 1
        for _ in range(2):
            keystore.verify(request.signed_part(), signature)
            verifies += 1
    rolling = combine_digests(rolling, digest({"iterations": iterations}))
    return [{
        "iterations": iterations,
        "digests": digests,
        "signs": signs,
        "verifies": verifies,
        "rolling_digest": rolling.hex(),
        "events": 0,
    }]


def scenario_wire_codec(scale: PerfScale) -> list[dict]:
    """Wire-framing microbenchmark: encode and decode live-tcp frames.

    Exercises the full socket path minus the socket: a representative mix of
    envelopes (client request in, Preprepare broadcast out, prepare votes,
    client response) is framed by :class:`~repro.net.wire.WireCodec` and
    decoded back, round-robin, the way ``TcpTransport`` does per message.
    Encoding measures the canonical-cache fast path (the broadcast case:
    one message framed for many destinations); decoding measures the strict
    parser plus instance construction.  The rolling digest over decoded
    frames pins determinism — and, because decode pins the wire slice as the
    canonical cache, it also proves decoded messages digest identically to
    what the sender signed.
    """
    from ..net.wire import WireCodec

    codec = WireCodec()
    iterations = max(1, scale.micro_ops // 40)
    envelopes = []
    for i in range(iterations):
        request = ClientRequest(
            request_id=RequestId(client=f"perf-client-{i % 16}", number=i),
            operations=(Operation(action="write", key=f"user{i % 997}",
                                  value=f"value-{i}"),))
        batch = RequestBatch(requests=(request,) * 4)
        envelopes.append(Envelope(
            source=f"client-{i % 16}", destination="replica-0",
            payload=request, sent_at=float(i), delivered_at=float(i) + 0.25))
        # one batch framed for three destinations: the broadcast fast path
        # where encode_frame reuses the instance's cached canonical bytes.
        for destination in range(3):
            envelopes.append(Envelope(
                source="replica-0", destination=f"replica-{destination + 1}",
                payload=batch, sent_at=float(i),
                delivered_at=float(i) + 0.5))
    frames = 0
    total_bytes = 0
    rolling = b"\x00" * 32
    for envelope in envelopes:
        frame = codec.encode_frame(envelope)
        frames += 1
        total_bytes += len(frame)
        decoded = codec.decode_frame(frame)
        rolling = combine_digests(rolling, digest(decoded))
    return [{
        "iterations": iterations,
        "frames": frames,
        "frame_bytes": total_bytes,
        "rolling_digest": rolling.hex(),
        "events": 0,
    }]


#: registry of every named scenario.
SCENARIOS: dict[str, object] = {
    "fig1": scenario_fig1,
    "recovery": scenario_recovery,
    "sharding_scaleout": scenario_sharding_scaleout,
    "openloop_overload": scenario_openloop_overload,
    "openloop_hotspot": scenario_openloop_hotspot,
    "openloop_diurnal": scenario_openloop_diurnal,
    "live_smoke": scenario_live_smoke,
    "live_fig1": scenario_live_fig1,
    "live_recovery": scenario_live_recovery,
    "obsv_overhead": scenario_obsv_overhead,
    "kernel": scenario_kernel,
    "network": scenario_network,
    "crypto": scenario_crypto,
    "wire_codec": scenario_wire_codec,
}

#: scenarios that run a fixed live sizing regardless of the requested scale;
#: the bigger suites skip them rather than re-running the same execution
#: under a misleading scale label.
_FIXED_SCALE_SCENARIOS = frozenset(
    name for name, scenario in SCENARIOS.items()
    if getattr(scenario, "fixed_scale", None) is not None)

#: suites map one name to (scenario, scale) pairs; ``--scenarios smoke`` runs
#: every scenario at smoke scale, which is what the CI perf-regression job
#: gates on.
SUITES: dict[str, tuple[tuple[str, str], ...]] = {
    "smoke": tuple((name, "smoke") for name in SCENARIOS),
    "medium": tuple((name, "medium") for name in SCENARIOS
                    if name not in _FIXED_SCALE_SCENARIOS),
    "large": tuple((name, "large") for name in SCENARIOS
                   if name not in _FIXED_SCALE_SCENARIOS),
}


def metrics_digest(rows: list[dict]) -> str:
    """Deterministic digest of a scenario's simulated rows.

    Wall-clock values never appear in rows, so this digest is a pure function
    of simulated behaviour: identical before and after a legitimate
    performance optimisation, different whenever simulated results changed.
    """
    return digest(rows).hex()


def total_events(rows: list[dict]) -> int:
    """Kernel events processed across a scenario's rows."""
    return sum(int(row.get("events", 0)) for row in rows)


def peak_throughput(rows: list[dict]) -> float:
    """Best simulated throughput across rows (0.0 for microbenchmarks)."""
    best = 0.0
    for row in rows:
        for column in ("aggregate_throughput_tx_s", "throughput_tx_s"):
            value = row.get(column)
            if isinstance(value, (int, float)):
                best = max(best, float(value))
                break
    return best
