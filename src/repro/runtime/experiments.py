"""Experiment definitions reproducing every figure of the evaluation.

Each ``figure*`` function is a thin *matrix definition*: it expands its
sweep into content-hashed :class:`~repro.matrix.cell.Cell` objects, runs
them through the :class:`~repro.matrix.runner.MatrixRunner`, and returns a
:class:`FigureResult`: its ``rows`` are flat row dictionaries (one per
plotted point / table cell), and it also carries the cells behind them and
knows how to collate itself into curve series.  The same cells can be
resumed from a results directory via ``repro matrix run`` or have their
hashes fed into ``repro perf --trend``.  The experiments accept an
:class:`ExperimentScale` so the same code runs both at laptop scale (the
default, used by the test-suite and benchmarks) and at paper scale (f up to
32, 97 replicas, thousands of clients) when more time is available.

Two figures stay off the matrix path by construction: Figure 5 injects an
instrumented replica factory (not expressible as a spec), and the recovery
figure adds recovery-summary columns to rows that the perf harness's
determinism digests pin byte-identical.  Both still return a
:class:`FigureResult` (with no cells attached).

Mapping to the paper (see DESIGN.md for the full index):

* :func:`figure5_trusted_counter_costs`  — Figure 5 (bars a–g)
* :func:`figure6_throughput_latency`     — Figure 6(i)
* :func:`figure6_scalability`            — Figure 6(ii)/(iii)
* :func:`figure6_batching`               — Figure 6(iv)/(v)
* :func:`figure6_wan`                    — Figure 6(vi)/(vii)
* :func:`figure7_failure`                — Figure 7
* :func:`figure8_hardware_sweep`         — Figure 8
* :func:`figure9_throughput_per_machine` — Figure 9

Beyond the paper's figures:

* :func:`figure_sharding_scaleout` — aggregate throughput as the number of
  consensus groups grows (scale-out).
* :func:`figure_recovery` — throughput dip depth and time-to-recover after a
  timed crash → restart of one replica, with state transfer from peers, for
  a sequential trust-bft protocol vs a FlexiTrust one at both trusted-
  hardware persistence levels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional

if TYPE_CHECKING:  # runtime imports stay lazy (repro.sharding builds on repro.runtime)
    from ..sharding.config import ShardedConfig
    from ..sharding.deployment import ShardedRunResult

from ..common.config import (
    DeploymentConfig,
    ExperimentConfig,
    FaultConfig,
    NetworkConfig,
    ProtocolConfig,
    ROLLBACK_PROTECTED_COUNTER,
    RecoveryConfig,
    SGX_ENCLAVE_COUNTER,
    TrustedHardwareSpec,
    WorkloadConfig,
)
from ..common.types import ms, seconds
from ..core.instrumented import FIGURE5_BARS, instrumented_pbft_factory
from ..net.topology import PAPER_REGIONS
from ..protocols.registry import get_protocol
from .deployment import Deployment, RunResult
from .spec import DeploymentSpec

if TYPE_CHECKING:
    from ..matrix.cell import Cell
    from ..matrix.collate import CurveSeries


@dataclass(frozen=True)
class ExperimentScale:
    """Size knobs shared by every experiment."""

    name: str
    f: int = 1
    f_values: tuple[int, ...] = (1, 2, 3)
    num_clients: int = 60
    client_values: tuple[int, ...] = (20, 60, 120)
    batch_size: int = 20
    batch_values: tuple[int, ...] = (5, 20, 50, 100)
    warmup_batches: int = 3
    measured_batches: int = 12
    regions_max: int = 6
    wan_f: int = 1
    tc_latencies_ms: tuple[float, ...] = (0.025, 1.0, 2.5, 10.0, 30.0)
    protocols: tuple[str, ...] = (
        "pbft-ea", "minbft", "minzz", "opbft-ea", "flexi-bft", "flexi-zz",
        "pbft", "zyzzyva", "oflexi-bft", "oflexi-zz")
    core_protocols: tuple[str, ...] = (
        "pbft", "pbft-ea", "minbft", "minzz", "flexi-bft", "flexi-zz")
    worker_threads: int = 8
    max_sim_seconds: float = 60.0


#: Laptop-scale defaults used by the benchmarks and tests.
SMALL_SCALE = ExperimentScale(name="small")

#: Closer to the paper's setup (f = 8 default, f up to 32, 97 replicas).
PAPER_SCALE = ExperimentScale(
    name="paper", f=8, f_values=(4, 8, 16, 24, 32),
    num_clients=4000, client_values=(1000, 4000, 16000, 40000, 80000),
    batch_size=100, batch_values=(10, 100, 500, 1000, 5000),
    warmup_batches=10, measured_batches=100, wan_f=20,
    tc_latencies_ms=(1.0, 1.5, 2.0, 2.5, 3.0, 10.0, 30.0, 100.0, 200.0),
    worker_threads=16, max_sim_seconds=300.0)


# ---------------------------------------------------------------------------
# structured figure results
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class FigureResult:
    """What one figure experiment produced: rows, cells, curves.

    ``rows`` are the flat row dictionaries, one per plotted point or table
    cell.  ``cells`` are the content-hashed experiment points behind the
    rows (empty for the two
    figures that cannot run through the matrix engine), and ``curves()``
    collates the rows into figure-6-style per-protocol series along the
    figure's natural axis.
    """

    rows: tuple[dict, ...]
    cells: tuple["Cell", ...] = ()
    #: the row column curves are plotted along (``None``: no natural axis).
    axis: Optional[str] = None

    def curves(self, axis: Optional[str] = None) -> list["CurveSeries"]:
        """Collate the rows into per-(protocol, backend) curve series."""
        from ..matrix.collate import collate_curves

        axis = axis or self.axis
        if axis is None:
            return []
        return collate_curves(self.rows, axis=axis)


def _figure(cells: list["Cell"], axis: Optional[str] = None) -> FigureResult:
    """Run cells through the matrix runner (no persistence) into a result."""
    # Imported lazily: repro.matrix builds on repro.runtime.
    from ..matrix.runner import MatrixRunner

    outcome = MatrixRunner().run(cells)
    return FigureResult(rows=tuple(outcome.rows), cells=tuple(cells),
                        axis=axis)


# ---------------------------------------------------------------------------
# shared runner
# ---------------------------------------------------------------------------
def build_config(protocol: str, scale: ExperimentScale, *,
                 f: Optional[int] = None,
                 num_clients: Optional[int] = None,
                 batch_size: Optional[int] = None,
                 regions: tuple[str, ...] = ("san-jose",),
                 hardware: TrustedHardwareSpec = SGX_ENCLAVE_COUNTER,
                 crashed: tuple[int, ...] = (),
                 worker_threads: Optional[int] = None,
                 seed: int = 1) -> DeploymentConfig:
    """Build the deployment configuration for one experiment point."""
    return DeploymentConfig(
        protocol=protocol,
        f=scale.f if f is None else f,
        trusted_hardware=hardware,
        network=NetworkConfig(region_names=regions),
        workload=WorkloadConfig(
            num_clients=scale.num_clients if num_clients is None else num_clients,
            records=2000),
        protocol_config=ProtocolConfig(
            batch_size=scale.batch_size if batch_size is None else batch_size,
            worker_threads=scale.worker_threads if worker_threads is None else worker_threads,
            checkpoint_interval=200),
        faults=FaultConfig(crashed=crashed),
        experiment=ExperimentConfig(
            warmup_batches=scale.warmup_batches,
            measured_batches=scale.measured_batches,
            max_sim_time_us=scale.max_sim_seconds * 1_000_000.0,
            seed=seed),
    )


def run_point(config: DeploymentConfig, replica_factory=None,
              backend=None) -> RunResult:
    """Build and run one deployment (on any backend), returning its result."""
    deployment = Deployment(config, replica_factory=replica_factory,
                            backend=backend)
    try:
        return deployment.run_until_target()
    finally:
        deployment.close()


def _row(protocol: str, result: RunResult, **extra) -> dict:
    row = {"protocol": protocol}
    row.update(extra)
    row.update(result.as_row())
    return row


def print_rows(title: str, rows: list[dict]) -> None:
    """Print experiment rows as an aligned text table."""
    print(f"\n== {title} ==")
    if not rows:
        print("(no rows)")
        return
    # Union of keys in first-seen order: sharded rows gain per-shard columns
    # as the shard count grows, and every column should be shown.
    keys = list(dict.fromkeys(k for row in rows for k in row))
    widths = {k: max(len(str(k)), max(len(str(r.get(k, ""))) for r in rows))
              for k in keys}
    print("  ".join(str(k).ljust(widths[k]) for k in keys))
    for row in rows:
        print("  ".join(str(row.get(k, "")).ljust(widths[k]) for k in keys))


# ---------------------------------------------------------------------------
# Figure 5: trusted counter / signature attestation costs on Pbft
# ---------------------------------------------------------------------------
def figure5_trusted_counter_costs(scale: ExperimentScale = SMALL_SCALE,
                                  hardware: TrustedHardwareSpec = SGX_ENCLAVE_COUNTER) -> FigureResult:
    """Peak Pbft throughput for each of the seven bars (single worker).

    Stays off the matrix path: each bar injects an instrumented replica
    factory, which a declarative spec cannot express, so no cells attach.
    """
    rows = []
    for usage in FIGURE5_BARS:
        config = build_config("pbft", scale, worker_threads=1, hardware=hardware)
        result = run_point(config, replica_factory=instrumented_pbft_factory(usage))
        rows.append(_row("pbft", result, bar=usage.label,
                         configuration=usage.description))
    return FigureResult(rows=tuple(rows))


# ---------------------------------------------------------------------------
# Figure 6(i): throughput vs latency as the client population grows
# ---------------------------------------------------------------------------
def figure6_throughput_latency(scale: ExperimentScale = SMALL_SCALE,
                               protocols: Optional[Iterable[str]] = None) -> FigureResult:
    """Throughput/latency pairs per protocol as offered load increases."""
    from ..matrix.spec import MatrixSpec

    matrix = MatrixSpec(name="figure6_throughput",
                        protocols=tuple(protocols or scale.protocols),
                        client_counts=scale.client_values, scale=scale)
    return _figure(matrix.cells(), axis="clients")


# ---------------------------------------------------------------------------
# Figure 6(ii)/(iii): scalability in the number of replicas
# ---------------------------------------------------------------------------
def figure6_scalability(scale: ExperimentScale = SMALL_SCALE,
                        protocols: Optional[Iterable[str]] = None) -> FigureResult:
    """Throughput and latency as ``f`` (and hence n) grows."""
    from ..matrix.cell import Cell

    cells = []
    for protocol in (protocols or scale.core_protocols):
        spec = get_protocol(protocol)
        for f in scale.f_values:
            config = build_config(protocol, scale, f=f)
            cells.append(Cell(spec=DeploymentSpec(config),
                              axes={"f": f, "n": spec.replicas(f)}))
    return _figure(cells, axis="f")


# ---------------------------------------------------------------------------
# Figure 6(iv)/(v): batching
# ---------------------------------------------------------------------------
def figure6_batching(scale: ExperimentScale = SMALL_SCALE,
                     protocols: Optional[Iterable[str]] = None) -> FigureResult:
    """Throughput and latency as the batch size grows.

    The client count is coupled to the batch size (enough offered load to
    fill the larger batches), so the cells are built directly rather than
    as an independent-axis product.
    """
    from ..matrix.cell import Cell

    cells = []
    for protocol in (protocols or scale.core_protocols):
        for batch_size in scale.batch_values:
            clients = max(scale.num_clients, 6 * batch_size)
            config = build_config(protocol, scale, batch_size=batch_size,
                                  num_clients=clients)
            cells.append(Cell(spec=DeploymentSpec(config),
                              axes={"batch_size": batch_size}))
    return _figure(cells, axis="batch_size")


# ---------------------------------------------------------------------------
# Figure 6(vi)/(vii): wide-area replication
# ---------------------------------------------------------------------------
def figure6_wan(scale: ExperimentScale = SMALL_SCALE,
                protocols: Optional[Iterable[str]] = None) -> FigureResult:
    """Throughput and latency as replicas spread over 1..6 regions."""
    from ..matrix.cell import Cell

    cells = []
    for protocol in (protocols or scale.core_protocols):
        for region_count in range(1, scale.regions_max + 1):
            regions = PAPER_REGIONS[:region_count]
            config = build_config(protocol, scale, f=scale.wan_f, regions=regions)
            cells.append(Cell(spec=DeploymentSpec(config),
                              axes={"regions": region_count}))
    return _figure(cells, axis="regions")


# ---------------------------------------------------------------------------
# Figure 7: impact of a single non-primary replica failure
# ---------------------------------------------------------------------------
def figure7_failure(scale: ExperimentScale = SMALL_SCALE,
                    protocols: Optional[Iterable[str]] = None,
                    f_values: Optional[tuple[int, ...]] = None) -> FigureResult:
    """Throughput/latency with one crashed non-primary replica."""
    from ..matrix.cell import Cell

    cells = []
    protocols = tuple(protocols or ("flexi-zz", "minzz", "zyzzyva", "flexi-bft", "minbft"))
    for protocol in protocols:
        spec = get_protocol(protocol)
        for f in (f_values or scale.f_values):
            n = spec.replicas(f)
            config = build_config(protocol, scale, f=f, crashed=(n - 1,))
            cells.append(Cell(spec=DeploymentSpec(config),
                              axes={"f": f, "n": n, "crashed": 1}))
    return _figure(cells, axis="f")


# ---------------------------------------------------------------------------
# Figure 8: sweep of the trusted-hardware access latency
# ---------------------------------------------------------------------------
def figure8_hardware_sweep(scale: ExperimentScale = SMALL_SCALE,
                           protocols: Optional[Iterable[str]] = None) -> FigureResult:
    """Peak throughput versus trusted-counter access cost."""
    from ..matrix.cell import Cell

    cells = []
    protocols = tuple(protocols or ("flexi-zz", "minzz", "minbft"))
    for access_ms in scale.tc_latencies_ms:
        hardware = SGX_ENCLAVE_COUNTER.with_latency(ms(access_ms))
        for protocol in protocols:
            config = build_config(protocol, scale, hardware=hardware)
            cells.append(Cell(spec=DeploymentSpec(config),
                              axes={"access_cost_ms": access_ms}))
    return _figure(cells, axis="access_cost_ms")


# ---------------------------------------------------------------------------
# Sharding scale-out: aggregate throughput vs. number of consensus groups
# ---------------------------------------------------------------------------
def build_sharded_config(protocol: str, scale: ExperimentScale, *,
                         num_shards: int,
                         clients_per_shard: Optional[int] = None,
                         hardware: TrustedHardwareSpec = SGX_ENCLAVE_COUNTER,
                         seed: int = 1) -> "ShardedConfig":
    """Sharded configuration with offered load proportional to the shard count."""
    # Imported lazily: repro.sharding builds on repro.runtime, so a module-
    # level import here would be circular.
    from ..sharding.config import ShardedConfig

    clients_per_shard = (scale.num_clients if clients_per_shard is None
                         else clients_per_shard)
    total_clients = clients_per_shard * num_shards
    base = build_config(protocol, scale, num_clients=total_clients,
                        hardware=hardware, seed=seed)
    # num_clients is left to default from base.workload.num_clients — one
    # source of truth for the offered load.
    return ShardedConfig(base=base, num_shards=num_shards)


def run_sharded_point(config: "ShardedConfig",
                      backend=None) -> "ShardedRunResult":
    """Build and run one sharded deployment, returning its result."""
    from ..sharding.deployment import ShardedDeployment

    deployment = ShardedDeployment(config, backend=backend)
    try:
        return deployment.run_until_target()
    finally:
        deployment.close()


def figure_sharding_scaleout(scale: ExperimentScale = SMALL_SCALE,
                             protocols: Optional[Iterable[str]] = None,
                             shard_counts: tuple[int, ...] = (1, 2, 4)) -> FigureResult:
    """Aggregate throughput as the number of consensus groups grows.

    Keeps the offered load per shard constant (``scale.num_clients`` clients
    per group), so a protocol whose throughput per group is load-bound shows
    near-linear scale-out.  Compares a sequential trust-bft protocol
    (MinBFT) against a parallel FlexiTrust one (Flexi-BFT), extending the
    per-machine story of Figure 9 to multiple groups per deployment.
    """
    from ..matrix.cell import Cell

    cells = []
    for protocol in (protocols or ("minbft", "flexi-bft")):
        for num_shards in shard_counts:
            base = build_config(protocol, scale,
                                num_clients=scale.num_clients * num_shards)
            cells.append(Cell(
                spec=DeploymentSpec(base, num_shards=num_shards)))
    return _figure(cells, axis="shards")  # 'shards' comes from as_row()


# ---------------------------------------------------------------------------
# Recovery: crash → restart → state transfer → rejoin
# ---------------------------------------------------------------------------
def figure_recovery(scale: ExperimentScale = SMALL_SCALE,
                    protocols: Optional[Iterable[str]] = None,
                    hardware_levels: Optional[Iterable[TrustedHardwareSpec]] = None,
                    crash_s: float = 0.8, restart_s: float = 1.4,
                    end_s: float = 2.6,
                    fsync_latency_us: float = 20.0) -> FigureResult:
    """Throughput dip and time-to-recover after a crash/restart of a replica.

    A :class:`~repro.recovery.schedule.FaultSchedule` crashes the highest
    non-primary replica at ``crash_s`` and restarts it at ``restart_s``; the
    restarted replica replays its durable store, state-transfers the missing
    suffix from its peers, and rejoins consensus.  Rows report the pre-crash
    throughput, the deepest windowed dip, the post-recovery throughput and
    the time from the restart until throughput is back above 90% of the
    pre-crash rate — for a sequential trust-bft protocol versus a parallel
    FlexiTrust one, at both trusted-hardware persistence levels (same access
    latency, so only the persistence bit differs).  Every point is one fresh
    simulated run of the whole timeline.
    """
    from ..recovery import FaultSchedule, crash_at, recovery_summary, restart_at

    rows = []
    protocols = tuple(protocols or ("minbft", "flexi-bft"))
    hardware_levels = tuple(hardware_levels
                            or (SGX_ENCLAVE_COUNTER, ROLLBACK_PROTECTED_COUNTER))
    crash_us, restart_us, end_us = seconds(crash_s), seconds(restart_s), seconds(end_s)
    for protocol in protocols:
        spec = get_protocol(protocol)
        n = spec.replicas(scale.f)
        crashed = n - 1
        for hardware in hardware_levels:
            config = build_config(protocol, scale, hardware=hardware)
            config = config.with_updates(recovery=RecoveryConfig(
                fsync_latency_us=fsync_latency_us,
                replay_latency_us=fsync_latency_us / 4.0))
            schedule = FaultSchedule((crash_at(crashed, crash_us),
                                      restart_at(crashed, restart_us)))
            deployment = Deployment(config, fault_schedule=schedule)
            deployment.start_clients()
            deployment.sim.run(until=end_us)
            result = deployment.collect_result(warmup_fraction=0.0)
            summary = recovery_summary(
                deployment.metrics.completions, crash_us, restart_us, end_us,
                warmup_us=0.25 * crash_us)
            replica = deployment.replica(crashed)
            row = _row(protocol, result, hardware=hardware.name,
                       persistent=hardware.persistent, crashed_replica=crashed)
            row.update(summary.as_row())
            row["recovered"] = replica.stats.recoveries_completed > 0
            row["transfer_batches"] = replica.stats.log_fill_batches_applied
            rows.append(row)
    # No cells: these rows carry recovery-summary columns a cell row does
    # not, and the perf harness's recovery baselines pin them byte-identical
    # — they must not gain or lose columns.
    return FigureResult(rows=tuple(rows))


# ---------------------------------------------------------------------------
# Figure 9: throughput per machine
# ---------------------------------------------------------------------------
def figure9_throughput_per_machine(scale: ExperimentScale = SMALL_SCALE,
                                   protocols: Optional[Iterable[str]] = None) -> FigureResult:
    """Total throughput divided by the number of replicas, per ``f``."""
    from ..matrix.cell import Cell

    cells = []
    protocols = tuple(protocols or ("flexi-zz", "minzz"))
    for protocol in protocols:
        spec = get_protocol(protocol)
        for f in scale.f_values:
            config = build_config(protocol, scale, f=f)
            cells.append(Cell(spec=DeploymentSpec(config),
                              axes={"f": f, "n": spec.replicas(f)}))
    result = _figure(cells, axis="f")
    for row in result.rows:
        row["throughput_per_machine"] = round(
            row["throughput_tx_s"] / row["n"], 1)
    return result


ALL_EXPERIMENTS = {
    "figure5": figure5_trusted_counter_costs,
    "figure6_throughput": figure6_throughput_latency,
    "figure6_scalability": figure6_scalability,
    "figure6_batching": figure6_batching,
    "figure6_wan": figure6_wan,
    "figure7": figure7_failure,
    "figure8": figure8_hardware_sweep,
    "figure9": figure9_throughput_per_machine,
    "figure_sharding_scaleout": figure_sharding_scaleout,
    "figure_recovery": figure_recovery,
}
