"""Figure 7: impact of a single non-primary replica failure."""

from conftest import BENCH_SCALE

from repro.common.types import seconds
from repro.protocols.registry import get_protocol
from repro.recovery import FaultSchedule, crash_at, recovery_summary, restart_at
from repro.runtime import (
    DeploymentSpec,
    ExperimentScale,
    build_config,
    figure7_failure,
    print_rows,
    run_point,
)


def test_fig7_single_replica_failure(benchmark):
    rows = benchmark.pedantic(
        lambda: figure7_failure(BENCH_SCALE, protocols=("flexi-zz", "minzz", "zyzzyva"),
                                f_values=(1,)).rows,
        rounds=1, iterations=1)
    print_rows("Figure 7: one non-primary replica crashed", rows)
    by_protocol = {row["protocol"]: row for row in rows}

    # Flexi-ZZ needs only n - f matching replies, so it stays on the fast path
    # and keeps both its throughput and latency; MinZZ and Zyzzyva wait for
    # replies from *all* replicas and fall back to their slow path.
    assert by_protocol["flexi-zz"]["mean_latency_ms"] < by_protocol["minzz"]["mean_latency_ms"]
    assert by_protocol["flexi-zz"]["mean_latency_ms"] < by_protocol["zyzzyva"]["mean_latency_ms"]
    assert by_protocol["flexi-zz"]["throughput_tx_s"] > by_protocol["minzz"]["throughput_tx_s"]
    assert by_protocol["flexi-zz"]["throughput_tx_s"] > by_protocol["zyzzyva"]["throughput_tx_s"]


def test_fig7_flexi_zz_failure_free_vs_failure(benchmark):
    def run_pair():
        healthy = run_point(build_config("flexi-zz", BENCH_SCALE))
        n = 3 * BENCH_SCALE.f + 1
        crashed = run_point(build_config("flexi-zz", BENCH_SCALE, crashed=(n - 1,)))
        return healthy, crashed

    healthy, crashed = benchmark.pedantic(run_pair, rounds=1, iterations=1)
    print(f"\nFlexi-ZZ throughput: failure-free {healthy.metrics.throughput_tx_s:.0f} tx/s, "
          f"one crash {crashed.metrics.throughput_tx_s:.0f} tx/s")
    # The paper: Flexi-ZZ's performance does not degrade under one failure.
    assert crashed.metrics.throughput_tx_s > 0.6 * healthy.metrics.throughput_tx_s


def test_fig7_crash_restart_recovers_within_10pct(benchmark):
    """Figure 7 extended with a crash → restart point.

    MinZZ clients wait for replies from *all* replicas, so crashing one
    collapses throughput onto the slow path; once the replica restarts,
    state-transfers from its peers and rejoins, throughput must climb back
    to within 10% of the pre-crash rate.
    """
    scale = ExperimentScale(
        name="fig7-restart", f=1, num_clients=24, batch_size=10,
        warmup_batches=2, measured_batches=8, worker_threads=4,
        max_sim_seconds=3.0)
    crash_us, restart_us, end_us = seconds(0.4), seconds(0.8), seconds(1.8)

    def run():
        config = build_config("minzz", scale)
        n = get_protocol("minzz").replicas(scale.f)
        schedule = FaultSchedule((crash_at(n - 1, crash_us),
                                  restart_at(n - 1, restart_us)))
        deployment = DeploymentSpec(config, fault_schedule=schedule).build()
        deployment.start_clients()
        deployment.sim.run(until=end_us)
        return deployment

    deployment = benchmark.pedantic(run, rounds=1, iterations=1)
    summary = recovery_summary(deployment.metrics.completions, crash_us,
                               restart_us, end_us, warmup_us=seconds(0.1))
    rejoined = deployment.replica(deployment.n - 1)
    print(f"\nMinZZ crash/restart: pre {summary.pre_crash_tx_s:.0f} tx/s, "
          f"dip {summary.dip_tx_s:.0f} tx/s, post {summary.post_recovery_tx_s:.0f} tx/s, "
          f"time-to-recover {summary.time_to_recover_s}s")
    assert rejoined.stats.recoveries_completed >= 1
    assert deployment.safety.consensus_safe
    # The crash actually hurt (all-reply fast path lost) ...
    assert summary.dip_fraction > 0.5
    # ... and the rejoin restored throughput to within 10% of pre-crash.
    assert summary.recovered
    assert summary.post_recovery_tx_s >= 0.9 * summary.pre_crash_tx_s
