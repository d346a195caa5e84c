"""Crash, restart and rejoin: the recovery subsystem end to end.

Three demonstrations:

1. ``figure_recovery`` — a timed FaultSchedule crashes a replica mid-run and
   restarts it; the table reports the throughput dip and the time until the
   deployment is back above 90% of its pre-crash rate.
2. A manual schedule with a partition: the cut-off replica falls behind,
   and the lag trigger makes it state-transfer back after the heal.
3. The restart-based rollback attack: a byzantine primary power-cycles its
   replica; a volatile counter resets (safety violation, caught by the
   safety monitor), a persistent one resumes (attack defeated).

Run with::

    PYTHONPATH=src python examples/crash_recovery.py
"""

from repro.common.config import (
    DeploymentConfig,
    ExperimentConfig,
    ProtocolConfig,
    WorkloadConfig,
)
from repro.common.types import ms, seconds
from repro.core.attacks import compare_restart_rollback_hardware
from repro.recovery import FaultSchedule, heal_at, partition_at
from repro.runtime import DeploymentSpec, SMALL_SCALE, figure_recovery, print_rows


def recovery_figure() -> None:
    result = figure_recovery(SMALL_SCALE, protocols=("minbft", "flexi-bft"),
                             crash_s=0.5, restart_s=0.9, end_s=1.8)
    print_rows("Recovery: crash at 0.5s, restart at 0.9s", result.rows)


def partition_lag_demo() -> None:
    config = DeploymentConfig(
        protocol="flexi-bft", f=1,
        workload=WorkloadConfig(num_clients=12, records=200),
        protocol_config=ProtocolConfig(batch_size=4, worker_threads=4,
                                       checkpoint_interval=20),
        experiment=ExperimentConfig(seed=9))
    schedule = FaultSchedule((
        partition_at((3,), ms(200), name="isolate-3"),
        heal_at(ms(600), name="isolate-3"),
    ))
    deployment = DeploymentSpec(config, fault_schedule=schedule).build()
    deployment.start_clients()
    deployment.sim.run(until=seconds(1.5))
    lagged = deployment.replica(3)
    print("\n== Partition + heal: lag-triggered state transfer ==")
    print(f"replica 3 recoveries: started={lagged.stats.recoveries_started} "
          f"completed={lagged.stats.recoveries_completed}")
    print(f"last executed: {[r.ledger.last_executed for r in deployment.replicas]}")
    print(f"consensus safe: {deployment.safety.consensus_safe}")


def restart_rollback_demo() -> None:
    print("\n== Restart-based rollback attack (Section 6 variant) ==")
    for level, report in compare_restart_rollback_hardware().items():
        outcome = ("SAFETY VIOLATED" if report.safety_violated
                   else "attack defeated")
        print(f"{level:>10} ({report.hardware}): counter reset="
              f"{report.rollback_succeeded}, "
              f"digests at seq 1={report.conflicting_digests_at_seq1} -> {outcome}")


if __name__ == "__main__":
    recovery_figure()
    partition_lag_demo()
    restart_rollback_demo()
