"""Quickstart: run a BFT protocol on the live asyncio backend.

The simulator answers "what would Flexi-BFT do"; the live backend answers
"what does it do on this machine, right now".  The replica and client code
is identical — only the kernel (a real asyncio event loop) and the transport
(asyncio queues with the configured injected latency) differ — so the rows
below hold *wall-clock* throughput and latency, including the real cost of
every HMAC-SHA256 signature and MAC.

Run with::

    PYTHONPATH=src python examples/live_deployment.py

or, equivalently, straight from the CLI::

    python -m repro live --protocol flexibft
"""

from repro.runtime import DeploymentSpec
from repro.runtime.experiments import (ExperimentScale, build_config,
                                       print_rows, run_point)

# Small sizing: live runs pay real network latency and real crypto, so a few
# hundred requests complete in well under a second.
SCALE = ExperimentScale(
    name="live-example", f=1, num_clients=12, batch_size=5,
    warmup_batches=2, measured_batches=8, worker_threads=4,
    max_sim_seconds=30.0)


def main() -> None:
    rows = []
    for protocol in ("minbft", "flexi-bft"):
        result = run_point(build_config(protocol, SCALE), backend="live")
        row = {"protocol": protocol, "backend": "live"}
        row.update(result.as_row())
        rows.append(row)
    print_rows("live asyncio backend (wall-clock results)", rows)

    # The same configuration on the simulator, for comparison: identical row
    # schema, so the two backends feed the same analysis paths.
    sim_rows = []
    for protocol in ("minbft", "flexi-bft"):
        spec = DeploymentSpec(build_config(protocol, SCALE))
        result = spec.build().run_until_target()
        row = {"protocol": protocol, "backend": "sim"}
        row.update(result.as_row())
        sim_rows.append(row)
    print_rows("discrete-event simulator (simulated results)", sim_rows)

    # The same spec shape selects the live backend by name — only the
    # ``backend`` field changes between a simulated and a wall-clock build.
    deployment = DeploymentSpec(build_config("pbft", SCALE),
                                backend="live").build()
    try:
        result = deployment.run_until_target(target_requests=40)
        print(f"\npbft live: {result.metrics.completed_requests} requests, "
              f"{result.metrics.throughput_tx_s:.0f} tx/s, "
              f"p50 {result.metrics.p50_latency_ms:.2f} ms, "
              f"consensus_safe={result.consensus_safe}")
    finally:
        deployment.close()


if __name__ == "__main__":
    main()
