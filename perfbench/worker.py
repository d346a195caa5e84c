"""One benchmark process: a set-up probe, a measured run, a traced run or a
profiled run of one workload.  Started by ``run.py``; prints one JSON object
as its last line of output.

    python3 perfbench/worker.py <setup|measure|trace|profile> \
        --workload NAME --seed N --seconds S [--spans PATH]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

SRC = os.path.abspath("src")


class _FirstDelivery(Exception):
    """Raised by the set-up probe when a replica receives its first message."""


def _import_program():
    """Put ``./src`` first on the path and refuse any other ``repro``."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"no program source at {SRC}/repro; run from the "
                         "root of a checkout")
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"imported repro from {repro.__file__}, not {SRC}")


def _replicas(deployment) -> list:
    groups = getattr(deployment, "groups", None) or [deployment]
    return [replica for group in groups for replica in group.replicas]


def run_setup(workload, seed: int) -> dict:
    """Build, start, and stop at the first message a replica receives."""
    deployment, run = workload.build_first(seed)
    stamp = {}

    def first_receive(envelope):
        stamp.setdefault("unix_s", time.time())
        raise _FirstDelivery()

    for replica in _replicas(deployment):
        replica.receive = first_receive
    try:
        run()
    except _FirstDelivery:
        pass
    finally:
        deployment.close()
    if "unix_s" not in stamp:
        raise RuntimeError("no replica received a message")
    return {"first_delivery_unix_s": stamp["unix_s"]}


def run_window(workload, seed: int, seconds: float, on_start=lambda: None):
    reference = workload.warmup(seed)
    return workload.measure(seed, seconds, reference, on_start)


def summarize(window) -> dict:
    from workloads import median, percentile

    slices = window.slices
    if window.latencies_ms:
        kind, lat = "client submit to reply quorum", window.latencies_ms
    else:
        # A simulator has no wall latency per request: its latency sample
        # is the wall time of one figure point.
        kind = "wall time of one figure point"
        lat = [1e3 * p.wall_s for p in window.points]
    p90, p99 = percentile(lat, 0.90), percentile(lat, 0.99)
    return {
        "attempted": window.attempted,
        "committed": window.committed,
        "failed": window.failed,
        "rounds": window.rounds,
        "slices": len(slices),
        "req_per_s": median([p.committed / p.wall_s for p in slices
                             if p.wall_s > 0]),
        "cpu_us_per_req": median([1e6 * p.cpu_s / p.committed
                                  for p in slices if p.committed]),
        "latency": {
            "kind": kind,
            "samples": len(lat),
            "p50_ms": percentile(lat, 0.50), "p90_ms": p90, "p99_ms": p99,
            "beyond_p90": sum(1 for x in lat if x > p90),
            "beyond_p99": sum(1 for x in lat if x > p99),
        },
        "digest": window.digest,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "notes": window.notes,
    }


def run_trace(workload, seed: int, seconds: float, spans_path) -> dict:
    import layers

    tracer = layers.SpanTracer()
    layers.install(tracer)
    layers.calibrate(tracer)
    window_cpu = {}

    def on_start():
        tracer.reset()
        window_cpu["start"] = time.process_time()
        _start_queue_sampler(workload, window_cpu)

    window = run_window(workload, seed, seconds, on_start)
    cpu_s = time.process_time() - window_cpu["start"]
    tracer.uninstall()
    summary = summarize(window)
    summary["layers"] = layer_metrics(tracer, window, cpu_s,
                                      window_cpu.get("queue_depths", []),
                                      workload.scale.batch_size,
                                      live=not workload.simulated)
    summary["wrapper_cost_ns"] = {kind: 1e9 * value
                                  for kind, value in tracer.cost.items()}
    summary["raw_shares"] = {
        layer: 100.0 * tracer.self_s[i] / cpu_s
        for i, layer in enumerate(layers.LAYERS)}
    summary["spans_recorded"] = len(tracer.spans)
    summary["spans_dropped"] = tracer.spans_dropped
    if spans_path:
        tracer.write_spans(spans_path)
    return summary


def _start_queue_sampler(workload, state) -> None:
    """Sample the TCP transport's queued messages every millisecond."""
    if workload.simulated:
        return
    deployment = workload.deployment
    network = deployment.network
    depths = state.setdefault("queue_depths", [])
    loop = deployment.sim.loop

    def sample():
        if not loop.is_closed():
            depths.append(network.queued_messages)
            loop.call_later(0.001, sample)
    loop.call_soon(sample)


def layer_metrics(tracer, window, cpu_s: float, queue_depths,
                  batch_size: int, live: bool) -> dict:
    """Per-layer metrics of a traced window.

    Self times and shares have the calibrated wrapper cost taken out, so
    they approach the untraced program: shares are of the window's CPU
    minus that cost, and ``other`` is whatever no span covers.
    """
    from layers import (DECODE_FRAME, ENCODE_FRAME, KV_APPLY, LAYERS, OTHER,
                        SIGN_FUNCTIONS, VERIFY_FUNCTIONS, corrected_self)
    from workloads import percentile

    committed = max(1, window.committed)
    counters = window.counters
    self_times, wrapper_s = corrected_self(tracer, live)
    program_s = cpu_s - wrapper_s
    metrics = {}
    for index, layer in enumerate(LAYERS):
        self_s = self_times[index]
        metrics[f"{layer}.calls_per_req"] = tracer.calls[index] / committed
        metrics[f"{layer}.self_us_per_req"] = 1e6 * self_s / committed
        metrics[f"{layer}.share"] = 100.0 * self_s / program_s
    other_s = max(0.0, program_s - sum(self_times))
    metrics[f"{OTHER}.calls_per_req"] = 0.0
    metrics[f"{OTHER}.self_us_per_req"] = 1e6 * other_s / committed
    metrics[f"{OTHER}.share"] = 100.0 * other_s / program_s
    metrics["trace.wrapper_frac"] = wrapper_s / cpu_s

    def per_req(value):
        return value / committed

    def per_frame(name):
        total, frames = tracer.function_time.get(name, (0.0, 0.0))
        return 1e6 * total / frames if frames else 0.0

    lookups = (counters.get("verify_cache_hits", 0)
               + counters.get("verify_cache_misses", 0))
    offered = counters.get("offered", 0)
    recover = counters.get("recover_ms", [])
    metrics.update({
        "sim.events_per_req": per_req(tracer.sim_fired),
        "sim.fired_frac": (tracer.sim_fired / tracer.sim_scheduled
                           if tracer.sim_scheduled else 0.0),
        "realtime.lag_p50_us": percentile(tracer.lags_us, 0.50),
        "realtime.lag_p90_us": percentile(tracer.lags_us, 0.90),
        "net.network.msgs_per_req": per_req(counters.get("messages_sent", 0)),
        "net.wire.bytes_per_req": per_req(tracer.wire_bytes),
        "net.wire.encode_us_per_frame": per_frame(ENCODE_FRAME),
        "net.wire.decode_us_per_frame": per_frame(DECODE_FRAME),
        "net.tcp.queue_depth_p90": percentile(queue_depths, 0.90),
        "crypto.signs_per_req": per_req(tracer.calls_of(*SIGN_FUNCTIONS)),
        "crypto.verifies_per_req": per_req(
            tracer.calls_of(*VERIFY_FUNCTIONS)),
        "crypto.verify_hit_rate": (counters.get("verify_cache_hits", 0)
                                   / lookups if lookups else 0.0),
        "protocols.batch_fill": (
            tracer.batch_requests / tracer.batches / batch_size
            if tracer.batches else 0.0),
        "protocols.view_changes": float(counters.get("view_changes", 0)),
        "trusted.accesses_per_req": per_req(
            counters.get("trusted_accesses", 0)),
        "execution.ops_per_req": per_req(tracer.calls_of(KV_APPLY)),
        "workload.resends_per_req": per_req(counters.get("resends", 0)),
        "workload.shed_frac": (counters.get("shed", 0) / offered
                               if offered else 0.0),
        "workload.abandoned_frac": (counters.get("abandoned", 0) / offered
                                    if offered else 0.0),
        "sharding.hot_shard_share": (
            counters.get("hot_shard_committed", 0) / committed
            if "hot_shard_committed" in counters else 0.0),
        "recovery.wal_appends_per_req": per_req(
            counters.get("wal_appends", 0)),
        "recovery.transfer_batches": (
            counters.get("transfer_batches", 0) / max(1, window.rounds)),
        "recovery.recover_ms": (sum(recover) / len(recover)
                                if recover else 0.0),
    })
    return metrics


def run_profile(workload, seed: int, seconds: float) -> dict:
    import cProfile
    import pstats

    import layers

    profiler = cProfile.Profile(time.thread_time)
    window = run_window(workload, seed, seconds, profiler.enable)
    profiler.disable()
    stats = pstats.Stats(profiler).stats
    summary = summarize(window)
    summary["profile_shares"] = layers.profile_shares(stats)
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("setup", "measure", "trace",
                                         "profile"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)
    _import_program()
    from workloads import WORKLOADS, CheckFailed

    workload = WORKLOADS[args.workload]()
    try:
        if args.mode == "setup":
            result = run_setup(workload, args.seed)
        elif args.mode == "measure":
            result = summarize(run_window(workload, args.seed, args.seconds))
        elif args.mode == "trace":
            result = run_trace(workload, args.seed, args.seconds, args.spans)
        else:
            result = run_profile(workload, args.seed, args.seconds)
    except CheckFailed as exc:
        print(json.dumps({"check_failed": str(exc)}))
        return 3
    result["params"] = workload.params()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
