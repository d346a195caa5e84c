"""Benchmark entry point: one workload, one seed, one measured window.

    python3 perfbench/run.py --workload sim_fig1 --seed 1 --seconds 20 \
        --trace 0

Run from the root of a checkout (the program is imported from ``./src``).
With ``--trace 0`` it runs set-up probes and one untraced measured process
and prints every end-to-end metric; with ``--trace 1`` it runs the untraced
process, a traced process and a ``cProfile`` process, and prints every
per-layer metric plus the profile cross-check.  Every process is started
one after another and waited for.  The last line of output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The exit code is
0 only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORKLOAD_NAMES = ("sim_fig1", "tcp_steady", "sim_shard_recovery")
#: set-up probes per run; their median is ``setup_s``.
SETUP_PROBES = 7
#: the cProfile cross-check measures this share of the window.
PROFILE_SHARE = 0.25
#: where the traced run writes its spans (ignored by git).
OUT_DIR = ".perfbench-out"
#: a cross-check gap (percentage points) that flags a layer.
FLAG_POINTS = 5.0
#: seconds any one worker process may take before the run is abandoned.
WORKER_TIMEOUT_S = 150.0


class WorkerFailed(Exception):
    """A worker process exited non-zero."""

    def __init__(self, message: str, check_failed: bool) -> None:
        super().__init__(message)
        self.check_failed = check_failed


def run_worker(mode: str, args, deadline: float, extra=(),
               seconds=None) -> dict:
    seconds = args.seconds if seconds is None else seconds
    command = [sys.executable, WORKER, mode, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(seconds), *extra]
    timeout = max(1.0, min(WORKER_TIMEOUT_S, deadline - time.monotonic()))
    completed = subprocess.run(command, capture_output=True, text=True,
                               timeout=timeout)
    lines = completed.stdout.strip().splitlines()
    last = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else {}
    if completed.returncode != 0:
        if "check_failed" in last:
            raise WorkerFailed(f"{mode}: {last['check_failed']}", True)
        raise WorkerFailed(f"{mode} worker exited {completed.returncode}:\n"
                           f"{completed.stderr.strip()[-2000:]}", False)
    return last


def setup_probe(args, deadline: float) -> float:
    """Seconds from spawning a process to its first replica delivery."""
    spawned = time.time()
    result = run_worker("setup", args, deadline)
    return result["first_delivery_unix_s"] - spawned


def environment() -> dict:
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu_model": cpu_model}


def end_to_end(args, deadline: float, record: dict) -> tuple[dict, dict]:
    """End-to-end metric values, from set-up probes and one untraced run."""
    setups = [setup_probe(args, deadline) for _ in range(SETUP_PROBES)]
    run = run_worker("measure", args, deadline)
    record["setup_probes_s"] = setups
    record["latency"] = run["latency"]
    record["digest"] = run["digest"]
    record["rounds"] = run["rounds"]
    record["slices"] = run["slices"]
    record["notes"] = run["notes"]
    return {
        "setup_s": statistics.median(setups),
        "req_per_s": run["req_per_s"],
        "cpu_us_per_req": run["cpu_us_per_req"],
        "lat_p50_ms": run["latency"]["p50_ms"],
        "lat_p90_ms": run["latency"]["p90_ms"],
        "committed_frac": run["committed"] / run["attempted"],
        "peak_rss_mb": run["peak_rss_mb"],
    }, run


def per_layer(args, deadline: float, record: dict) -> tuple[dict, dict]:
    """Per-layer metric values, from an untraced, a traced and a profiled
    run; checks that tracing left the simulated digest unchanged."""
    import layers

    os.makedirs(OUT_DIR, exist_ok=True)
    spans = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}"
                                  ".jsonl")
    plain = run_worker("measure", args, deadline)
    traced = run_worker("trace", args, deadline, ("--spans", spans))
    profiled = run_worker("profile", args, deadline,
                          seconds=max(2.0, PROFILE_SHARE * args.seconds))
    if plain["digest"] is not None:
        if traced["digest"] != plain["digest"]:
            raise WorkerFailed(
                f"traced digest {traced['digest']} != untraced digest "
                f"{plain['digest']}: observing the run changed it", True)
        record["digest"] = plain["digest"]
    values = dict(traced["layers"])
    values["trace.overhead"] = (traced["cpu_us_per_req"]
                                / plain["cpu_us_per_req"])
    record["wrapper_cost_ns"] = traced["wrapper_cost_ns"]
    record["uncorrected_shares_pct"] = traced["raw_shares"]
    record["spans_file"] = spans
    record["spans_recorded"] = traced["spans_recorded"]
    record["spans_dropped"] = traced["spans_dropped"]
    record["share_sum_pct"] = sum(
        values[f"{layer}.share"] for layer in layers.ALL_LAYERS)
    record["cross_check"] = cross_check(values, profiled["profile_shares"])
    return values, traced


def cross_check(values: dict, profile: dict) -> list:
    """Wrapper shares beside cProfile shares; flag gaps of a few points."""
    import layers

    rows = []
    print(f"{'layer':<12} {'spans %':>8} {'cProfile %':>10}")
    for layer in layers.ALL_LAYERS:
        mine, theirs = values[f"{layer}.share"], profile[layer]
        flagged = abs(mine - theirs) > FLAG_POINTS
        rows.append({"layer": layer, "spans_pct": mine,
                     "cprofile_pct": theirs, "flagged": flagged})
        print(f"{layer:<12} {mine:8.1f} {theirs:10.1f}"
              + ("   <-- differs by more than "
                 f"{FLAG_POINTS:.0f} points" if flagged else ""))
    return rows


def declared_metrics(trace: int) -> dict:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    with open("BENCHMARK.json") as spec:
        declared = json.load(spec)
    return {metric["name"]: metric["unit"]
            for metric in declared["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (os.path.isfile(os.path.join("src", "repro", "__init__.py"))
            and os.path.isfile("BENCHMARK.json")):
        print("perfbench: needs BENCHMARK.json and the program source in "
              "./src/repro; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    deadline = time.monotonic() + 170.0
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "load_avg_start": os.getloadavg()}
    record.update(environment())
    try:
        if args.trace:
            values, run = per_layer(args, deadline, record)
        else:
            values, run = end_to_end(args, deadline, record)
    except WorkerFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        if not exc.check_failed:
            return 1
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 3
    except subprocess.TimeoutExpired as exc:
        print(f"perfbench: worker timed out: {exc}", file=sys.stderr)
        return 1
    units = declared_metrics(args.trace)
    if set(units) != set(values):
        print(f"perfbench: measured metrics {sorted(set(values) - set(units))}"
              f" are not declared, declared {sorted(set(units) - set(values))}"
              " were not measured", file=sys.stderr)
        return 1
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    record["params"] = run["params"]
    record["load_avg_end"] = os.getloadavg()
    for name, metric in metrics.items():
        print(f"{name:<34} {metric['value']:>14.4f} {metric['unit']}")
    print(json.dumps({"record": record}, default=list))
    print(json.dumps({"correct": True, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
