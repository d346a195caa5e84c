"""Figure 9: throughput per machine (total throughput / number of replicas)."""

from conftest import BENCH_SCALE

from repro.runtime import figure9_throughput_per_machine, print_rows


def test_fig9_throughput_per_machine(benchmark):
    rows = benchmark.pedantic(
        lambda: figure9_throughput_per_machine(BENCH_SCALE).rows, rounds=1, iterations=1)
    print_rows("Figure 9: throughput per machine", rows)

    for f in BENCH_SCALE.f_values:
        flexi = next(r for r in rows if r["protocol"] == "flexi-zz" and r["f"] == f)
        minzz = next(r for r in rows if r["protocol"] == "minzz" and r["f"] == f)
        # Despite deploying 3f+1 instead of 2f+1 replicas, Flexi-ZZ delivers
        # more throughput per machine than MinZZ (Section 9.10).
        assert flexi["throughput_per_machine"] > minzz["throughput_per_machine"]

    # Per-machine throughput decreases as the deployment grows.
    for protocol in ("flexi-zz", "minzz"):
        series = [r["throughput_per_machine"] for r in rows
                  if r["protocol"] == protocol]
        assert series == sorted(series, reverse=True)
