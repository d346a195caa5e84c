"""Figure 6(iv)/(v): impact of the batch size."""

from conftest import BENCH_SCALE

from repro.runtime import figure6_batching, print_rows


def test_fig6_batching(benchmark):
    rows = benchmark.pedantic(
        lambda: figure6_batching(BENCH_SCALE).rows, rounds=1, iterations=1)
    print_rows("Figure 6(iv)/(v): batching", rows)

    smallest = min(BENCH_SCALE.batch_values)
    largest = max(BENCH_SCALE.batch_values)
    for protocol in BENCH_SCALE.core_protocols:
        small_rows = [r for r in rows
                      if r["protocol"] == protocol and r["batch_size"] == smallest]
        large_rows = [r for r in rows
                      if r["protocol"] == protocol and r["batch_size"] == largest]
        # Larger batches improve throughput for every protocol (Section 9.6)
        # until communication / execution becomes the bottleneck.
        assert large_rows[0]["throughput_tx_s"] > small_rows[0]["throughput_tx_s"]
