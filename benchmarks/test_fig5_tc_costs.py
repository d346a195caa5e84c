"""Figure 5: cost of grafting trusted counters / signature attestations onto Pbft."""

from conftest import BENCH_SCALE

from repro.runtime import figure5_trusted_counter_costs, print_rows


def test_fig5_trusted_counter_costs(benchmark):
    rows = benchmark.pedantic(
        lambda: figure5_trusted_counter_costs(BENCH_SCALE).rows, rounds=1, iterations=1)
    print_rows("Figure 5: Pbft + trusted counter / signature attestation", rows)
    by_bar = {row["bar"]: row["throughput_tx_s"] for row in rows}
    # Bar [a] is plain Pbft; every instrumented bar adds overhead (within a
    # small measurement tolerance), and the heaviest configuration [d]/[g]
    # (TC + signature attestation in all phases) loses a clearly measurable
    # fraction of bar [a]'s throughput.
    tolerance = 1.03
    assert by_bar["c"] <= tolerance * by_bar["a"]
    assert by_bar["d"] <= by_bar["a"]
    assert by_bar["d"] <= tolerance * by_bar["b"]
    assert by_bar["g"] <= tolerance * by_bar["a"]
    assert by_bar["d"] < 0.95 * by_bar["a"]
    # Extending trusted use to non-primary replicas does not change the
    # picture: the primary is already the bottleneck (bars e-g vs b-d).
    assert by_bar["g"] <= 1.05 * by_bar["d"]
