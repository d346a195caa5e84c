"""Figure 6(ii)/(iii): scalability as the number of replicas grows."""

from conftest import BENCH_SCALE, throughput_by_protocol

from repro.runtime import figure6_scalability, print_rows


def test_fig6_scalability(benchmark):
    rows = benchmark.pedantic(
        lambda: figure6_scalability(BENCH_SCALE).rows, rounds=1, iterations=1)
    print_rows("Figure 6(ii)/(iii): scalability", rows)

    smallest_f = min(BENCH_SCALE.f_values)
    largest_f = max(BENCH_SCALE.f_values)
    small = throughput_by_protocol(rows, f=smallest_f)
    large = throughput_by_protocol(rows, f=largest_f)

    # Growing the replica count costs the quadratic-communication 3f+1
    # protocols throughput (Section 9.5); the sequential 2f+1 protocols are
    # latency-bound rather than message-bound, so their drop is smaller —
    # exactly the asymmetry the paper reports.
    for protocol in ("pbft", "flexi-bft", "flexi-zz"):
        assert large[protocol] <= small[protocol] * 1.05
    # FlexiTrust still beats its trust-bft counterparts at the larger scale.
    assert large["flexi-bft"] > large["minbft"]
    assert large["flexi-zz"] > large["minzz"]
    # Latency grows (or at least does not shrink) with the replica count.
    lat_small = throughput_by_protocol(rows, key="mean_latency_ms", f=smallest_f)
    lat_large = throughput_by_protocol(rows, key="mean_latency_ms", f=largest_f)
    assert lat_large["pbft"] >= lat_small["pbft"] * 0.9
