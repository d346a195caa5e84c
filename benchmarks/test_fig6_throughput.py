"""Figure 6(i): throughput/latency of every protocol as offered load grows."""

from conftest import BENCH_SCALE, throughput_by_protocol

from repro.runtime import figure6_throughput_latency, print_rows


def test_fig6_throughput_vs_latency(benchmark):
    rows = benchmark.pedantic(
        lambda: figure6_throughput_latency(BENCH_SCALE).rows, rounds=1, iterations=1)
    print_rows("Figure 6(i): throughput vs latency", rows)
    peak = throughput_by_protocol(rows)

    # The paper's headline ordering (Section 9.4):
    #  - FlexiTrust protocols beat their trust-bft counterparts,
    assert peak["flexi-bft"] > peak["minbft"]
    assert peak["flexi-zz"] > peak["minzz"]
    #  - Pbft beats every 2f+1 trust-bft protocol (sequential consensus and
    #    per-message trusted accesses hurt more than the smaller quorums help),
    assert peak["pbft"] > peak["minbft"]
    assert peak["pbft"] > peak["pbft-ea"]
    assert peak["pbft"] > peak["minzz"]
    #  - among trust-bft protocols, the three-phase Pbft-EA is the slowest
    #    (MinBFT and MinZZ shed one / two phases respectively).
    assert peak["minbft"] > peak["pbft-ea"]
    assert peak["minzz"] > peak["pbft-ea"]
    #  - FlexiTrust protocols at least match Pbft, and Flexi-ZZ leads overall.
    assert peak["flexi-bft"] >= 0.9 * peak["pbft"]
    assert peak["flexi-zz"] >= peak["pbft"]
    assert peak["flexi-zz"] >= max(peak.values()) * 0.999
