"""Figure 6(vi)/(vii): wide-area replication across the paper's regions."""

from conftest import BENCH_SCALE

from repro.runtime import figure6_wan, print_rows


def test_fig6_wan(benchmark):
    rows = benchmark.pedantic(
        lambda: figure6_wan(BENCH_SCALE, protocols=("pbft", "minbft", "flexi-bft",
                                                    "flexi-zz")).rows,
        rounds=1, iterations=1)
    print_rows("Figure 6(vi)/(vii): regions", rows)

    for protocol in ("pbft", "minbft", "flexi-bft", "flexi-zz"):
        per_region = {r["regions"]: r for r in rows if r["protocol"] == protocol}
        # Latency grows for 3f+1 protocols once replicas leave the single
        # region (their 2f+1 quorums must include a remote replica); 2f+1
        # protocols with f=1 can still form an f+1 quorum locally.
        if protocol in ("pbft", "flexi-bft", "flexi-zz"):
            assert per_region[2]["mean_latency_ms"] > per_region[1]["mean_latency_ms"]
        # ...but quorum-based protocols do not keep degrading with every added
        # region: the last step (one more far region) changes latency by far
        # less than the first WAN step did.
        first_step = (per_region[2]["mean_latency_ms"]
                      - per_region[1]["mean_latency_ms"])
        last_step = abs(per_region[max(per_region)]["mean_latency_ms"]
                        - per_region[max(per_region) - 1]["mean_latency_ms"])
        assert last_step < max(first_step, 1.0) * 2.5
        # Every configuration keeps committing safely.
        assert all(r["consensus_safe"] for r in per_region.values())
