"""Sharding scale-out: aggregate throughput vs. number of consensus groups.

Extends the paper's per-machine story (Figure 9): because FlexiTrust removes
the sequential trusted counter from the critical path, consensus parallelises
— first across instances inside one group, and here across *groups*.  With a
constant offered load per shard, aggregate throughput must grow monotonically
with the shard count for both a sequential trust-bft protocol (MinBFT) and a
parallel FlexiTrust one (Flexi-BFT), while Flexi-BFT keeps touching trusted
hardware an order of magnitude less often.
"""

from conftest import BENCH_SCALE

from dataclasses import replace

import pytest

from repro.runtime import figure_sharding_scaleout, print_rows

#: The sharded sweep multiplies work by the shard count, so it runs at f = 1
#: with a lighter per-shard load than the single-group benchmarks.
SHARDING_SCALE = replace(BENCH_SCALE, name="bench-sharded", f=1, num_clients=60)

SHARD_COUNTS = (1, 2, 4)


def test_sharding_scaleout(benchmark):
    rows = benchmark.pedantic(
        lambda: figure_sharding_scaleout(SHARDING_SCALE,
                                         shard_counts=SHARD_COUNTS).rows,
        rounds=1, iterations=1)
    print_rows("Sharding scale-out: throughput vs. number of groups", rows)

    for protocol in ("minbft", "flexi-bft"):
        series = [r for r in rows if r["protocol"] == protocol]
        assert [r["shards"] for r in series] == list(SHARD_COUNTS)

        # Every point ran safely, reports per-shard metrics and a roll-up.
        for row in series:
            assert row["consensus_safe"]
            per_shard = [row[f"shard{s}_tx_s"] for s in range(row["shards"])]
            assert all(tx > 0 for tx in per_shard)
            assert row["aggregate_throughput_tx_s"] == pytest.approx(
                sum(per_shard), abs=0.5 * row["shards"])
            # The hash partition keeps the groups reasonably balanced even
            # under the zipfian key skew.
            assert 1.0 <= row["imbalance"] < 2.0

        # Scale-out: aggregate throughput grows monotonically with the
        # number of groups.
        aggregate = [r["aggregate_throughput_tx_s"] for r in series]
        assert aggregate == sorted(aggregate)
        # And meaningfully: 4 groups deliver well over twice one group.
        assert aggregate[-1] > 2.0 * aggregate[0]

    # FlexiTrust's whole point: same scale-out, far fewer trusted accesses.
    for shards in SHARD_COUNTS:
        minbft = next(r for r in rows
                      if r["protocol"] == "minbft" and r["shards"] == shards)
        flexi = next(r for r in rows
                     if r["protocol"] == "flexi-bft" and r["shards"] == shards)
        assert flexi["trusted_accesses"] < minbft["trusted_accesses"] / 2
