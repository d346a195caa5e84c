"""Figure 8: peak throughput versus trusted-hardware access latency."""

from conftest import BENCH_SCALE, throughput_by_protocol

from repro.runtime import figure8_hardware_sweep, print_rows


def test_fig8_hardware_latency_sweep(benchmark):
    rows = benchmark.pedantic(
        lambda: figure8_hardware_sweep(BENCH_SCALE).rows, rounds=1, iterations=1)
    print_rows("Figure 8: trusted counter access cost sweep", rows)

    fastest = min(BENCH_SCALE.tc_latencies_ms)
    slowest = max(BENCH_SCALE.tc_latencies_ms)
    fast = throughput_by_protocol(rows, access_cost_ms=fastest)
    slow = throughput_by_protocol(rows, access_cost_ms=slowest)

    # With fast (in-enclave) counters Flexi-ZZ wins comfortably.
    assert fast["flexi-zz"] > fast["minzz"]
    assert fast["flexi-zz"] > fast["minbft"]
    # Slow hardware drags every protocol down...
    for protocol in ("flexi-zz", "minzz", "minbft"):
        assert slow[protocol] < fast[protocol]
    # ...and the protocols converge: a single trusted access per batch is the
    # bottleneck for all of them (Section 9.9's "degrade to similar values").
    values = sorted(slow.values())
    assert values[-1] <= values[0] * 3.0
