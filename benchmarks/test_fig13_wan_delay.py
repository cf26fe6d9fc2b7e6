"""Figure 13: throughput over distance (RoCE 10 GbE + 48 ms RTT emulator).

Paper claims: "Interestingly, over distance, all three algorithms had
similar performance" — the outstanding-operation window, not the protocol,
limits throughput; throughput scales with the number of outstanding
operations; and the dynamic protocol adapts at no cost.
"""

from conftest import run_once
from repro.analysis import window_bound_bps
from repro.apps.workloads import MIB
from repro.bench.figures import fig13


def test_fig13(benchmark, quality):
    fd = run_once(benchmark, lambda: fig13(quality))
    print("\n" + fd.text("throughput_mbps"))

    direct = fd.metric("direct", lambda a: a.throughput_bps.mean)
    dynamic = fd.metric("dynamic", lambda a: a.throughput_bps.mean)
    indirect = fd.metric("indirect", lambda a: a.throughput_bps.mean)

    # all three protocols within a few percent of each other at every point
    for x, d, dyn, i in zip(fd.xs, direct, dynamic, indirect):
        trio = (d, dyn, i)
        spread = (max(trio) - min(trio)) / max(trio)
        assert spread < 0.08, f"protocols diverge at x={x}: {trio}"

    # throughput scales with the outstanding-operation window
    assert all(b > a for a, b in zip(direct, direct[1:]))
    assert direct[-1] > 8 * direct[0]

    # and never exceeds the analytic window bound (~ n x mean size / RTT)
    for x, d in zip(fd.xs, direct):
        bound = window_bound_bps(x, 1 * MIB, 48_000_000)
        assert d < bound * 1.15, f"x={x}: {d} vs bound {bound}"
