"""Extensions from the paper's future-work section (§VI).

"We plan to develop more test applications in order to further determine
the performance profile of the dynamic algorithm, such as dynamically
changing send and receive message sizes and burstiness during a
connection.  We also plan on performing latency studies.  ...  We plan to
use our network emulator to set a jitter function in order to vary the
delay to see the effect of jitter on our implementation."

All three studies are implemented here.
"""

import pytest

from conftest import run_once
from repro.apps import BlastConfig, FixedSizes, PhasedSizes, run_blast
from repro.apps.workloads import KIB, MIB
from repro.bench.profiles import ROCE_10G_WAN
from repro.core import ProtocolMode
from repro.exs import BlockingSocket, ExsSocketOptions
from repro.simnet import uniform_jitter
from repro.testbed import Testbed
from repro.config import ScenarioConfig


def test_ext_burstiness_adaptation(benchmark, quality):
    """Changing message sizes mid-connection: the dynamic protocol re-adapts
    at phase boundaries.  Whether a given run recovers the zero-copy path
    after the burst is timing-dependent (the same stickiness behind the
    paper's Fig. 11b instability), so this is checked across seeds."""
    n = max(30, quality.messages // 8)
    total = 10 * n

    def workload():
        return PhasedSizes([
            (FixedSizes(1 * MIB), n),
            (FixedSizes(32 * KIB), 8 * n),
            (FixedSizes(1 * MIB), n),
        ])

    def run(mode, seed):
        cfg = BlastConfig(
            total_messages=total,
            sizes=workload(),
            outstanding_sends=2,
            outstanding_recvs=4,
            recv_buffer_bytes=1 * MIB,
            mode=mode,
        )
        return run_blast(cfg, ScenarioConfig(seed=seed), max_events=100_000_000)

    def run_all():
        dyn = [run(ProtocolMode.DYNAMIC, s) for s in (1, 2, 5)]
        ind = run(ProtocolMode.INDIRECT_ONLY, 1)
        return dyn, ind

    dyn_runs, indirect = run_once(benchmark, run_all)
    for r in dyn_runs:
        print(f"\nphased workload seed: {r.throughput_gbps:.2f} Gb/s, "
              f"{r.mode_switches} switches, ratio {r.direct_ratio:.2f}")
    print(f"indirect-only baseline: {indirect.throughput_gbps:.2f} Gb/s")

    # at least one run demonstrably fell back AND recovered (>= 2 switches)
    assert any(r.mode_switches >= 2 for r in dyn_runs), (
        [r.mode_switches for r in dyn_runs]
    )
    # adapting never loses to being stuck in buffered mode
    for r in dyn_runs:
        assert r.throughput_bps > indirect.throughput_bps * 0.95
    # and everything arrived in every run
    assert len({r.total_bytes for r in dyn_runs}) == 1


def test_ext_latency_study(benchmark, quality):
    """Latency study (paper future work), reproducing the paper's core
    latency argument (§I): on a LAN with the receive posted well in
    advance, the zero-copy path delivers sooner (no memcpy on the critical
    path); over a 48 ms RTT, waiting for the ADVERT costs a full extra
    one-way trip, so "it is actually faster for the receiver to copy from
    a static intermediate buffer than to wait for the advertisements".
    """

    def measure(profile, mode, size, settle_ns, recv_delay_ns=0):
        tb = Testbed(ScenarioConfig(profile=profile, seed=3))
        options = ExsSocketOptions(mode=mode, ring_capacity=64 * MIB)
        recv_posted = tb.sim.event()
        out = {}

        def server():
            conn = yield from BlockingSocket.accept_one(tb.server, 5000, options=options)
            if recv_delay_ns:
                yield tb.sim.timeout(recv_delay_ns)  # receive posted on demand
            recv_posted.succeed()
            data = yield from conn.recv_bytes(size, waitall=True)
            out["done"] = tb.now
            assert len(data) == size

        def client():
            conn = yield from BlockingSocket.connect(tb.client, 5000, options=options)
            if settle_ns:
                yield recv_posted
                yield tb.sim.timeout(settle_ns)  # let the ADVERT land
            out["start"] = tb.now
            yield from conn.send_bytes(b"x" * size)

        tb.sim.process(server())
        tb.sim.process(client())
        tb.run(max_events=20_000_000)
        return out["done"] - out["start"]

    def run():
        from repro.bench.profiles import FDR_INFINIBAND

        lan = []
        for size in (64 * KIB, 1 * MIB):
            lan.append((
                size,
                measure(FDR_INFINIBAND, ProtocolMode.DIRECT_ONLY, size, 50_000),
                measure(FDR_INFINIBAND, ProtocolMode.INDIRECT_ONLY, size, 50_000),
            ))
        wan = []
        for size in (64 * KIB, 1 * MIB):
            # the receiving application only posts its buffer 30 ms into the
            # connection (it was busy); the eager/buffered path has the data
            # already on-node by then, while the rendezvous/zero-copy path
            # must wait for the ADVERT to cross 24 ms of fibre
            wan.append((
                size,
                measure(ROCE_10G_WAN, ProtocolMode.DIRECT_ONLY, size, 0, 30_000_000),
                measure(ROCE_10G_WAN, ProtocolMode.INDIRECT_ONLY, size, 0, 30_000_000),
            ))
        return lan, wan

    lan, wan = run_once(benchmark, run)
    print("\nsend-to-delivery latency:")
    print("  FDR LAN, receive long posted (us):")
    for size, d, i in lan:
        print(f"    {size:>9d}B  direct {d / 1e3:8.1f}   indirect {i / 1e3:8.1f}")
    print("  10G + 48 ms RTT, receive posted on demand (ms):")
    for size, d, i in wan:
        print(f"    {size:>9d}B  direct {d / 1e6:8.2f}   indirect {i / 1e6:8.2f}")

    # LAN + pre-posted receive: zero copy wins, gap grows with size
    for size, d, i in lan:
        assert d < i, f"LAN {size}B: direct {d} vs indirect {i}"
    # WAN: waiting for the ADVERT costs ~an extra one-way trip; buffering
    # roughly halves delivery latency (paper's distance motivation: "it is
    # actually faster for the receiver to copy from a static intermediate
    # buffer than to wait for the advertisements")
    for size, d, i in wan:
        assert i < 0.65 * d, f"WAN {size}B: direct {d} vs indirect {i}"


def test_ext_jitter_over_distance(benchmark, quality):
    """Jitter on the emulated WAN path: throughput degrades gracefully and
    the protocol stays correct (the RC model never reorders)."""

    def run(jitter_spread_us):
        jitter = uniform_jitter(jitter_spread_us * 1000) if jitter_spread_us else None
        tb = Testbed(ScenarioConfig(profile=ROCE_10G_WAN, seed=6), jitter=jitter)
        cfg = BlastConfig(
            total_messages=max(50, quality.messages // 6),
            sizes=FixedSizes(1 * MIB),
            recv_buffer_bytes=1 * MIB,
            outstanding_sends=8,
            outstanding_recvs=8,
            mode=ProtocolMode.DYNAMIC,
            options=ExsSocketOptions(ring_capacity=64 * MIB),
        )
        return run_blast(cfg, testbed=tb, max_events=100_000_000)

    results = run_once(benchmark, lambda: [(s, run(s)) for s in (0, 2_000, 10_000)])
    print("\njitter vs throughput at 48 ms RTT:")
    for spread, r in results:
        print(f"  jitter +0..{spread / 1000:.0f} ms: {r.throughput_bps / 1e6:8.1f} Mb/s")
    base = results[0][1].throughput_bps
    for spread, r in results[1:]:
        assert r.throughput_bps <= base * 1.01
        # graceful: even +10 ms of jitter costs well under proportionally
        assert r.throughput_bps > base * 0.6
