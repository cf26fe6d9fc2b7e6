"""Ablations of the design choices DESIGN.md calls out.

Each ablation flips one knob the paper's design motivates and checks the
predicted consequence:

* **intermediate-buffer size over distance** — the hidden buffer must cover
  the bandwidth-delay product for indirect transfers to fill a long pipe;
* **copy bandwidth vs wire speed (the QDR remark)** — "In tests on QDR
  InfiniBand, the indirect protocol compares much more favorably in terms
  of throughput" (paper §IV-B1);
* **event-notification wake-up latency** — the receiver-side latency that
  lets a saturating sender outrun ADVERT generation; with instant wakeups
  the dynamic protocol holds the zero-copy path far longer;
* **credit pool size** — a starved credit pool throttles the pipeline but
  must never deadlock it.
"""

import pytest

from conftest import run_once
from repro.apps import BlastConfig, ExponentialSizes, FixedSizes, run_blast
from repro.apps.workloads import MIB
from repro.bench.profiles import FDR_INFINIBAND, QDR_INFINIBAND, ROCE_10G_WAN
from repro.core import ProtocolMode
from repro.exs import ExsSocketOptions
from repro.config import ScenarioConfig


def test_ablation_ring_size_over_wan(benchmark, quality):
    """Indirect throughput over 48 ms RTT scales with the buffer until the
    window (not the buffer) becomes the limit."""

    def run():
        out = []
        for ring_mib in (1, 4, 16, 64):
            cfg = BlastConfig(
                total_messages=max(60, quality.messages // 4),
                sizes=FixedSizes(1 * MIB),
                recv_buffer_bytes=1 * MIB,
                outstanding_sends=16,
                outstanding_recvs=16,
                mode=ProtocolMode.INDIRECT_ONLY,
                options=ExsSocketOptions(ring_capacity=ring_mib * MIB),
            )
            r = run_blast(cfg, ScenarioConfig(profile=ROCE_10G_WAN, seed=1),
                          max_events=100_000_000)
            out.append((ring_mib, r.throughput_bps))
        return out

    rows = run_once(benchmark, run)
    print("\nring size vs indirect WAN throughput:")
    for ring_mib, bps in rows:
        print(f"  {ring_mib:3d} MiB ring: {bps / 1e6:9.1f} Mb/s")
    throughputs = [bps for _r, bps in rows]
    # strictly better with more buffer until the 16-message window binds
    assert throughputs[0] < throughputs[1] < throughputs[2]
    # 16 MiB already covers the 16 x 1 MiB window: growing further is flat
    assert throughputs[3] < throughputs[2] * 1.1


def test_ablation_qdr_closes_the_gap(benchmark, quality):
    """On QDR the wire barely outruns memcpy, so direct's edge collapses."""

    def gap(profile):
        results = {}
        for mode in (ProtocolMode.DIRECT_ONLY, ProtocolMode.INDIRECT_ONLY):
            cfg = BlastConfig(
                total_messages=max(60, quality.messages // 4),
                sizes=ExponentialSizes(seed=17),
                outstanding_sends=8,
                outstanding_recvs=8,
                mode=mode,
            )
            results[mode] = run_blast(cfg, ScenarioConfig(profile=profile, seed=1),
                                      max_events=100_000_000)
        return (
            results[ProtocolMode.DIRECT_ONLY].throughput_bps
            / results[ProtocolMode.INDIRECT_ONLY].throughput_bps
        )

    fdr_gap, qdr_gap = run_once(benchmark, lambda: (gap(FDR_INFINIBAND), gap(QDR_INFINIBAND)))
    print(f"\ndirect:indirect throughput ratio — FDR {fdr_gap:.2f}x, QDR {qdr_gap:.2f}x")
    assert fdr_gap > 1.5          # FDR: zero-copy wins big
    assert qdr_gap < fdr_gap      # QDR: much closer...
    assert qdr_gap < 1.25         # ... nearly a tie (the paper's remark)


def test_ablation_wakeup_latency_drives_the_instability(benchmark, quality):
    """The mid-size direct-ratio dip (Fig. 12b's 32 KiB minimum) is driven
    by completion-channel wake-up latency: with (hypothetical) instant
    wake-ups the receiver re-advertises in time at every message and the
    connection never falls back."""

    def ratios_with(lo, hi):
        profile = FDR_INFINIBAND.with_overrides(wakeup_lo_ns=lo, wakeup_hi_ns=hi)
        out = []
        for seed in (1, 2, 3, 4):
            cfg = BlastConfig(
                total_messages=max(600, 2 * quality.messages),
                sizes=FixedSizes(32 * 1024),
                recv_buffer_bytes=32 * 1024,
                outstanding_sends=2,
                outstanding_recvs=4,
                mode=ProtocolMode.DYNAMIC,
            )
            r = run_blast(cfg, ScenarioConfig(profile=profile, seed=seed),
                          max_events=100_000_000)
            out.append(r.direct_ratio)
        return out

    slow, fast = run_once(benchmark, lambda: (ratios_with(2_000, 16_000), ratios_with(0, 1)))
    print(f"\n32 KiB direct ratios — default wakeups {slow}, instant {fast}")
    # instant wake-ups: the zero-copy path never breaks
    assert all(r > 0.99 for r in fast), fast
    # realistic wake-ups: at least one run dips into buffered mode
    assert min(slow) < 0.9, slow


def test_ablation_credit_pool(benchmark, quality):
    """Credits bound the number of in-flight messages.  Two observable
    effects: (1) a tiny pool makes the sender stall on credit return
    (``sender_blocked``) without ever deadlocking or losing data; (2) in
    dynamic mode those stalls *pace* the sender, letting ADVERTs catch up —
    a small pool can accidentally keep the connection on the zero-copy
    path that a large pool loses (flow control interacts with mode choice).
    """

    def run(credits, mode):
        cfg = BlastConfig(
            total_messages=max(60, quality.messages // 5),
            sizes=FixedSizes(256 * 1024),
            recv_buffer_bytes=256 * 1024,
            outstanding_sends=8,
            outstanding_recvs=8,
            mode=mode,
            options=ExsSocketOptions(credits=credits),
        )
        return run_blast(cfg, ScenarioConfig(seed=1), max_events=100_000_000)

    def run_all():
        return (
            run(8, ProtocolMode.DIRECT_ONLY),
            run(256, ProtocolMode.DIRECT_ONLY),
            run(8, ProtocolMode.DYNAMIC),
            run(256, ProtocolMode.DYNAMIC),
        )

    d_tiny, d_big, dyn_tiny, dyn_big = run_once(benchmark, run_all)
    print(f"\ndirect-only : 8 credits {d_tiny.throughput_gbps:.2f} Gb/s "
          f"({d_tiny.tx_stats.sender_blocked} stalls), "
          f"256 credits {d_big.throughput_gbps:.2f} Gb/s "
          f"({d_big.tx_stats.sender_blocked} stalls)")
    print(f"dynamic     : 8 credits {dyn_tiny.throughput_gbps:.2f} Gb/s "
          f"(ratio {dyn_tiny.direct_ratio:.2f}), "
          f"256 credits {dyn_big.throughput_gbps:.2f} Gb/s "
          f"(ratio {dyn_big.direct_ratio:.2f})")

    # (1) correctness and stall accounting: the tiny pool stalls the sender
    # far more often (sender_blocked also counts ordinary waiting-for-ADVERT
    # pauses, hence the relative comparison) but loses nothing
    assert d_tiny.total_bytes == d_big.total_bytes
    assert d_tiny.tx_stats.sender_blocked > 3 * max(1, d_big.tx_stats.sender_blocked)
    assert d_tiny.throughput_bps <= d_big.throughput_bps * 1.02
    # (2) the pacing interaction in dynamic mode
    assert dyn_tiny.direct_ratio > dyn_big.direct_ratio


def test_ablation_small_ring_reproduces_table3_flip_flop(benchmark, quality):
    """The paper's Table III (1,1) cell reports 93 +/- 86 mode switches —
    constant flip-flopping between modes.  With the default 16 MiB buffer
    the simulation shows a single sticky switch instead; shrinking the
    buffer below the typical message size recreates the flip-flop regime
    (each message fills the buffer, the receiver drains it to empty, and a
    resync ADVERT races the next send).  This strongly suggests the real
    UNH EXS intermediate buffer was small relative to its 1 MiB-mean
    messages; see EXPERIMENTS.md."""

    def switches_with(ring_bytes):
        out = []
        for seed in (1, 2):
            cfg = BlastConfig(
                total_messages=max(120, quality.messages // 2),
                sizes=ExponentialSizes(seed=40 + seed),
                outstanding_sends=1,
                outstanding_recvs=1,
                mode=ProtocolMode.DYNAMIC,
                options=ExsSocketOptions(ring_capacity=ring_bytes),
            )
            r = run_blast(cfg, ScenarioConfig(seed=seed), max_events=200_000_000)
            out.append(r.mode_switches)
        return out

    big, small = run_once(
        benchmark, lambda: (switches_with(16 * MIB), switches_with(64 * 1024))
    )
    print(f"\n(1,1) mode switches: 16 MiB ring {big}, 64 KiB ring {small}")
    assert all(s_ <= 3 for s_ in big)
    assert all(s_ > 20 for s_ in small)  # the paper's flip-flop regime
