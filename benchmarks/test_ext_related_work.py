"""Related-work comparison: SDP-BCopy / rsockets-style send staging.

The paper positions its dynamic protocol against SDP's BCopy mode and
rsockets, which "perform buffer copies on both the send and receive side"
to give TCP-like semantics (§II-A), and frames the design goal as
combining "the zero-copy benefit of RDMA with the fast send response
benefit of TCP-style buffering" (§I).  This bench quantifies that
trade-off in the model:

* send-side staging makes ``exs_send`` complete after a local memcpy —
  orders of magnitude sooner than the RC transport ACK on a long path;
* the price is a sender-side copy per message (application-core time)
  and losing the true zero-copy path.
"""

import pytest

from conftest import run_once
from repro.apps import BlastConfig, FixedSizes, run_blast
from repro.apps.workloads import MIB
from repro.bench.profiles import FDR_INFINIBAND, ROCE_10G_WAN
from repro.core import ProtocolMode
from repro.exs import ExsSocketOptions
from repro.config import ScenarioConfig


def test_bcopy_fast_send_response_vs_zero_copy(benchmark, quality):
    def run(profile, sender_copy, ring=16 * MIB):
        cfg = BlastConfig(
            total_messages=max(40, quality.messages // 6),
            sizes=FixedSizes(1 * MIB),
            recv_buffer_bytes=1 * MIB,
            outstanding_sends=4,
            outstanding_recvs=8,
            options=ExsSocketOptions(sender_copy=sender_copy, ring_capacity=ring),
        )
        return run_blast(cfg, ScenarioConfig(profile=profile, seed=1), max_events=200_000_000)

    def run_all():
        return {
            "lan_zero": run(FDR_INFINIBAND, False),
            "lan_bcopy": run(FDR_INFINIBAND, True),
            "wan_zero": run(ROCE_10G_WAN, False, ring=64 * MIB),
            "wan_bcopy": run(ROCE_10G_WAN, True, ring=64 * MIB),
        }

    results = run_once(benchmark, run_all)
    print("\nsend-call-to-completion latency (p50) and throughput:")
    for name, r in results.items():
        print(f"  {name:10s}: send p50 {r.send_latency_percentile_ns(50) / 1e6:8.3f} ms, "
              f"{r.throughput_bps / 1e9:6.2f} Gb/s, app-visible copies "
              f"{'sender+recv' if 'bcopy' in name else 'per protocol'}")

    # On the WAN the fast-send-response gap is enormous — local memcpy vs
    # a 48 ms transport round trip...
    wan_gap = (results["wan_zero"].send_latency_percentile_ns(50)
               / results["wan_bcopy"].send_latency_percentile_ns(50))
    assert wan_gap > 5, wan_gap
    # ...and because sends complete locally, a 4-outstanding application is
    # no longer window-limited: the library keeps the pipe full from its
    # staging buffers, multiplying throughput (why TCP-style buffering wins
    # over distance for applications with few outstanding operations).
    assert (results["wan_bcopy"].throughput_bps
            > 3.0 * results["wan_zero"].throughput_bps)

    # On the fast LAN the price appears instead: the staging copy caps the
    # sender at its memcpy rate, well below the zero-copy wire rate (the
    # same reason SDP grew a ZCopy mode, paper §II-A).
    assert (results["lan_bcopy"].throughput_bps
            < 0.7 * results["lan_zero"].throughput_bps)
    # send latency stays the same order on the LAN (copies queue behind
    # each other on the application core)
    lan_ratio = (results["lan_bcopy"].send_latency_percentile_ns(50)
                 / results["lan_zero"].send_latency_percentile_ns(50))
    assert 0.3 < lan_ratio < 3.0, lan_ratio
    # and the data always arrives whole
    for r in results.values():
        assert r.total_bytes == results["lan_zero"].total_bytes
