"""Analytic bounds, and their agreement with the simulator."""

import pytest

from repro.analysis import (
    copy_rate_bound_bps,
    expected_winner,
    window_bound_bps,
    wire_rate_bound_bps,
)
from repro.apps import BlastConfig, FixedSizes, run_blast
from repro.bench.profiles import FDR_INFINIBAND, QDR_INFINIBAND, ROCE_10G_WAN
from repro.core import ProtocolMode
from repro.config import ScenarioConfig


def test_wire_rate_bound_approaches_link_rate_for_large_messages():
    bound = wire_rate_bound_bps(FDR_INFINIBAND, 1 << 20)
    assert 0.9 * 47e9 < bound < 47e9


def test_wire_rate_bound_collapses_for_tiny_messages():
    assert wire_rate_bound_bps(FDR_INFINIBAND, 64) < 5e9


def test_large_message_penalty_lowers_bound():
    at_2m = wire_rate_bound_bps(FDR_INFINIBAND, 2 << 20)
    at_32m = wire_rate_bound_bps(FDR_INFINIBAND, 32 << 20)
    assert at_32m < at_2m


def test_copy_bound_tracks_memcpy_rate():
    bound = copy_rate_bound_bps(FDR_INFINIBAND, 1 << 20)
    assert 0.8 * FDR_INFINIBAND.copy_bandwidth_bps < bound <= FDR_INFINIBAND.copy_bandwidth_bps


def test_window_bound():
    # 4 x 1 MiB per 48 ms
    bound = window_bound_bps(4, 1 << 20, 48_000_000)
    assert bound == pytest.approx(4 * (1 << 20) * 8 / 48e-3, rel=1e-6)
    assert window_bound_bps(4, 1024, 0) == float("inf")


def test_expected_winners_per_profile():
    assert expected_winner(FDR_INFINIBAND) == "direct"
    assert expected_winner(QDR_INFINIBAND) == "tie"  # the paper's QDR remark
    assert expected_winner(ROCE_10G_WAN, rtt_ns=48_000_000) == "tie"


def test_simulation_respects_wire_bound():
    cfg = BlastConfig(total_messages=40, sizes=FixedSizes(1 << 20),
                      recv_buffer_bytes=1 << 20, outstanding_sends=8,
                      outstanding_recvs=16, mode=ProtocolMode.DIRECT_ONLY)
    r = run_blast(cfg, ScenarioConfig(seed=1), max_events=50_000_000)
    bound = wire_rate_bound_bps(FDR_INFINIBAND, 1 << 20)
    assert r.throughput_bps <= bound * 1.01
    assert r.throughput_bps >= bound * 0.8  # and saturates most of it


def test_simulation_respects_copy_bound():
    cfg = BlastConfig(total_messages=40, sizes=FixedSizes(1 << 20),
                      recv_buffer_bytes=1 << 20, outstanding_sends=8,
                      outstanding_recvs=8, mode=ProtocolMode.INDIRECT_ONLY)
    r = run_blast(cfg, ScenarioConfig(seed=1), max_events=50_000_000)
    bound = copy_rate_bound_bps(FDR_INFINIBAND, 1 << 20)
    assert r.throughput_bps <= bound * 1.05


def test_simulation_respects_window_bound_over_wan():
    from repro.exs import ExsSocketOptions

    cfg = BlastConfig(total_messages=30, sizes=FixedSizes(1 << 20),
                      recv_buffer_bytes=1 << 20, outstanding_sends=4,
                      outstanding_recvs=4, mode=ProtocolMode.DIRECT_ONLY,
                      options=ExsSocketOptions(ring_capacity=64 << 20))
    r = run_blast(cfg, ScenarioConfig(profile=ROCE_10G_WAN, seed=1), max_events=50_000_000)
    bound = window_bound_bps(4, 1 << 20, 48_000_000)
    assert r.throughput_bps <= bound * 1.02
    assert r.throughput_bps >= bound * 0.7
