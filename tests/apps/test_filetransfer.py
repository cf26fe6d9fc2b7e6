"""Parallel-stream file transfer."""

import pytest

from repro.apps import FileTransferConfig, run_file_transfer
from repro.apps.filetransfer import _pattern
from repro.bench.profiles import ROCE_10G_WAN
from repro.core import ProtocolMode
from repro.exs import ExsSocketOptions
from repro.config import ScenarioConfig


def test_pattern_is_seekable():
    """Slicing the pattern at any offset matches the whole."""
    whole = _pattern(0, 10_000)
    assert _pattern(2_500, 300) == whole[2_500:2_800]
    assert _pattern(9_999, 1) == whole[9_999:]
    assert len(_pattern(7, 0)) == 0


def test_single_stream_real_data_verified():
    cfg = FileTransferConfig(file_bytes=1_000_000, streams=1,
                             chunk_bytes=100_000, outstanding=4, real_data=True)
    r = run_file_transfer(cfg, ScenarioConfig(seed=1))
    assert r.verified is True
    assert r.total_bytes == 1_000_000


def test_multi_stream_real_data_verified():
    cfg = FileTransferConfig(file_bytes=3_000_001, streams=3,
                             chunk_bytes=250_000, outstanding=3, real_data=True)
    r = run_file_transfer(cfg, ScenarioConfig(seed=2))
    assert r.verified is True
    assert r.total_bytes == 3_000_001
    assert len(r.streams) == 3
    # the uneven extent went to the last stream
    assert r.streams[-1].nbytes == 3_000_001 - 2 * 1_000_000


def test_extent_partitioning():
    cfg = FileTransferConfig(file_bytes=100, streams=3)
    extents = [cfg.extent(i) for i in range(3)]
    assert extents == [(0, 33), (33, 33), (66, 34)]
    assert sum(n for _o, n in extents) == 100


def test_synthetic_mode_reports_no_verification():
    cfg = FileTransferConfig(file_bytes=8 << 20, streams=2, outstanding=4)
    r = run_file_transfer(cfg, ScenarioConfig(seed=1))
    assert r.verified is None
    assert r.total_bytes == 8 << 20
    assert r.throughput_bps > 0


def test_more_streams_scale_over_wan():
    """Each stream is window-limited over 48 ms; parallelism multiplies
    the in-flight window (the GridFTP rationale)."""
    def run(streams):
        cfg = FileTransferConfig(
            file_bytes=32 << 20, streams=streams, chunk_bytes=1 << 20,
            outstanding=4, options=ExsSocketOptions(ring_capacity=64 << 20),
        )
        return run_file_transfer(cfg, ScenarioConfig(profile=ROCE_10G_WAN, seed=1))

    one = run(1)
    four = run(4)
    assert four.throughput_bps > 3.0 * one.throughput_bps


def test_invalid_configs_rejected():
    with pytest.raises(ValueError):
        run_file_transfer(FileTransferConfig(file_bytes=2, streams=4))
    with pytest.raises(ValueError):
        run_file_transfer(FileTransferConfig(streams=0))


def test_direct_only_transfer_works():
    cfg = FileTransferConfig(file_bytes=2 << 20, streams=2, chunk_bytes=1 << 18,
                             outstanding=2, mode=ProtocolMode.DIRECT_ONLY,
                             real_data=True)
    r = run_file_transfer(cfg, ScenarioConfig(seed=3))
    assert r.verified is True
