"""The blast tool: integrity, measurement plumbing, determinism."""

import pytest

from repro.apps import BlastConfig, ExponentialSizes, FixedSizes, run_blast
from repro.bench.profiles import ROCE_10G_LAN
from repro.core import ProtocolMode
from repro.config import KERNELS, ScenarioConfig
from repro.exs import ExsError
from repro.simnet import SimulationError


def test_blast_moves_every_byte_with_real_data():
    cfg = BlastConfig(
        total_messages=30,
        sizes=ExponentialSizes(mean=20_000, maximum=100_000, seed=5),
        outstanding_sends=3,
        outstanding_recvs=5,
        recv_buffer_bytes=100_000,
        real_data=True,
    )
    r = run_blast(cfg, ScenarioConfig(seed=2), max_events=50_000_000)
    assert r.total_bytes == sum(cfg.sizes.sizes(30))
    assert r.throughput_bps > 0
    assert r.end_ns > r.start_ns


def test_blast_is_deterministic_per_seed():
    cfg = BlastConfig(total_messages=50, sizes=ExponentialSizes(seed=9),
                      outstanding_sends=4, outstanding_recvs=4)
    a = run_blast(cfg, ScenarioConfig(seed=3), max_events=50_000_000)
    b = run_blast(cfg, ScenarioConfig(seed=3), max_events=50_000_000)
    c = run_blast(cfg, ScenarioConfig(seed=4), max_events=50_000_000)
    assert a.throughput_bps == b.throughput_bps
    assert a.end_ns == b.end_ns
    assert a.tx_stats.direct_transfers == b.tx_stats.direct_transfers
    assert (a.throughput_bps, a.end_ns) != (c.throughput_bps, c.end_ns)


def test_blast_stats_exposed():
    cfg = BlastConfig(total_messages=25, sizes=FixedSizes(1 << 16),
                      recv_buffer_bytes=1 << 16)
    r = run_blast(cfg, ScenarioConfig(seed=1), max_events=50_000_000)
    assert r.tx_stats.total_transfers >= 25
    assert 0.0 <= r.direct_ratio <= 1.0
    assert 0.0 <= r.receiver_cpu <= 1.0
    assert 0.0 <= r.sender_cpu <= 1.0
    assert r.throughput_gbps == pytest.approx(r.throughput_bps / 1e9)


def test_blast_on_other_profile():
    cfg = BlastConfig(total_messages=20, sizes=FixedSizes(1 << 16),
                      recv_buffer_bytes=1 << 16)
    r = run_blast(cfg, ScenarioConfig(profile=ROCE_10G_LAN, seed=1), max_events=50_000_000)
    # 10 GbE can never beat its wire rate
    assert r.throughput_bps < 10e9


def test_blast_waitall_mode():
    cfg = BlastConfig(total_messages=10, sizes=FixedSizes(1 << 16),
                      recv_buffer_bytes=1 << 16, waitall=True, real_data=True)
    r = run_blast(cfg, ScenarioConfig(seed=1), max_events=50_000_000)
    assert r.total_bytes == 10 * (1 << 16)


def test_blast_single_message():
    cfg = BlastConfig(total_messages=1, sizes=FixedSizes(4096),
                      recv_buffer_bytes=4096)
    r = run_blast(cfg, ScenarioConfig(seed=1), max_events=10_000_000)
    assert r.total_bytes == 4096


class _ZeroSecond(FixedSizes):
    """Fixed sizes, except that the second message is empty."""

    def __iter__(self):
        yield self.nbytes
        yield 0
        yield from super().__iter__()


@pytest.mark.parametrize("calendar", KERNELS)
def test_failing_blast_client_surfaces_its_exception(calendar):
    """A client that raises ends the run with its own exception, not a
    deadlock report about the server it left waiting."""
    cfg = BlastConfig(total_messages=4, sizes=_ZeroSecond(4096), recv_buffer_bytes=4096)
    with pytest.raises(SimulationError, match=r"process 'blast-client' failed") as info:
        run_blast(cfg, ScenarioConfig(seed=1, kernel=calendar), max_events=10_000_000)
    assert isinstance(info.value.__cause__, ExsError)
    assert "exs_send of <= 0 bytes" in str(info.value.__cause__)
