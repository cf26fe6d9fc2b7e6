"""The blast tool: integrity, measurement plumbing, determinism."""

import pytest

from repro.apps import BlastConfig, ExponentialSizes, FixedSizes, run_blast
from repro.bench.profiles import ROCE_10G_LAN
from repro.core import ProtocolMode
from repro.config import KERNELS, ScenarioConfig
from repro.exs import ExsError, ExsEventQueue, ExsEventType, ExsSocketOptions
from repro.simnet import SimulationError
from repro.testbed import Testbed
from repro.trace import ProtocolTracer


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


@pytest.mark.parametrize("transport", ["wwi", "eager_rendezvous"])
def test_waitall_blast_counts_the_bytes_its_eof_completes(transport):
    """5 x 300,000 B end inside the second 1 MiB WAITALL receive, which the
    end of stream completes with its bytes."""
    cfg = BlastConfig(total_messages=5, sizes=FixedSizes(300_000),
                      recv_buffer_bytes=1 << 20, waitall=True, real_data=True)
    r = run_blast(cfg, ScenarioConfig(seed=1, transport=transport), max_events=50_000_000)
    assert r.total_bytes == 1_500_000


@pytest.mark.parametrize("credits", [4, 128])
def test_eager_blast_waits_for_send_credits(credits):
    """600 x 512 B, all below ``eager_threshold``: every eager SEND takes a
    bounce slot at the peer, so with 16 sends outstanding the sender must
    stop at zero credits, not post into a slot the receiver has not freed
    (that fails the send with a ``CreditError``)."""
    options = ExsSocketOptions(credits=credits)
    assert 512 <= options.eager_threshold
    cfg = BlastConfig(total_messages=600, sizes=FixedSizes(512), outstanding_sends=16,
                      recv_buffer_bytes=512, options=options, real_data=True)
    r = run_blast(cfg, ScenarioConfig(seed=1, transport="eager_rendezvous"))
    assert r.total_bytes == 600 * 512
    assert (r.tx_stats.indirect_transfers, r.tx_stats.direct_transfers) == (600, 0)


def _traced_waitall_blast(transport, monkeypatch):
    """600 x 512 B into 4096 B WAITALL receives, traced; returns the
    ``deliver`` events and every RECV completion the application got."""
    completions = []
    post = ExsEventQueue.post

    def recording_post(eq, event):
        if event.kind is ExsEventType.RECV:
            completions.append(event)
        post(eq, event)

    monkeypatch.setattr(ExsEventQueue, "post", recording_post)
    tb = Testbed.from_scenario(ScenarioConfig(seed=1, transport=transport))
    tracer = ProtocolTracer.attach(tb)
    cfg = BlastConfig(total_messages=600, sizes=FixedSizes(512), recv_buffer_bytes=4096,
                      waitall=True, real_data=True)
    r = run_blast(cfg, testbed=tb)
    assert r.total_bytes == 600 * 512
    return [e for e in tracer.events if e.kind == "deliver"], completions


@pytest.mark.parametrize("transport", ["wwi", "eager_rendezvous"])
def test_waitall_receives_complete_full_until_eof(transport, monkeypatch):
    """Each RECV completes with a full buffer (75 of them); only the end of
    stream completes one short, and here it has no bytes left to carry
    (docs/PROTOCOL.md, *Completion contract*)."""
    delivered, _ = _traced_waitall_blast(transport, monkeypatch)
    assert [e.get("nbytes") for e in delivered if not e.get("eof")] == [4096] * 75
    assert {e.get("nbytes") for e in delivered if e.get("eof")} == {0}


@pytest.mark.parametrize("transport", ["wwi", "eager_rendezvous"])
def test_every_eof_completion_is_traced(transport, monkeypatch):
    """A receive posted after the stream is fully delivered completes at
    once with EOF, and the trace records that ``deliver`` too."""
    delivered, completions = _traced_waitall_blast(transport, monkeypatch)
    eof_completions = [ev for ev in completions if ev.eof]
    assert len(eof_completions) == 4
    assert len([e for e in delivered if e.get("eof")]) == len(eof_completions)


@pytest.mark.parametrize("transport", ["wwi", "eager_rendezvous"])
def test_trace_alone_shows_no_short_waitall_completion(transport, monkeypatch):
    """Each ``deliver`` names its receive's size and WAITALL flag, so the
    completion contract is checkable from the trace: a WAITALL receive
    completes short only at end of stream."""
    delivered, _ = _traced_waitall_blast(transport, monkeypatch)
    assert all(e.get("recv_len") is not None and e.get("waitall") is not None
               for e in delivered)
    short = [e for e in delivered
             if e.get("waitall") and not e.get("eof") and e.get("nbytes") < e.get("recv_len")]
    assert short == []
    assert any(e.get("waitall") for e in delivered)


def test_identical_runs_number_devices_qps_and_keys_alike():
    """Devices, QPNs and memory keys are numbered per fabric, so a run
    names nothing after what ran before it in the process."""
    def numbering():
        tb = Testbed.from_scenario(ScenarioConfig(seed=1))
        run_blast(BlastConfig(total_messages=8, sizes=FixedSizes(4096),
                              recv_buffer_bytes=4096), testbed=tb)
        return [(d.device_id, sorted(d._qps), sorted(d.pd._by_lkey), sorted(d.pd._by_rkey))
                for d in map(tb.device, tb.host_names)]

    first = numbering()
    assert first == numbering()
    assert [(device_id, qpns) for device_id, qpns, _, _ in first] == [
        (1, [1_000_001]), (2, [2_000_001])]


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
