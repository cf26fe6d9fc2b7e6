"""RC reliability layer: retransmission, NAK/RNR recovery, retry exhaustion.

These tests drive the :class:`repro.verbs.reliability.ReliabilityEngine`
directly through a device pair, below the EXS stack, so each recovery path
can be exercised in isolation (the chaos suite covers the full stack).
"""

import dataclasses

import pytest

from repro.hosts import Host
from repro.simnet import FaultProfile, ImpairmentModel, Link
from repro.verbs import (
    SGE,
    Opcode,
    QPState,
    RecvWR,
    ReliabilityConfig,
    SendWR,
    WCOpcode,
    WCStatus,
    connect_devices,
)
from repro.verbs.device import DeviceConfig


FAST_RETRY = ReliabilityConfig(
    retry_timeout_ns=50_000,
    retry_cnt=3,
    rnr_retry=5,
    rnr_timeout_ns=30_000,
)


class RelPair:
    """Two connected devices with reliability enabled and an impaired link."""

    def __init__(self, sim, *, impairment=None, config=FAST_RETRY):
        self.sim = sim
        self.ha, self.hb = Host(sim, "a"), Host(sim, "b")
        self.link = Link(sim, bandwidth_bps=8e9, propagation_delay_ns=100,
                         per_message_overhead_ns=0, impairment=impairment)
        dev_cfg = DeviceConfig(reliability=config)
        self.da, self.db = connect_devices(sim, self.ha, self.hb, self.link,
                                           config_a=dev_cfg, config_b=dev_cfg)
        self.cq_a = self.da.create_cq()
        self.cq_b = self.db.create_cq()
        self.qa = self.da.create_qp(self.cq_a, self.cq_a)
        self.qb = self.db.create_qp(self.cq_b, self.cq_b)
        self.qa.connect(self.qb.qpn)
        self.qb.connect(self.qa.qpn)
        self.buf_a = self.ha.alloc(4096)
        self.buf_b = self.hb.alloc(4096)
        self.mr_a = self.da.register(self.buf_a)
        self.mr_b = self.db.register(self.buf_b)

    def post_send(self, nbytes, wr_id=1, opcode=Opcode.SEND):
        self.qa.post_send(SendWR(opcode=opcode, wr_id=wr_id,
                                 sge=SGE(self.mr_a.addr, nbytes, self.mr_a.lkey)))

    def post_recv(self, wr_id=100):
        self.qb.post_recv(RecvWR(wr_id=wr_id,
                                 sge=SGE(self.mr_b.addr, 4096, self.mr_b.lkey)))


def test_retransmit_recovers_from_outage(sim):
    """A send transmitted into a link outage is delivered by the timer."""
    imp = ImpairmentModel(FaultProfile(), seed=1, down_windows=((0, 60_000),))
    pair = RelPair(sim, impairment=imp)
    pair.buf_a.fill(b"retry-me")
    pair.post_recv()
    pair.post_send(8)
    sim.run()

    wcs_a = pair.cq_a.poll()
    assert [w.status for w in wcs_a] == [WCStatus.SUCCESS]
    wcs_b = pair.cq_b.poll()
    assert len(wcs_b) == 1 and wcs_b[0].opcode is WCOpcode.RECV
    assert pair.buf_b.read(0, 8) == b"retry-me"
    assert imp.down_dropped_total >= 1
    stats = pair.da.reliability.stats
    assert stats.timeouts >= 1
    assert stats.retransmits >= 1
    assert stats.recoveries >= 1
    assert stats.recovery_ns_max > 0


def test_retry_exhaustion_moves_qp_to_error(sim):
    """A permanently dead link exhausts retry_cnt: requester flushes with
    RETRY_EXC_ERR and the (fault-exempt) TERM flushes the responder."""
    imp = ImpairmentModel(FaultProfile(), seed=2,
                          down_windows=((0, 10**15),))
    pair = RelPair(sim, impairment=imp)
    pair.post_recv()
    pair.post_send(64)
    sim.run()

    wcs_a = pair.cq_a.poll()
    assert [w.status for w in wcs_a] == [WCStatus.RETRY_EXC_ERR]
    assert pair.qa.state is QPState.ERROR
    # peer learned of the teardown and flushed its posted RECV
    assert pair.qb.state is QPState.ERROR
    wcs_b = pair.cq_b.poll()
    assert [w.status for w in wcs_b] == [WCStatus.WR_FLUSH_ERR]
    stats = pair.da.reliability.stats
    assert stats.qp_fatal == 1
    assert stats.timeouts == FAST_RETRY.retry_cnt + 1


def test_rnr_nak_then_late_recv_recovers(sim):
    """SEND into an empty RQ draws an RNR NAK; once the responder posts a
    RECV, the paced retransmission delivers the data."""
    pair = RelPair(sim)
    pair.buf_a.fill(b"late-rq")
    pair.post_send(7)
    sim.call_in(45_000, pair.post_recv, 100)
    sim.run()

    wcs_a = pair.cq_a.poll()
    assert [w.status for w in wcs_a] == [WCStatus.SUCCESS]
    wcs_b = pair.cq_b.poll()
    assert len(wcs_b) == 1 and wcs_b[0].status is WCStatus.SUCCESS
    assert pair.buf_b.read(0, 7) == b"late-rq"
    assert pair.db.reliability.stats.rnr_naks_sent >= 1
    assert pair.da.reliability.stats.rnr_naks_received >= 1


def test_rnr_exhaustion_fails_with_rnr_retry_exc(sim):
    """If the responder never posts a RECV, rnr_retry bounds the attempts."""
    cfg = ReliabilityConfig(retry_timeout_ns=50_000, retry_cnt=3,
                            rnr_retry=1, rnr_timeout_ns=20_000)
    pair = RelPair(sim, config=cfg)
    pair.post_send(16)
    sim.run()

    wcs_a = pair.cq_a.poll()
    assert [w.status for w in wcs_a] == [WCStatus.RNR_RETRY_EXC_ERR]
    assert pair.qa.state is QPState.ERROR
    assert pair.da.reliability.stats.qp_fatal == 1


def test_duplicate_delivery_is_suppressed(sim):
    """duplicate_prob=1 delivers every frame twice; the sequence check at
    the responder accepts one copy and re-acks the other."""
    imp = ImpairmentModel(FaultProfile(duplicate_prob=1.0), seed=3)
    pair = RelPair(sim, impairment=imp)
    pair.buf_a.fill(b"once")
    pair.post_recv()
    pair.post_send(4)
    sim.run()

    assert [w.status for w in pair.cq_a.poll()] == [WCStatus.SUCCESS]
    wcs_b = pair.cq_b.poll()
    assert len(wcs_b) == 1          # exactly one delivery despite duplication
    assert imp.duplicated_total >= 1
    assert pair.db.reliability.stats.duplicates_dropped >= 1


def test_corrupt_frame_is_discarded_and_retried(sim):
    """A corrupt frame is dropped at the NIC and recovered by the timer."""
    imp = ImpairmentModel(FaultProfile(corrupt_prob=1.0),
                          FaultProfile(), seed=4)
    pair = RelPair(sim, impairment=imp)
    pair.buf_a.fill(b"clean")
    pair.post_recv()
    pair.post_send(5)
    # stop corrupting after the first transmission so the retry gets through
    sim.call_in(10_000, lambda _: imp.set_profile(0, FaultProfile()))
    sim.run()

    assert [w.status for w in pair.cq_a.poll()] == [WCStatus.SUCCESS]
    assert pair.buf_b.read(0, 5) == b"clean"
    assert pair.db.reliability.stats.corrupt_discarded >= 1
    assert pair.da.reliability.stats.retransmits >= 1


def test_flush_without_error_state_rejected(sim):
    from repro.verbs import QPStateError

    pair = RelPair(sim)
    with pytest.raises(QPStateError):
        pair.qa.flush(WCStatus.WR_FLUSH_ERR)


# ---------------------------------------------------------------------------
# selective repeat (SACK bitmap, OOO buffering, per-frame deadlines)
# ---------------------------------------------------------------------------

SR_CONFIG = ReliabilityConfig(
    retry_timeout_ns=50_000,
    retry_cnt=6,
    rnr_retry=5,
    rnr_timeout_ns=30_000,
    mode="selective_repeat",
)


def _blast(pair, n, nbytes=64):
    for i in range(n):
        pair.post_recv(wr_id=100 + i)
    for i in range(n):
        pair.post_send(nbytes, wr_id=1 + i)


def test_selective_repeat_buffers_out_of_order_and_releases(sim):
    """Frames behind a loss are buffered (not NAK-discarded) and released
    in order once the hole is filled; the requester learns of them via the
    SACK bitmap and completes everything in posting order."""
    imp = ImpairmentModel(FaultProfile(drop_prob=0.25), seed=11)
    pair = RelPair(sim, impairment=imp, config=SR_CONFIG)
    n = 20
    _blast(pair, n)
    sim.run()

    wcs_a = pair.cq_a.poll()
    assert [w.status for w in wcs_a] == [WCStatus.SUCCESS] * n
    assert [w.wr_id for w in wcs_a] == list(range(1, n + 1))  # in order
    assert len(pair.cq_b.poll()) == n
    assert imp.dropped_total > 0
    stats_b = pair.db.reliability.stats
    assert stats_b.ooo_buffered > 0
    assert stats_b.ooo_released > 0
    assert pair.da.reliability.stats.sacked_frames > 0


def _retransmits_for_mode(mode, seed=11):
    from repro.simnet import Simulator

    sim = Simulator()
    cfg = ReliabilityConfig(retry_timeout_ns=50_000, retry_cnt=6,
                            rnr_retry=5, rnr_timeout_ns=30_000, mode=mode)
    imp = ImpairmentModel(FaultProfile(drop_prob=0.25), seed=seed)
    pair = RelPair(sim, impairment=imp, config=cfg)
    n = 20
    _blast(pair, n)
    sim.run()
    assert [w.status for w in pair.cq_a.poll()] == [WCStatus.SUCCESS] * n
    assert len(pair.cq_b.poll()) == n
    assert imp.dropped_total > 0
    return pair.da.reliability.stats.retransmits


def test_selective_repeat_resends_no_more_than_gobackn():
    """Same drop pattern: selective repeat never resends more frames than
    go-back-N (it skips SACKed frames instead of replaying the window)."""
    assert _retransmits_for_mode("selective_repeat") <= _retransmits_for_mode("gobackn")


def test_selective_repeat_fully_sacked_window_probes_and_is_bounded(sim):
    """Every frame left in the window is SACKed and the cumulative ACK that
    would release them never arrives (regression: the timer found nothing
    overdue and re-armed every RTO forever).  The oldest frame is resent
    as a probe at each deadline and ``retry_cnt`` bounds the wait."""
    imp = ImpairmentModel(FaultProfile(), seed=3, down_windows=((0, 10**15),))
    pair = RelPair(sim, impairment=imp, config=SR_CONFIG)
    n = 3
    _blast(pair, n)
    sim.run(until=10_000)  # all on the (dead) wire, first RTO not yet due
    st = pair.da.reliability._st(pair.qa)
    assert len(st.unacked) == n
    for sm in st.unacked.values():
        sm.sacked = True

    sim.run(max_events=10_000)

    assert [w.status for w in pair.cq_a.poll()] == (
        [WCStatus.RETRY_EXC_ERR] + [WCStatus.WR_FLUSH_ERR] * (n - 1))
    stats = pair.da.reliability.stats
    assert stats.timeouts == SR_CONFIG.retry_cnt + 1
    assert stats.retransmits == SR_CONFIG.retry_cnt  # the oldest frame only
    assert stats.qp_fatal == 1


class _WireSpy:
    """Stands in for a device's transmit port, recording each frame's seq."""

    def __init__(self, port):
        self.port, self.seqs = port, []

    def transmit(self, msg, wire_bytes, extra_tx_ns=0):
        self.seqs.append(msg.seq)
        return self.port.transmit(msg, wire_bytes, extra_tx_ns=extra_tx_ns)


@pytest.mark.parametrize("mode, sack, resent", [
    # the head goes out although SACKed, then every un-SACKed frame
    ("selective_repeat", 0b00101, [0, 1, 3, 4]),
    ("selective_repeat", 0b00110, [0, 3, 4]),
    # go-back-N never SACKs: its whole window
    ("gobackn", 0, [0, 1, 2, 3, 4]),
])
def test_rnr_pause_resends_the_head_and_every_unsacked_frame(sim, mode, sack, resent):
    """The RNR NAK for a five-frame window carries *sack*; once the pause
    is over exactly the *resent* frames go back on the wire."""
    cfg = dataclasses.replace(SR_CONFIG, mode=mode)
    imp = ImpairmentModel(FaultProfile(), seed=3, down_windows=((0, 10**15),))
    pair = RelPair(sim, impairment=imp, config=cfg)
    _blast(pair, 5)
    sim.run(until=10_000)  # all on the (dead) wire, first RTO not yet due
    spy = pair.da.tx = _WireSpy(pair.da.tx)
    assert pair.da.reliability.on_rnr(pair.qa, -1, sack) == []
    sim.run(until=10_000 + cfg.rnr_timeout_ns)
    assert spy.seqs == resent
    assert pair.da.reliability.stats.retransmits == len(resent)


def test_selective_repeat_mode_rejects_unknown():
    with pytest.raises(ValueError):
        ReliabilityConfig(mode="stop-and-wait")


# ---------------------------------------------------------------------------
# RTO backoff clamping (regression: overflow after long outages)
# ---------------------------------------------------------------------------

def test_rto_backoff_clamped_at_max_rto(sim):
    """A huge attempt count must hit the cap, not overflow ``backoff**n``."""
    cfg = ReliabilityConfig(retry_timeout_ns=1_000, backoff=2.0,
                            max_timeout_ns=500_000)
    pair = RelPair(sim, config=cfg)
    eng = pair.da.reliability
    st = eng._st(pair.qa)
    st.attempts = 10_000  # 2**10_000 would overflow float64
    assert eng._current_rto(st) == 500_000
    st.attempts = 3
    assert eng._current_rto(st) == 8_000  # below the cap: plain backoff


def test_rto_cap_defaults_to_max_timeout(sim):
    cfg = ReliabilityConfig(retry_timeout_ns=1_000, backoff=2.0,
                            max_timeout_ns=64_000)
    pair = RelPair(sim, config=cfg)
    eng = pair.da.reliability
    st = eng._st(pair.qa)
    st.attempts = 10_000
    assert eng._current_rto(st) == 64_000


def test_rto_cap_must_be_positive():
    with pytest.raises(ValueError):
        ReliabilityConfig(max_timeout_ns=0)


# ---------------------------------------------------------------------------
# stale cumulative ACK/NAK handling (regression: timer resets on dup ACKs)
# ---------------------------------------------------------------------------

def test_stale_cumulative_ack_is_ignored(sim):
    """A replayed ACK at or below the acked point completes nothing and
    must not reset the attempt counters (which would starve the timer)."""
    pair = RelPair(sim)
    pair.post_recv()
    pair.post_send(8)
    sim.run()
    eng = pair.da.reliability
    st = eng._st(pair.qa)
    acked = st.highest_acked
    assert acked >= 0
    st.attempts = 2  # pretend we are mid-recovery
    assert eng.on_ack(pair.qa, acked) == []
    assert eng.on_ack(pair.qa, acked - 1) == []
    assert eng.stats.stale_acks_ignored == 2
    assert st.attempts == 2  # stale frames carry no progress


def test_stale_nak_does_not_trigger_retransmit(sim):
    pair = RelPair(sim)
    pair.post_recv()
    pair.post_send(8)
    sim.run()
    eng = pair.da.reliability
    st = eng._st(pair.qa)
    before = eng.stats.retransmits
    assert eng.on_nak(pair.qa, st.highest_acked - 1) == []
    assert eng.stats.retransmits == before
    assert eng.stats.stale_acks_ignored == 1


def test_stale_rnr_does_not_consume_retry_budget(sim):
    pair = RelPair(sim)
    pair.post_recv()
    pair.post_send(8)
    sim.run()
    eng = pair.da.reliability
    st = eng._st(pair.qa)
    assert eng.on_rnr(pair.qa, st.highest_acked - 1) == []
    assert st.rnr_attempts == 0
    assert eng.stats.stale_acks_ignored == 1


@pytest.mark.parametrize("mode", ["gobackn", "selective_repeat"])
def test_duplicate_ack_chaos_completes_and_ignores_stale_frames(sim, mode):
    """duplicate_prob=1 re-delivers every data frame; each duplicate is
    re-ACKed with an old msn, and the requester must shrug those off while
    still completing every send exactly once."""
    cfg = ReliabilityConfig(retry_timeout_ns=50_000, retry_cnt=6,
                            rnr_retry=5, rnr_timeout_ns=30_000, mode=mode)
    imp = ImpairmentModel(FaultProfile(duplicate_prob=1.0), seed=5)
    pair = RelPair(sim, impairment=imp, config=cfg)
    n = 8
    _blast(pair, n, nbytes=32)
    sim.run()

    assert [w.status for w in pair.cq_a.poll()] == [WCStatus.SUCCESS] * n
    assert len(pair.cq_b.poll()) == n
    assert imp.duplicated_total > 0
    assert pair.db.reliability.stats.duplicates_dropped > 0
    assert pair.da.reliability.stats.stale_acks_ignored > 0


def test_rnr_blocked_release_is_purged_once_the_retransmit_lands(sim):
    """Selective repeat: frame 1 overtakes lost frame 0 and is buffered;
    when the refilled hole releases it, the receive queue is empty, so the
    release raises an RNR NAK and the frame stays buffered.  The RNR
    retransmit of frame 1 then arrives in order and is placed, and the
    buffered copy the cumulative point overtook is dropped: no frame is
    left buffered and no further NAK goes out."""
    imp = ImpairmentModel(FaultProfile(), seed=1, down_windows=((0, 200),))
    pair = RelPair(sim, impairment=imp, config=SR_CONFIG)
    pair.post_recv(wr_id=100)
    pair.post_send(64, wr_id=1)
    pair.post_send(64, wr_id=2)
    sim.call_in(10_000, lambda _arg: pair.post_recv(wr_id=101))
    sim.run()

    assert [(w.wr_id, w.status) for w in pair.cq_a.poll()] == [
        (1, WCStatus.SUCCESS), (2, WCStatus.SUCCESS)]
    assert [w.wr_id for w in pair.cq_b.poll()] == [100, 101]
    rel_b = pair.db.reliability
    assert (rel_b.stats.ooo_buffered, rel_b.stats.rnr_naks_sent, rel_b.stats.naks_sent) == (1, 1, 1)
    assert rel_b.stats.ooo_released == 0  # placed by the retransmit, not released
    assert not rel_b.has_buffered(pair.qb)
    assert imp.down_dropped_total == 1  # frame 0, sent into the outage


def test_peer_death_flushes_the_unsent_send_queue(sim):
    """A QP that dies of exhausted retries errors out, emits a traced
    ``qp_error`` and terminates its peer; the peer, whose send queue
    still holds WRs the pipeline has not started, flushes its unacked
    window and then that queue, all with WR_FLUSH_ERR."""
    from repro.trace import ProtocolTracer

    pair = RelPair(sim)
    # a's pipeline is slow, and busy with a second QP's WR when the
    # terminate arrives, so none of qa's queued WRs is in flight to the wire
    pair.da.config = DeviceConfig(wr_overhead_ns=1_000, reliability=FAST_RETRY)
    qc = pair.da.create_qp(pair.cq_a, pair.cq_a)
    qc.connect(pair.qb.qpn)
    pair.hb.tracer = tracer = ProtocolTracer()
    for i in range(3):
        pair.qb.post_recv(RecvWR(wr_id=100 + i, sge=SGE(pair.mr_b.addr, 64, pair.mr_b.lkey)))
    pair.qb.post_send(SendWR(opcode=Opcode.SEND, wr_id=50,
                             sge=SGE(pair.mr_b.addr, 8, pair.mr_b.lkey)))
    for i in range(5):
        pair.post_send(8, wr_id=1 + i)
    qc.post_send(SendWR(opcode=Opcode.SEND, wr_id=60, sge=SGE(pair.mr_a.addr, 8, pair.mr_a.lkey)))
    # qa's first WR is on the wire; qc's is in the pipeline, and stays at
    # the head of its send queue until it goes on the wire
    sim.run(until=1_010)
    assert len(pair.qa.sq) == 4 and len(pair.qa.inflight) == 1 and len(qc.sq) == 1
    pair.db.reliability.fatal(pair.qb, WCStatus.RETRY_EXC_ERR)
    sim.run()

    assert pair.qa.state is QPState.ERROR and pair.qb.state is QPState.ERROR
    assert [(w.wr_id, w.status) for w in pair.cq_a.poll() if w.qp_num == pair.qa.qpn] == [
        (i, WCStatus.WR_FLUSH_ERR) for i in range(1, 6)]
    assert [(w.wr_id, w.opcode, w.status) for w in pair.cq_b.poll()] == [
        (50, WCOpcode.SEND, WCStatus.RETRY_EXC_ERR)] + [
        (100 + i, WCOpcode.RECV, WCStatus.WR_FLUSH_ERR) for i in range(3)]
    [event] = tracer.of_kind("qp_error")
    assert (event.conn, event.host, event.get("status"), event.get("pending")) == (
        pair.qb.qpn, "b", "retry_exceeded", 1)
    assert pair.db.terms_sent == 1


def test_peer_death_flushes_the_wr_in_its_overhead_window(sim):
    """A WR inside the send pipeline's ``wr_overhead_ns`` window when its QP
    dies stays at the head of the send queue until it would go on the wire:
    the flush completes it in posting order, between the unacked window and
    the queued WRs, and nothing goes out on the ERROR QP afterwards."""
    pair = RelPair(sim)
    for i in range(5):
        pair.post_send(8, wr_id=1 + i)
    sim.run(until=160)  # WR 1 is on the wire
    # the terminate reaches qa at 324 ns, inside WR 3's window (300-450 ns)
    pair.db.reliability.fatal(pair.qb, WCStatus.RETRY_EXC_ERR)
    sim.run()

    assert pair.qa.state is QPState.ERROR
    assert [(w.wr_id, w.status) for w in pair.cq_a.poll()] == [
        (i, WCStatus.WR_FLUSH_ERR) for i in range(1, 6)]
    assert pair.qa.inflight == {} and pair.qa.sq == []
