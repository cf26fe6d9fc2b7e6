"""The HCA send pipeline: WR order and timing, work-request validation at
post time, failures that surface from ``run()``, and cumulative ACKs."""

import itertools
import random

import pytest

from repro.hosts import Host
from repro.simnet import Link, Simulator
from repro.verbs import (
    SGE,
    AckMessage,
    BadWorkRequest,
    DeviceConfig,
    Opcode,
    RecvWR,
    SendWR,
    connect_devices,
)


def _three_qps(sim, config):
    """Device *a* with three QPs connected to three on device *b*."""
    ha, hb = Host(sim, "a"), Host(sim, "b")
    link = Link(sim, bandwidth_bps=8e9, propagation_delay_ns=100,
                per_message_overhead_ns=0)
    da, db = connect_devices(sim, ha, hb, link, config, DeviceConfig())
    cq_a, cq_b = da.create_cq(), db.create_cq()
    mr_a = da.register(ha.alloc(4096))
    mr_b = db.register(hb.alloc(4096))
    qps, peers = [], []
    for _ in range(3):
        qa, qb = da.create_qp(cq_a, cq_a), db.create_qp(cq_b, cq_b)
        qa.connect(qb.qpn)
        qb.connect(qa.qpn)
        qps.append(qa)
        peers.append(qb)
    return da, qps, peers, mr_a, mr_b


def _pipeline_run(overhead_ns):
    """Interleaved WRITEs on three QPs of one device, posted (a) before the
    pipeline's first wake-up, (b) while a WR sits in its overhead window
    (the kick is latched), (c) after the pipeline parked, and (d) to a QP
    that re-enters the round-robin after draining; one QP is moved to
    ERROR with WRs still queued.  Returns the transmit log ``(time, qp,
    wr_id)``, the end time, the calendar's event count and the SQ depths.
    """
    sim = Simulator()
    dev, qps, _peers, mr_a, mr_b = _three_qps(
        sim, DeviceConfig(wr_overhead_ns=overhead_ns))
    log = []
    transmit = dev._transmit_wr

    def spy(qp, wr):
        log.append((sim.now, qps.index(qp), wr.wr_id))
        transmit(qp, wr)

    dev._transmit_wr = spy
    ids = itertools.count(1)

    def post(i, n, nbytes=256):
        for _ in range(n):
            qps[i].post_send(SendWR(
                opcode=Opcode.RDMA_WRITE, wr_id=next(ids),
                sge=SGE(mr_a.addr, nbytes, mr_a.lkey),
                remote_addr=mr_b.addr, rkey=mr_b.rkey))

    post(0, 3)  # before the pipeline's first wake-up
    post(1, 2)
    for at, action in (
        (100, lambda: post(2, 2)),          # inside the first overhead window
        (101, lambda: post(0, 1)),          # second kick in the same window
        (400, lambda: qps[1].to_error()),   # dies with a WR still queued
        (5_000, lambda: post(2, 1)),        # after parking: an idle kick
        (5_000, lambda: post(0, 2)),        # same instant, another QP
        (5_075, lambda: post(2, 1, 64)),    # QP 2 re-enters the round-robin
        (9_000, lambda: post(0, 1)),        # long idle, then one more
    ):
        sim.call_in(at, lambda _arg, action=action: action())
    sim.run()
    return log, sim.now, sim.events_executed, [len(qp.sq) for qp in qps]


#: _pipeline_run's results, captured from the generator-process engine the
#: callback chain replaced: same transmit order and times, same number of
#: calendar events (wake-ups and overhead waits included)
EXPECTED = {
    150: ([(150, 0, 1), (300, 1, 4), (450, 2, 6), (600, 0, 2), (750, 2, 7),
           (900, 0, 3), (1050, 0, 8), (5150, 2, 9), (5300, 0, 10), (5450, 2, 12),
           (5600, 0, 11), (9150, 0, 13)], 9770, 49, [0, 1, 0]),
    0: ([(0, 0, 1), (0, 1, 4), (0, 0, 2), (0, 1, 5), (0, 0, 3), (100, 2, 6),
         (100, 2, 7), (101, 0, 8), (5000, 2, 9), (5000, 0, 10), (5000, 0, 11),
         (5075, 2, 12), (9000, 0, 13)], 9620, 43, [0, 0, 0]),
}


@pytest.mark.parametrize("overhead_ns", sorted(EXPECTED))
def test_pipeline_order_and_timing_are_pinned(overhead_ns):
    assert _pipeline_run(overhead_ns) == EXPECTED[overhead_ns]


def test_oversize_wr_is_rejected_at_post_time():
    """An oversize WR fails its poster, and the pipeline keeps working."""
    sim = Simulator()
    _dev, (qp, *_), (peer, *_), mr_a, mr_b = _three_qps(
        sim, DeviceConfig(max_msg_bytes=1024))
    peer.post_recv(RecvWR(wr_id=9, sge=SGE(mr_b.addr, 4096, mr_b.lkey)))
    with pytest.raises(BadWorkRequest, match="message of 2048B exceeds max_msg_bytes"):
        qp.post_send(SendWR(opcode=Opcode.SEND, wr_id=1,
                            sge=SGE(mr_a.addr, 2048, mr_a.lkey)))
    assert len(qp.sq) == 0
    qp.post_send(SendWR(opcode=Opcode.SEND, wr_id=2, sge=SGE(mr_a.addr, 16, mr_a.lkey)))
    sim.run()
    assert [wc.wr_id for wc in qp.send_cq.poll()] == [2]
    assert [wc.wr_id for wc in peer.recv_cq.poll()] == [9]


def test_pipeline_failure_escapes_run():
    sim = Simulator()
    dev, (qp, *_), _peers, mr_a, mr_b = _three_qps(sim, DeviceConfig())

    def broken(_qp, _wr):
        raise RuntimeError("transmit failed")

    dev._transmit_wr = broken
    qp.post_send(SendWR(opcode=Opcode.RDMA_WRITE, wr_id=1,
                        sge=SGE(mr_a.addr, 16, mr_a.lkey),
                        remote_addr=mr_b.addr, rkey=mr_b.rkey))
    with pytest.raises(RuntimeError, match="transmit failed"):
        sim.run()


def _ack_up_to_sorted(inflight, msn):
    """The reference: every in-flight WR with seq <= msn, by sorted seq."""
    return [inflight.pop(seq) for seq in sorted(inflight) if seq <= msn]


@pytest.mark.parametrize("seed", range(20))
def test_ack_up_to_matches_the_sorted_walk(seed):
    """Random transmit / cumulative-ACK sequences over in-flight seqs with
    holes: the ACK's prefix walk completes exactly what a sorted scan pops,
    in seq order."""
    rng = random.Random(seed)
    sim = Simulator()
    dev, (qp, *_), *_rest = _three_qps(sim, DeviceConfig())
    reference = {}
    msn = -1
    for _ in range(300):
        op = rng.random()
        if op < 0.5:
            seq = qp._next_seq
            qp._next_seq += 1
            qp.inflight[seq] = reference[seq] = SendWR(
                opcode=Opcode.SEND, wr_id=seq, sge=SGE(0, 1, 1))
        elif op < 0.65 and qp.inflight:
            # a hole in the keys
            seq = rng.choice(list(qp.inflight))
            assert qp.inflight.pop(seq) is reference.pop(seq)
        else:
            msn = max(msn, rng.randrange(-1, qp._next_seq + 1))
            if rng.random() < 0.2:
                msn = rng.randrange(-1, msn + 1)  # stale ACK
            dev._on_ack(AckMessage(qp.qpn, msn))
            assert ([wc.wr_id for wc in qp.send_cq.poll()]
                    == [wr.wr_id for wr in _ack_up_to_sorted(reference, msn)])
        assert list(qp.inflight) == sorted(reference)
