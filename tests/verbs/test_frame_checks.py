"""Every check on the verbs frame path, driven through the device.

The post → wire → placement → completion path tests its conditions inline
and calls :meth:`MemoryRegion.require` / :meth:`SendWR.validate` only to
raise, so each case here posts real work requests on a connected pair and
pins the exception type and its exact message, wherever on the path it is
raised: at post time, in the sender's DMA fetch, or at the responder.
"""

import pytest

from repro.hosts import Host
from repro.hosts.memory import Chunk
from repro.simnet import Link, Simulator
from repro.verbs import (
    SGE,
    Access,
    BadWorkRequest,
    Opcode,
    QPStateError,
    ReceiverNotReady,
    RecvWR,
    RemoteAccessError,
    SendWR,
    connect_devices,
)


class Pair:
    """Device *a* and *b* on one link, one connected QP on each, and a
    4 KiB buffer on each side registered with the access each case asks."""

    def __init__(self, access_a=Access.remote(), access_b=Access.remote(), srq=False):
        self.sim = sim = Simulator()
        ha, hb = Host(sim, "a"), Host(sim, "b")
        link = Link(sim, bandwidth_bps=8e9, propagation_delay_ns=100,
                    per_message_overhead_ns=0)
        self.da, self.db = connect_devices(sim, ha, hb, link)
        cq_a, cq_b = self.da.create_cq(), self.db.create_cq()
        self.srq = self.db.create_srq(8) if srq else None
        self.qa = self.da.create_qp(cq_a, cq_a)
        self.qb = self.db.create_qp(cq_b, cq_b, srq=self.srq)
        self.qa.connect(self.qb.qpn)
        self.qb.connect(self.qa.qpn)
        self.mr_a = self.da.register(ha.alloc(4096), access_a)
        self.mr_b = self.db.register(hb.alloc(4096), access_b)

    def send(self, nbytes=16, offset=0, **kw):
        self.qa.post_send(SendWR(opcode=Opcode.SEND, wr_id=1,
                                 sge=SGE(self.mr_a.addr + offset, nbytes, self.mr_a.lkey), **kw))

    def write(self, nbytes=16, remote_offset=0, opcode=Opcode.RDMA_WRITE, rkey=None):
        self.qa.post_send(SendWR(
            opcode=opcode, wr_id=2, sge=SGE(self.mr_a.addr, nbytes, self.mr_a.lkey),
            remote_addr=self.mr_b.addr + remote_offset,
            rkey=self.mr_b.rkey if rkey is None else rkey))

    def recv(self, nbytes=4096, offset=0):
        wr = RecvWR(wr_id=9, sge=SGE(self.mr_b.addr + offset, nbytes, self.mr_b.lkey))
        if self.srq is not None:
            self.srq.post_recv(wr)
        else:
            self.qb.post_recv(wr)


def _outside(mr, addr, nbytes):
    return f"range [0x{addr:x}, +{nbytes}) outside region [0x{mr.addr:x}, +{mr.length})"


def _lacks(need, mr):
    return f"region lacks access {need!r} (has {mr.access!r})"


def _raises_in_run(pair, exc, message):
    with pytest.raises(exc) as info:
        pair.sim.run()
    assert type(info.value) is exc and str(info.value) == message


# -- bounds ------------------------------------------------------------
def test_send_sge_leaving_its_region_fails_the_dma_fetch():
    p = Pair()
    p.recv()
    p.send(nbytes=16, offset=4090)
    _raises_in_run(p, RemoteAccessError, _outside(p.mr_a, p.mr_a.addr + 4090, 16))


def test_send_into_a_recv_sge_leaving_its_region_fails_at_placement():
    p = Pair()
    p.recv(nbytes=64, offset=4090)
    p.send(nbytes=16)
    _raises_in_run(p, RemoteAccessError, _outside(p.mr_b, p.mr_b.addr + 4090, 16))


@pytest.mark.parametrize("opcode", [Opcode.RDMA_WRITE, Opcode.RDMA_WRITE_WITH_IMM])
def test_write_remote_range_leaving_its_region_fails_at_the_responder(opcode):
    p = Pair()
    p.recv()
    p.write(nbytes=16, remote_offset=4090, opcode=opcode)
    _raises_in_run(p, RemoteAccessError, _outside(p.mr_b, p.mr_b.addr + 4090, 16))


def test_a_range_ending_exactly_at_the_region_end_is_inside():
    p = Pair()
    p.recv(nbytes=16, offset=4080)
    p.send(nbytes=16, offset=4080)
    p.write(nbytes=16, remote_offset=4080)
    p.sim.run()
    assert [wc.wr_id for wc in p.qa.send_cq.poll()] == [1, 2]


# -- deregistered regions and unknown keys -------------------------------
def test_deregistered_send_region_is_an_unknown_lkey():
    p = Pair()
    p.recv()
    p.send()
    p.da.pd.deregister(p.mr_a)
    _raises_in_run(p, RemoteAccessError, f"unknown lkey {p.mr_a.lkey}")


def test_deregistered_recv_region_is_an_unknown_lkey():
    p = Pair()
    p.recv()
    p.send()
    p.db.pd.deregister(p.mr_b)
    _raises_in_run(p, RemoteAccessError, f"unknown lkey {p.mr_b.lkey}")


def test_deregistered_write_target_is_an_unknown_rkey():
    p = Pair()
    p.write()
    p.db.pd.deregister(p.mr_b)
    _raises_in_run(p, RemoteAccessError, f"RDMA WRITE with unknown rkey {p.mr_b.rkey}")


def test_an_invalidated_region_still_in_its_table_is_refused():
    """``MemoryRegion.valid`` is tested before bounds and access."""
    p = Pair()
    p.write()
    p.mr_b.valid = False
    _raises_in_run(p, RemoteAccessError, "memory region has been deregistered")


def test_unknown_rkey():
    p = Pair()
    p.write(rkey=0x7777)
    _raises_in_run(p, RemoteAccessError, "RDMA WRITE with unknown rkey 30583")


# -- access rights --------------------------------------------------------
def test_recv_region_without_local_write():
    p = Pair(access_b=Access.LOCAL_READ | Access.REMOTE_WRITE)
    p.recv()
    p.send()
    _raises_in_run(p, RemoteAccessError, _lacks(Access.LOCAL_WRITE, p.mr_b))


def test_write_target_without_remote_write():
    p = Pair(access_b=Access.local())
    p.write()
    _raises_in_run(p, RemoteAccessError, _lacks(Access.REMOTE_WRITE, p.mr_b))


def test_send_region_without_local_read():
    p = Pair(access_a=Access.LOCAL_WRITE)
    p.recv()
    p.send()
    _raises_in_run(p, RemoteAccessError, _lacks(Access.LOCAL_READ, p.mr_a))


# -- receive sizing and readiness ----------------------------------------
def test_send_larger_than_its_recv():
    p = Pair()
    p.recv(nbytes=8)
    p.send(nbytes=16)
    _raises_in_run(p, BadWorkRequest, "SEND of 16B overflows RECV of 8B")


def test_send_into_a_zero_length_recv():
    p = Pair()
    p.qb.post_recv(RecvWR(wr_id=9))
    p.send(nbytes=16)
    _raises_in_run(p, BadWorkRequest, "SEND of 16B overflows RECV of 0B")


@pytest.mark.parametrize("what", ["SEND", "WRITE_WITH_IMM"])
def test_empty_receive_queue_without_reliability(what):
    p = Pair()
    if what == "SEND":
        p.send(nbytes=16)
        what = "SEND of 16B"
    else:
        p.write(opcode=Opcode.RDMA_WRITE_WITH_IMM)
    _raises_in_run(p, ReceiverNotReady,
                   f"{what} on QP {p.qb.qpn} with empty receive queue "
                   "(EXS credit accounting bug?)")


def test_empty_shared_receive_queue_without_reliability():
    p = Pair(srq=True)
    p.send(nbytes=16)
    _raises_in_run(p, ReceiverNotReady,
                   f"SEND of 16B on QP {p.qb.qpn} with empty receive queue: the shared "
                   "receive pool (srq_depth=8, 1 attached QPs) is exhausted; raise "
                   "srq_depth, or configure a ReliabilityConfig so RNR NAKs back the "
                   "senders off until buffers are reposted")
    assert p.srq.empty_hits == 1


# -- work-request validation at post time ----------------------------------
@pytest.mark.parametrize("wr, message", [
    (SendWR(opcode=Opcode.RDMA_WRITE, sge=SGE(0, 8, 1)), "rdma_write requires an rkey"),
    (SendWR(opcode=Opcode.RDMA_WRITE_WITH_IMM, sge=SGE(0, 8, 1)),
     "rdma_write_with_imm requires an rkey"),
    (SendWR(opcode=Opcode.SEND), "send WR requires an SGE"),
    (SendWR(opcode=Opcode.RDMA_WRITE, rkey=5), "send WR requires an SGE"),
    (SendWR(opcode=Opcode.SEND, sge=SGE(0, 4, 1), payload=Chunk(0, 8)),
     "payload length does not match SGE length"),
], ids=["write-rkey0", "wwi-rkey0", "no-sge", "write-no-sge", "payload-mismatch"])
def test_invalid_work_requests_fail_their_poster(wr, message):
    p = Pair()
    with pytest.raises(BadWorkRequest) as info:
        p.qa.post_send(wr)
    assert str(info.value) == message
    assert len(p.qa.sq) == 0 and p.qa.sends_posted == 0


def test_post_send_outside_ready():
    p = Pair()
    p.qa.to_error()
    with pytest.raises(QPStateError) as info:
        p.send()
    assert str(info.value) == f"post_send on QP {p.qa.qpn} in state QPState.ERROR"


def test_post_recv_on_an_srq_attached_qp():
    p = Pair(srq=True)
    with pytest.raises(BadWorkRequest) as info:
        p.qb.post_recv(RecvWR(wr_id=1))
    assert str(info.value) == f"QP {p.qb.qpn} is SRQ-attached; post receives to the SRQ"
    assert p.qb.recvs_posted == 0


def test_post_recv_in_error():
    p = Pair()
    p.qb.to_error()
    with pytest.raises(QPStateError) as info:
        p.qb.post_recv(RecvWR(wr_id=1))
    assert str(info.value) == f"post_recv on QP {p.qb.qpn} in ERROR state"
    assert p.qb.recvs_posted == 0
