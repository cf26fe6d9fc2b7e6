"""The receive queue: a lazy prefill run behaves as the same WRs posted one by one.

``ReceiveQueue.prefill`` books a run of identical receives in O(1), and
both ``QueuePair.rq`` and ``SharedReceiveQueue`` are that one type.  The
differential tests drive random sequences of prefill, ``post_recv``,
``take`` and QP error flush into a lazy queue and into a reference that
builds and posts every WR of a prefill one at a time, and require the same
take sequence, depths, counters, errors and flush completions.
"""

from __future__ import annotations

import random
from collections import deque

import pytest

from repro.fabric import Fabric
from repro.simnet import Topology
from repro.verbs import (
    QPStateError,
    ReceiveQueue,
    SharedReceiveQueue,
    VerbsError,
    WCStatus,
)
from repro.verbs.wr import SGE, RecvWR

SGES = (SGE(0x1000, 256, 7), SGE(0x2000, 512, 9))


def _device():
    return Fabric(topology=Topology.point_to_point()).device("client")


class OneByOne:
    """The reference: every WR of a prefill is built and posted on its own.

    It tracks which queued WRs came from a prefill so it can apply the
    queue's ordering rule itself: a prefill may only start on a queue
    holding nothing posted one by one, or extend the queued run with the
    same SGE and the next wr_id.
    """

    def __init__(self, post_one, max_wr=None):
        self.post_one = post_one
        self.max_wr = max_wr
        self.queued = deque()  # (wr, posted_by_prefill), mirroring the FIFO

    def prefill(self, count, sge, wr_id_start):
        if self.max_wr is not None and len(self.queued) + count > self.max_wr:
            raise VerbsError("overflow")
        if count and self.queued:
            if not all(lazy for _wr, lazy in self.queued):
                raise VerbsError("order")
            tail = self.queued[-1][0]
            if tail.wr_id + 1 != wr_id_start or tail.sge != sge:
                raise VerbsError("order")
        for i in range(count):
            wr = RecvWR(wr_id_start + i, sge)
            self.post_one(wr)
            self.queued.append((wr, True))

    def post(self, wr):
        self.post_one(wr)
        self.queued.append((wr, False))

    def took(self):
        self.queued.popleft()


def _outcome(fn, *args):
    """What a call did: its result, or the kind of error it raised."""
    try:
        return ("ok", fn(*args))
    except QPStateError:
        return ("error", "qp-state")
    except VerbsError as exc:
        return ("error", "overflow" if "overflow" in str(exc) else "order")


def _wr_view(wr):
    return (wr.wr_id, wr.sge, wr.context)


def _random_ops(rng, n):
    """A random op sequence; prefill starts mostly continue the last one."""
    ops = []
    next_id = 1
    for _ in range(n):
        kind = rng.choices(("prefill", "post", "take"), (3, 3, 4))[0]
        if kind == "prefill":
            count = rng.choice((0, 1, 2, 3, 5, 8))
            start = next_id if rng.random() < 0.8 else next_id + rng.choice((-1, 1, 7))
            sge = SGES[0] if rng.random() < 0.85 else SGES[1]
            ops.append(("prefill", count, sge, start))
            next_id = start + count
        elif kind == "post":
            context = rng.choice((None, None, next_id * 3))
            ops.append(("post", next_id, rng.choice(SGES), context))
            next_id += 1
        else:
            ops.append(("take",))
    return ops


# ----------------------------------------------------------------------
# the type on its own
# ----------------------------------------------------------------------
def test_prefill_is_the_head_of_the_fifo():
    rq = ReceiveQueue()
    rq.prefill(3, SGES[0], wr_id_start=10)
    rq.prefill(2, SGES[0], wr_id_start=13)  # extends the run
    rq.append(RecvWR(40, SGES[1], "ctx"))
    assert len(rq) == 6
    taken = [_wr_view(rq.take()) for _ in range(6)]
    assert taken == [(i, SGES[0], None) for i in range(10, 15)] + [(40, SGES[1], "ctx")]
    assert len(rq) == 0 and not rq


def test_prefill_that_would_reorder_the_queue_raises():
    rq = ReceiveQueue()
    with pytest.raises(VerbsError, match="non-negative"):
        rq.prefill(-1, SGES[0], wr_id_start=1)
    rq.prefill(2, SGES[0], wr_id_start=1)
    with pytest.raises(VerbsError, match="contiguously"):
        rq.prefill(2, SGES[0], wr_id_start=4)  # skips wr_id 3
    with pytest.raises(VerbsError, match="contiguously"):
        rq.prefill(2, SGES[1], wr_id_start=3)  # a different SGE
    rq.append(RecvWR(3, SGES[0]))
    with pytest.raises(VerbsError, match="jump the queue"):
        rq.prefill(1, SGES[0], wr_id_start=4)
    rq.prefill(0, SGES[1], wr_id_start=99)  # an empty chain posts nothing
    assert [rq.take().wr_id for _ in range(3)] == [1, 2, 3]
    rq.prefill(1, SGES[1], wr_id_start=50)  # empty again: a new run may start
    assert _wr_view(rq.take()) == (50, SGES[1], None)


# ----------------------------------------------------------------------
# differential: QueuePair.rq
# ----------------------------------------------------------------------
def _qp_state(qp):
    return (len(qp.rq), qp.recv_queue_depth, qp.recvs_posted, bool(qp.recv_source))


def _flushed_recvs(qp):
    return [(wc.wr_id, wc.opcode, wc.status, wc.byte_len, wc.context)
            for wc in qp.recv_cq.poll()]


@pytest.mark.parametrize("seed", range(40))
def test_qp_receive_queue_matches_one_by_one_posting(seed):
    rng = random.Random(seed)
    device = _device()
    lazy_qp = device.create_qp(device.create_cq(), device.create_cq())
    ref_qp = device.create_qp(device.create_cq(), device.create_cq())
    ref = OneByOne(ref_qp.post_recv)
    for op in _random_ops(rng, rng.randrange(10, 60)):
        if op[0] == "prefill":
            _, count, sge, start = op
            got = _outcome(lazy_qp.prefill_recv, count, sge, start)
            assert got == _outcome(ref.prefill, count, sge, start), op
        elif op[0] == "post":
            _, wr_id, sge, context = op
            lazy_qp.post_recv(RecvWR(wr_id, sge, context))
            ref.post(RecvWR(wr_id, sge, context))
        elif lazy_qp.recv_source:
            assert _wr_view(lazy_qp.recv_source.take()) == _wr_view(ref_qp.recv_source.take())
            ref.took()
        assert _qp_state(lazy_qp) == _qp_state(ref_qp), op
    if all(lazy for _wr, lazy in ref.queued):
        # end on a lazy run wherever the queue allows one, so the flush sees it
        tail = ref.queued[-1][0] if ref.queued else RecvWR(999, SGES[0])
        lazy_qp.prefill_recv(3, tail.sge, tail.wr_id + 1)
        ref.prefill(3, tail.sge, tail.wr_id + 1)
    # a QP error flushes the posted receives, the lazy run included, in order
    for qp in (lazy_qp, ref_qp):
        qp.to_error()
        qp.flush(WCStatus.RETRY_EXC_ERR)
    flushed = _flushed_recvs(lazy_qp)
    assert flushed == _flushed_recvs(ref_qp)
    assert all(status is WCStatus.WR_FLUSH_ERR for _i, _o, status, _b, _c in flushed)
    assert _qp_state(lazy_qp) == _qp_state(ref_qp) == (0, 0, lazy_qp.recvs_posted, False)
    for qp in (lazy_qp, ref_qp):
        assert _outcome(qp.post_recv, RecvWR(1, SGES[0])) == ("error", "qp-state")
    assert _outcome(lazy_qp.prefill_recv, 1, SGES[0], 1) == ("error", "qp-state")


# ----------------------------------------------------------------------
# differential: SharedReceiveQueue
# ----------------------------------------------------------------------
def _srq_state(srq):
    return (len(srq), srq.depth, srq.free, srq.posted_total, srq.consumed_total,
            srq.min_free)


@pytest.mark.parametrize("seed", range(40))
def test_srq_matches_one_by_one_posting(seed):
    rng = random.Random(1000 + seed)
    device = _device()
    max_wr = rng.choice((4, 8, 16))
    lazy, ref_srq = device.create_srq(max_wr), device.create_srq(max_wr)
    assert isinstance(lazy, ReceiveQueue)
    cq = device.create_cq()
    lazy_qp = device.create_qp(cq, cq, srq=lazy)
    ref_qp = device.create_qp(cq, cq, srq=ref_srq)
    ref = OneByOne(ref_srq.post_recv, max_wr=max_wr)
    for op in _random_ops(rng, rng.randrange(10, 80)):
        if op[0] == "prefill":
            _, count, sge, start = op
            got = _outcome(lazy.prefill, count, sge, start)
            assert got == _outcome(ref.prefill, count, sge, start), op
        elif op[0] == "post":
            _, wr_id, sge, context = op
            got = _outcome(lazy.post_recv, RecvWR(wr_id, sge, context))
            want = _outcome(ref_srq.post_recv, RecvWR(wr_id, sge, context))
            assert got == want, op
            if want[0] == "ok":
                ref.queued.append((None, False))
        elif lazy_qp.recv_source:
            assert _wr_view(lazy.take()) == _wr_view(ref_qp.recv_source.take())
            ref.took()
        assert bool(lazy_qp.recv_source) == bool(ref_qp.recv_source)
        assert _srq_state(lazy) == _srq_state(ref_srq), op
    # an SRQ-attached QP's error flush leaves the shared pool alone
    before = _srq_state(lazy)
    for qp in (lazy_qp, ref_qp):
        qp.to_error()
        assert qp.flush(WCStatus.RETRY_EXC_ERR) == 0
    assert _srq_state(lazy) == _srq_state(ref_srq) == before
    assert cq.poll() == []
    remaining = [_wr_view(lazy.take()) for _ in range(len(lazy))]
    assert remaining == [_wr_view(ref_srq.take()) for _ in range(len(ref_srq))]


def test_srq_keeps_its_overflow_checks_and_counters():
    srq = _device().create_srq(4)
    assert isinstance(srq, SharedReceiveQueue)
    with pytest.raises(VerbsError, match="overflow: bulk post of 5 WRs exceeds 4"):
        srq.prefill(5, SGES[0], wr_id_start=1)
    srq.prefill(3, SGES[0], wr_id_start=1)
    srq.post_recv(RecvWR(4, SGES[0]))
    with pytest.raises(VerbsError, match="overflow: 4 WRs already posted"):
        srq.post_recv(RecvWR(5, SGES[0]))
    assert (srq.posted_total, srq.free, srq.min_free) == (4, 0, 4)
    assert [srq.take().wr_id for _ in range(2)] == [1, 2]
    assert (srq.consumed_total, srq.depth, srq.min_free) == (2, 2, 2)
    assert not hasattr(srq, "__dict__")  # the pool's fields are all declared


# ----------------------------------------------------------------------
# differential: pool reposts extend the lazy run
# ----------------------------------------------------------------------
def _error(fn, *args):
    """The message of the VerbsError a call raised, or None."""
    try:
        fn(*args)
    except VerbsError as exc:
        return str(exc)
    return None


def _pool_state(srq):
    return (len(srq), srq.posted_total, srq.consumed_total, srq.min_free)


@pytest.mark.parametrize("seed", range(20))
def test_extend_run_matches_posting_the_next_wr(seed):
    """An ``SrqPool`` reposts with ``extend_run``: the same as posting
    ``RecvWR(next_wr_id, sge)``, through a drain to empty and a refill."""
    rng = random.Random(2000 + seed)
    depth = rng.choice((1, 4, 8))
    device = _device()
    lazy, ref = device.create_srq(depth), device.create_srq(depth)
    for srq in (lazy, ref):
        srq.prefill(depth, SGES[0], wr_id_start=1)
    next_id = depth + 1
    # drain the pool, refill it, overflow it once, then mix at random
    ops = ["take"] * depth + ["repost"] * (depth + 1)
    ops += rng.choices(("take", "repost"), (1, 1), k=rng.randrange(20, 60))
    for op in ops:
        if op == "take":
            if len(ref):
                assert _wr_view(lazy.take()) == _wr_view(ref.take())
        else:
            want = _error(ref.post_recv, RecvWR(next_id, SGES[0]))
            assert _error(lazy.extend_run) == want, op
            if want is None:
                next_id += 1
        assert _pool_state(lazy) == _pool_state(ref), op
    assert _error(lazy.extend_run) == _error(ref.post_recv, RecvWR(next_id, SGES[0]))
    assert [_wr_view(lazy.take()) for _ in range(len(lazy))] == [
        _wr_view(ref.take()) for _ in range(len(ref))]
    assert lazy._wrs == ()  # no WR was ever built to be held


def test_extend_run_refuses_what_would_reorder_the_queue():
    srq = _device().create_srq(4)
    assert _error(srq.extend_run) == "no prefilled run to extend"
    srq.prefill(1, SGES[0], wr_id_start=1)
    srq.post_recv(RecvWR(7, SGES[1]))
    assert "jump the queue" in _error(srq.extend_run)
    assert srq.posted_total == 2
