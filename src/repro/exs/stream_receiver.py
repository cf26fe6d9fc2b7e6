"""Receiver halves: what every transport's receiver shares
(:class:`ReceiverBase`), and the stream receiver of the paper's WWI protocol.

:class:`StreamReceiverHalf` executes the decisions of
:class:`repro.core.receiver_algo.ReceiverAlgorithm`: advertising user
receive buffers, accounting direct arrivals (zero-copy — the HCA already
placed the bytes), copying indirect arrivals out of the intermediate ring
into user memory (charging the host CPU, which is the paper's receive-side
CPU-usage story), acknowledging freed ring space, and delivering
``exs_recv()`` completions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from ..core import CopyPlan, ProtocolMode, ReceiverAlgorithm, ReceiverRing, RingSegment
from ..core.invariants import require
from ..hosts.memory import Buffer
from ..verbs import SGE, RecvWR
from .control import (
    IMM_DIRECT,
    IMM_INDIRECT,
    RECV_BUF_BYTES,
    AdvertMsg,
    CreditMsg,
    DataNotifyMsg,
    FinMsg,
    RingAckMsg,
    decode_imm,
)
from .eventqueue import ExsEvent, ExsEventType

if TYPE_CHECKING:  # pragma: no cover
    from .connection import ExsConnection

__all__ = ["UserRecv", "ReceiverBase", "StreamReceiverHalf"]

#: a ring ACK goes out once 1/ACK_DIVISOR of the ring has been copied out
#: since the last one, and always when the ring drains empty
ACK_DIVISOR = 4


@dataclass
class UserRecv:
    """One pending ``exs_recv()`` request."""

    buffer: Buffer
    mr: Any
    offset: int
    nbytes: int
    waitall: bool
    eq: Any
    context: Any = None
    posted_at_ns: int = 0


class ReceiverBase:
    """What every receiver half shares: the control receive pool, end of
    stream (the peer's FIN, EOF at submit, EOF delivery), failure draining
    and ``exs_recv()`` delivery.

    Subclasses queue receives (``_enqueue(urecv)``, returning the ADVERT
    to send, if any), take every pending one in order
    (``_drain_pending()``, yielding ``(urecv, bytes filled)``), say when
    the stream is over (``_stream_finished()``), and declare the class
    tables the connection dispatches arrivals by, plain functions called
    with the half first: :attr:`control` (``handler(half, msg)``; the
    receive is reposted first), :attr:`payload` (SENDs that carry or
    announce payload, ``handler(half, msg, slot)``; the handler reposts the
    receive when done with it) and :attr:`imm` (WRITE WITH IMM arrivals by
    immediate type, ``handler(half, imm_id, nbytes, stream_offset,
    remote_addr)``).
    """

    #: control receives are interchangeable, so a stack-wide SRQ may
    #: back them instead of this pool
    shares_srq = True
    #: the pure protocol core, if the transport has one (phase tracing)
    algo = None
    #: engine guards (plain attributes, tested every progress round):
    #: False only when :meth:`next_copy` / :meth:`flush_adverts` would
    #: certainly come back empty
    copy_ready = False
    adverts_due = False

    def __init__(self, conn: "ExsConnection") -> None:
        self.conn = conn
        #: end-of-stream sequence number from the peer's FIN, if received
        self.eof_seq: Optional[int] = None
        #: throughput equation (1) end point: the last completion
        self.last_delivery_ns: Optional[int] = None
        #: registration of the receive pool (control SENDs name it too)
        self.pool_mr = self._register_pool()

    # ------------------------------------------------------------------
    # receive pool
    # ------------------------------------------------------------------
    def _register_pool(self):
        """Allocate and register the receive pool; returns its region.
        Control messages carry their payload as a python object, so one
        synthetic buffer backs the whole pool."""
        conn = self.conn
        buf = conn.host.alloc(RECV_BUF_BYTES, real=False, label=f"exs{conn.conn_id}:ctrl")
        mr = conn.device.register(buf)
        self._recv_sge = SGE(mr.addr, RECV_BUF_BYTES, mr.lkey)
        return mr

    def post_initial_recvs(self) -> None:
        """Pre-post the pool (paper §II-B: *n* RECVs at startup).

        One run of identical RECVs, posted as one lazy chain: it takes the
        next ``credits`` wr_ids from the connection's counter, as posting
        them one by one would.
        """
        conn = self.conn
        credits = conn.options.credits
        conn.qp.prefill_recv(credits, self._recv_sge, wr_id_start=conn._wr_id + 1)
        conn._wr_id += credits

    def repost_recv(self, slot: Any) -> None:
        """Post one receive back into the pool (*slot*: the consumed one's context)."""
        conn = self.conn
        conn._wr_id += 1
        conn.qp.post_recv(RecvWR(wr_id=conn._wr_id, sge=self._recv_sge))

    def hello(self) -> Dict[str, int]:
        """This half's fields of the connection's hello."""
        return {}

    # ------------------------------------------------------------------
    # user-facing
    # ------------------------------------------------------------------
    def submit(self, urecv: UserRecv) -> Optional[AdvertMsg]:
        """Queue an ``exs_recv``; returns the ADVERT to enqueue, if any.

        Once the stream is fully delivered it completes at once, empty,
        with EOF (the base delivery: it moves no plane's throughput end
        point).
        """
        if self.eof_seq is not None and self._stream_finished():
            ReceiverBase._deliver(self, urecv, 0, eof=True)
            return None
        return self._enqueue(urecv)

    # ------------------------------------------------------------------
    # engine-facing
    # ------------------------------------------------------------------
    def on_notify(self, msg: DataNotifyMsg, slot: Any) -> None:
        """iWARP emulation: this SEND notifies of an RDMA WRITE that the
        transport already placed (same QP, in order)."""
        conn = self.conn
        conn.recycle_recv(slot)
        kind, imm_id = decode_imm(msg.imm_data)
        handler = self.imm.get(kind)
        if handler is None:
            conn.unhandled(f"notify immediate {msg.imm_data:#x}")
        handler(self, imm_id, msg.nbytes, msg.stream_offset, msg.remote_addr)

    # A receiver with no staging area to copy out of, and no ADVERTs held
    # back for a gate, keeps both engine guards False: these never run.
    def next_copy(self) -> Optional[Any]:
        return None

    def execute_copy(self, plan: Any):
        raise TypeError(f"{type(self).__name__} has no staging area to copy out of")

    def flush_adverts(self) -> List[AdvertMsg]:
        return []

    def on_fin(self, final_seq: int) -> None:
        """Record the peer's FIN; idempotent.

        A FIN retransmitted by the reliability layer (or replayed by the
        dup fault) after the stream finished must be a no-op — re-recording
        it could double-fire EOF delivery through :meth:`pump_eof`.
        """
        require(self.eof_seq is None or self.eof_seq == final_seq, "FIN", "conflicting FINs")
        if self.eof_seq is not None:
            return
        self.eof_seq = final_seq

    def on_fin_msg(self, msg: FinMsg) -> None:
        self.on_fin(msg.final_seq)

    def on_credit(self, msg: CreditMsg) -> None:
        """A standalone grant: its ``credit_cum``, applied on arrival like
        every control message's, is all it carries."""

    def pump_eof(self) -> bool:
        """Deliver EOF completions once the stream is fully consumed.

        Partial WAITALL receives complete short at end of stream.
        """
        if not self._stream_finished():
            return False
        progressed = False
        for urecv, filled in self._drain_pending():
            self._deliver(urecv, filled, eof=True)
            progressed = True
        return progressed

    def fail_pending(self) -> List[Tuple[Any, Any]]:
        """Connection died: drain every pending recv for ERROR delivery."""
        return [(urecv.eq, urecv.context) for urecv, _filled in self._drain_pending()]

    def _deliver(self, urecv: UserRecv, nbytes: int, eof: bool = False) -> None:
        """Complete one ``exs_recv`` with *nbytes*."""
        if not eof:
            self.last_delivery_ns = self.conn.sim._now
        if self.conn.tracer is not None:
            # deliveries are in stream order (RC), so spans can recover the
            # exact delivered range from the cumulative nbytes; the receive's
            # size and WAITALL flag let a trace check the completion contract
            if eof:
                self.conn.trace("deliver", nbytes=nbytes, recv_len=urecv.nbytes,
                                waitall=urecv.waitall, eof=True)
            else:
                self.conn.trace("deliver", nbytes=nbytes, recv_len=urecv.nbytes,
                                waitall=urecv.waitall)
        # positional, in field order: kind, socket, nbytes, eof, truncated,
        # context
        urecv.eq.post(ExsEvent(ExsEventType.RECV, self.conn.socket, nbytes, eof, False,
                               urecv.context))

    #: the metric suffixes of :meth:`gauges`, declared once per class
    gauge_names: Tuple[str, ...] = ()

    def gauges(self) -> Tuple[float, ...]:
        """Sample-time telemetry of this half, one value per ``gauge_names``."""
        return ()

    # dispatch tables: what every receiver takes; subclasses extend them
    control: Dict[type, Any] = {CreditMsg: on_credit, FinMsg: on_fin_msg}
    payload: Dict[type, Any] = {}
    imm: Dict[int, Any] = {}


class StreamReceiverHalf(ReceiverBase):
    """Inbound direction of one EXS stream socket (WWI transport).

    Owns the intermediate ring the peer's indirect transfers land in.
    """

    def __init__(self, conn: "ExsConnection") -> None:
        super().__init__(conn)
        #: intermediate ring for data we RECEIVE
        self.ring_buffer = ring_buffer = conn.host.alloc(
            conn.options.ring_capacity, real=conn.options.real_data,
            label=f"exs{conn.conn_id}:ring"
        )
        ring_buffer.meter = conn.copy_meter
        self.ring_mr = conn.device.register(ring_buffer)
        self.algo = ReceiverAlgorithm(
            ReceiverRing(ring_buffer.nbytes),
            mode=conn.options.mode,
            stats=conn.rx_stats,
        )
        #: cumulative copied-out count included in the last ring ACK
        self._last_acked_copied = 0

    def hello(self) -> Dict[str, int]:
        return {
            "ring_addr": self.ring_mr.addr,
            "ring_rkey": self.ring_mr.rkey,
            "ring_capacity": self.ring_buffer.nbytes,
        }

    def _enqueue(self, urecv: UserRecv) -> Optional[AdvertMsg]:
        entry, advert = self.algo.post_recv(
            urecv.nbytes,
            waitall=urecv.waitall,
            context=urecv,
            advert_remote_addr=urecv.mr.addr + urecv.offset,
            advert_rkey=urecv.mr.rkey,
        )
        self.copy_ready = self.algo.ring.stored > 0
        if advert is not None:
            return AdvertMsg(advert=advert)
        # suppressed: flush_adverts sends it once the gate opens
        self.adverts_due = self.algo.mode is not ProtocolMode.INDIRECT_ONLY
        return None

    # ------------------------------------------------------------------
    # engine-facing: arrivals
    # ------------------------------------------------------------------
    def on_direct_arrival(self, advert_id: int, nbytes: int, stream_offset: int, remote_addr: int) -> None:
        """A direct WWI landed in advertised user memory (zero copy)."""
        head = self.algo.head_entry
        require(head is not None and head.advert is not None,
                "Theorem 1", "direct arrival with no advertised head entry")
        buffer_offset = remote_addr - head.advert.remote_addr
        done = self.algo.on_direct_arrival(stream_offset, nbytes, advert_id, buffer_offset)
        for entry in done:
            self._deliver(entry.context, entry.filled)

    def on_indirect_arrival(self, _imm_id: int, nbytes: int, stream_offset: int, remote_addr: int) -> None:
        """An indirect WWI landed in the intermediate ring (its immediate
        names no ADVERT)."""
        seg = RingSegment(remote_addr - self.ring_mr.addr, nbytes)
        self.algo.on_indirect_arrival(stream_offset, seg)
        self.copy_ready = True

    # ------------------------------------------------------------------
    # engine-facing: copy pump
    # ------------------------------------------------------------------
    def next_copy(self) -> Optional[CopyPlan]:
        plan = self.algo.next_copy()
        if plan is None:
            self.copy_ready = False
        return plan

    def execute_copy(self, plan: CopyPlan):
        """Perform one copy out of the ring (engine-body generator: yields
        the copy's library-core ns)."""
        conn = self.conn
        # The memcpy occupies the library thread — this cost is the origin
        # of the indirect protocol's high receiver CPU usage (paper Fig. 10).
        if conn.tracer is not None:
            # algo.seq is the stream position of the ring head — the copied
            # range is [seq, seq + nbytes), which is what span stitching uses
            conn.trace("copy", nbytes=plan.nbytes, seq=self.algo.seq)
        yield conn.host.copy_ns(plan.nbytes)
        urecv: UserRecv = plan.entry.context
        # Gather zero-copy ring views, scatter-write them into user memory:
        # the indirect path's one real memcpy (and its metered copy).
        views = self.ring_buffer.gather(
            (seg.offset, seg.nbytes) for seg in plan.ring_segments)
        if views is not None:
            urecv.buffer.scatter_write(urecv.offset + plan.dest_offset, views)
        for entry in self.algo.on_copied(plan):
            self._deliver(entry.context, entry.filled)
        self._maybe_queue_ring_ack()

    def _maybe_queue_ring_ack(self) -> None:
        copied = self.algo.ring.copied_total
        owed = copied - self._last_acked_copied
        if owed <= 0:
            return
        threshold = max(1, self.algo.ring.capacity // ACK_DIVISOR)
        if owed >= threshold or self.algo.ring.is_empty:
            self._last_acked_copied = copied
            self.conn.queue_control(RingAckMsg(copied_cum=copied))
            self.conn.rx_stats.ring_acks_sent += 1

    # ------------------------------------------------------------------
    # engine-facing: advert flush / EOF
    # ------------------------------------------------------------------
    def flush_adverts(self) -> List[AdvertMsg]:
        pairs = self.algo.flush_adverts(
            lambda entry: (entry.context.mr.addr + entry.context.offset, entry.context.mr.rkey)
        )
        self.adverts_due = self.algo.unadvertised_recvs > 0
        return [AdvertMsg(advert=advert) for _entry, advert in pairs]

    def _drain_pending(self):
        queue = self.algo.queue
        while queue:
            entry = queue.pop(0)
            entry.completed = True
            yield entry.context, entry.filled

    def _stream_finished(self) -> bool:
        return (
            self.eof_seq is not None
            and self.algo.seq == self.eof_seq
            and self.algo.ring.is_empty
        )

    gauge_names = ("rx.ring_stored",)

    def gauges(self) -> Tuple[float, ...]:
        return (self.algo.ring.stored,)

    payload = {DataNotifyMsg: ReceiverBase.on_notify}
    imm = {IMM_DIRECT: on_direct_arrival, IMM_INDIRECT: on_indirect_arrival}
