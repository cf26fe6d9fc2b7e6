"""Sender halves: the ``exs_send`` bookkeeping every transport shares
(:class:`SenderBase`), and the stream sender of the paper's WWI protocol.

:class:`StreamSenderHalf` executes the decisions of
:class:`repro.core.sender_algo.SenderAlgorithm` over the verbs transport:
slicing user buffers into WRITE-WITH-IMM transfers (direct into advertised
user memory, or indirect into the peer's intermediate ring) and consuming
send credits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from ..core import DirectPlan, IndirectPlan, SenderAlgorithm, SenderRingView
from ..hosts.memory import Buffer, Chunk
from ..verbs import SGE, Opcode, SendWR
from .control import AdvertMsg, DataNotifyMsg, RingAckMsg, encode_direct_imm, encode_indirect_imm
from .eventqueue import ExsEvent, ExsEventType

if TYPE_CHECKING:  # pragma: no cover
    from .connection import ExsConnection

__all__ = ["UserSend", "SenderBase", "StreamSenderHalf"]


@dataclass
class UserSend:
    """One pending ``exs_send()`` request."""

    send_id: int
    buffer: Buffer
    mr: Any  # verbs MemoryRegion of the user buffer
    offset: int
    nbytes: int
    eq: Any  # ExsEventQueue for the completion
    context: Any = None
    #: bytes handed to the transport so far
    planned: int = 0
    #: bytes acknowledged by the transport so far
    acked: int = 0
    posted_at_ns: int = 0
    #: False for staged (sender-copy) sends whose completion event was
    #: already delivered when the staging copy finished
    notify_completion: bool = True
    #: SOCK_SEQPACKET: the message was cut to the advertised buffer
    #: (``nbytes`` is then what moved); set by the sender, not a field
    truncated = False

    @property
    def unplanned(self) -> int:
        return self.nbytes - self.planned


class SenderBase:
    """What every sender half does with ``exs_send`` requests: FIFO
    submission, zero-copy pinned slices of the user buffer, completing a
    send once the transport acknowledged all of its bytes (RC semantics —
    only then may the user reuse the memory), failure draining, and the
    drain test a graceful close waits on.

    Subclasses add :meth:`pump` (engine-body generator: hand pending sends
    to the transport; returns True if anything moved), ``final_seq`` (what
    the FIN carries) and :attr:`control`, their class table of the control
    messages the peer's receiver sends them (``handler(half, msg)``).
    """

    #: the pure protocol core, if the transport has one (phase tracing)
    algo = None
    #: data transfers may run as RDMA WRITE + notify SEND when the
    #: hardware lacks WRITE WITH IMM (``native_write_with_imm=False``)
    emulates_write_with_imm = True
    #: the fewest ``credits`` the half makes progress with (connection setup
    #: refuses fewer): the control reserve (2), the credits one data post
    #: takes, and the repost credits a receiver may hold back below its
    #: explicit-update threshold (``credits // 2``, so one at 4 or 5).
    #: Below 4 that threshold is 1, and the two ends trade credit updates
    #: forever.  Each subclass declares its own value.
    min_credits: int

    def __init__(self, conn: "ExsConnection") -> None:
        self.conn = conn
        #: user sends with unplanned bytes remaining (FIFO)
        self.pending: List[UserSend] = []
        #: every submitted-but-not-fully-acked send, by id (insertion order).
        #: `pending` drops a send once fully *planned*; this map keeps it
        #: until fully *acked* so connection failure can error it out.
        self._incomplete: "dict[int, UserSend]" = {}
        #: the id of the next submitted send
        self._next_send_id = 1
        #: throughput equation (1) start point: the first transfer posted
        self.first_post_ns: Optional[int] = None

    # ------------------------------------------------------------------
    # user-facing
    # ------------------------------------------------------------------
    def submit(self, buffer: Buffer, mr: Any, offset: int, nbytes: int, eq: Any, context: Any) -> UserSend:
        """Queue an ``exs_send`` of the user's (registered) buffer."""
        send_id = self._next_send_id
        self._next_send_id = send_id + 1
        usend = UserSend(send_id, buffer, mr, offset, nbytes, eq, context,
                         posted_at_ns=self.conn.sim.now)
        self.pending.append(usend)
        self._incomplete[usend.send_id] = usend
        if self.conn.tracer is not None:
            # span root: one "send" per exs_send, in submit (= stream) order
            self.conn.trace("send", send_id=usend.send_id, nbytes=nbytes)
        return usend

    def submit_staged(self, buffer: Buffer, offset: int, nbytes: int, eq: Any, context: Any):
        """Queue an ``exs_send`` with SDP-BCopy / rsockets semantics
        (``sender_copy``): copy into a registered library staging buffer on
        the application core, complete the user send right afterwards, and
        transmit from the copy.  Simulation-process body."""
        conn = self.conn
        host = conn.host
        yield from host.app_cpu.work(conn.costs.copy_ns(nbytes, host.copy_bandwidth_bps))
        if conn.broken:
            # The connection died while the staging copy ran.
            conn.post_error(eq, context)
            return
        staging = host.alloc(nbytes, real=conn.options.real_data and buffer.is_real,
                             label=f"exs{conn.conn_id}:stage")
        staging.meter = conn.copy_meter
        if staging.is_real:
            # One metered copy straight from a view of the user buffer into
            # staging (the deliberate sender-copy of SDP-BCopy semantics).
            staging.write(0, buffer.view(offset, nbytes))
        usend = self.submit(staging, conn.device.register(staging), 0, nbytes, eq, context)
        usend.notify_completion = False
        # TCP-style semantics: the user's buffer is free as soon as the
        # copy is done; completion is delivered now.
        eq.post(ExsEvent(kind=ExsEventType.SEND, socket=conn.socket,
                         nbytes=nbytes, context=context))
        conn.kick()

    # ------------------------------------------------------------------
    # engine-facing
    # ------------------------------------------------------------------
    def _note_blocked(self) -> None:
        """The head send waits for credits."""
        conn = self.conn
        conn.tx_stats.sender_blocked += 1
        rec = conn.sim._recorder
        if rec is not None:
            rec.note_credit_block(conn.conn_id, conn.sim.now)

    def _note_posting(self) -> None:
        """A transfer is about to be posted."""
        conn = self.conn
        if self.first_post_ns is None:
            self.first_post_ns = conn.sim.now
        rec = conn.sim._recorder
        if rec is not None:
            # Ends any open credit-stall window for this connection; the
            # critical-path walker relabels overlapping time as credit_wait.
            rec.note_credit_unblock(conn.conn_id, conn.sim.now)

    def _slice(self, usend: UserSend, stream_seq: int, nbytes: int, local_offset: Optional[int] = None) -> Chunk:
        """Zero-copy slice of the user buffer for one transfer: a live
        ``memoryview`` pinned until the transport ack (RC semantics: the
        user may not reuse the memory before the send completes, so
        retransmission and fault duplication always re-deliver the original
        bytes), released in :meth:`ExsConnection._handle_send_done`."""
        off = usend.offset + (usend.planned if local_offset is None else local_offset)
        view = usend.buffer.view(off, nbytes)
        pin = usend.buffer.pin_range(off, nbytes) if view is not None else None
        return Chunk(stream_seq, nbytes, view, pin=pin)

    def _post_data(self, usend: UserSend, chunk: Chunk, *, local_addr: int,
                   remote_addr: int, rkey: int, imm: int) -> None:
        """Post one data chunk: native WRITE-WITH-IMM, or the paper's older-
        iWARP emulation (RDMA WRITE followed by a small notification SEND).
        The caller has charged the post.
        """
        conn = self.conn
        native = conn.options.native_write_with_imm
        if native:
            conn.credits.consume(1)  # the WWI consumes a RECV at the peer
        # (emulated: a silent RDMA WRITE, no RECV consumed, no credit ...)
        conn.qp.post_send(SendWR(
            opcode=Opcode.RDMA_WRITE_WITH_IMM if native else Opcode.RDMA_WRITE,
            wr_id=conn.next_wr_id(),
            sge=SGE(local_addr, chunk.nbytes, usend.mr.lkey),
            remote_addr=remote_addr,
            rkey=rkey,
            imm_data=imm if native else 0,
            payload=chunk,
            context=("data", usend, chunk),
        ))
        if not native:
            # ... then the notification SEND (same QP, so it arrives after
            # the data is placed; this one does consume a credit).
            conn.queue_control(DataNotifyMsg(
                imm_data=imm,
                nbytes=chunk.nbytes,
                stream_offset=chunk.stream_offset,
                remote_addr=remote_addr,
            ))

    def on_data_acked(self, usend: UserSend, nbytes: int) -> None:
        """Transport acked *nbytes* of *usend* (per data transfer completion)."""
        usend.acked += nbytes
        if usend.acked == usend.nbytes:
            self._incomplete.pop(usend.send_id, None)
            if self.conn.tracer is not None:
                self.conn.trace("send_done", send_id=usend.send_id, nbytes=usend.nbytes)
            if usend.notify_completion:
                # positional, in field order: kind, socket, nbytes, eof,
                # truncated, context
                usend.eq.post(ExsEvent(ExsEventType.SEND, self.conn.socket, usend.nbytes,
                                       False, usend.truncated, usend.context))

    def fail_pending(self):
        """Connection died: drain every incomplete send for ERROR delivery.

        Returns ``(eq, context)`` pairs in submit order.  Staged
        (sender-copy) sends whose completion was already delivered are
        drained but not reported — the user was told the buffer is free.
        """
        out = []
        for usend in self._incomplete.values():
            if usend.notify_completion:
                out.append((usend.eq, usend.context))
        self._incomplete.clear()
        self.pending.clear()
        return out

    @property
    def drained(self) -> bool:
        """All submitted sends handed to the transport and acknowledged."""
        return not self.pending and not self._incomplete

    #: the metric suffixes of :meth:`gauges`, declared once per class
    gauge_names: Tuple[str, ...] = ()

    def gauges(self) -> Tuple[float, ...]:
        """Sample-time telemetry of this half, one value per ``gauge_names``."""
        return ()

    # dispatch table (see the class docstring); subclasses fill it
    control: Dict[type, Any] = {}


class StreamSenderHalf(SenderBase):
    """Outbound direction of one EXS stream socket (WWI transport).

    Built once the peer's hello (its ring address, key and capacity) is
    known.
    """

    #: a transfer may split in two at the ring wrap, so it waits for two
    #: data credits: 2 + 2 + 1
    min_credits = 5

    def __init__(self, conn: "ExsConnection") -> None:
        super().__init__(conn)
        peer = conn.peer_hello
        #: ring base address / rkey at the peer, learnt in the EXS handshake
        self.peer_ring_addr = int(peer["ring_addr"])
        self.peer_ring_rkey = int(peer["ring_rkey"])
        self.algo = SenderAlgorithm(
            SenderRingView(int(peer["ring_capacity"])),
            mode=conn.options.mode,
            stats=conn.tx_stats,
        )

    # ------------------------------------------------------------------
    # engine-facing
    # ------------------------------------------------------------------
    def on_advert(self, msg: AdvertMsg) -> None:
        conn = self.conn
        if conn.tracer is not None:
            conn.trace("advert_rx", seq=msg.advert.seq, phase=msg.advert.phase)
        self.algo.on_advert(msg.advert)

    def on_ring_ack(self, msg: RingAckMsg) -> None:
        self.algo.ring.on_copy_ack(msg.copied_cum)

    def pump(self):
        """Issue as many transfers as ADVERTs / buffer space / credits allow.

        Engine-body generator (yields the library-core ns it charges);
        returns True if any progress was made.
        """
        progressed = False
        while self.pending:
            head = self.pending[0]
            if head.unplanned == 0:
                # Fully handed to the transport; completion happens on ack.
                self.pending.pop(0)
                continue
            # An indirect transfer can split in two at the ring wrap point;
            # require two credits so the pair can never half-issue.
            if not self.conn.credits.can_send_data(2):
                self._note_blocked()
                break
            plan = self.algo.next_transfer(head.unplanned)
            if plan is None:
                break
            yield from self._issue(head, plan)
            progressed = True
        return progressed

    def _issue(self, usend: UserSend, plan) -> None:
        """Post the data transfer(s) for one plan."""
        conn = self.conn
        self._note_posting()
        if isinstance(plan, DirectPlan):
            if conn.tracer is not None:
                conn.trace("direct", nbytes=plan.nbytes, seq=plan.seq, phase=plan.phase)
            chunk = self._slice(usend, plan.seq, plan.nbytes)
            yield conn.costs.post_wr_ns
            self._post_data(
                usend,
                chunk,
                local_addr=usend.mr.addr + (usend.offset + usend.planned),
                remote_addr=plan.advert.remote_addr + plan.buffer_offset,
                rkey=plan.advert.rkey,
                imm=encode_direct_imm(plan.advert.advert_id),
            )
            usend.planned += plan.nbytes
        elif isinstance(plan, IndirectPlan):
            if conn.tracer is not None:
                conn.trace("indirect", nbytes=plan.nbytes, seq=plan.seq, phase=plan.phase)
            seq = plan.seq
            local = usend.planned
            for seg in plan.segments:
                chunk = self._slice(usend, seq, seg.nbytes, local_offset=local)
                yield conn.costs.post_wr_ns
                self._post_data(
                    usend,
                    chunk,
                    local_addr=usend.mr.addr + (usend.offset + local),
                    remote_addr=self.peer_ring_addr + seg.offset,
                    rkey=self.peer_ring_rkey,
                    imm=encode_indirect_imm(),
                )
                seq += seg.nbytes
                local += seg.nbytes
            usend.planned += plan.nbytes
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown plan {plan!r}")

    # ------------------------------------------------------------------
    @property
    def final_seq(self) -> int:
        """Stream position after everything submitted so far (for FIN)."""
        return self.algo.seq

    gauge_names = ("tx.ring_free",)

    def gauges(self) -> Tuple[float, ...]:
        return (self.algo.ring.free,)

    control = {AdvertMsg: on_advert, RingAckMsg: on_ring_ack}
