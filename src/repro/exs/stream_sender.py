"""Sender half of a stream (SOCK_STREAM) connection.

Executes the decisions of :class:`repro.core.sender_algo.SenderAlgorithm`
over the verbs transport: slicing user buffers into WRITE-WITH-IMM
transfers (direct into advertised user memory, or indirect into the peer's
intermediate ring), consuming send credits, and completing user
``exs_send()`` requests when the transport acknowledges all of their bytes
(RC semantics — only then may the user reuse the memory).
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Deque, Optional

from ..core import DirectPlan, IndirectPlan, ProtocolMode, SenderAlgorithm, SenderRingView
from ..hosts.memory import Buffer, Chunk
from ..verbs import SGE, Opcode, SendWR
from .control import DataNotifyMsg, encode_direct_imm, encode_indirect_imm
from .eventqueue import ExsEvent, ExsEventType

if TYPE_CHECKING:  # pragma: no cover
    from .connection import ExsConnection

__all__ = ["UserSend", "StreamSenderHalf"]


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

    @property
    def unplanned(self) -> int:
        return self.nbytes - self.planned


class StreamSenderHalf:
    """Outbound direction of one EXS stream socket."""

    _ids = itertools.count(1)

    def __init__(self, conn: "ExsConnection") -> None:
        self.conn = conn
        self.algo: Optional[SenderAlgorithm] = None
        #: user sends with unplanned bytes remaining (FIFO)
        self.pending: Deque[UserSend] = deque()
        #: every submitted-but-not-fully-acked send, by id (insertion order).
        #: `pending` drops a send once fully *planned*; this map keeps it
        #: until fully *acked* so connection failure can error it out.
        self._incomplete: "dict[int, UserSend]" = {}
        self._send_ids = itertools.count(1)
        #: ring base address / rkey at the peer, learnt in the EXS handshake
        self.peer_ring_addr = 0
        self.peer_ring_rkey = 0
        self.fin_sent = False
        self.fin_acked = False
        #: measurement hooks (throughput equation (1) start point)
        self.first_post_ns: Optional[int] = None
        self.last_ack_ns: Optional[int] = None
        self.bytes_acked_total = 0

    # ------------------------------------------------------------------
    def configure_peer(self, ring_addr: int, ring_rkey: int, ring_capacity: int) -> None:
        """Finish setup once the peer's hello (ring info) is known."""
        self.peer_ring_addr = ring_addr
        self.peer_ring_rkey = ring_rkey
        self.algo = SenderAlgorithm(
            SenderRingView(ring_capacity),
            mode=self.conn.options.mode,
            stats=self.conn.tx_stats,
        )

    # ------------------------------------------------------------------
    # user-facing
    # ------------------------------------------------------------------
    def submit(self, buffer: Buffer, mr: Any, offset: int, nbytes: int, eq: Any, context: Any) -> UserSend:
        if self.fin_sent:
            raise RuntimeError("exs_send after close")
        usend = UserSend(
            send_id=next(self._send_ids),
            buffer=buffer,
            mr=mr,
            offset=offset,
            nbytes=nbytes,
            eq=eq,
            context=context,
            posted_at_ns=self.conn.sim.now,
        )
        self.pending.append(usend)
        self._incomplete[usend.send_id] = usend
        if self.conn.tracer is not None:
            # span root: one "send" per exs_send, in submit (= stream) order
            self.conn.trace("send", send_id=usend.send_id, nbytes=nbytes)
        return usend

    # ------------------------------------------------------------------
    # engine-facing
    # ------------------------------------------------------------------
    def on_advert(self, advert) -> None:
        if self.algo is not None:
            self.algo.on_advert(advert)

    def on_ring_ack(self, copied_cum: int) -> None:
        if self.algo is not None:
            self.algo.ring.on_copy_ack(copied_cum)

    def pump(self):
        """Issue as many transfers as ADVERTs / buffer space / credits allow.

        Engine-body generator (yields the library-core ns it charges);
        returns True if any progress was made.
        """
        progressed = False
        if self.algo is None:
            return progressed
        while self.pending:
            head = self.pending[0]
            if head.unplanned == 0:
                # Fully handed to the transport; completion happens on ack.
                self.pending.popleft()
                continue
            # An indirect transfer can split in two at the ring wrap point;
            # require two credits so the pair can never half-issue.
            if not self.conn.credits.can_send_data(2):
                self.conn.tx_stats.sender_blocked += 1
                rec = self.conn.sim._recorder
                if rec is not None:
                    rec.note_credit_block(self.conn.conn_id, self.conn.sim.now)
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
        if self.first_post_ns is None:
            self.first_post_ns = conn.sim.now
        rec = conn.sim._recorder
        if rec is not None:
            # Ends any open credit-stall window for this connection; the
            # critical-path walker relabels overlapping time as credit_wait.
            rec.note_credit_unblock(conn.conn_id, conn.sim.now)
        if isinstance(plan, DirectPlan):
            if conn.tracer is not None:
                conn.trace("direct", nbytes=plan.nbytes, seq=plan.seq, phase=plan.phase)
            chunk = self._slice(usend, plan.seq, plan.nbytes)
            yield from self._post_data(
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
                yield from self._post_data(
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

    def _post_data(self, usend: UserSend, chunk: Chunk, *, local_addr: int,
                   remote_addr: int, rkey: int, imm: int) -> None:
        """Post one data chunk: native WRITE-WITH-IMM, or the paper's older-
        iWARP emulation (RDMA WRITE followed by a small notification SEND).
        """
        conn = self.conn
        yield conn.costs.post_wr_ns
        if conn.options.native_write_with_imm:
            conn.credits.consume(1)  # the WWI consumes a RECV at the peer
            conn.qp.post_send(SendWR(
                opcode=Opcode.RDMA_WRITE_WITH_IMM,
                wr_id=conn.next_wr_id(),
                sge=SGE(local_addr, chunk.nbytes, usend.mr.lkey),
                remote_addr=remote_addr,
                rkey=rkey,
                imm_data=imm,
                payload=chunk,
                context=("data", usend, chunk),
            ))
        else:
            # Silent RDMA WRITE (no RECV consumed, no credit) ...
            conn.qp.post_send(SendWR(
                opcode=Opcode.RDMA_WRITE,
                wr_id=conn.next_wr_id(),
                sge=SGE(local_addr, chunk.nbytes, usend.mr.lkey),
                remote_addr=remote_addr,
                rkey=rkey,
                payload=chunk,
                context=("data", usend, chunk),
            ))
            # ... then the notification SEND (same QP, so it arrives after
            # the data is placed; this one does consume a credit).
            conn.queue_control(DataNotifyMsg(
                imm_data=imm,
                nbytes=chunk.nbytes,
                stream_offset=chunk.stream_offset,
                remote_addr=remote_addr,
            ))

    def _slice(self, usend: UserSend, stream_seq: int, nbytes: int, local_offset: Optional[int] = None) -> Chunk:
        """Zero-copy slice of the user buffer for one transfer.

        The chunk carries a live ``memoryview`` pinned until the transport
        ack (RC semantics: the user may not reuse the memory before the
        send completes, so retransmission and fault duplication always
        re-deliver the original bytes).  The pin is released in
        :meth:`ExsConnection._handle_wc` when the WWI completes.
        """
        off = usend.offset + (usend.planned if local_offset is None else local_offset)
        view = usend.buffer.view(off, nbytes)
        pin = usend.buffer.pin_range(off, nbytes) if view is not None else None
        return Chunk(stream_seq, nbytes, view, pin=pin)

    # ------------------------------------------------------------------
    def on_data_acked(self, usend: UserSend, nbytes: int) -> None:
        """Transport acked *nbytes* of *usend* (called per WWI completion)."""
        usend.acked += nbytes
        self.bytes_acked_total += nbytes
        self.last_ack_ns = self.conn.sim.now
        if usend.acked == usend.nbytes:
            self._incomplete.pop(usend.send_id, None)
        if usend.acked == usend.nbytes and self.conn.tracer is not None:
            self.conn.trace("send_done", send_id=usend.send_id, nbytes=usend.nbytes)
        if usend.acked == usend.nbytes and usend.notify_completion:
            usend.eq.post(
                ExsEvent(
                    kind=ExsEventType.SEND,
                    socket=self.conn.socket,
                    nbytes=usend.nbytes,
                    context=usend.context,
                )
            )

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
    def final_seq(self) -> int:
        """Stream position after everything submitted so far (for FIN)."""
        return self.algo.seq if self.algo is not None else 0

    @property
    def drained(self) -> bool:
        """All submitted bytes planned and acknowledged."""
        if self.pending:
            return False
        if self.algo is None:
            return True
        return self.bytes_acked_total == self.algo.seq
