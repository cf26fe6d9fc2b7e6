"""Eager/rendezvous SEND-RECV transport for SOCK_STREAM connections.

The third data-plane strategy of the transport bake-off, modelled on the
MPICH2-over-InfiniBand design (PAPERS.md): small messages are sent
*eagerly* as verbs ``SEND``\\ s whose payload is DMA-placed into a
pre-posted receiver bounce slot and then copied into user memory (two
copies per byte, like the paper's indirect path, but with no ADVERT wait);
large messages negotiate a *rendezvous* — the sender's RTS asks for
registered memory, the receiver's CTS grants a slice of a posted user
buffer, and the data travels as a single zero-copy RDMA WRITE WITH IMM
(one placement copy per byte, like the direct path, at the price of one
round trip of handshake latency).

Both halves are duck-typed to the Stream*Half interfaces so the connection
engine drives them unchanged.  The stream is transmitted *strictly in
order* — a rendezvous send stalls everything behind it until its CTS
arrives — which is exactly the head-of-line cost the crossover benchmarks
measure against the WWI protocol.

Flow control is the connection's credit loop: every eager SEND consumes
one credit, and its bounce slot (hence the credit) is returned only after
the payload has been copied out, so a slow receiver throttles the sender
without any ring accounting.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Deque, Optional

from ..core.invariants import require
from ..hosts.memory import Chunk
from ..verbs import SGE, Opcode, SendWR
from .control import CtsMsg, EagerDataMsg, RtsMsg, encode_rendezvous_imm
from .eventqueue import ExsEvent, ExsEventType
from .stream_sender import UserSend

if TYPE_CHECKING:  # pragma: no cover
    from .connection import ExsConnection
    from .stream_receiver import UserRecv

__all__ = ["RdvSenderHalf", "RdvReceiverHalf"]


class RdvSenderHalf:
    """Outbound direction of one eager/rendezvous stream socket."""

    def __init__(self, conn: "ExsConnection") -> None:
        self.conn = conn
        #: user sends with unplanned bytes remaining (FIFO)
        self.pending: Deque[UserSend] = deque()
        #: every submitted-but-not-fully-acked send, by id (insertion order)
        self._incomplete: "dict[int, UserSend]" = {}
        self._send_ids = itertools.count(1)
        #: stream position after all bytes handed to the transport
        self.seq = 0
        #: CTS grants received and not yet consumed (FIFO, apply to head)
        self.grants: Deque[CtsMsg] = deque()
        #: send_ids whose RTS has been queued
        self._rts_sent: set = set()
        self.fin_sent = False
        self.fin_acked = False
        #: measurement hooks (throughput equation (1) start point)
        self.first_post_ns: Optional[int] = None
        self.last_ack_ns: Optional[int] = None
        self.bytes_acked_total = 0

    # ------------------------------------------------------------------
    def configure_peer(self, ring_addr: int, ring_rkey: int, ring_capacity: int) -> None:
        """No peer ring state: rendezvous targets are granted per-CTS."""

    # ------------------------------------------------------------------
    # user-facing
    # ------------------------------------------------------------------
    def submit(self, buffer, mr, offset: int, nbytes: int, eq, context) -> UserSend:
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
            self.conn.trace("send", send_id=usend.send_id, nbytes=nbytes)
        return usend

    # ------------------------------------------------------------------
    # engine-facing
    # ------------------------------------------------------------------
    def on_advert(self, advert) -> None:  # pragma: no cover - defensive
        raise RuntimeError("ADVERT received on an eager/rendezvous connection")

    def on_ring_ack(self, copied_cum: int) -> None:  # pragma: no cover - defensive
        raise RuntimeError("ring ACK received on an eager/rendezvous connection")

    def on_cts(self, msg: CtsMsg) -> None:
        """A rendezvous grant arrived; the next pump issues the WRITE."""
        self.grants.append(msg)

    def pump(self):
        """Issue transfers for the head send, strictly in stream order.

        Engine-body generator (yields the library-core ns it charges);
        returns True if any progress was made.
        """
        conn = self.conn
        progressed = False
        while self.pending:
            head = self.pending[0]
            if head.unplanned == 0:
                # Fully handed to the transport; completion happens on ack.
                self.pending.popleft()
                continue
            if head.nbytes <= conn.options.eager_threshold:
                if not conn.credits.can_send_data(1):
                    self._note_blocked()
                    break
                yield from self._post_eager(head)
                progressed = True
                continue
            # rendezvous: one RTS for the whole send, then per-grant WRITEs
            if head.send_id not in self._rts_sent:
                self._rts_sent.add(head.send_id)
                conn.queue_control(RtsMsg(nbytes=head.nbytes, stream_offset=self.seq))
                if conn.tracer is not None:
                    conn.trace("rts", send_id=head.send_id, nbytes=head.nbytes, seq=self.seq)
                progressed = True
            if not self.grants:
                break  # stream stalls until the CTS round trip completes
            if not conn.credits.can_send_data(1):
                self._note_blocked()
                break
            grant = self.grants.popleft()
            require(grant.nbytes <= head.unplanned,
                    "rendezvous", "CTS grants more than the outstanding RTS")
            yield from self._post_rendezvous(head, grant)
            progressed = True
        return progressed

    def _note_blocked(self) -> None:
        self.conn.tx_stats.sender_blocked += 1
        rec = self.conn.sim._recorder
        if rec is not None:
            rec.note_credit_block(self.conn.conn_id, self.conn.sim.now)

    def _note_posting(self) -> None:
        if self.first_post_ns is None:
            self.first_post_ns = self.conn.sim.now
        rec = self.conn.sim._recorder
        if rec is not None:
            rec.note_credit_unblock(self.conn.conn_id, self.conn.sim.now)

    def _post_eager(self, usend: UserSend):
        """Send the whole message as one SEND into a peer bounce slot."""
        conn = self.conn
        self._note_posting()
        nbytes = usend.unplanned
        if conn.tracer is not None:
            conn.trace("eager", nbytes=nbytes, seq=self.seq)
        yield conn.costs.post_wr_ns
        conn.tx_stats.indirect_transfers += 1  # eager = 2 copies/byte, like indirect
        conn.tx_stats.indirect_bytes += nbytes
        chunk = self._slice(usend, self.seq, nbytes)
        conn.credits.consume(1)  # the SEND consumes a bounce slot at the peer
        chunk.obj = EagerDataMsg(
            nbytes=nbytes, stream_offset=self.seq, credit_cum=conn.credits.grant_now()
        )
        conn.qp.post_send(SendWR(
            opcode=Opcode.SEND,
            wr_id=conn.next_wr_id(),
            sge=SGE(usend.mr.addr + usend.offset + usend.planned, nbytes, usend.mr.lkey),
            payload=chunk,
            context=("eager", usend, chunk),
        ))
        usend.planned += nbytes
        self.seq += nbytes

    def _post_rendezvous(self, usend: UserSend, grant: CtsMsg):
        """Zero-copy WRITE of one CTS grant into registered user memory."""
        conn = self.conn
        self._note_posting()
        nbytes = grant.nbytes
        if conn.tracer is not None:
            conn.trace("rendezvous", nbytes=nbytes, seq=self.seq)
        yield conn.costs.post_wr_ns
        conn.tx_stats.direct_transfers += 1  # rendezvous = 1 placement copy, like direct
        conn.tx_stats.direct_bytes += nbytes
        chunk = self._slice(usend, self.seq, nbytes)
        conn.credits.consume(1)  # the WWI consumes a RECV at the peer
        conn.qp.post_send(SendWR(
            opcode=Opcode.RDMA_WRITE_WITH_IMM,
            wr_id=conn.next_wr_id(),
            sge=SGE(usend.mr.addr + usend.offset + usend.planned, nbytes, usend.mr.lkey),
            remote_addr=grant.addr,
            rkey=grant.rkey,
            imm_data=encode_rendezvous_imm(),
            payload=chunk,
            context=("data", usend, chunk),
        ))
        usend.planned += nbytes
        self.seq += nbytes

    def _slice(self, usend: UserSend, stream_seq: int, nbytes: int) -> Chunk:
        """Zero-copy pinned slice of the user buffer (see StreamSenderHalf)."""
        off = usend.offset + usend.planned
        view = usend.buffer.view(off, nbytes)
        pin = usend.buffer.pin_range(off, nbytes) if view is not None else None
        return Chunk(stream_seq, nbytes, view, pin=pin)

    # ------------------------------------------------------------------
    def on_data_acked(self, usend: UserSend, nbytes: int) -> None:
        """Transport acked *nbytes* of *usend* (per SEND/WWI completion)."""
        usend.acked += nbytes
        self.bytes_acked_total += nbytes
        self.last_ack_ns = self.conn.sim.now
        if usend.acked == usend.nbytes:
            self._incomplete.pop(usend.send_id, None)
            if self.conn.tracer is not None:
                self.conn.trace("send_done", send_id=usend.send_id, nbytes=usend.nbytes)
            if usend.notify_completion:
                usend.eq.post(
                    ExsEvent(
                        kind=ExsEventType.SEND,
                        socket=self.conn.socket,
                        nbytes=usend.nbytes,
                        context=usend.context,
                    )
                )

    def fail_pending(self):
        """Connection died: drain every incomplete send for ERROR delivery."""
        out = []
        for usend in self._incomplete.values():
            if usend.notify_completion:
                out.append((usend.eq, usend.context))
        self._incomplete.clear()
        self.pending.clear()
        self.grants.clear()
        return out

    @property
    def final_seq(self) -> int:
        """Stream position after everything submitted so far (for FIN)."""
        return self.seq

    @property
    def drained(self) -> bool:
        """All submitted bytes planned and acknowledged."""
        return not self.pending and self.bytes_acked_total == self.seq


# ---------------------------------------------------------------------------
@dataclass
class _RdvEntry:
    """One pending ``exs_recv`` with eager-copy / rendezvous-grant accounting."""

    urecv: "UserRecv"
    #: bytes physically in the user buffer (eager copies + arrived WRITEs)
    filled: int = 0
    #: bytes granted by CTS but whose WRITE has not arrived yet
    granted: int = 0

    @property
    def unassigned(self) -> int:
        return self.urecv.nbytes - self.filled - self.granted


@dataclass
class _StagedEager:
    """One eager payload parked in a bounce slot, pending copy-out."""

    slot: int
    nbytes: int
    stream_offset: int
    consumed: int = 0

    @property
    def remaining(self) -> int:
        return self.nbytes - self.consumed


@dataclass
class _RdvCopyPlan:
    """One bounce-slot -> user-buffer memcpy decided by :meth:`next_copy`."""

    staged: _StagedEager
    entry: _RdvEntry
    nbytes: int


class RdvReceiverHalf:
    """Inbound direction of one eager/rendezvous stream socket."""

    #: engine guard: this transport never advertises
    adverts_due = False

    def __init__(self, conn: "ExsConnection") -> None:
        self.conn = conn
        #: engine guard: False only when :meth:`next_copy` has nothing
        self.copy_ready = False
        self.entries: Deque[_RdvEntry] = deque()
        self.staged: Deque[_StagedEager] = deque()
        #: bytes requested by the peer's RTS and not yet granted by a CTS
        self.rts_remaining = 0
        #: stream position after all bytes placed into user memory
        self.seq = 0
        #: next expected stream offset of a data arrival (order check)
        self._arrival_seq = 0
        #: end-of-stream sequence number from the peer's FIN, if received
        self.eof_seq: Optional[int] = None
        #: measurement hooks (throughput equation (1) end point)
        self.first_arrival_ns: Optional[int] = None
        self.last_delivery_ns: Optional[int] = None
        self.bytes_delivered_total = 0

    # ------------------------------------------------------------------
    # user-facing
    # ------------------------------------------------------------------
    def submit(self, urecv: "UserRecv"):
        """Queue an ``exs_recv``; never advertises (returns None)."""
        if self._stream_finished():
            urecv.eq.post(
                ExsEvent(kind=ExsEventType.RECV, socket=self.conn.socket, nbytes=0,
                         eof=True, context=urecv.context)
            )
            return None
        self.entries.append(_RdvEntry(urecv=urecv))
        self.copy_ready = bool(self.staged)
        self._pump_grants()
        return None

    # ------------------------------------------------------------------
    # engine-facing: arrivals
    # ------------------------------------------------------------------
    def on_eager_arrival(self, msg: EagerDataMsg, slot: int) -> None:
        """An eager SEND was DMA-placed into bounce slot *slot*."""
        if self.first_arrival_ns is None:
            self.first_arrival_ns = self.conn.sim.now
        require(msg.stream_offset == self._arrival_seq,
                "eager", "out-of-stream-order eager arrival")
        self._arrival_seq += msg.nbytes
        self.staged.append(
            _StagedEager(slot=slot, nbytes=msg.nbytes, stream_offset=msg.stream_offset)
        )
        self.copy_ready = True

    def on_rendezvous_arrival(self, nbytes: int, stream_offset: int) -> None:
        """A granted rendezvous WRITE landed in user memory (zero copy)."""
        if self.first_arrival_ns is None:
            self.first_arrival_ns = self.conn.sim.now
        require(stream_offset == self._arrival_seq,
                "rendezvous", "out-of-stream-order rendezvous arrival")
        self._arrival_seq += nbytes
        remaining = nbytes
        for entry in self.entries:
            if entry.granted == 0:
                continue
            take = min(entry.granted, remaining)
            entry.granted -= take
            entry.filled += take
            self.seq += take
            remaining -= take
            if remaining == 0:
                break
        require(remaining == 0, "rendezvous", "WRITE arrival exceeds outstanding grants")
        self._pump_grants()
        self._try_deliver()

    def on_rts(self, msg: RtsMsg) -> None:
        """The peer wants to send a large message; grant as buffers allow."""
        require(msg.stream_offset == self._arrival_seq,
                "rendezvous", "RTS out of stream order")
        self.rts_remaining += msg.nbytes
        self._pump_grants()

    # ------------------------------------------------------------------
    # engine-facing: copy pump (bounce slot -> user buffer)
    # ------------------------------------------------------------------
    def next_copy(self) -> Optional[_RdvCopyPlan]:
        if not self.staged:
            self.copy_ready = False
            return None
        staged = self.staged[0]
        for entry in self.entries:
            if entry.filled < entry.urecv.nbytes:
                require(entry.granted == 0,
                        "eager", "eager bytes behind an outstanding grant")
                return _RdvCopyPlan(
                    staged=staged,
                    entry=entry,
                    nbytes=min(staged.remaining, entry.urecv.nbytes - entry.filled),
                )
            # fully filled entries ahead of the cursor are awaiting delivery
        self.copy_ready = False
        return None

    def execute_copy(self, plan: _RdvCopyPlan):
        """Copy one staged span out of its bounce slot (engine-body generator:
        yields the copy's library-core ns)."""
        conn = self.conn
        if conn.tracer is not None:
            conn.trace("copy", nbytes=plan.nbytes, seq=self.seq)
        yield conn.host.copy_ns(plan.nbytes)
        conn.rx_stats.copies += 1
        conn.rx_stats.copied_bytes += plan.nbytes
        staged, entry = plan.staged, plan.entry
        urecv = entry.urecv
        slot_off = conn.eager_slot_offset(staged.slot) + staged.consumed
        views = conn.recv_pool_buf.gather([(slot_off, plan.nbytes)])
        if views is not None:
            urecv.buffer.scatter_write(urecv.offset + entry.filled, views)
        staged.consumed += plan.nbytes
        entry.filled += plan.nbytes
        self.seq += plan.nbytes
        if staged.remaining == 0:
            self.staged.popleft()
            conn.recycle_eager_slot(staged.slot)
        self._pump_grants()
        self._try_deliver()

    # ------------------------------------------------------------------
    # engine-facing: grants / delivery / EOF
    # ------------------------------------------------------------------
    def _pump_grants(self) -> None:
        """Answer an outstanding RTS with CTS grants into posted buffers.

        A grant is legal only once every earlier stream byte is already
        placed in user memory (``staged`` empty): arrivals are in stream
        order, so anything still staged precedes the rendezvous data and
        must land first for the receive cursor to stay contiguous.
        """
        if self.rts_remaining <= 0 or self.staged:
            return
        for entry in self.entries:
            if self.rts_remaining <= 0:
                break
            n = min(self.rts_remaining, entry.unassigned)
            if n <= 0:
                continue
            urecv = entry.urecv
            addr = urecv.mr.addr + urecv.offset + entry.filled + entry.granted
            self.conn.queue_control(CtsMsg(addr=addr, rkey=urecv.mr.rkey, nbytes=n))
            if self.conn.tracer is not None:
                self.conn.trace("cts", nbytes=n)
            entry.granted += n
            self.rts_remaining -= n

    def _try_deliver(self) -> None:
        while self.entries:
            head = self.entries[0]
            if head.filled == head.urecv.nbytes:
                pass  # full: always deliverable
            elif (head.filled > 0 and head.granted == 0 and not self.staged
                  and not head.urecv.waitall):
                pass  # short delivery: nothing more is immediately coming
            else:
                return
            self.entries.popleft()
            self._deliver(head, eof=False)

    def pump_eof(self) -> bool:
        """Deliver EOF completions once the stream is fully consumed."""
        if not self._stream_finished():
            return False
        progressed = False
        while self.entries:
            head = self.entries.popleft()
            require(head.granted == 0, "FIN", "EOF with grants outstanding")
            self._deliver(head, eof=True)
            progressed = True
        return progressed

    def on_fin(self, final_seq: int) -> None:
        """Record the peer's FIN; idempotent (see StreamReceiverHalf)."""
        require(self.eof_seq is None or self.eof_seq == final_seq,
                "FIN", "conflicting FINs")
        if self.eof_seq is not None:
            return
        self.eof_seq = final_seq

    def fail_pending(self):
        """Connection died: drain every pending recv for ERROR delivery."""
        out = []
        while self.entries:
            entry = self.entries.popleft()
            out.append((entry.urecv.eq, entry.urecv.context))
        return out

    def _stream_finished(self) -> bool:
        return (
            self.eof_seq is not None
            and self.seq == self.eof_seq
            and not self.staged
            and self.rts_remaining == 0
        )

    # ------------------------------------------------------------------
    def _deliver(self, entry: _RdvEntry, *, eof: bool) -> None:
        urecv = entry.urecv
        self.last_delivery_ns = self.conn.sim.now
        self.bytes_delivered_total += entry.filled
        if self.conn.tracer is not None:
            if eof:
                self.conn.trace("deliver", nbytes=entry.filled, eof=True)
            else:
                self.conn.trace("deliver", nbytes=entry.filled)
        urecv.eq.post(
            ExsEvent(
                kind=ExsEventType.RECV,
                socket=self.conn.socket,
                nbytes=entry.filled,
                eof=eof,
                context=urecv.context,
            )
        )
