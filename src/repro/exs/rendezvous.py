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

The two halves are the ``(SOCK_STREAM, "eager_rendezvous")`` pair of
:mod:`repro.exs.transport`, on the bookkeeping every pair shares; the
receiver owns the bounce-slot receive pool.  The stream is transmitted
*strictly in order* — a rendezvous send stalls everything behind it until
its CTS arrives — which is exactly the head-of-line cost the crossover
benchmarks measure against the WWI protocol.

Flow control is the connection's credit loop: every eager SEND consumes
one credit, and its bounce slot (hence the credit) is returned only after
the payload has been copied out, so a slow receiver throttles the sender
without any ring accounting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Tuple

from ..core.invariants import require
from ..verbs import SGE, Opcode, RecvWR, SendWR
from .control import (
    IMM_RENDEZVOUS,
    RECV_BUF_BYTES,
    CtsMsg,
    EagerDataMsg,
    RtsMsg,
    encode_rendezvous_imm,
)
from .stream_receiver import ReceiverBase
from .stream_sender import SenderBase, UserSend

if TYPE_CHECKING:  # pragma: no cover
    from .connection import ExsConnection
    from .stream_receiver import UserRecv

__all__ = ["RdvSenderHalf", "RdvReceiverHalf"]


class RdvSenderHalf(SenderBase):
    """Outbound direction of one eager/rendezvous stream socket."""

    #: rendezvous data is always a WRITE WITH IMM into the CTS-granted
    #: region; there is no WRITE + notify variant
    emulates_write_with_imm = False
    #: an eager SEND or a granted WRITE takes one data credit: 2 + 1 + 1
    min_credits = 4

    def __init__(self, conn: "ExsConnection") -> None:
        super().__init__(conn)
        #: stream position after all bytes handed to the transport
        self.seq = 0
        #: CTS grants received and not yet consumed (FIFO, apply to head)
        self.grants: List[CtsMsg] = []
        #: send_ids whose RTS has been queued
        self._rts_sent: set = set()

    # ------------------------------------------------------------------
    # engine-facing
    # ------------------------------------------------------------------
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
                self.pending.pop(0)
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
            grant = self.grants.pop(0)
            require(grant.nbytes <= head.unplanned,
                    "rendezvous", "CTS grants more than the outstanding RTS")
            yield from self._post_rendezvous(head, grant)
            progressed = True
        return progressed

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
            context=("data", usend, chunk),
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
        self._post_data(
            usend,
            self._slice(usend, self.seq, nbytes),
            local_addr=usend.mr.addr + usend.offset + usend.planned,
            remote_addr=grant.addr,
            rkey=grant.rkey,
            imm=encode_rendezvous_imm(),
        )
        usend.planned += nbytes
        self.seq += nbytes

    # ------------------------------------------------------------------
    def fail_pending(self):
        self.grants.clear()
        return super().fail_pending()

    @property
    def final_seq(self) -> int:
        """Stream position after everything submitted so far (for FIN)."""
        return self.seq

    gauge_names = ("tx.cts_grants_queued",)

    def gauges(self) -> Tuple[float, ...]:
        return (len(self.grants),)

    control = {CtsMsg: on_cts}


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


class RdvReceiverHalf(ReceiverBase):
    """Inbound direction of one eager/rendezvous stream socket.

    Owns the bounce-slot receive pool: eager payloads are DMA-placed into
    per-RECV slots, so these receives are not interchangeable and never
    come from a shared SRQ.
    """

    shares_srq = False

    def __init__(self, conn: "ExsConnection") -> None:
        super().__init__(conn)
        self.entries: List[_RdvEntry] = []
        self.staged: List[_StagedEager] = []
        #: bytes requested by the peer's RTS and not yet granted by a CTS
        self.rts_remaining = 0
        #: stream position after all bytes placed into user memory
        self.seq = 0
        #: next expected stream offset of a data arrival (order check)
        self._arrival_seq = 0

    # ------------------------------------------------------------------
    # bounce-slot receive pool
    # ------------------------------------------------------------------
    def _register_pool(self):
        conn = self.conn
        credits = conn.options.credits
        # Every slot must fit the largest eager message; the slot copy is
        # the eager path's first metered copy.
        self._slot_bytes = max(RECV_BUF_BYTES, conn.options.eager_threshold)
        self.pool_buf = conn.host.alloc(credits * self._slot_bytes, real=conn.options.real_data,
                                        label=f"exs{conn.conn_id}:eager")
        self.pool_buf.meter = conn.copy_meter
        #: slots neither posted nor holding a staged payload
        self._free_slots = list(range(credits - 1, -1, -1))
        return conn.device.register(self.pool_buf)

    def post_initial_recvs(self) -> None:
        """Post one receive per slot: each has its own SGE and context."""
        for _ in range(self.conn.options.credits):
            self._post_slot()

    def repost_recv(self, slot: int) -> None:
        self._free_slots.append(slot)
        self._post_slot()

    def _post_slot(self) -> None:
        conn = self.conn
        mr = self.pool_mr
        slot = self._free_slots.pop()
        conn.qp.post_recv(RecvWR(wr_id=conn.next_wr_id(), context=slot, sge=SGE(
            mr.addr + slot * self._slot_bytes, self._slot_bytes, mr.lkey)))

    def _enqueue(self, urecv: "UserRecv"):
        """Queue an ``exs_recv``; never advertises (returns None)."""
        self.entries.append(_RdvEntry(urecv=urecv))
        self.copy_ready = bool(self.staged)
        self._pump_grants()
        return None

    # ------------------------------------------------------------------
    # engine-facing: arrivals
    # ------------------------------------------------------------------
    def on_eager_arrival(self, msg: EagerDataMsg, slot: int) -> None:
        """An eager SEND was DMA-placed into bounce slot *slot*.

        The payload occupies the slot until it is copied into user memory;
        the slot (and its credit) recycles only then — that deferral is
        the eager path's flow control.
        """
        require(msg.stream_offset == self._arrival_seq,
                "eager", "out-of-stream-order eager arrival")
        self._arrival_seq += msg.nbytes
        self.staged.append(
            _StagedEager(slot=slot, nbytes=msg.nbytes, stream_offset=msg.stream_offset)
        )
        self.copy_ready = True

    def on_rendezvous_arrival(self, _imm_id: int, nbytes: int, stream_offset: int,
                              _remote_addr: int) -> None:
        """A granted rendezvous WRITE landed in user memory (zero copy)."""
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
        slot_off = staged.slot * self._slot_bytes + staged.consumed
        views = self.pool_buf.gather([(slot_off, plan.nbytes)])
        if views is not None:
            urecv.buffer.scatter_write(urecv.offset + entry.filled, views)
        staged.consumed += plan.nbytes
        entry.filled += plan.nbytes
        self.seq += plan.nbytes
        if staged.remaining == 0:
            # copied out: repost the slot, return the credit
            self.staged.pop(0)
            conn.recycle_recv(staged.slot)
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
            self.entries.pop(0)
            self._deliver(head.urecv, head.filled)

    def _deliver(self, urecv: "UserRecv", nbytes: int, eof: bool = False) -> None:
        if eof:
            # this plane's throughput end point is its last completion, EOF
            # included (WWI's is its last data); both are pinned results
            self.last_delivery_ns = self.conn.sim.now
        super()._deliver(urecv, nbytes, eof)

    def _drain_pending(self):
        while self.entries:
            entry = self.entries.pop(0)
            yield entry.urecv, entry.filled

    def _stream_finished(self) -> bool:
        finished = (
            self.eof_seq is not None
            and self.seq == self.eof_seq
            and not self.staged
            and self.rts_remaining == 0
        )
        if finished:
            require(all(entry.granted == 0 for entry in self.entries),
                    "FIN", "EOF with grants outstanding")
        return finished

    gauge_names = ("rx.eager_slots_free", "rx.eager_staged", "rx.rts_remaining")

    def gauges(self) -> Tuple[float, ...]:
        return (len(self._free_slots), len(self.staged), self.rts_remaining)

    control = {**ReceiverBase.control, RtsMsg: on_rts}
    payload = {EagerDataMsg: on_eager_arrival}
    imm = {IMM_RENDEZVOUS: on_rendezvous_arrival}
