"""Receiver half of a stream (SOCK_STREAM) connection.

Executes the decisions of
:class:`repro.core.receiver_algo.ReceiverAlgorithm`: advertising user
receive buffers, accounting direct arrivals (zero-copy — the HCA already
placed the bytes), copying indirect arrivals out of the intermediate ring
into user memory (charging the host CPU, which is the paper's receive-side
CPU-usage story), acknowledging freed ring space, and delivering
``exs_recv()`` completions.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Deque, List, Optional

from ..core import CopyPlan, ProtocolMode, ReceiverAlgorithm, ReceiverRing, RingSegment
from ..core.invariants import require
from ..hosts.memory import Buffer
from .control import AdvertMsg, RingAckMsg
from .eventqueue import ExsEvent, ExsEventType
from .flags import MsgFlags

if TYPE_CHECKING:  # pragma: no cover
    from .connection import ExsConnection

__all__ = ["UserRecv", "StreamReceiverHalf"]


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


class StreamReceiverHalf:
    """Inbound direction of one EXS stream socket."""

    def __init__(self, conn: "ExsConnection", ring_buffer: Buffer, ring_mr: Any) -> None:
        self.conn = conn
        self.ring_buffer = ring_buffer
        self.ring_mr = ring_mr
        self.algo = ReceiverAlgorithm(
            ReceiverRing(ring_buffer.nbytes),
            mode=conn.options.mode,
            stats=conn.rx_stats,
        )
        #: engine guards (plain attributes, tested every progress round):
        #: False only when :meth:`next_copy` / :meth:`flush_adverts` would
        #: certainly come back empty
        self.copy_ready = False
        self.adverts_due = False
        #: cumulative copied-out count included in the last ring ACK
        self._last_acked_copied = 0
        #: end-of-stream sequence number from the peer's FIN, if received
        self.eof_seq: Optional[int] = None
        #: measurement hooks (throughput equation (1) end point)
        self.first_arrival_ns: Optional[int] = None
        self.last_delivery_ns: Optional[int] = None
        self.bytes_delivered_total = 0

    # ------------------------------------------------------------------
    # user-facing
    # ------------------------------------------------------------------
    def submit(self, urecv: UserRecv) -> Optional[AdvertMsg]:
        """Queue an ``exs_recv``; returns the ADVERT to enqueue, if any."""
        if self._stream_finished():
            # End of stream already fully delivered: immediate EOF.
            urecv.eq.post(
                ExsEvent(kind=ExsEventType.RECV, socket=self.conn.socket, nbytes=0,
                         eof=True, context=urecv.context)
            )
            return None
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
        if self.first_arrival_ns is None:
            self.first_arrival_ns = self.conn.sim.now
        head = self.algo.head_entry
        require(head is not None and head.advert is not None,
                "Theorem 1", "direct arrival with no advertised head entry")
        buffer_offset = remote_addr - head.advert.remote_addr
        done = self.algo.on_direct_arrival(stream_offset, nbytes, advert_id, buffer_offset)
        for entry in done:
            self._deliver(entry)

    def on_indirect_arrival(self, nbytes: int, stream_offset: int, remote_addr: int) -> None:
        """An indirect WWI landed in the intermediate ring."""
        if self.first_arrival_ns is None:
            self.first_arrival_ns = self.conn.sim.now
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
            self._deliver(entry)
        self._maybe_queue_ring_ack()

    def _maybe_queue_ring_ack(self) -> None:
        opts = self.conn.options
        copied = self.algo.ring.copied_total
        owed = copied - self._last_acked_copied
        if owed <= 0:
            return
        threshold = max(1, self.algo.ring.capacity // opts.ack_divisor)
        if owed >= threshold or (opts.ack_on_empty and self.algo.ring.is_empty):
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

    def pump_eof(self) -> bool:
        """Deliver EOF completions once the stream is fully consumed."""
        if not self._stream_finished():
            return False
        progressed = False
        while self.algo.queue:
            entry = self.algo.queue[0]
            # Partial WAITALL receives complete short at end of stream.
            self.algo.queue.popleft()
            entry.completed = True
            self.bytes_delivered_total += entry.filled
            if self.conn.tracer is not None:
                self.conn.trace("deliver", nbytes=entry.filled, eof=True)
            urecv: UserRecv = entry.context
            urecv.eq.post(
                ExsEvent(
                    kind=ExsEventType.RECV,
                    socket=self.conn.socket,
                    nbytes=entry.filled,
                    eof=True,
                    context=urecv.context,
                )
            )
            progressed = True
        return progressed

    def fail_pending(self):
        """Connection died: drain every pending recv for ERROR delivery."""
        out = []
        while self.algo.queue:
            entry = self.algo.queue.popleft()
            urecv: UserRecv = entry.context
            out.append((urecv.eq, urecv.context))
        return out

    def _stream_finished(self) -> bool:
        return (
            self.eof_seq is not None
            and self.algo.seq == self.eof_seq
            and self.algo.ring.is_empty
        )

    # ------------------------------------------------------------------
    def _deliver(self, entry) -> None:
        urecv: UserRecv = entry.context
        self.last_delivery_ns = self.conn.sim.now
        self.bytes_delivered_total += entry.filled
        if self.conn.tracer is not None:
            # deliveries are in stream order (RC), so spans can recover the
            # exact delivered range from the cumulative nbytes
            self.conn.trace("deliver", nbytes=entry.filled)
        urecv.eq.post(
            ExsEvent(
                kind=ExsEventType.RECV,
                socket=self.conn.socket,
                nbytes=entry.filled,
                context=urecv.context,
            )
        )
