"""Shared receive queues.

A :class:`SharedReceiveQueue` (SRQ) lets N queue pairs on one device draw
receive work requests from a single posted-buffer pool instead of each QP
pre-posting its own — the resource-multiplexing trick that makes
thousand-connection endpoints affordable (cf. RDMAvisor, PAPERS.md): the
posted-buffer footprint scales with the *pool depth*, not with the number
of connections.

RNR semantics are preserved exactly: an arriving SEND (or WRITE_WITH_IMM)
that finds the pool empty triggers an RNR NAK on the **arriving QP**, and
the sender's reliability layer backs off and retransmits once a buffer is
reposted, just as with a per-QP receive queue (IBTA behaviour: the RNR
condition is evaluated against the SRQ when the QP is SRQ-attached).
"""

from __future__ import annotations

from typing import Optional

from .errors import VerbsError
from .rq import ReceiveQueue
from .wr import SGE, RecvWR

__all__ = ["SharedReceiveQueue"]


class SharedReceiveQueue(ReceiveQueue):
    """A device-level pool of receive WRs shared by SRQ-attached QPs.

    The FIFO itself, lazy :meth:`prefill` run included, is the
    :class:`~repro.verbs.rq.ReceiveQueue` every QP has; the pool adds its
    capacity (``max_wr``) and occupancy accounting.
    """

    __slots__ = ("max_wr", "posted_total", "consumed_total",
                 "empty_hits", "min_free")

    def __init__(self, max_wr: int) -> None:
        if max_wr <= 0:
            raise VerbsError("SRQ max_wr must be positive")
        super().__init__()
        self.max_wr = max_wr
        # occupancy accounting (telemetry reads these as pull gauges)
        self.posted_total = 0
        self.consumed_total = 0
        #: arrivals that found the pool empty (each one is an RNR episode
        #: on the arriving QP when reliability is enabled)
        self.empty_hits = 0
        self.min_free = max_wr

    # ------------------------------------------------------------------
    def post_recv(self, wr: RecvWR) -> None:
        """Add one receive WR to the shared pool."""
        if len(self) >= self.max_wr:
            raise VerbsError(
                f"SRQ overflow: {self.max_wr} WRs already posted"
            )
        self.append(wr)
        self.posted_total += 1

    def prefill(self, count: int, sge: Optional[SGE], wr_id_start: int) -> None:
        """Bulk-post *count* interchangeable WRs without materialising them.

        Pool bring-up posts the full depth of identical slots (same backing
        SGE, sequential wr_ids) of which only the consumed prefix ever
        turns into completions; at 10k-connection depths building tens of
        thousands of :class:`RecvWR` up front dominated stack construction.
        See :meth:`ReceiveQueue.prefill`: the end state is that of posting
        ``RecvWR(wr_id_start + i, sge)`` for each ``i`` in order.
        """
        if count < 0:
            raise VerbsError("SRQ prefill count must be non-negative")
        if len(self) + count > self.max_wr:
            raise VerbsError(
                f"SRQ overflow: bulk post of {count} WRs exceeds {self.max_wr}"
            )
        super().prefill(count, sge, wr_id_start)
        self.posted_total += count

    def extend_run(self) -> None:
        """Post the lazy run's next WR in O(1), building no :class:`RecvWR`.

        The end state, overflow error included, is that of
        ``post_recv(RecvWR(next_wr_id, sge))`` with the last
        :meth:`prefill`'s SGE and the wr_id after the last one it booked,
        whether or not the run has drained meanwhile.  A pool whose slots
        all share one SGE reposts this way, so however deep, it holds no
        WR objects.
        """
        if len(self) >= self.max_wr:
            raise VerbsError(
                f"SRQ overflow: {self.max_wr} WRs already posted"
            )
        if self._wrs:
            raise VerbsError("prefill behind receives posted one by one would jump the queue")
        if self._run_sge is None:
            raise VerbsError("no prefilled run to extend")
        self._run += 1
        self.posted_total += 1

    def take(self) -> RecvWR:
        """Consume the head WR (transport side; pool must be non-empty)."""
        wr = super().take()
        self.consumed_total += 1
        free = len(self)
        if free < self.min_free:
            self.min_free = free
        return wr

    @property
    def depth(self) -> int:
        """WRs currently posted and unconsumed."""
        return len(self)

    @property
    def free(self) -> int:
        """Headroom before :meth:`post_recv` overflows."""
        return self.max_wr - len(self)
