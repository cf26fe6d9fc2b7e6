"""Circular intermediate-buffer accounting (paper §III).

The hidden receive-side buffer is circular: "the sender keeps a pointer to
the next position in the intermediate buffer to place data, while the
receiver keeps a pointer to the next position to remove data.  Both sides
keep track of the number of bytes currently stored."

Two independent views are modelled, matching that independence:

* :class:`SenderRingView` — the sender's notion of free space (the paper's
  ``b_s``), advanced optimistically at reservation time and replenished by
  the receiver's cumulative-copy acknowledgements.
* :class:`ReceiverRing` — the receiver's fill state (the paper's ``b_r``)
  and read pointer, plus the cumulative copied-out counter it reports in
  ACKs.

Reservations that would wrap the end of the buffer are split into two
segments, because one RDMA WRITE targets one contiguous remote range.
Cumulative counters make the ACK protocol idempotent and loss-tolerant by
construction (though the RC transport never loses messages).
"""

from __future__ import annotations

from typing import List

from ..records import record

__all__ = ["RingSegment", "SenderRingView", "ReceiverRing", "RingError"]


class RingError(RuntimeError):
    """Accounting violation in the intermediate-buffer bookkeeping."""


@record
class RingSegment:
    """A contiguous region reserved in the ring: [offset, offset+nbytes)."""

    offset: int
    nbytes: int

    def __post_init__(self) -> None:
        if self.nbytes <= 0 or self.offset < 0:
            raise RingError(f"bad ring segment ({self.offset}, {self.nbytes})")


class SenderRingView:
    """The sender's view of the remote intermediate buffer."""

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise RingError("ring capacity must be positive")
        self.capacity = capacity
        #: cumulative bytes reserved (== sent indirectly, once transmitted)
        self.reserved_total = 0
        #: cumulative bytes the receiver has reported copied out
        self.acked_copied_total = 0
        self._write_off = 0

    @property
    def in_flight(self) -> int:
        """Bytes believed to occupy the remote buffer."""
        return self.reserved_total - self.acked_copied_total

    @property
    def free(self) -> int:
        """The paper's ``b_s``: free byte count from the sender's view."""
        return self.capacity - self.in_flight

    def reserve(self, nbytes: int) -> List[RingSegment]:
        """Reserve up to the next wrap boundary; returns 1 or 2 segments.

        Raises if *nbytes* exceeds the current free space — callers must
        clamp with :attr:`free` first (the sender algorithm does).
        """
        if nbytes <= 0:
            raise RingError("reserve of <= 0 bytes")
        if nbytes > self.free:
            raise RingError(f"reserve {nbytes} exceeds free {self.free}")
        segments: List[RingSegment] = []
        remaining = nbytes
        while remaining > 0:
            run = min(remaining, self.capacity - self._write_off)
            segments.append(RingSegment(self._write_off, run))
            self._write_off = (self._write_off + run) % self.capacity
            remaining -= run
        self.reserved_total += nbytes
        return segments

    def on_copy_ack(self, cumulative_copied: int) -> None:
        """Process the receiver's cumulative copied-out report."""
        if cumulative_copied < self.acked_copied_total:
            # Stale/reordered ack — cumulative counters make this harmless.
            return
        if cumulative_copied > self.reserved_total:
            raise RingError(
                f"receiver claims {cumulative_copied} copied but only "
                f"{self.reserved_total} were ever sent"
            )
        self.acked_copied_total = cumulative_copied


class ReceiverRing:
    """The receiver's view: fill level, read pointer, copied-out counter."""

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise RingError("ring capacity must be positive")
        self.capacity = capacity
        self._read_off = 0
        #: the paper's ``b_r``: bytes currently stored
        self.stored = 0
        #: cumulative bytes ever written into the ring by the sender
        self.written_total = 0
        #: cumulative bytes ever copied out to user memory (reported in ACKs)
        self.copied_total = 0

    @property
    def read_offset(self) -> int:
        return self._read_off

    def on_arrival(self, segment: RingSegment) -> None:
        """Account an indirect transfer landing in the ring.

        The sender's reservation discipline guarantees the segment starts
        exactly at the current write position and fits in free space; both
        are asserted because violating them silently would corrupt the
        stream.
        """
        expected_off = (self._read_off + self.stored) % self.capacity
        if segment.offset != expected_off:
            raise RingError(
                f"indirect transfer landed at offset {segment.offset}, "
                f"expected {expected_off} (sender/receiver rings diverged)"
            )
        if self.stored + segment.nbytes > self.capacity:
            raise RingError("indirect transfer overflows the intermediate buffer")
        self.stored += segment.nbytes
        self.written_total += segment.nbytes

    def consume(self, nbytes: int) -> List[RingSegment]:
        """Remove *nbytes* from the head; returns the source segment(s)."""
        if nbytes <= 0:
            raise RingError("consume of <= 0 bytes")
        if nbytes > self.stored:
            raise RingError(f"consume {nbytes} exceeds stored {self.stored}")
        segments: List[RingSegment] = []
        remaining = nbytes
        while remaining > 0:
            run = min(remaining, self.capacity - self._read_off)
            segments.append(RingSegment(self._read_off, run))
            self._read_off = (self._read_off + run) % self.capacity
            remaining -= run
        self.stored -= nbytes
        self.copied_total += nbytes
        return segments

    @property
    def is_empty(self) -> bool:
        return self.stored == 0
