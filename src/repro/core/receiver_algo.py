"""Receiver-side algorithms (paper Figs. 3, 4, 5).

``ReceiverAlgorithm`` is pure control logic for one direction of a stream
connection.  It owns the receive-transaction queue (pending ``exs_recv()``
calls in FIFO order), the receiver's phase/sequence state, and the
intermediate-buffer fill accounting.  Its methods return *actions* —
ADVERTs to transmit, user receives to complete, copies to perform — which
the EXS layer executes with real timing and memory movement.

Paper-variable correspondence (Table I): ``self.phase`` = P_r,
``self.seq`` = S_r, ``self.advert_seq_estimate`` = S'_r,
``self.ring.stored`` = b_r, ``self.prior_phase_adverts`` = k_a,
``self.unadvertised_recvs`` = k_b.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional

from ..records import record
from .advert import Advert
from .invariants import require, violation
from .modes import ProtocolMode
from .phase import INITIAL_PHASE, is_direct, is_indirect, next_phase
from .ring import ReceiverRing, RingSegment
from .stats import ProtocolStats

__all__ = ["RecvEntry", "CopyPlan", "ReceiverAlgorithm"]


@dataclass
class RecvEntry:
    """One pending ``exs_recv()`` transaction."""

    recv_id: int
    length: int
    waitall: bool
    #: opaque handle for the EXS layer (user buffer, event-queue target, ...)
    context: Any = None
    #: the ADVERT sent for this entry, if any
    advert: Optional[Advert] = None
    #: bytes delivered into the user buffer so far
    filled: int = 0
    completed: bool = False

    @property
    def remaining(self) -> int:
        return self.length - self.filled


@record
class CopyPlan:
    """Copy *nbytes* from the intermediate buffer into *entry*'s user buffer.

    ``ring_segments`` are the source region(s) in the ring (two if the read
    wraps); ``dest_offset`` is where the bytes land in the user buffer.
    """

    entry: RecvEntry
    nbytes: int
    dest_offset: int
    ring_segments: tuple


class ReceiverAlgorithm:
    """Implements paper Figs. 3 (advertising), 4 (arrival), 5 (copy-out)."""

    def __init__(
        self,
        ring: ReceiverRing,
        mode: ProtocolMode = ProtocolMode.DYNAMIC,
        stats: Optional[ProtocolStats] = None,
    ) -> None:
        self.ring = ring
        self.mode = mode
        self.stats = stats if stats is not None else ProtocolStats()
        #: the paper's P_r
        self.phase: int = INITIAL_PHASE
        #: the paper's S_r — stream position consumed into user memory
        self.seq: int = 0
        #: the paper's S'_r — sequence-number estimate for the next ADVERT
        self.advert_seq_estimate: int = 0
        #: the paper's k_a — outstanding ADVERTs from a prior phase
        self.prior_phase_adverts: int = 0
        #: the paper's k_b — pending exs_recv()s with no ADVERT
        self.unadvertised_recvs: int = 0
        self.queue: List[RecvEntry] = []
        #: ids of the next ADVERT and the next receive
        self._next_advert_id = 1
        self._next_recv_id = 1

    # ------------------------------------------------------------------
    # Fig. 3 — user posts an exs_recv()
    # ------------------------------------------------------------------
    def post_recv(
        self,
        length: int,
        *,
        waitall: bool = False,
        context: Any = None,
        advert_remote_addr: int = 0,
        advert_rkey: int = 0,
    ) -> tuple[RecvEntry, Optional[Advert]]:
        """Queue a receive; returns the entry and the ADVERT to transmit
        (``None`` when advertising is suppressed).
        """
        if length <= 0:
            raise ValueError("exs_recv length must be positive")
        recv_id = self._next_recv_id
        self._next_recv_id = recv_id + 1
        entry = RecvEntry(recv_id, length, waitall, context)
        self.queue.append(entry)
        advert = self._maybe_advertise(entry, advert_remote_addr, advert_rkey)
        return entry, advert

    def _maybe_advertise(self, entry: RecvEntry, remote_addr: int, rkey: int) -> Optional[Advert]:
        if self.mode is ProtocolMode.INDIRECT_ONLY:
            # The indirect-only baseline never advertises (paper §IV-B).
            self.unadvertised_recvs += 1
            self.stats.adverts_suppressed += 1
            return None
        # Fig. 3 lines 1-4: suppress while the intermediate buffer holds
        # data, prior-phase ADVERTs are outstanding, or earlier receives
        # are still unadvertised.
        if self.ring.stored > 0 or self.prior_phase_adverts > 0 or self.unadvertised_recvs > 0:
            self.unadvertised_recvs += 1
            self.stats.adverts_suppressed += 1
            return None
        return self._advertise(entry, remote_addr, rkey)

    def _advertise(self, entry: RecvEntry, remote_addr: int, rkey: int) -> Advert:
        """Fig. 3 lines 5-15: build the ADVERT and advance the estimate."""
        if is_indirect(self.phase):
            # lines 5-7: re-entering a direct phase — *resynchronise*: the
            # gate guarantees everything sent so far has been consumed, so
            # the estimate is reset to the true stream position ("the
            # receiver must ensure that the sequence number of the next
            # ADVERT matches what the sender expects", paper §III).
            self._set_phase(next_phase(self.phase))
            require(
                self.ring.stored == 0 and self.prior_phase_adverts == 0,
                "resync gate",
                "re-advertising while indirect data or prior adverts outstanding",
            )
            self.advert_seq_estimate = self.seq
        advert_id = self._next_advert_id
        self._next_advert_id = advert_id + 1
        advert = Advert(
            advert_id=advert_id,
            seq=self.advert_seq_estimate,  # line 9: S_A <- S'_r
            # a partially-filled WAITALL receive re-advertises only its
            # remaining window, placed past the bytes already delivered
            length=entry.remaining,
            phase=self.phase,  # line 8: P_A <- P_r
            waitall=entry.waitall,
            remote_addr=remote_addr + entry.filled,
            rkey=rkey,
            base_offset=entry.filled,
        )
        entry.advert = advert
        # lines 10-14: advance the estimate — by the full remaining length
        # for MSG_WAITALL (exactly that many bytes will land), by the
        # minimum guaranteed 1 byte otherwise.
        self.advert_seq_estimate += entry.remaining if entry.waitall else 1
        self.stats.adverts_sent += 1
        return advert

    def flush_adverts(self, addr_rkey_of: "callable" = None) -> List[tuple[RecvEntry, Advert]]:
        """Send ADVERTs for queued unadvertised receives once the gate opens.

        Called by the EXS layer after arrivals/copies change state.  Returns
        ``(entry, advert)`` pairs in queue order; empty if the gate is still
        closed.  ``addr_rkey_of(entry) -> (remote_addr, rkey)`` supplies
        placement info for each entry's user buffer.
        """
        if self.mode is ProtocolMode.INDIRECT_ONLY:
            return []
        out: List[tuple[RecvEntry, Advert]] = []
        if self.ring.stored > 0 or self.prior_phase_adverts > 0:
            return out
        for entry in self.queue:
            if entry.advert is None and not entry.completed:
                addr, rkey = addr_rkey_of(entry) if addr_rkey_of else (0, 0)
                advert = self._advertise(entry, addr, rkey)
                self.unadvertised_recvs -= 1
                out.append((entry, advert))
        if out and self.unadvertised_recvs != 0:
            raise violation("k_b accounting", f"k_b={self.unadvertised_recvs} after full flush")
        return out

    # ------------------------------------------------------------------
    # Fig. 4 — a transfer arrives
    # ------------------------------------------------------------------
    def on_direct_arrival(
        self, seq: int, nbytes: int, advert_id: int, buffer_offset: int
    ) -> List[RecvEntry]:
        """A direct (zero-copy) transfer landed in an advertised buffer.

        Returns entries to complete (at most one).  The Theorem-1 safety
        checks run here: the transfer must target the head-of-queue entry's
        ADVERT, land at the exact current stream position, and never pass
        pending indirect data.
        """
        require(
            self.ring.stored == 0,
            "Theorem 1 (ordering)",
            "direct transfer arrived while intermediate-buffer data is pending",
        )
        require(len(self.queue) > 0, "Theorem 1", "direct transfer with empty receive queue")
        entry = self.queue[0]
        advert = entry.advert
        if advert is None or advert.advert_id != advert_id:
            raise violation(
                "Theorem 1 (head match)",
                f"transfer matched advert {advert_id} but head entry has "
                f"{advert.advert_id if advert else None}",
            )
        if seq != self.seq:
            raise violation(
                "Theorem 1 (no loss/reorder)",
                f"direct transfer seq {seq} != receiver stream position {self.seq}",
            )
        if buffer_offset + advert.base_offset != entry.filled:
            raise violation(
                "Theorem 1 (placement)",
                f"transfer placed at advert offset {buffer_offset} (+base "
                f"{advert.base_offset}), entry filled {entry.filled}",
            )
        if nbytes > entry.length - entry.filled:
            raise violation(
                "Theorem 1 (bounds)",
                f"transfer of {nbytes}B overflows entry with {entry.remaining}B remaining",
            )
        # Fig. 4 line 2: S_r += l_w
        self.seq += nbytes
        # Fig. 4 lines 3-5: correct the estimate (the ADVERT pre-counted 1).
        if not entry.waitall:
            self.advert_seq_estimate += nbytes - 1
        entry.filled += nbytes
        done: List[RecvEntry] = []
        # Stream semantics: a non-WAITALL receive completes on first data;
        # WAITALL waits for the full buffer (paper §II-C).
        if not entry.waitall or entry.filled == entry.length:
            self._complete_head(entry)
            done.append(entry)
        return done

    def on_indirect_arrival(self, seq: int, segment: RingSegment) -> None:
        """An indirect transfer landed in the intermediate buffer."""
        # Stream continuity: indirect data must extend the stream exactly.
        require(
            seq == self.seq + self.ring.stored,
            "stream continuity",
            f"indirect transfer seq {seq} != expected {self.seq + self.ring.stored}",
        )
        if is_direct(self.phase):
            # Fig. 4 lines 8-10: first indirect transfer of a burst — all
            # currently outstanding ADVERTs become prior-phase (k_a).
            self._set_phase(next_phase(self.phase))
            self.prior_phase_adverts = sum(
                1 for e in self.queue if e.advert is not None and not e.completed
            )
        self.ring.on_arrival(segment)

    # ------------------------------------------------------------------
    # Fig. 5 — copy out of the intermediate buffer
    # ------------------------------------------------------------------
    def next_copy(self) -> Optional[CopyPlan]:
        """The next copy the library thread should perform, if any."""
        if self.ring.stored == 0 or not self.queue:
            return None
        entry = self.queue[0]
        nbytes = min(self.ring.stored, entry.remaining)
        if nbytes == 0:  # pragma: no cover - defensive; head should never be full
            return None
        segments = tuple(self.ring.consume(nbytes))
        return CopyPlan(entry=entry, nbytes=nbytes, dest_offset=entry.filled, ring_segments=segments)

    def on_copied(self, plan: CopyPlan) -> List[RecvEntry]:
        """Account a finished copy (Fig. 5); returns entries to complete.

        Note: :meth:`next_copy` already removed the bytes from the ring
        (the EXS layer performs the memcpy between the two calls, mirroring
        how the real library owns that region during the copy).
        """
        entry = plan.entry
        require(entry is self.queue[0], "copy-out order", "copy completed for non-head entry")
        # Fig. 5 lines 3-4: b_r -= l_c (done by consume); S_r += l_c.
        self.seq += plan.nbytes
        # Fig. 5 lines 5-7: if an ADVERT was sent for this receive and it is
        # not WAITALL, correct the estimate (it pre-counted 1 byte).
        if entry.advert is not None and not entry.waitall:
            self.advert_seq_estimate += plan.nbytes - 1
        entry.filled += plan.nbytes
        self.stats.copies += 1
        self.stats.copied_bytes += plan.nbytes
        done: List[RecvEntry] = []
        if not entry.waitall or entry.filled == entry.length:
            self._complete_head(entry)
            done.append(entry)
        return done

    # ------------------------------------------------------------------
    def _complete_head(self, entry: RecvEntry) -> None:
        require(self.queue and self.queue[0] is entry, "completion order", "non-head completion")
        self.queue.pop(0)
        entry.completed = True
        if entry.advert is not None:
            # While the phase is indirect, every outstanding advert-bearing
            # entry is by construction from the prior direct phase (the gate
            # re-opens only at k_a == 0), so completing one drains k_a.
            if self.prior_phase_adverts > 0:
                self.prior_phase_adverts -= 1
        else:
            # An unadvertised entry satisfied entirely from the buffer.
            self.unadvertised_recvs -= 1
            require(self.unadvertised_recvs >= 0, "k_b accounting", "k_b went negative")

    def _set_phase(self, phase: int) -> None:
        if phase < self.phase:
            raise violation("phase monotonicity", f"{self.phase} -> {phase}")
        if is_direct(phase) != is_direct(self.phase):
            self.stats.mode_switches += 1
        self.phase = phase

    # ------------------------------------------------------------------
    @property
    def pending_recvs(self) -> int:
        return len(self.queue)

    @property
    def head_entry(self) -> Optional[RecvEntry]:
        return self.queue[0] if self.queue else None
