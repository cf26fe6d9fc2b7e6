"""Sender-side matching algorithm (paper Fig. 2).

``SenderAlgorithm`` is pure control logic: given the sender's protocol
state (phase ``P_s``, sequence number ``S_s``, ADVERT queue ``q_A``, and
the intermediate-buffer free count ``b_s``), decide how the next piece of a
pending ``exs_send()`` travels:

* :class:`DirectPlan` — zero-copy WRITE-WITH-IMM into an advertised user
  buffer, or
* :class:`IndirectPlan` — WRITE-WITH-IMM into the remote intermediate
  (circular) buffer, or
* ``None`` — blocked until an ADVERT or a buffer-space ACK arrives.

The transport/timing side effects are executed by
:class:`repro.exs.stream_sender.StreamSenderHalf`.

Paper-variable correspondence (Table I): ``self.phase`` = P_s,
``self.seq`` = S_s, ``self.adverts`` = q_A, ``self.ring.free`` = b_s;
an ADVERT's fields carry P_A and S_A.
"""

from __future__ import annotations

from typing import List, Optional, Union

from ..records import record
from .advert import Advert
from .invariants import violation
from .modes import ProtocolMode
from .phase import INITIAL_PHASE, is_direct, is_indirect, next_phase
from .ring import SenderRingView
from .stats import ProtocolStats

__all__ = ["DirectPlan", "IndirectPlan", "SenderAlgorithm", "TransferPlan"]


@record
class DirectPlan:
    """Send *nbytes* directly into *advert*'s user buffer."""

    advert: Advert
    #: stream sequence number of the first byte (S_s at decision time)
    seq: int
    nbytes: int
    #: sender phase stamped on the transfer
    phase: int
    #: byte offset inside the advertised buffer (non-zero only for WAITALL
    #: adverts being filled across multiple transfers)
    buffer_offset: int
    #: True when this transfer finishes the advert (it leaves q_A)
    advert_done: bool


@record
class IndirectPlan:
    """Send *nbytes* into the remote intermediate buffer."""

    seq: int
    nbytes: int
    phase: int
    #: contiguous destination region(s); two when the write wraps the ring
    segments: tuple

    @property
    def total_bytes(self) -> int:
        return sum(s.nbytes for s in self.segments)


TransferPlan = Union[DirectPlan, IndirectPlan]


class SenderAlgorithm:
    """Implements the ADVERT-matching loop of paper Fig. 2."""

    def __init__(
        self,
        ring: SenderRingView,
        mode: ProtocolMode = ProtocolMode.DYNAMIC,
        stats: Optional[ProtocolStats] = None,
    ) -> None:
        self.ring = ring
        self.mode = mode
        self.stats = stats if stats is not None else ProtocolStats()
        #: the paper's P_s
        self.phase: int = INITIAL_PHASE
        #: the paper's S_s
        self.seq: int = 0
        #: the paper's q_A
        self.adverts: List[Advert] = []
        #: bytes already sent into the head (WAITALL) advert
        self._head_filled: int = 0

    # ------------------------------------------------------------------
    def on_advert(self, advert: Advert) -> None:
        """An ADVERT arrived from the receiver (queued; vetted at match time)."""
        if self.mode is ProtocolMode.INDIRECT_ONLY:
            # The indirect-only receiver never sends ADVERTs; getting one
            # means the two ends disagree about the protocol mode.
            raise ValueError("ADVERT received on an indirect-only connection")
        self.stats.adverts_received += 1
        self.adverts.append(advert)

    # ------------------------------------------------------------------
    def next_transfer(self, remaining: int) -> Optional[TransferPlan]:
        """Decide how the next ≤ *remaining* bytes travel (paper Fig. 2).

        Returns ``None`` when the sender is blocked.  Callers pass the
        number of bytes still owed by the user send at the head of the send
        queue; the plan's ``nbytes`` is clamped to the advert length or the
        intermediate-buffer free space.
        """
        if remaining <= 0:
            raise ValueError("next_transfer with nothing to send")

        # -- Fig. 2 lines 1-16: try to match an ADVERT ------------------
        while self.adverts:
            advert = self.adverts[0]  # A <- HEAD(q_A)
            if is_indirect(self.phase) and (advert.phase < self.phase or advert.seq < self.seq):
                # lines 4-7: stale ADVERT; drop it (and skip past its whole
                # generation if it is from a newer phase than ours, which is
                # the Fig. 8 hazard fix).
                if self.phase < advert.phase:
                    self._set_phase(next_phase(advert.phase))
                self.adverts.pop(0)
                self._head_filled = 0
                self.stats.adverts_discarded += 1
                continue
            # lines 8-15: usable ADVERT -> direct transfer
            if is_indirect(self.phase):
                # line 10: resynchronise onto the receiver's (direct) phase
                self._set_phase(advert.phase)
            else:
                # Lemma 4: mid-direct-phase ADVERTs carry exactly our phase.
                if advert.phase != self.phase:
                    raise violation(
                        "Lemma 4",
                        f"sender phase {self.phase} direct but ADVERT phase {advert.phase}",
                    )
            advert_remaining = advert.length - self._head_filled
            nbytes = min(remaining, advert_remaining)
            plan = DirectPlan(
                advert=advert,
                seq=self.seq,
                nbytes=nbytes,
                phase=self.phase,
                buffer_offset=self._head_filled,
                advert_done=(not advert.waitall) or (self._head_filled + nbytes == advert.length),
            )
            self.seq += nbytes  # line 12: S_s <- S_s + l_w
            if plan.advert_done:
                self.adverts.pop(0)
                self._head_filled = 0
            else:
                # MSG_WAITALL: the ADVERT stays at the head of the queue
                # until all of its bytes have been transferred (paper §II-C).
                self._head_filled += nbytes
            self.stats.direct_transfers += 1
            self.stats.direct_bytes += nbytes
            return plan

        # -- Fig. 2 lines 17-25: fall back to the intermediate buffer ----
        if self.mode.allows_indirect and self.ring.free > 0:
            nbytes = min(remaining, self.ring.free)
            if is_direct(self.phase):
                # line 19: entering an indirect phase
                self._set_phase(next_phase(self.phase))
            seq = self.seq
            segments = tuple(self.ring.reserve(nbytes))  # line 22: b_s -= l_w
            self.seq += nbytes  # line 21
            self.stats.indirect_transfers += len(segments)
            self.stats.indirect_bytes += nbytes
            return IndirectPlan(seq=seq, nbytes=nbytes, phase=self.phase, segments=segments)

        # Blocked: no usable ADVERT, no buffer space (or direct-only mode).
        self.stats.sender_blocked += 1
        return None

    # ------------------------------------------------------------------
    def _set_phase(self, phase: int) -> None:
        if phase < self.phase:
            raise violation("phase monotonicity", f"{self.phase} -> {phase}")
        if is_direct(phase) != is_direct(self.phase):
            self.stats.mode_switches += 1
        self.phase = phase

    # ------------------------------------------------------------------
    @property
    def pending_advert_count(self) -> int:
        return len(self.adverts)

    @property
    def is_blocked_on_space(self) -> bool:
        """True when only a buffer-space ACK (or an ADVERT) can unblock us."""
        return not self.adverts and self.ring.free == 0
