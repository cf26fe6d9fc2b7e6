"""Named protocol mutations — known-bad algorithm variants.

Each mutation re-introduces a bug the paper's design rules out, so the
checker's ability to *find* it (and shrink it to a minimal schedule) is
itself testable.  A mutation is a factory producing the sender/receiver
algorithm pair for a :class:`~repro.check.model.World`; ``None`` produces
the faithful algorithms.

Registry:

``stale_advert_match``
    The Fig. 8 hazard: the sender matches the head ADVERT without the
    staleness discard (Fig. 2 lines 4-7) or the phase resynchronisation
    (line 10).  An ADVERT issued before an indirect burst then matches a
    transfer whose bytes race the burst still sitting in the intermediate
    buffer — Theorem 1's ordering check catches it on arrival.

``skip_advert_gate``
    The receiver advertises even while the intermediate buffer holds data
    or prior-phase ADVERTs are outstanding (drops Fig. 3 lines 1-4).  The
    sender then sees an ADVERT whose sequence estimate ignores buffered
    bytes, and either end's sequencing checks object.

``missed_phase_flip``
    The sender never enters an indirect phase (drops Fig. 2 line 19), so
    its phase stays direct across an indirect burst.  The receiver's next
    ADVERT carries a later direct phase, and Lemma 4's mid-direct-phase
    check fails at the sender's match loop.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from ..core.modes import ProtocolMode
from ..core.receiver_algo import ReceiverAlgorithm
from ..core.ring import ReceiverRing, SenderRingView
from ..core.sender_algo import DirectPlan, SenderAlgorithm

__all__ = ["MUTATIONS", "make_algorithms"]


class _StaleMatchSender(SenderAlgorithm):
    """Fig. 2 without the staleness discard or the phase resync."""

    def next_transfer(self, remaining: int):
        if remaining <= 0:
            raise ValueError("next_transfer with nothing to send")
        if self.adverts:
            advert = self.adverts[0]
            # BUG: no staleness check, no resync onto the ADVERT's phase
            advert_remaining = advert.length - self._head_filled
            nbytes = min(remaining, advert_remaining)
            plan = DirectPlan(
                advert=advert,
                seq=self.seq,
                nbytes=nbytes,
                phase=self.phase,
                buffer_offset=self._head_filled,
                advert_done=(not advert.waitall)
                or (self._head_filled + nbytes == advert.length),
            )
            self.seq += nbytes
            if plan.advert_done:
                self.adverts.pop(0)
                self._head_filled = 0
            else:
                self._head_filled += nbytes
            self.stats.direct_transfers += 1
            self.stats.direct_bytes += nbytes
            return plan
        return super().next_transfer(remaining)


class _GatelessReceiver(ReceiverAlgorithm):
    """Fig. 3 without the advertising gate (lines 1-4)."""

    def _maybe_advertise(self, entry, remote_addr, rkey):
        if self.mode is ProtocolMode.INDIRECT_ONLY:
            return super()._maybe_advertise(entry, remote_addr, rkey)
        # BUG: advertise unconditionally, even with buffered data pending
        return self._advertise(entry, remote_addr, rkey)


class _NoFlipSender(SenderAlgorithm):
    """Fig. 2 without line 19: the sender never enters an indirect phase."""

    def _set_phase(self, phase: int) -> None:
        from ..core.phase import is_direct, is_indirect

        if is_indirect(phase) and is_direct(self.phase):
            return  # BUG: stay in the direct phase across an indirect burst
        super()._set_phase(phase)


Factory = Callable[
    [SenderRingView, ReceiverRing, ProtocolMode],
    Tuple[SenderAlgorithm, ReceiverAlgorithm],
]


def _faithful(sring, rring, mode):
    return SenderAlgorithm(sring, mode), ReceiverAlgorithm(rring, mode)


def _stale_advert_match(sring, rring, mode):
    return _StaleMatchSender(sring, mode), ReceiverAlgorithm(rring, mode)


def _skip_advert_gate(sring, rring, mode):
    return SenderAlgorithm(sring, mode), _GatelessReceiver(rring, mode)


def _missed_phase_flip(sring, rring, mode):
    return _NoFlipSender(sring, mode), ReceiverAlgorithm(rring, mode)


MUTATIONS: Dict[str, Factory] = {
    "stale_advert_match": _stale_advert_match,
    "skip_advert_gate": _skip_advert_gate,
    "missed_phase_flip": _missed_phase_flip,
}


def make_algorithms(
    mutation: Optional[str],
    sring: SenderRingView,
    rring: ReceiverRing,
    mode: ProtocolMode,
) -> Tuple[SenderAlgorithm, ReceiverAlgorithm]:
    """The (sender, receiver) pair for *mutation* (``None`` = faithful)."""
    if mutation is None:
        return _faithful(sring, rring, mode)
    try:
        factory = MUTATIONS[mutation]
    except KeyError:
        raise ValueError(
            f"unknown mutation {mutation!r} (known: {', '.join(sorted(MUTATIONS))})"
        ) from None
    return factory(sring, rring, mode)
