"""Seeded fault injection for the link layer.

The link model stands in for a *reliable connected* RDMA transport, but real
RC hardware earns its losslessness through retransmission and NAK machinery
over a lossy physical layer.  :class:`ImpairmentModel` makes that physical
layer explicit: plugged into a :class:`~repro.simnet.link.Link`, it lets
each transmitted message be dropped, duplicated, or corrupted, and models
scheduled link outages ("flaps") — all from dedicated seeded RNG streams so
every fault sequence is bit-for-bit reproducible per seed.

Design rules that keep runs deterministic and comparable:

* Each direction has its **own** RNG stream, so traffic on one direction
  never perturbs the fault sequence of the other.
* A probability of zero draws **nothing** from the RNG.  An
  :class:`ImpairmentModel` whose probabilities are all zero therefore
  produces exactly the same simulation as no model at all.
* The per-message decision order is fixed (down-window, drop, corrupt,
  duplicate) and documented, so a given seed always yields the same fault
  pattern for the same traffic.
* Payloads carrying a truthy ``fault_exempt`` attribute bypass impairment
  entirely.  Connection-management datagrams and terminate notifications
  use this: their real-world counterparts ride on separately-protected
  paths (CM timeouts, keepalives) that the model collapses into reliable
  delivery.

Corruption is modelled at the *detection* point: the link delivers a
:class:`Corrupted` wrapper, and the receiving device discards it exactly as
a real port discards a frame with a bad CRC — the sender's reliability
machinery is what recovers the loss.

Fault injection never copies or mutates payload bytes: duplication delivers
the same payload object twice and :class:`Corrupted` wraps it untouched.
Payload chunks may therefore carry live ``memoryview``s of sender memory
(the zero-copy plane, :mod:`repro.hosts.memory`); the view-pinning rule
guarantees the viewed range is unchanged for as long as any injected
re-delivery could still dereference it.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from typing import Any, Iterable, Optional, Sequence, Tuple

__all__ = [
    "FaultProfile",
    "Fate",
    "Corrupted",
    "FaultStats",
    "ImpairmentModel",
    "LIGHT_LOSS",
    "HEAVY_LOSS",
    "DUP_AND_CORRUPT",
]


@dataclass(frozen=True)
class FaultProfile:
    """Per-direction impairment probabilities (all independent per message)."""

    #: probability a message vanishes on the wire
    drop_prob: float = 0.0
    #: probability a message arrives twice (same arrival instant, in order)
    duplicate_prob: float = 0.0
    #: probability a message arrives mangled (discarded by the receiver's CRC)
    corrupt_prob: float = 0.0

    def __post_init__(self) -> None:
        for name in ("drop_prob", "duplicate_prob", "corrupt_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")

    @property
    def impaired(self) -> bool:
        return bool(self.drop_prob or self.duplicate_prob or self.corrupt_prob)


#: drop profiles used by the chaos suite and available to experiments
LIGHT_LOSS = FaultProfile(drop_prob=0.01)
HEAVY_LOSS = FaultProfile(drop_prob=0.05, duplicate_prob=0.01, corrupt_prob=0.01)
DUP_AND_CORRUPT = FaultProfile(duplicate_prob=0.05, corrupt_prob=0.05)


class Fate(enum.Enum):
    """What the impairment model decided for one message."""

    DELIVER = "deliver"
    DROP = "drop"
    DUPLICATE = "duplicate"
    CORRUPT = "corrupt"
    #: lost because the link was administratively down (scheduled flap)
    DOWN = "down"


class Corrupted:
    """A message whose frame arrived with a bad CRC (payload unusable)."""

    __slots__ = ("payload",)

    def __init__(self, payload: Any) -> None:
        self.payload = payload

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Corrupted({self.payload!r})"


@dataclass
class FaultStats:
    """Point-in-time snapshot of one direction's fault counters."""

    messages: int = 0
    dropped: int = 0
    duplicated: int = 0
    corrupted: int = 0
    down_dropped: int = 0
    acks_dropped: int = 0


class _DirectionState:
    """RNG stream plus counters for one link direction."""

    __slots__ = ("profile", "rng", "messages", "dropped", "duplicated",
                 "corrupted", "down_dropped", "acks_dropped")

    def __init__(self, profile: FaultProfile, seed: int, index: int) -> None:
        self.profile = profile
        # Dedicated stream per direction, derived from the model seed.
        self.rng = random.Random(seed * 2 + index)
        self.messages = 0
        self.dropped = 0
        self.duplicated = 0
        self.corrupted = 0
        self.down_dropped = 0
        self.acks_dropped = 0

    @property
    def stats(self) -> FaultStats:
        return FaultStats(self.messages, self.dropped, self.duplicated,
                          self.corrupted, self.down_dropped, self.acks_dropped)


class ImpairmentModel:
    """Per-direction loss/duplication/corruption plus scheduled outages.

    Parameters
    ----------
    profile:
        Fault probabilities for direction 0 (and direction 1 unless
        *profile1* is given).  Each direction draws from its own RNG.
    profile1:
        Optional distinct profile for direction 1.
    seed:
        Base seed for the per-direction RNG streams.
    down_windows:
        Iterable of ``(start_ns, end_ns)`` half-open intervals during which
        the wire is dead: everything transmitted inside a window (both
        directions, ACKs included) is lost.
    """

    def __init__(
        self,
        profile: FaultProfile = FaultProfile(),
        profile1: Optional[FaultProfile] = None,
        *,
        seed: int = 0,
        down_windows: Iterable[Tuple[int, int]] = (),
    ) -> None:
        self.seed = seed
        self.down_windows: Sequence[Tuple[int, int]] = tuple(
            (int(a), int(b)) for a, b in down_windows
        )
        for start, end in self.down_windows:
            if end <= start or start < 0:
                raise ValueError(f"bad down window ({start}, {end})")
        self._dirs = (
            _DirectionState(profile, seed, 0),
            _DirectionState(profile1 if profile1 is not None else profile, seed, 1),
        )

    # ------------------------------------------------------------------
    def set_profile(self, direction: int, profile: FaultProfile) -> None:
        """Swap one direction's probabilities mid-run (RNG stream is kept).

        Lets tests and experiments stage scenarios like "corrupt the first
        transmission, then heal the wire" without rebuilding the link.
        """
        self._dirs[direction].profile = profile

    def link_down(self, now: int) -> bool:
        """True while *now* falls inside a scheduled outage window."""
        for start, end in self.down_windows:
            if start <= now < end:
                return True
        return False

    def classify(self, direction: int, now: int) -> Fate:
        """Decide the fate of one data message entering the wire.

        Decision order is fixed: down-window (no RNG draw), then drop, then
        corrupt, then duplicate — each guarded so a zero probability draws
        nothing from the stream.
        """
        d = self._dirs[direction]
        d.messages += 1
        if self.down_windows and self.link_down(now):
            d.down_dropped += 1
            return Fate.DOWN
        p = d.profile
        if p.drop_prob and d.rng.random() < p.drop_prob:
            d.dropped += 1
            return Fate.DROP
        if p.corrupt_prob and d.rng.random() < p.corrupt_prob:
            d.corrupted += 1
            return Fate.CORRUPT
        if p.duplicate_prob and d.rng.random() < p.duplicate_prob:
            d.duplicated += 1
            return Fate.DUPLICATE
        return Fate.DELIVER

    def ack_lost(self, direction: int, now: int) -> bool:
        """Fate of one out-of-band ACK/NAK (drop and outage only)."""
        d = self._dirs[direction]
        if self.down_windows and self.link_down(now):
            d.acks_dropped += 1
            return True
        p = d.profile
        if p.drop_prob and d.rng.random() < p.drop_prob:
            d.acks_dropped += 1
            return True
        return False

    # ------------------------------------------------------------------
    def stats(self, direction: int) -> FaultStats:
        """Snapshot of one direction's counters."""
        return self._dirs[direction].stats

    def _total(self, field: str) -> int:
        return sum(getattr(d, field) for d in self._dirs)

    @property
    def dropped_total(self) -> int:
        return self._total("dropped")

    @property
    def duplicated_total(self) -> int:
        return self._total("duplicated")

    @property
    def corrupted_total(self) -> int:
        return self._total("corrupted")

    @property
    def down_dropped_total(self) -> int:
        return self._total("down_dropped")

    @property
    def acks_dropped_total(self) -> int:
        return self._total("acks_dropped")
