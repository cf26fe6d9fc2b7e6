"""Completion channels with OS wake-up latency.

When an RDMA application uses *event notification* (as all of the paper's
experiments do, §IV-B: "All tests use event notification for retrieving
RDMA completion events"), a thread blocks in the kernel on a completion
channel and is woken when an armed CQ receives a completion.  That wake-up
is **not free**: the interrupt, scheduler, and return-to-userspace path cost
several microseconds, and that latency is variable.

This latency turns out to be *load-bearing* for reproducing the paper: the
receiver's ADVERT regeneration path includes one of these wake-ups, while
the sender's send-credit return path is pure hardware ACK.  The difference
is what lets a saturating sender outrun the receiver's advertisements and
fall into indirect mode (paper Table III, Figs. 9, 11, 12).

:class:`CompletionChannel` therefore delays wake-ups by a sample from a
seeded distribution.  A thread that is already awake and polling (the
latched case) pays nothing, which models the natural batching of a busy
progress thread.
"""

from __future__ import annotations

import random
from array import array
from typing import Any, Callable, Optional, Sequence

from ..simnet import SimulationError, Simulator

__all__ = ["CompletionChannel", "WakeupStream", "uniform_wakeup", "fixed_wakeup"]

#: a sampler draws from its argument's ``random()`` and from nothing else
WakeupSampler = Callable[[random.Random], float]

_PREFIX = 8   # draws a stream fills on its first draw
_REFILL = 40  # draws it holds once that prefix is outrun; past them it keeps the generator


class WakeupStream:
    """The floats ``random.Random(seed).random()`` yields, drawn ahead.

    Most wake-up streams make a few dozen draws per run, and a generator
    holds 2.5 KiB of state.  So the stream builds one only to fill a short
    ``array('d')`` (first :data:`_PREFIX` draws, then :data:`_REFILL`) and
    drops it; a stream that outruns both keeps the generator as
    :attr:`rng`, and its holder hands that to the sampler directly
    (``stream.rng or stream``), one Python call fewer per draw.  Only
    ``random()`` is offered, so a sampler calling any other method fails on
    its first draw.
    """

    __slots__ = ("seed", "rng", "_drawn", "_next")

    def __init__(self, seed: int) -> None:
        self.seed = seed
        #: the generator, kept once the stream has outrun its drawn-ahead floats
        self.rng: Optional[random.Random] = None
        self._drawn: Sequence[float] = ()  # nothing drawn ahead yet
        self._next = 0

    def random(self) -> float:
        i = self._next
        if i < len(self._drawn):
            self._next = i + 1
            return self._drawn[i]
        rng = self.rng
        if rng is None:
            rng = random.Random(self.seed)
            draw = rng.random
            if i < _REFILL:
                self._drawn = array("d", [draw() for _ in range(_REFILL if i else _PREFIX)])
                return self.random()
            for _ in range(i):
                draw()
            self.rng = rng
            self._drawn = ()
        return rng.random()


def uniform_wakeup(lo_ns: int, hi_ns: int) -> WakeupSampler:
    """Wake-up latency uniform in ``[lo_ns, hi_ns]``.

    ``random.Random.uniform``'s own formula with its operands folded once:
    the same floats, one Python frame fewer per draw.
    """
    lo = float(lo_ns)
    span = float(hi_ns) - lo

    def sample(rng: random.Random) -> float:
        return lo + span * rng.random()

    return sample


def fixed_wakeup(ns: int) -> WakeupSampler:
    """Deterministic wake-up latency (useful in unit tests)."""

    def sample(_rng: random.Random) -> float:
        return float(ns)

    return sample


class CompletionChannel:
    """Event channel connecting CQs to a sleeping progress thread."""

    def __init__(
        self,
        sim: Simulator,
        wakeup: Optional[WakeupSampler] = None,
        seed: int = 0,
    ) -> None:
        self.sim = sim
        self.wakeup = wakeup or fixed_wakeup(0)
        self._wakes = WakeupStream(seed)
        #: the registered sleeper's callback and its argument
        self._fn: Optional[Callable[[Any], None]] = None
        self._token: Any = None
        self._latched = 0
        #: diagnostics
        self.notifications = 0
        self.slept_wakeups = 0

    def wait(self, fn: Callable[[Any], None], token: Any = None) -> None:
        """Call ``fn(token)`` from the calendar when the channel is next
        notified — at once if notifications were latched while the caller
        was busy (the thread never actually slept).

        One waiting thread per channel, as in the EXS design: waiting
        again while registered (a "channel OR kick" loop woken by its kick)
        keeps the callback, takes the new *token* and places nothing; a
        *different* callback raises instead of silently replacing it.
        """
        pending = self._fn
        if pending is not None:
            if pending != fn:
                raise SimulationError(
                    f"completion channel already has a waiting thread ({pending!r}); "
                    f"one thread per channel, {fn!r} would never wake"
                )
            self._token = token
            return
        if self._latched:
            self._latched = 0
            self.sim.call_in(0, fn, token)
        else:
            self._fn = fn
            self._token = token

    def notify(self) -> None:
        """Notify the channel (called by an armed CQ)."""
        self.notifications += 1
        fn = self._fn
        if fn is not None:
            self._fn = None
            self.slept_wakeups += 1
            wakes = self._wakes
            delay = int(round(self.wakeup(wakes.rng or wakes)))
            self.sim.call_in(delay, fn, self._token)
        else:
            self._latched += 1
