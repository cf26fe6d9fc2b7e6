"""The library-thread driver of the EXS completion poller.

An EXS library thread — a :class:`~repro.exs.shard.CqShard` poller,
serving a stack shard's connections or one connection of its own —
drains its CQ and runs protocol work while awake, each step
charging the host's library core, and sleeps on its completion channel
*or* a kick from the application side, whichever comes first.

:class:`Engine` runs such a thread as calendar callbacks, with no
simulation process.  Its loop is a generator (the *body*) that yields
either :data:`SLEEP` or an ``int``, nanoseconds of library core to
charge before the body resumes: on a free core the charge ends at once
if nothing is due before its end (``Simulator.advance``), else its end
goes onto the calendar; :meth:`~repro.hosts.cpu.Cpu.run` queues it on a
busy core.  The wake protocol and its absorb rule are in
docs/SIMULATION.md, "Event kernel": every entry the engine places or
advances through is one the generator-process engine placed, at the same
point and delay.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterator, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..hosts.cpu import Cpu
    from ..simnet import Simulator
    from ..verbs import CompletionChannel

__all__ = ["Engine", "SLEEP"]

#: what a body yields to sleep on channel-or-kick (a charge is an int)
SLEEP = None


def _engine_exit(_arg: Any) -> None:
    """The entry a finished thread leaves, as a finished process did."""


class Engine:
    """One library thread: a generator body driven from the calendar."""

    __slots__ = (
        "sim", "cpu", "channel", "what", "_next", "_step", "_advance",
        "_on_channel", "_on_kick", "_sleep", "_naps", "_kick_armed",
        "_kick_latched", "_kick_absorb",
    )

    def __init__(self, sim: "Simulator", cpu: "Cpu", channel: "CompletionChannel") -> None:
        self.sim = sim
        self.cpu = cpu
        self.channel = channel
        #: names the thread in the error raised when its body fails
        self.what = ""
        self._next: Optional[Callable[[], Any]] = None
        # bound once: these go on the calendar at every charge and sleep
        self._step = self._engine_step
        self._advance = sim.advance
        self._on_channel = self._engine_chan_wake
        self._on_kick = self._engine_kick_wake
        #: token of the current sleep; None while awake
        self._sleep: Optional[int] = None
        self._naps = 0
        self._kick_armed = False
        self._kick_latched = False
        self._kick_absorb = False

    def start(self, body: Iterator[Any], what: str) -> None:
        """Run *body* from a zero-delay entry (kicks before then latch)."""
        self._next = body.__next__
        self.what = what
        self.sim.call_in(0, self._engine_start)

    def close(self) -> None:
        """End the thread for good: drop its body (the poller generator)
        and the callbacks bound to it, and stop pointing at the channel
        whose waiter slot may still hold one of them."""
        self._next = self._step = self._on_channel = self._on_kick = None
        self.channel = None

    def kick(self) -> None:
        """Wake the thread, or make sure it re-checks before it sleeps."""
        if self._kick_armed:
            self._kick_armed = False
            self._kick_absorb = False
            self.sim.call_in(0, self._on_kick, self._sleep)
        elif self._kick_absorb:
            self._kick_absorb = False
        else:
            self._kick_latched = True

    # -- calendar callbacks (named in simnet.causality._CALL_CATEGORIES) --
    def _engine_start(self, _arg: Any) -> None:
        self._engine_step()

    def _engine_chan_wake(self, token: int) -> None:
        if token == self._sleep:
            self._sleep = None
            if self._kick_armed:
                self._kick_armed = False
                self._kick_absorb = True
            self._engine_step()

    def _engine_kick_wake(self, token: int) -> None:
        if token == self._sleep:
            self._sleep = None
            self._engine_step()

    # -- the driver ---------------------------------------------------------
    def _engine_step(self, _arg: Any = None) -> None:
        """Resume the body until it charges the core or sleeps."""
        nxt = self._next
        cpu = self.cpu
        sim = self.sim
        advance = self._advance
        try:
            while True:
                ns = nxt()
                if ns is SLEEP:
                    break
                if ns and not cpu._busy:
                    # Cpu.run's free-core path, one call shorter; a charge
                    # that nothing can interrupt ends here and now
                    start = sim._now
                    if advance(ns):
                        cpu._cpu_done(start)
                        continue
                    cpu._busy = True
                    cpu._then = self._step
                    cpu._then_arg = None
                    sim.call_in(ns, cpu._cpu_done, start)
                    return
                if cpu.run(ns, self._step):
                    return
        except StopIteration:
            self.sim.call_in(0, _engine_exit)
            return
        except Exception as exc:
            raise RuntimeError(f"{self.what} died") from exc
        self._naps = token = self._naps + 1
        self._sleep = token
        self.channel.wait(self._on_channel, token)
        if self._kick_latched:
            self._kick_latched = False
            self.sim.call_in(0, self._on_kick, token)
        else:
            self._kick_armed = True
