"""Event primitives for the simulation kernel.

An :class:`Event` is the unit of synchronisation: processes yield events and
are resumed when the event *triggers* (succeeds or fails).  The classes here
mirror a small, well-understood subset of the SimPy event model:

* :class:`Event` — manually triggered one-shot event.
* :class:`Timeout` — fires a fixed delay after creation.

They serve the application processes: nothing below the socket API waits
on them (docs/SIMULATION.md, "Event kernel").

Events carry a value (delivered to waiters) or an exception (re-raised in
waiting processes).

Callback storage is split for the kernel's benefit: the overwhelmingly
common case is exactly one waiter, held in the ``_cb1`` slot (no list
allocation); additional waiters overflow into the lazily created ``_cbs``
list.  Once the event has been dispatched ``_cb1`` holds a process-wide
sentinel — :attr:`processed` is a cheap identity check and a second
dispatch is a silent no-op, as in the list-based representation it
replaces.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

from ._core import _PROCESSED, check_delay
from .kernel import SimulationError, Simulator

__all__ = ["Event", "Timeout"]

_PENDING = object()


class Event:
    """A one-shot occurrence inside the simulation.

    Lifecycle: *untriggered* → (``succeed``/``fail``) → scheduled on the
    calendar → *processed* (callbacks run).  An event may only be triggered
    once.

    Events (and their subclasses) use ``__slots__``: they are the most
    numerous objects in a simulation and dropping the per-instance dict
    measurably cuts both allocation time and memory traffic.  ``_seq`` is
    owned by the kernel — the calendar's FIFO tie-break key, assigned when
    the event enters the wheel structures.
    """

    __slots__ = ("sim", "_cb1", "_cbs", "_value", "_ok", "_seq")

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._cb1: Optional[Callable[["Event"], None]] = None
        self._cbs: Optional[List[Callable[["Event"], None]]] = None
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None

    # -- state ----------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value/exception (it may not have fired yet)."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._cb1 is _PROCESSED

    @property
    def ok(self) -> Optional[bool]:
        """True if succeeded, False if failed, None if untriggered."""
        return self._ok

    def result(self) -> Any:
        """Return the event's value, raising its exception if it failed."""
        if self._value is _PENDING:
            raise SimulationError("event has not triggered yet")
        if not self._ok:
            raise self._value
        return self._value

    # -- triggering -----------------------------------------------------
    def succeed(self, value: Any = None, delay: int = 0) -> "Event":
        """Trigger the event successfully with *value* after *delay* ns."""
        if self._value is not _PENDING:
            raise SimulationError("event already triggered")
        self._value = value
        self._ok = True
        self.sim.schedule(self, delay)
        return self

    def fail(self, exc: BaseException, delay: int = 0) -> "Event":
        """Trigger the event with an exception after *delay* ns."""
        if self._value is not _PENDING:
            raise SimulationError("event already triggered")
        if not isinstance(exc, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._value = exc
        self._ok = False
        self.sim.schedule(self, delay)
        return self

    # -- callbacks ------------------------------------------------------
    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Run ``fn(event)`` when the event fires (immediately if already fired)."""
        cb = self._cb1
        if cb is None:
            self._cb1 = fn
        elif cb is _PROCESSED:
            # Already processed: schedule an immediate call so that ordering
            # stays calendar-driven.
            self.sim.call_in(0, fn, self)
        else:
            cbs = self._cbs
            if cbs is None:
                self._cbs = [fn]
            else:
                cbs.append(fn)

    def _run(self) -> None:
        cb = self._cb1
        self._cb1 = _PROCESSED
        if cb is not None:
            cb(self)
        cbs = self._cbs
        if cbs is not None:
            self._cbs = None
            for fn in cbs:
                fn(self)


class Timeout(Event):
    """An event that fires ``delay`` nanoseconds after creation.

    Instances created via :meth:`Simulator.timeout` may come from (and
    silently return to) a per-simulator freelist; the reuse is undetectable
    because recycling requires proof that no other reference exists.
    """

    __slots__ = ("delay",)

    def __init__(self, sim: Simulator, delay: int, value: Any = None) -> None:
        self.sim = sim
        self._cb1 = None
        self._cbs = None
        self._ok = True
        if delay < 0:  # the type is sim.schedule's to check
            check_delay(delay, timeout=True)
        self.delay = delay
        self._value = value
        sim.schedule(self, delay)
