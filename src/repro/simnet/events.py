"""Event primitives for the simulation kernel.

An :class:`Event` is the unit of synchronisation: processes yield events and
are resumed when the event *triggers* (succeeds or fails).  The classes here
mirror a small, well-understood subset of the SimPy event model:

* :class:`Event` — manually triggered one-shot event.
* :class:`Timeout` — fires a fixed delay after creation.
* :class:`AllOf` / :class:`AnyOf` — composite conditions.
* :class:`Signal` — a *reusable* condition-variable-like object; each call to
  :meth:`Signal.wait` returns a fresh one-shot event.

Events carry a value (delivered to waiters) or an exception (re-raised in
waiting processes).

Callback storage is split for the kernel's benefit: the overwhelmingly
common case is exactly one waiter, held in the ``_cb1`` slot (no list
allocation); additional waiters overflow into the lazily created ``_cbs``
list.  Once the event has been dispatched ``_cb1`` holds a process-wide
sentinel — :attr:`processed` is a cheap identity check and a second
dispatch is a silent no-op, as in the list-based representation it
replaces.  The :attr:`callbacks` property keeps the old list-shaped view
for diagnostics.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence

from ._core import _PROCESSED
from .kernel import SimulationError, Simulator

__all__ = ["Event", "Timeout", "AllOf", "AnyOf", "Signal"]

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
    def callbacks(self) -> Optional[List[Callable[["Event"], None]]]:
        """List-shaped view of the pending callbacks (``None`` once processed).

        Diagnostic/back-compat accessor: mutating the returned list has no
        effect — use :meth:`add_callback`.
        """
        cb = self._cb1
        if cb is _PROCESSED:
            return None
        out: List[Callable[["Event"], None]] = []
        if cb is not None:
            out.append(cb)
        if self._cbs:
            out.extend(self._cbs)
        return out

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

    def _abandon(self, fn: Callable[["Event"], None]) -> None:
        """Remove the pending callback *fn* (its owner stopped waiting)."""
        if self._cb1 is fn:
            cbs = self._cbs
            if cbs:
                # keep registration order: the oldest overflow waiter
                # takes the vacated first slot
                self._cb1 = cbs.pop(0)
                if not cbs:
                    self._cbs = None
            else:
                self._cb1 = None
        elif self._cbs and fn in self._cbs:
            self._cbs.remove(fn)
            if not self._cbs:
                self._cbs = None

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
        if delay < 0:
            raise SimulationError(f"negative timeout: {delay}")
        self.delay = delay
        self._value = value
        sim.schedule(self, delay)


class _Condition(Event):
    """Base class for :class:`AllOf` / :class:`AnyOf`.

    A child counts as *done* only once it has been **processed** (its
    callbacks ran) — a :class:`Timeout` holds its value from creation but
    has not *occurred* until the calendar reaches it.

    A condition is its own child callback (``__call__``), like a
    :class:`~repro.simnet.process.Process`: no bound method is allocated
    per child and a pending registration is found again by identity.
    """

    __slots__ = ("events",)

    def __init__(self, sim: Simulator, events: Sequence[Event]) -> None:
        super().__init__(sim)
        self.events = events = list(events)
        for ev in events:
            if ev.sim is not sim:
                raise SimulationError("condition mixes events from different simulators")
        for ev in events:
            # add_callback handles already-processed children by scheduling
            # an immediate relay, preserving calendar-driven ordering.
            ev.add_callback(self)

    def __call__(self, child: Event) -> None:
        raise NotImplementedError


class AllOf(_Condition):
    """Triggers when *all* child events have succeeded (fails fast on error).

    The value is a list of child values in the original order.
    """

    __slots__ = ()

    def __init__(self, sim: Simulator, events: Sequence[Event]) -> None:
        super().__init__(sim, events)
        self._check()

    def __call__(self, child: Event) -> None:
        if self._value is not _PENDING:
            return
        if child._ok is False:
            self.fail(child._value)
        else:
            self._check()

    def _check(self) -> None:
        if all(e.processed and e._ok for e in self.events):
            self.succeed([e._value for e in self.events])


class AnyOf(_Condition):
    """Triggers when *any* child event occurs; value is ``(index, value)``.

    The condition never occupies a calendar slot of its own: it completes
    **inside the deciding child's slot** — its waiters run as part of that
    child's dispatch, after any callback registered on the child earlier.
    On completion it detaches from the losing children (its callback is
    removed; a :meth:`Signal.wait` event left without callbacks is
    withdrawn from its signal), so a loop that re-waits on a long-lived
    child every lap leaves nothing behind.  A failing child fails the
    condition with the child's exception.
    """

    __slots__ = ()

    def __init__(self, sim: Simulator, events: Sequence[Event]) -> None:
        super().__init__(sim, events)
        if not self.events:
            raise SimulationError("AnyOf of zero events would never trigger")

    def __call__(self, child: Event) -> None:
        if self._value is not _PENDING:
            return
        events = self.events
        if child._ok:
            self._ok = True
            self._value = (events.index(child), child._value)
        else:
            self._ok = False
            self._value = child._value
        for ev in events:
            if ev is not child:
                ev._abandon(self)
        self.sim._inline_conditions += 1
        self._run()


class _SignalWait(Event):
    """The one-shot event :meth:`Signal.wait` hands out."""

    __slots__ = ("signal",)

    def _abandon(self, fn: Callable[["Event"], None]) -> None:
        super()._abandon(fn)
        if self._cb1 is None and self._value is _PENDING:
            self.signal.withdraw(self)


class Signal:
    """A reusable wake-up channel (condition variable).

    Unlike :class:`Event`, a ``Signal`` can be fired many times.  Each call
    to :meth:`wait` returns a one-shot event tied to the *next* firing.
    :meth:`fire` wakes every current waiter.  Extra ``fire`` calls with no
    waiters set a *latch* so that the next waiter returns immediately —
    this models the "kick the engine, it will notice work" pattern used by
    the EXS progress engines and avoids lost wake-ups.

    A waiter that was woken by something else withdraws its event
    (:meth:`withdraw`).  It is awake and re-checks its work before it waits
    again, so the next ``fire`` tells it nothing: that one fire is absorbed
    instead of latched (no spurious extra lap), and nothing stays queued.
    """

    __slots__ = ("sim", "_waiters", "_latched", "_latching", "_absorb", "fired_count")

    def __init__(self, sim: Simulator, *, latching: bool = True) -> None:
        self.sim = sim
        self._waiters: List[Event] = []
        self._latched = False
        self._latching = latching
        # a withdrawn waiter's claim on the next fire (see class docstring)
        self._absorb = False
        #: total number of fire() calls, for tests/diagnostics
        self.fired_count = 0

    def wait(self) -> Event:
        """Return an event that fires at the next :meth:`fire` call."""
        ev = _SignalWait(self.sim)
        ev.signal = self
        if self._latched:
            self._latched = False
            ev.succeed()
        else:
            self._waiters.append(ev)
        return ev

    def withdraw(self, event: Event) -> None:
        """Take back a still-pending :meth:`wait` event; it will never fire.

        No-op for an event this signal is not holding (already fired, or
        handed out latched).
        """
        try:
            self._waiters.remove(event)
        except ValueError:
            return
        self._absorb = True

    def fire(self, value: Any = None) -> None:
        """Wake all waiters (or latch if there are none)."""
        self.fired_count += 1
        waiters = self._waiters
        if waiters:
            self._waiters = []
            self._absorb = False
            for ev in waiters:
                ev.succeed(value)
        elif self._absorb:
            self._absorb = False
        elif self._latching:
            self._latched = True

    @property
    def waiter_count(self) -> int:
        return len(self._waiters)
