"""Discrete-event simulation kernel.

The kernel keeps simulated time as an **integer number of nanoseconds** so
that event ordering is exact and runs are bit-for-bit reproducible.

* :class:`Simulator` owns the event calendar and the clock.
* :class:`~repro.simnet.events.Event` objects are placed on the calendar and
  invoke their callbacks when they fire.
* :class:`~repro.simnet.process.Process` wraps a Python generator; the
  generator ``yield``\\ s events and is resumed when they trigger, which gives
  cooperative "threads" inside the simulation.

Ties in the calendar are broken by a monotonically increasing sequence
number, so two events scheduled for the same instant fire in the order they
were scheduled.  This determinism is essential: the protocol under study is
sensitive to message/completion races and we want those races to be
*simulated*, not to depend on Python hash ordering.  A
:class:`~repro.simnet.schedule.SchedulePolicy` may re-key those same-instant
ties (seeded-random interleavings for the conformance fuzzer); events at
different timestamps are never reordered.

Calendar backends
-----------------
Two calendars, one job each.  The default is a **hierarchical timing
wheel** that exists only in C (``_speedup.c``, compiled on first use by
``_accel.py``; its slot layout is documented in :mod:`repro.simnet._core`
and docs/SIMULATION.md): a one-entry register for the empty-calendar fast
path, 4096 × 1 ns level-0 slots, 4096 × 4096 ns level-1 buckets that
cascade into level 0, and a small overflow heap beyond the ~16.8 ms
horizon.  All entries that fire at the same instant are drained as one
*batch*.  The wheel orders same-instant entries FIFO and nothing else.
The flat ``heapq`` calendar (``Simulator(calendar="heap")`` or
``REPRO_KERNEL=heap``) keys ``(when[, tiebreak], seq)`` natively, so it is
the differential reference the wheel is tested against, the calendar every
``schedule_policy`` runs on (asking for ``calendar="wheel"`` as well
raises), and the fallback when the C accelerator cannot be built or loaded
(one ``RuntimeWarning``; ``calendar_stats()`` then says ``backend="heap"``,
``accelerator="unavailable"`` and why).  In FIFO order both backends
produce identical event orderings, and ``FifoPolicy`` on the heap
reproduces the plain wheel bit for bit (property-tested in
tests/simnet/test_timing_wheel.py).

Performance notes (this kernel is the host-side bottleneck of every
experiment):

* ``schedule``/``call_in``/``timeout``/``step``/``peek`` and the run loop
  are bound per instance at construction (one backend branch for the whole
  lifetime, and callers skip the descriptor protocol): on the wheel all six
  are C builtins, on the heap the ``_*_heap`` methods below and
  :func:`~repro.simnet._core.drain_heap`.  The per-event path has no
  policy or capture checks.
* :meth:`Simulator.call_in` places a slotted
  :class:`~repro.simnet._core.CallbackEntry` that invokes ``fn(arg)``
  directly, bypassing the full Event protocol — used by the hot delivery
  paths (link arrivals, transport ACKs) which never have external
  waiters.  On the wheel, entries are recycled through a freelist.
* The wheel's :meth:`Simulator.timeout` recycles
  :class:`~repro.simnet.events.Timeout` objects through a freelist (a
  single-slot stash in front of a bounded pool).  A timeout is returned
  to the pool only when the kernel can prove (via the CPython reference
  count) that nothing else holds it, so the reuse is invisible to user
  code that keeps a reference.
"""

from __future__ import annotations

import heapq
import os
from typing import TYPE_CHECKING, Any, Callable, Iterator, Optional

from . import _accel
from ._core import (
    INF,
    CallbackEntry,
    SimulationError,
    StopSimulation,
    check_delay,
    drain_heap,
    S0_SIZE,
    S1_SIZE,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .events import Event
    from .process import Process

__all__ = ["Simulator", "SimulationError", "StopSimulation", "CallbackEntry", "env_kernel"]


def env_kernel() -> Optional[str]:
    """The ``REPRO_KERNEL`` default, or ``None`` when unset — the variable's
    only reader (a standalone :class:`Simulator` and
    :meth:`repro.config.ScenarioConfig.resolved` both come here)."""
    return os.environ.get("REPRO_KERNEL", "").strip() or None


class Simulator:
    """Event calendar plus the simulated clock.

    Parameters
    ----------
    schedule_policy:
        Optional :class:`~repro.simnet.schedule.SchedulePolicy` re-keying
        same-timestamp ties.  ``None`` (the default) keeps the plain FIFO
        order; a policy orders same-instant entries by ``(tiebreak, seq)``
        and selects the heap calendar, the one that keys ties natively.
        ``FifoPolicy`` reproduces the default order bit for bit.
    calendar:
        Calendar backend: ``"wheel"`` (hierarchical timing wheel, the
        default) or ``"heap"`` (the flat-heap reference and policy
        calendar).  ``None`` reads the ``REPRO_KERNEL`` environment
        variable, so a whole run — CI included — can be flipped to the
        heap without code changes.  ``"wheel"`` together with a
        ``schedule_policy`` raises :class:`SimulationError`.  The wheel is
        C: when the accelerator cannot load, the heap runs instead.

    Note: ``schedule``, ``call_in``, ``timeout``, ``step`` and ``peek``
    are instance attributes bound at construction to the selected
    backend's implementation.
    """

    # Slotted: the C wheel reaches its state through member offsets (the
    # _core slot contract), and slot access is cheaper than dict access
    # for the heap's Python paths.  (Also catches typo'd attribute writes.)
    __slots__ = (
        "_now",
        "_seq",
        "_policy",
        "_tiebreak",
        "events_executed",
        "_event_cls",
        "_timeout_cls",
        "_process_cls",
        "_proc_finish",
        "_live",  # live processes, in spawn order (see process.py)
        "_timeout_pool",
        "_stash",
        "_cbe_pool",
        "_batches",
        "_batched_events",
        "_max_batch",
        "_cascades",
        "_l0_inserts",
        "_l1_inserts",
        "_hq_inserts",
        "_timeout_allocs",
        "_timeout_reuses",
        "_cbe_allocs",
        "_cbe_reuses",
        "_backend",
        "_queue",
        # per-instance backend method bindings
        "schedule",
        "call_in",
        "timeout",
        "step",
        "peek",
        # wheel structures
        "_reg_free",
        "_single",
        "_single_when",
        "_slots0",
        "_slots1",
        "_t0",
        "_t1",
        "_hq",
        "_dirty",
        "_base",
        "_nstruct",
        "_batch",
        "_batch_time",
        "_bi",
        # the C wheel's run loop ``_cdrain(stop, max_events)``, or None on
        # the heap
        "_cdrain",
        # "live" | "off" | "unavailable" (see calendar_stats)
        "_accelerator",
        # optional causality recorder (see causality.py): the annotation
        # hook call sites read; no code path in this module consults it
        "_recorder",
    )

    def __init__(
        self,
        *,
        schedule_policy=None,
        calendar: Optional[str] = None,
    ) -> None:
        self._now: int = 0
        self._seq: int = 0
        self._policy = schedule_policy
        self._tiebreak = schedule_policy.tiebreak if schedule_policy is not None else None
        #: number of events executed so far (useful for runaway detection).
        #: The wheel syncs this at batch boundaries and run() exit, not per
        #: event — see :meth:`calendar_stats`.
        self.events_executed: int = 0
        # Classes/helpers resolved here, at construction time, to avoid a
        # circular import at module load (events.py imports this module).
        from .events import Event, Timeout
        from .process import Process, _finish_process

        self._event_cls = Event
        self._timeout_cls = Timeout
        self._process_cls = Process
        self._proc_finish = _finish_process
        self._live: dict = {}
        # freelists
        self._timeout_pool: list = []
        self._stash = None  # single-slot fast tier in front of _timeout_pool
        self._cbe_pool: list = []
        # counters (see calendar_stats)
        self._batches = 0
        self._batched_events = 0
        self._max_batch = 0
        self._cascades = 0
        self._l0_inserts = 0
        self._l1_inserts = 0
        self._hq_inserts = 0
        self._timeout_allocs = 0
        self._timeout_reuses = 0
        self._cbe_allocs = 0
        self._cbe_reuses = 0
        self._cdrain = None
        self._accelerator = "off"
        self._recorder = None

        explicit = calendar is not None
        if not explicit:
            calendar = env_kernel() or "wheel"
        if calendar not in ("wheel", "heap"):
            raise SimulationError(
                f"unknown calendar backend {calendar!r} (expected 'wheel' or 'heap')"
            )
        if schedule_policy is not None and calendar == "wheel":
            # The wheel orders same-instant entries FIFO only; the heap
            # keys (when, tiebreak, seq) natively, so a policy runs there.
            if explicit:
                raise SimulationError(
                    "a schedule_policy runs on the heap calendar; "
                    "calendar='wheel' cannot honour it"
                )
            calendar = "heap"
        accel = _accel.load() if calendar == "wheel" else None
        if calendar == "wheel" and accel is None:
            # the wheel exists only in C; _accel warned once and kept why
            calendar = "heap"
            self._accelerator = "unavailable"
        self._backend = calendar
        if accel is None:
            self._queue: list[tuple] = []
            self.schedule = self._schedule_heap
            self.call_in = self._call_in_heap
            self.timeout = self._timeout_heap
            self.step = self._step_heap
            self.peek = self._peek_heap
            return
        # timing-wheel state (see the _core module docstring for the layout)
        self._reg_free = True
        self._single = None
        self._single_when = 0
        self._slots0: list = [None] * S0_SIZE
        self._slots1: list = [None] * S1_SIZE
        self._t0: list = []
        self._t1: list = []
        self._hq: list = []
        self._dirty = bytearray(S0_SIZE)
        self._base = 0
        self._nstruct = 0
        self._batch = None
        self._batch_time = -1
        self._bi = 0
        (self.schedule, self.call_in, self.timeout,
         self.step, self.peek, self._cdrain) = accel.bind_wheel(self)
        self._accelerator = "live"

    # ------------------------------------------------------------------
    # clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> int:
        """Current simulated time in nanoseconds."""
        return self._now

    # ------------------------------------------------------------------
    # flat heap: the differential reference, the no-compiler fallback, and
    # the calendar schedule policies run on (tie-break keys hash (time,
    # seq), so seq advances on every placement)
    # ------------------------------------------------------------------
    def _schedule_heap(self, event: "Event", delay: int = 0) -> None:
        """Place *event* on the calendar ``delay`` nanoseconds from now.

        ``delay`` must be a non-negative integer (see
        :func:`~repro.simnet._core.check_delay`).  The event fires after
        all events already scheduled for the same instant.
        """
        if type(delay) is not int or delay < 0:
            check_delay(delay)
        self._seq += 1
        when = self._now + delay
        if self._tiebreak is None:
            heapq.heappush(self._queue, (when, self._seq, event))
        else:
            heapq.heappush(
                self._queue, (when, self._tiebreak(when, self._seq), self._seq, event)
            )

    def _call_in_heap(self, delay: int, fn: Callable[[Any], None], arg: Any = None) -> None:
        """Schedule ``fn(arg)`` to run ``delay`` ns from now, without an Event."""
        self._schedule_heap(CallbackEntry(fn, arg), delay)

    def _timeout_heap(self, delay: int, value: Any = None) -> "Event":
        """Return an event that fires ``delay`` ns from now with ``value``."""
        self._timeout_allocs += 1
        return self._timeout_cls(self, delay, value)

    def _step_heap(self) -> None:
        """Execute the next event on the calendar, advancing the clock."""
        item = heapq.heappop(self._queue)
        when = item[0]
        if when < self._now:  # pragma: no cover - defensive
            raise SimulationError("event calendar corrupted: time went backwards")
        self._now = when
        self.events_executed += 1
        item[-1]._run()

    def _peek_heap(self) -> Optional[int]:
        """Return the firing time of the next event, or ``None`` if idle."""
        return self._queue[0][0] if self._queue else None

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(
        self,
        until: "Event | int | None" = None,
        *,
        max_events: Optional[int] = None,
    ) -> Any:
        """Run the simulation.

        Parameters
        ----------
        until:
            ``None``
                run until the calendar is empty.
            an :class:`~repro.simnet.events.Event` (including a process)
                run until that event has triggered and return its value
                (raising if it failed).
            an ``int``
                run until simulated time reaches that many nanoseconds.
        max_events:
            Optional hard cap on the number of events executed, as a guard
            against accidental infinite simulations.

        A run that fails says so: a process failing with nothing waiting on
        it, or a drain (``until`` ``None`` or an untriggered event) leaving
        processes blocked, raises :class:`SimulationError` naming them.
        """
        stop = INF
        target: Optional["Event"] = None
        if isinstance(until, self._event_cls):
            target = until
            if target.triggered:
                return target.result()
            target.add_callback(self._stop_on_target)
        elif isinstance(until, int):
            stop = until
        elif until is not None:
            raise SimulationError(f"invalid 'until' argument: {until!r}")
        maxe = INF if max_events is None else max_events
        try:
            if self._cdrain is not None:
                self._cdrain(stop, maxe)
            else:
                drain_heap(self, stop, maxe)
        except StopSimulation:
            pass

        if target is not None:
            if not target.triggered:
                raise SimulationError("'until' event never triggered, " + self._blocked())
            return target.result()
        if until is None and self._live:
            raise SimulationError(self._blocked())
        return None

    def _blocked(self) -> str:
        """The drained calendar's census: each live process and where it waits."""
        where = "".join(f"; {p.name!r} in {p.suspended_at()}" for p in self._live)
        return (f"deadlock: calendar drained at t={self._now} ns with "
                f"{len(self._live)} process(es) blocked{where}")

    def _stop_on_target(self, _event: "Event") -> None:
        raise StopSimulation()

    # ------------------------------------------------------------------
    # calendar introspection (the supported surface; _-prefixed structure
    # fields are backend-specific internals)
    # ------------------------------------------------------------------
    def peek_next_time(self) -> Optional[int]:
        """Firing time of the next calendar entry, or ``None`` if idle.

        Backend-independent alias of ``peek()`` — the public way for
        tests/telemetry to ask "is anything pending, and when?".  Exact
        even from inside a dispatched callback.
        """
        return self.peek()

    def calendar_stats(self) -> dict:
        """Snapshot of calendar counters (cheap; safe to call mid-run).

        Keys are identical for both backends (wheel-only counters read 0
        on the heap) so telemetry schemas stay stable:

        ``backend``, ``now``, ``events_executed``, ``pending``,
        ``next_time``, ``batches``, ``batched_events``, ``max_batch``,
        ``cascades``, ``l0_inserts``, ``l1_inserts``, ``overflow_inserts``,
        ``timeout_allocs``, ``timeout_reuses``, ``timeout_pool``,
        ``cbe_allocs``, ``cbe_reuses``, ``accelerator``,
        ``accelerator_reason``.

        ``backend`` is the calendar that runs.  ``accelerator`` says how it
        was chosen: ``"live"`` (the C wheel), ``"off"`` (the heap was asked
        for — ``calendar="heap"``, ``REPRO_KERNEL=heap`` or a schedule
        policy) or ``"unavailable"`` (the wheel was asked for, but the C
        accelerator could not be built or loaded, so the heap runs —
        ``accelerator_reason`` is then the first line of the failure, and
        ``None`` otherwise).  Causal capture leaves it as it found it.

        ``events_executed`` is synced at batch boundaries while the wheel's
        run loop is running, so a mid-batch reading may lag by the events
        dispatched in the current batch.  Register (single-entry)
        dispatches are ``events_executed - batched_events``; the timeout
        freelist hit rate is ``timeout_reuses / (timeout_reuses +
        timeout_allocs)``.
        """
        if self._backend == "heap":
            pending = len(self._queue)
        else:
            pending = self._nstruct
            if self._single is not None:
                pending += 1
            b = self._batch
            if b is not None:
                pending += len(b) - self._bi
        return {
            "backend": self._backend,
            "now": self._now,
            "events_executed": self.events_executed,
            "pending": pending,
            "next_time": self.peek(),
            "batches": self._batches,
            "batched_events": self._batched_events,
            "max_batch": self._max_batch,
            "cascades": self._cascades,
            "l0_inserts": self._l0_inserts,
            "l1_inserts": self._l1_inserts,
            "overflow_inserts": self._hq_inserts,
            "timeout_allocs": self._timeout_allocs,
            "timeout_reuses": self._timeout_reuses,
            "timeout_pool": len(self._timeout_pool) + (1 if self._stash is not None else 0),
            "cbe_allocs": self._cbe_allocs,
            "cbe_reuses": self._cbe_reuses,
            "accelerator": self._accelerator,
            "accelerator_reason": self._accelerator_reason(),
        }

    def _accelerator_reason(self) -> Optional[str]:
        return _accel.failure_reason() if self._accelerator == "unavailable" else None

    # ------------------------------------------------------------------
    # conveniences
    # ------------------------------------------------------------------
    def event(self) -> "Event":
        """Return a fresh untriggered event."""
        return self._event_cls(self)

    def process(self, generator: Iterator[Any], name: str = "") -> "Process":
        """Spawn *generator* as a simulation process starting now."""
        return self._process_cls(self, generator, name=name)
