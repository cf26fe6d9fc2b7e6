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
wheel** (see :mod:`repro.simnet._core` and docs/SIMULATION.md): a one-entry
register for the empty-calendar fast path, 4096 × 1 ns level-0 slots,
4096 × 4096 ns level-1 buckets that cascade into level 0, and a small
overflow heap beyond the ~16.8 ms horizon.  All entries that fire at the
same instant are drained as one *batch* — one clock update, one loop, one
heap op per distinct time.  The wheel orders same-instant entries FIFO and
nothing else.  The flat ``heapq`` calendar (``Simulator(calendar="heap")``
or ``REPRO_KERNEL=heap``) keys ``(when[, tiebreak], seq)`` natively, so it
is both the differential reference the wheel is tested against and the
calendar every ``schedule_policy`` runs on: a simulator built with a policy
takes the heap backend (asking for ``calendar="wheel"`` as well raises).
In FIFO order both backends produce identical event orderings, and
``FifoPolicy`` on the heap reproduces the plain wheel bit for bit
(property-tested in tests/simnet/test_timing_wheel.py).

Performance notes (this kernel is the host-side bottleneck of every
experiment):

* ``run()`` branches **once**: the compiled ``_cdrain`` when the C
  accelerator is bound (see ``_accel.py``), else one of three drain loops
  from :mod:`repro.simnet._core` (``drain_fifo``, ``drain_fifo_gated``,
  ``drain_heap``); the per-event path has no tracing, policy or capture
  checks.
* ``schedule``/``call_in``/``timeout``/``step``/``peek`` are bound per
  instance at construction (one backend branch for the whole lifetime,
  and callers skip the descriptor protocol) — on an exact wheel
  ``Simulator`` the first three to their C ports, which hand anything
  that must raise back to the pure methods below.
* :meth:`Simulator.call_in` places a slotted
  :class:`~repro.simnet._core.CallbackEntry` that invokes ``fn(arg)``
  directly, bypassing the full Event protocol — used by the hot delivery
  paths (link arrivals, transport ACKs) which never have external
  waiters.  Entries are recycled through a freelist unconditionally.
* :meth:`Simulator.timeout` recycles
  :class:`~repro.simnet.events.Timeout` objects through a freelist (a
  single-slot stash in front of a bounded pool).  A timeout is returned
  to the pool only when the kernel can prove (via the CPython reference
  count) that nothing else holds it, so the reuse is invisible to user
  code that keeps a reference.
* The :attr:`Simulator.tracing` flag lets hot call sites skip building
  trace strings entirely when no trace hook is installed.
"""

from __future__ import annotations

import heapq
import os
from sys import getrefcount
from typing import TYPE_CHECKING, Any, Callable, Iterator, Optional

from . import _accel
from ._core import (
    CBE_POOL_MAX,
    INF,
    TIMEOUT_POOL_MAX,
    CallbackEntry,
    SimulationError,
    StopSimulation,
    drain_fifo,
    drain_fifo_gated,
    drain_heap,
    insert,
    next_batch_fifo,
    peek_structures,
    restore_fifo,
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
    trace:
        Optional callable ``trace(time_ns, category, message)`` invoked for
        every traced kernel action.  ``None`` disables tracing (the default;
        tracing is for debugging, not for measurement).  Call sites on hot
        paths should consult :attr:`tracing` before formatting messages.
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
        ``schedule_policy`` raises :class:`SimulationError`.

    Note: ``schedule``, ``call_in``, ``timeout``, ``step`` and ``peek``
    are instance attributes bound at construction to the selected
    backend's implementation.
    """

    # Slotted: the drain loops and schedule/timeout fast paths touch a
    # dozen simulator attributes per event, and slot access is measurably
    # cheaper than dict access.  (Also catches typo'd attribute writes.)
    __slots__ = (
        "_now",
        "_seq",
        "_policy",
        "_tiebreak",
        "_trace",
        "tracing",
        "events_executed",
        "_event_cls",
        "_timeout_cls",
        "_process_cls",
        "_proc_finish",
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
        # optional C accelerator (see _accel.py): the compiled run loop
        # ``_cdrain(stop, max_events)``, or None on the pure platform
        "_cdrain",
        # "live" | "off" | "unavailable" (see calendar_stats)
        "_accelerator",
        # optional causality recorder (see causality.py): the annotation
        # hook call sites read; no code path in this module consults it
        "_recorder",
    )

    def __init__(
        self,
        trace: Optional[Callable[[int, str, str], None]] = None,
        *,
        schedule_policy=None,
        calendar: Optional[str] = None,
    ) -> None:
        self._now: int = 0
        self._seq: int = 0
        self._policy = schedule_policy
        self._tiebreak = schedule_policy.tiebreak if schedule_policy is not None else None
        self._trace = trace
        #: True when a trace hook is installed; guards f-string construction
        #: at call sites (the guarded-trace discipline).
        self.tracing: bool = trace is not None
        #: number of events executed so far (useful for runaway detection).
        #: The wheel backend syncs this at batch boundaries and run() exit,
        #: not per event — see :meth:`calendar_stats`.
        self.events_executed: int = 0
        # Classes/helpers resolved here, at construction time, to avoid a
        # circular import at module load (events.py imports this module).
        from .events import Event, Timeout
        from .process import Process, _finish_process

        self._event_cls = Event
        self._timeout_cls = Timeout
        self._process_cls = Process
        self._proc_finish = _finish_process
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
        self._backend = calendar
        if calendar == "heap":
            self._queue: list[tuple] = []
            self.schedule = self._schedule_heap
            self.call_in = self._call_in_heap
            self.timeout = self._timeout_heap
            self.step = self._step_heap
            self.peek = self._peek_heap
            return
        # timing-wheel state (see _core module docstring for the layout)
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
        self.schedule = self._schedule_wheel
        self.call_in = self._call_in_wheel
        self.timeout = self._timeout_wheel
        # Optional C accelerator: placement and the run loop, bound per
        # instance.  Exact Simulator only — a subclass overriding the pure
        # paths must keep them.
        if type(self) is Simulator:
            accel = _accel.load()
            if accel is not None:
                self.schedule = accel.bind_wheel_schedule(self)
                self.call_in = accel.bind_wheel_call_in(self)
                self.timeout = accel.bind_wheel_timeout(self)
                self._cdrain = accel.bind_wheel_drain(self)
                self._accelerator = "live"
            else:
                self._accelerator = _accel.why_not()
        self.step = self._step_wheel
        self.peek = self._peek_wheel

    # ------------------------------------------------------------------
    # clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> int:
        """Current simulated time in nanoseconds."""
        return self._now

    # ------------------------------------------------------------------
    # scheduling — wheel backend (FIFO ties only)
    # ------------------------------------------------------------------
    def _schedule_wheel(self, event: "Event", delay: int = 0) -> None:
        """Place *event* on the calendar ``delay`` nanoseconds from now.

        ``delay`` must be a non-negative integer (``bool`` is rejected —
        ``schedule(ev, True)`` is always a bug, not a 1 ns delay).  The
        event fires after all events already scheduled for the same instant.
        """
        # Fast path: valid delay onto an empty calendar → park in the
        # register.  Any guard failure (including bad delay) detours to
        # the slow path, which re-checks everything and raises properly.
        if type(delay) is int and 0 <= delay and self._reg_free and self._single is None:
            self._single = event
            self._single_when = self._now + delay
            return
        self._schedule_wheel_slow(event, delay)

    def _schedule_wheel_slow(self, event: "Event", delay: int) -> None:
        if type(delay) is not int:
            # Type errors are reported before range errors so that a float
            # delay gets the "must be an int" message, not the negative one.
            if isinstance(delay, bool) or not isinstance(delay, int):
                raise SimulationError(
                    f"delay must be an int number of ns, got {type(delay).__name__}"
                )
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        when = self._now + delay
        b = self._batch
        if b is not None and when == self._batch_time:
            b.append(event)  # joins the live batch, after everything in it
            return
        s = self._single
        if s is None:
            if self._nstruct == 0 and b is None:
                self._single = event
                self._single_when = when
                return
        else:
            # second pending entry: spill the register into the structures
            self._single = None
            self._base = self._now  # structures are empty; re-anchor freely
            seq = self._seq + 1
            self._seq = seq
            s._seq = seq
            insert(self, self._single_when, s)
        seq = self._seq + 1
        self._seq = seq
        event._seq = seq
        insert(self, when, event)

    def _call_in_wheel(self, delay: int, fn: Callable[[Any], None], arg: Any = None) -> None:
        """Schedule ``fn(arg)`` to run ``delay`` ns from now.

        The fast path for fire-and-forget deliveries: no Event object is
        created and the callable runs straight off the calendar.  Ordering
        relative to events scheduled for the same instant follows the usual
        sequence-number tie-break.
        """
        if type(delay) is int and 0 <= delay and self._reg_free and self._single is None:
            pool = self._cbe_pool
            if pool:
                e = pool.pop()
                e.fn = fn
                e.arg = arg
            else:
                e = CallbackEntry(fn, arg)
                self._cbe_allocs += 1
            self._single = e
            self._single_when = self._now + delay
            return
        self._call_in_wheel_slow(delay, fn, arg)

    def _call_in_wheel_slow(self, delay: int, fn: Callable[[Any], None], arg: Any) -> None:
        if type(delay) is not int:
            if isinstance(delay, bool) or not isinstance(delay, int):
                raise SimulationError(
                    f"delay must be an int number of ns, got {type(delay).__name__}"
                )
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        pool = self._cbe_pool
        if pool:
            e = pool.pop()
            e.fn = fn
            e.arg = arg
            self._cbe_reuses += 1
        else:
            e = CallbackEntry(fn, arg)
            self._cbe_allocs += 1
        when = self._now + delay
        b = self._batch
        if b is not None and when == self._batch_time:
            b.append(e)
            return
        s = self._single
        if s is None:
            if self._nstruct == 0 and b is None:
                self._single = e
                self._single_when = when
                return
        else:
            self._single = None
            self._base = self._now
            seq = self._seq + 1
            self._seq = seq
            s._seq = seq
            insert(self, self._single_when, s)
        seq = self._seq + 1
        self._seq = seq
        e._seq = seq
        insert(self, when, e)

    def _timeout_wheel(self, delay: int, value: Any = None) -> "Event":
        """Return an event that fires ``delay`` ns from now with ``value``.

        Timeouts are the dominant allocation of process-driven loops, so
        this goes through the freelist when possible.  Recycled timeouts
        arrive with ``_ok`` True and ``_cbs`` None by construction (only
        dispatched, succeeded timeouts are pooled), so only ``delay``,
        ``_value`` and ``_cb1`` need resetting.

        Stash hits on the empty-calendar register fast path below are not
        individually counted — an integer increment there costs as much
        as the rest of the path — so ``timeout_reuses`` undercounts in
        single-chain microbenchmarks.  Under real workloads the calendar
        is non-empty, placements take the slow path, and the counter is
        exact; see :meth:`calendar_stats`.
        """
        t = self._stash
        if t is not None and type(delay) is int and 0 <= delay and self._reg_free and self._single is None:
            self._stash = None
            t.delay = delay
            t._value = value
            t._cb1 = None
            self._single = t
            self._single_when = self._now + delay
            return t
        return self._timeout_wheel_slow(delay, value)

    def _timeout_wheel_slow(self, delay: int, value: Any) -> "Event":
        t = self._stash
        if t is not None:
            self._stash = None
        else:
            pool = self._timeout_pool
            if not pool:
                if delay < 0:
                    raise SimulationError(f"negative timeout: {delay}")
                self._timeout_allocs += 1
                return self._timeout_cls(self, delay, value)
            t = pool.pop()
        if delay < 0:
            self._timeout_pool.append(t)
            raise SimulationError(f"negative timeout: {delay}")
        if type(delay) is not int:
            if isinstance(delay, bool) or not isinstance(delay, int):
                self._timeout_pool.append(t)
                raise SimulationError(
                    f"delay must be an int number of ns, got {type(delay).__name__}"
                )
        self._timeout_reuses += 1
        t.delay = delay
        t._value = value
        t._cb1 = None
        when = self._now + delay
        b = self._batch
        if b is not None and when == self._batch_time:
            b.append(t)
            return t
        s = self._single
        if s is None:
            if self._nstruct == 0 and b is None:
                self._single = t
                self._single_when = when
                return t
        else:
            self._single = None
            self._base = self._now
            seq = self._seq + 1
            self._seq = seq
            s._seq = seq
            insert(self, self._single_when, s)
        seq = self._seq + 1
        self._seq = seq
        t._seq = seq
        insert(self, when, t)
        return t

    # ------------------------------------------------------------------
    # scheduling — flat heap: the differential reference, and the calendar
    # schedule policies run on (tie-break keys hash (time, seq), so seq
    # advances on every placement)
    # ------------------------------------------------------------------
    def _schedule_heap(self, event: "Event", delay: int = 0) -> None:
        if type(delay) is not int:
            if isinstance(delay, bool) or not isinstance(delay, int):
                raise SimulationError(
                    f"delay must be an int number of ns, got {type(delay).__name__}"
                )
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        self._seq += 1
        when = self._now + delay
        if self._tiebreak is None:
            heapq.heappush(self._queue, (when, self._seq, event))
        else:
            heapq.heappush(
                self._queue, (when, self._tiebreak(when, self._seq), self._seq, event)
            )

    def _call_in_heap(self, delay: int, fn: Callable[[Any], None], arg: Any = None) -> None:
        self._schedule_heap(CallbackEntry(fn, arg), delay)

    def _timeout_heap(self, delay: int, value: Any = None) -> "Event":
        pool = self._timeout_pool
        if pool:
            t = pool.pop()
            if delay < 0:
                pool.append(t)
                raise SimulationError(f"negative timeout: {delay}")
            t.delay = delay
            t._value = value
            t._ok = True
            t._cb1 = None
            t._cbs = None
            self.schedule(t, delay)
            return t
        self._timeout_allocs += 1
        return self._timeout_cls(self, delay, value)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _step_heap(self) -> None:
        """Execute the next event on the calendar, advancing the clock."""
        item = heapq.heappop(self._queue)
        when, event = item[0], item[-1]
        if when < self._now:  # pragma: no cover - defensive
            raise SimulationError("event calendar corrupted: time went backwards")
        self._now = when
        self.events_executed += 1
        event._run()
        # Recycle plain Timeouts nothing else references: refcount 2 means
        # only the local variable and getrefcount's argument hold it, so
        # reuse can never be observed by user code.  (CPython-specific; on
        # other runtimes the count is conservative and pooling just idles.)
        if type(event) is self._timeout_cls and getrefcount(event) == 2:
            pool = self._timeout_pool
            if len(pool) < TIMEOUT_POOL_MAX:
                pool.append(event)

    def _step_wheel(self) -> None:
        """Execute the next event on the calendar, advancing the clock.

        Same-instant peers beyond the first are put back with their order
        preserved, so interleaving ``step()`` with ``run()`` is safe.
        Raises :class:`IndexError` on an empty calendar (as the flat heap
        did).
        """
        e = self._single
        if e is not None:
            self._single = None
            self._now = self._single_when
            self.events_executed += 1
            e._run()
            self._maybe_recycle(e)
            return
        got = next_batch_fifo(self)
        if got is None:
            raise IndexError("step on an empty calendar")
        t, ls = got
        e = ls[0]
        self._base = t
        restore_fifo(self, t, ls, 1)
        self._now = t
        self.events_executed += 1
        e._run()
        self._maybe_recycle(e)

    def _maybe_recycle(self, event) -> None:
        if type(event) is self._timeout_cls and getrefcount(event) == 3:
            # 3 = our caller's local, this frame's argument, getrefcount's
            if self._stash is None:
                self._stash = event
            elif len(self._timeout_pool) < TIMEOUT_POOL_MAX:
                self._timeout_pool.append(event)

    def _peek_heap(self) -> Optional[int]:
        """Return the firing time of the next event, or ``None`` if idle."""
        return self._queue[0][0] if self._queue else None

    def _peek_wheel(self) -> Optional[int]:
        """Return the firing time of the next event, or ``None`` if idle.

        Exact even when called from inside a dispatched callback: a live
        batch with entries left reports the current instant.
        """
        if self._single is not None:
            return self._single_when
        b = self._batch
        if b is not None and self._bi < len(b):
            return self._now
        return peek_structures(self)

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
                self._drain(stop, maxe)
        except StopSimulation:
            pass

        if target is not None:
            if not target.triggered:
                raise SimulationError("simulation ended before 'until' event triggered (deadlock?)")
            return target.result()
        return None

    def _drain(self, stop, maxe) -> None:
        """The pure run loop (``inf`` = gate unset), picked once per run."""
        if self._backend == "heap":
            drain_heap(self, stop, maxe)
        elif stop == INF and maxe == INF:
            drain_fifo(self)
        else:
            drain_fifo_gated(self, stop, maxe)

    def _stop_on_target(self, _event: "Event") -> None:
        raise StopSimulation()

    # ------------------------------------------------------------------
    # calendar introspection (the supported surface; _-prefixed structure
    # fields are backend-specific internals)
    # ------------------------------------------------------------------
    def peek_next_time(self) -> Optional[int]:
        """Firing time of the next calendar entry, or ``None`` if idle.

        Backend-independent alias of ``peek()`` — the public way for
        tests/telemetry to ask "is anything pending, and when?".
        """
        return self.peek()

    def calendar_stats(self) -> dict:
        """Snapshot of calendar counters (cheap; safe to call mid-run).

        Keys are identical for both backends (wheel-only counters read 0
        under the heap fallback) so telemetry schemas stay stable:

        ``backend``, ``now``, ``events_executed``, ``pending``,
        ``next_time``, ``batches``, ``batched_events``, ``max_batch``,
        ``cascades``, ``l0_inserts``, ``l1_inserts``, ``overflow_inserts``,
        ``timeout_allocs``, ``timeout_reuses``, ``timeout_pool``,
        ``cbe_allocs``, ``cbe_reuses``, ``accelerator``,
        ``accelerator_reason``.

        ``accelerator`` says whether the C fast path serves this simulator:
        ``"live"``, ``"off"`` (not asked for: heap backend — which a
        schedule policy implies — a subclass, ``REPRO_KERNEL_C=0``) or
        ``"unavailable"`` (asked for, but it could not be built or
        loaded — ``accelerator_reason`` is then the first line of the
        failure, and ``None`` otherwise).  Causal capture leaves it as it
        found it.

        ``events_executed`` is synced at batch boundaries while a wheel
        drain loop is running, so a mid-batch reading may lag by the
        events dispatched in the current batch.  Register (single-entry)
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

    def trace(self, category: str, message: str) -> None:
        """Emit a trace record if tracing is enabled."""
        if self._trace is not None:
            self._trace(self._now, category, message)
