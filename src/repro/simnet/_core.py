"""Shared core of the simulation kernel: entries, errors, the delay check,
the wheel's slot contract and odd-call binders, and the flat-heap drain.

The event calendar has two implementations (see
:mod:`repro.simnet.kernel` and docs/SIMULATION.md):

* the **hierarchical timing wheel**, which exists only in C
  (``_speedup.c``, built on demand by ``_accel.py``) and keeps its state in
  the :class:`~repro.simnet.kernel.Simulator` slots described below;
* the **flat heap** (``drain_heap`` below), which keys ``(when[,
  tiebreak], seq)`` natively.  It is the calendar schedule policies run
  on, the wheel's differential reference, and the fallback a host without
  a C compiler runs.

Wheel layout (the slot contract ``_speedup.c`` reads through member
offsets; Python code only initialises these and reads them in
``calendar_stats()``):

``_single`` / ``_single_when``
    A one-entry *register*.  When the calendar is otherwise empty the
    next entry is parked here and dispatched without touching any heap —
    the dominant regime of process chains (one pending timeout).
``_slots0`` + ``_t0`` + ``_dirty``
    Level-0 wheel: 4096 slots of 1 ns.  An entry with ``when - base <
    4096`` lands in slot ``when & 4095``; ``_t0`` is a small heap of the
    *occupied slot times*, so draining costs one heap op per distinct
    instant instead of one per entry.  ``_dirty`` marks slots a cascade
    appended to, which are seq-sorted at batch assembly.
``_slots1`` + ``_t1``
    Level-1 wheel: 4096 buckets of 4096 ns, indexed ``(when >> 12) &
    4095``; ``_t1`` heaps the occupied absolute bucket numbers.  A bucket
    *cascades* into level 0 when it may hold the next instant.
``_hq``
    Overflow heap of ``(when, seq, entry)`` beyond the wheel horizon
    (~16.8 ms).
``_base`` / ``_nstruct`` / ``_reg_free``
    The L0 window's anchor, the number of entries in the structures, and
    the cached ``_nstruct == 0 and no live batch`` the placement fast
    path tests.
``_batch`` / ``_batch_time`` / ``_bi``
    The live batch (every entry of one instant, dispatched in seq order;
    same-instant placements made while it runs append to it) and the
    index of its next entry.

Invariants: all pending L0 entries lie in ``[base, base + 4096)``, so
entries sharing a slot share a timestamp; L1 entries lie in ``[base, base
+ WHEEL_HORIZON)``, one bucket short of 4096 × 4096 ns so occupied buckets
never alias as ``base`` drifts; a cascade re-anchors ``base`` only when no
pending entry is below the bucket's lower bound.  The wheel assigns the
tie-break ``_seq`` lazily, at structure insert; the heap assigns it on
every placement (policy tie-break keys hash it).
"""

from __future__ import annotations

from operator import attrgetter, index
from typing import Any, Callable

__all__ = [
    "CallbackEntry",
    "SimulationError",
    "StopSimulation",
]

INF = float("inf")

S0_BITS = 12
S0_SIZE = 1 << S0_BITS  # 4096 level-0 slots of 1 ns
S1_SIZE = 4096  # level-1 buckets of 4096 ns
#: one bucket short of S1_SIZE * S0_SIZE — see the L1 window invariant
WHEEL_HORIZON = (S1_SIZE - 1) << S0_BITS

#: maximum number of recycled Timeout objects kept per simulator
TIMEOUT_POOL_MAX = 512
#: maximum number of recycled CallbackEntry objects kept per simulator
CBE_POOL_MAX = 512

#: the wheel's batch sort key
_seq_of = attrgetter("_seq")


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation kernel (e.g. scheduling in the past)."""


class StopSimulation(Exception):
    """Internal signal used by :meth:`Simulator.run` to stop at a target event."""


def _processed_marker(_event):
    """Sentinel stored in ``Event._cb1`` once callbacks ran.

    It is a no-op *callable* so that the pathological double-schedule of
    one event dispatches as a silent no-op, exactly like the old flat
    kernel (whose second ``_run`` found ``callbacks is None``).
    """
    return None


_PROCESSED = _processed_marker


class CallbackEntry:
    """A minimal calendar entry: runs ``fn(arg)`` when its time comes.

    Unlike an :class:`~repro.simnet.events.Event` it has no value, no
    callbacks and cannot be waited on — it exists so that one-shot
    deliveries (a message arriving at a link handler, an ACK reaching
    its device) cost one small allocation instead of an Event, a
    bound-method list and a closure.  :meth:`Simulator.call_in` never
    hands the entry out, so the kernel recycles it unconditionally
    after dispatch.
    """

    __slots__ = ("fn", "arg", "_seq")

    def __init__(self, fn: Callable[[Any], None], arg: Any) -> None:
        self.fn = fn
        self.arg = arg

    def _run(self) -> None:
        self.fn(self.arg)


def check_delay(delay, timeout: bool = False) -> None:
    """Refuse a delay that is not a non-negative int number of ns.

    The one check behind every placement that cannot take a fast path:
    the heap's ``schedule``/``call_in``, ``Timeout.__init__`` and the C
    wheel's odd calls.  ``bool`` is refused (``schedule(ev, True)`` is
    always a bug, not a 1 ns delay), and the type is checked before the
    sign, so ``-1.5`` reads as a type error — except for a *timeout*,
    whose sign comes first.
    """
    if timeout and delay < 0:
        raise SimulationError(f"negative timeout: {delay}")
    if isinstance(delay, bool) or not isinstance(delay, int):
        raise SimulationError(f"delay must be an int number of ns, got {type(delay).__name__}")
    if delay < 0:
        raise SimulationError(f"cannot schedule in the past (delay={delay})")


# The C wheel's odd placement calls (keyword spellings, a delay that is not
# an exact non-negative int) bind here: each function has its entry point's
# signature and name (so a TypeError reads as Python's would), refuses a bad
# delay, and returns the positional arguments with an exact-int delay.
def schedule(event, delay=0):
    check_delay(delay)
    return event, index(delay)


def call_in(delay, fn, arg=None):
    check_delay(delay)
    return index(delay), fn, arg


def timeout(delay, value=None):
    check_delay(delay, timeout=True)
    return index(delay), value


def drain_heap(sim, stop, max_events):
    """Flat-heap drain (``inf`` = gate unset): FIFO as the wheel's
    reference, ``(tiebreak, seq)`` order under a schedule policy.  The cap
    counts ``events_executed``, which ``advance()`` bumps too; the gates
    it reads are published in ``sim._gate`` while the drain runs (not
    under a policy, where ``advance()`` always refuses)."""
    queue = sim._queue
    step = sim.step
    cap = sim.events_executed + max_events
    outer = sim._gate
    sim._gate = (stop, cap) if sim._policy is None else None
    try:
        while queue:
            if queue[0][0] > stop:
                sim._now = stop
                return
            step()
            if sim.events_executed >= cap:
                raise SimulationError(f"exceeded max_events={max_events}")
    finally:
        sim._gate = outer
