"""Pure dispatch core for the hierarchical timing-wheel event calendar.

This module is the hot half of the simulation kernel: the wheel data
structure, the cascade rule, batch assembly, and the specialized drain
loops that :meth:`~repro.simnet.kernel.Simulator.run` selects *once* at
entry.  Nothing in here consults the trace hook, a schedule policy or the
causality recorder per event — the backend decision, the stop-time decision
and the max-events decision each pick a loop up front, so the per-event path
is straight-line code.  The wheel orders same-instant entries FIFO only; a
schedule policy selects the flat-heap calendar instead (``drain_heap``
below, kept bit-identical as the wheel's differential reference), and
causal capture wraps calendar *entries* (see :mod:`repro.simnet.causality`)
so every loop here records through its generic ``entry._run()`` branch
without knowing it.  Every function is module-level and monomorphic over
plain ints, lists and heaps, so a future mypyc/Cython build can compile
this file behind the pure-Python-identical fallback in ``kernel.py``.

Calendar layout (per :class:`~repro.simnet.kernel.Simulator`):

``_single`` / ``_single_when``
    A one-entry *register*.  When the calendar is otherwise empty the
    next entry is parked here and dispatched without touching any heap —
    the dominant regime of process chains (one pending timeout).
``_slots0`` + ``_t0``
    Level-0 wheel: 4096 slots of 1 ns.  An entry with ``when - base <
    4096`` lands in slot ``when & 4095``; ``_t0`` is a small heap of the
    *occupied slot times*, so draining costs one heap op per distinct
    instant instead of one per entry (the batching win).
``_slots1`` + ``_t1``
    Level-1 wheel: 4096 buckets of 4096 ns, indexed ``(when >> 12) &
    4095``; ``_t1`` heaps the occupied absolute bucket numbers.  A
    bucket *cascades* into level 0 when it may hold the next instant.
``_hq``
    Overflow heap for entries beyond the wheel horizon (~16.8 ms).
``_reg_free``
    Cached ``_nstruct == 0 and no live batch`` — the placement fast
    paths test this one flag instead of three fields.  Set ``False`` by
    every structure insert and at batch start; recomputed at batch end
    and after a batch restore.  The register itself is *not* part of
    the flag (placement checks ``_single`` separately).  A wrongly
    ``False`` flag only costs a detour through the slow path; the
    maintenance sites above are exactly the transitions that could make
    it wrongly ``True``.

Invariants (discussed in docs/SIMULATION.md):

* All pending L0 entries lie in ``[base, base + 4096)`` — so entries
  sharing a slot share a timestamp, and slot lists are per-instant
  batches.  ``base`` is re-anchored to each batch time (the global
  minimum), which preserves the window because dispatch is in time
  order.
* L1 entries lie in ``[base, base + 4095*4096)`` — the insert bound is
  one bucket *short* of 4096 so that, as ``base`` drifts forward,
  occupied buckets span at most 4096 consecutive numbers and the
  ``& 4095`` index stays collision-free.
* A cascaded bucket ``b`` may re-anchor ``base`` up to ``b << 12``:
  cascade only triggers when no L0/overflow entry is below the bucket's
  lower bound, so every pending entry is ≥ the new base.

The wheel assigns the tie-break sequence number lazily (at structure
insert); the register path skips it entirely, which is unobservable
because a lone entry has nothing to tie with.  (The heap calendar assigns
``seq`` on every placement: policy tie-break keys hash it, so under a
policy those values are part of the observable schedule.)
"""

from __future__ import annotations

from heapq import heappop, heappush
from operator import attrgetter
from sys import getrefcount
from typing import Any, Callable

__all__ = [
    "CallbackEntry",
    "SimulationError",
    "StopSimulation",
]

INF = float("inf")

S0_BITS = 12
S0_SIZE = 1 << S0_BITS  # 4096 level-0 slots of 1 ns
S0_MASK = S0_SIZE - 1
S1_SIZE = 4096  # level-1 buckets of 4096 ns
S1_MASK = S1_SIZE - 1
#: one bucket short of S1_SIZE * S0_SIZE — see the L1 window invariant
WHEEL_HORIZON = (S1_SIZE - 1) << S0_BITS

#: maximum number of recycled Timeout objects kept per simulator
TIMEOUT_POOL_MAX = 512
#: maximum number of recycled CallbackEntry objects kept per simulator
CBE_POOL_MAX = 512

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


# ----------------------------------------------------------------------
# structure inserts
# ----------------------------------------------------------------------
def insert(sim, when, entry):
    """Place *entry* (``_seq`` already assigned) into the wheel or overflow.

    Slot lists hold bare entries ordered by ``_seq``.
    """
    sim._reg_free = False
    d = when - sim._base
    if d < S0_SIZE:
        idx = when & S0_MASK
        s0 = sim._slots0
        cur = s0[idx]
        if cur is None:
            s0[idx] = [entry]
            heappush(sim._t0, when)
        else:
            cur.append(entry)
        sim._l0_inserts += 1
    elif d < WHEEL_HORIZON:
        b = when >> S0_BITS
        idx = b & S1_MASK
        s1 = sim._slots1
        cur = s1[idx]
        if cur is None:
            s1[idx] = [(when, entry)]
            heappush(sim._t1, b)
        else:
            cur.append((when, entry))
        sim._l1_inserts += 1
    else:
        heappush(sim._hq, (when, entry._seq, entry))
        sim._hq_inserts += 1
    sim._nstruct += 1


# ----------------------------------------------------------------------
# cascade + batch assembly
# ----------------------------------------------------------------------
def _cascade_fifo(sim, b):
    """Distribute L1 bucket *b* into L0 slots, re-anchoring ``base``."""
    heappop(sim._t1)
    idx = b & S1_MASK
    entries = sim._slots1[idx]
    sim._slots1[idx] = None
    lb = b << S0_BITS
    if lb > sim._base:
        # Safe: cascade only runs when no pending entry is below lb.
        sim._base = lb
    slots0 = sim._slots0
    t0 = sim._t0
    dirty = sim._dirty
    for when, entry in entries:
        i = when & S0_MASK
        cur = slots0[i]
        if cur is None:
            slots0[i] = [entry]
            heappush(t0, when)
        else:
            cur.append(entry)
        # Cascaded entries carry older seqs than direct inserts that may
        # already sit in the slot; mark it for a seq sort at assembly.
        dirty[i] = 1
    sim._cascades += 1


def next_batch_fifo(sim):
    """Remove and return ``(t, entries)`` for the minimum pending instant.

    Returns ``None`` when the structures are empty.  The returned list is
    in dispatch (seq) order and contains *every* entry at time ``t``.
    """
    t0h = sim._t0
    t1h = sim._t1
    hq = sim._hq
    while t1h:
        b = t1h[0]
        lb = b << S0_BITS
        if t0h and t0h[0] < lb:
            break
        if hq and hq[0][0] < lb:
            break
        _cascade_fifo(sim, b)
    if t0h:
        t = t0h[0]
        if not hq or t <= hq[0][0]:
            heappop(t0h)
            idx = t & S0_MASK
            ls = sim._slots0[idx]
            sim._slots0[idx] = None
            if sim._dirty[idx]:
                sim._dirty[idx] = 0
                if len(ls) > 1:
                    ls.sort(key=_seq_of)
            if hq and hq[0][0] == t:
                while hq and hq[0][0] == t:
                    ls.append(heappop(hq)[2])
                ls.sort(key=_seq_of)
            sim._nstruct -= len(ls)
            return t, ls
    if hq:
        t = hq[0][0]
        ls = [heappop(hq)[2]]
        while hq and hq[0][0] == t:
            ls.append(heappop(hq)[2])
        sim._nstruct -= len(ls)
        return t, ls
    return None


# ----------------------------------------------------------------------
# batch restore (stop-time hit, max_events trip, StopSimulation, errors)
# ----------------------------------------------------------------------
def restore_fifo(sim, t, ls, i):
    """Re-insert the undispatched tail ``ls[i:]`` of an interrupted batch.

    Entries get fresh sequence numbers in list order — relative order is
    preserved exactly, and on the wheel the values themselves are
    unobservable.  The target L0 slot is necessarily empty (window
    invariant: only time-``t`` entries can map there, and they were all
    in this batch), so appends land pre-sorted.
    """
    sim._batch = None
    for e in ls[i:]:
        if e is not None:
            sim._seq += 1
            e._seq = sim._seq
            insert(sim, t, e)
    sim._reg_free = not sim._nstruct


# ----------------------------------------------------------------------
# non-mutating structure peek
# ----------------------------------------------------------------------
def peek_structures(sim):
    """Exact minimum pending time across L0/L1/overflow, without mutating.

    ``peek`` may be called from inside a dispatched callback (the
    telemetry sampler does), so it must not cascade: a cascade re-anchors
    ``base`` and could strand a subsequent same-instant insert outside
    the window.  Scanning the top L1 bucket is exact because bucket
    ranges partition time: any deeper bucket's minimum is ≥ this one's
    upper bound.
    """
    t = None
    t0h = sim._t0
    if t0h:
        t = t0h[0]
    hq = sim._hq
    if hq:
        th = hq[0][0]
        if t is None or th < t:
            t = th
    t1h = sim._t1
    if t1h:
        b = t1h[0]
        if t is None or (b << S0_BITS) < t:
            bm = min(item[0] for item in sim._slots1[b & S1_MASK])
            if t is None or bm < t:
                t = bm
    return t


# ----------------------------------------------------------------------
# drain loops — one is selected per run() call; no per-event mode checks
# ----------------------------------------------------------------------
# NOTE: drain_fifo and drain_fifo_gated are intentionally near-duplicates.
# The gated variant adds the stop-time and max_events checks; keep the
# dispatch bodies in sync when editing either.  They are the pure platform
# (REPRO_KERNEL_C=0, no compiler, Simulator subclasses) and the reference
# `_speedup.c`'s wheel_drain — both loops as one, gates as `inf` — is
# tested against: every store below happens there at the same point.

def drain_fifo(sim):
    """FIFO drain with no stop time and no event cap (the hottest loop).

    Events are counted (``n``) when they leave the calendar, *before*
    their callbacks run — the flat-heap kernel counted in ``step()``
    before ``_run()``, and an exception escaping a callback must leave
    the same ``events_executed`` behind.
    """
    TO = sim._timeout_cls
    PR = sim._process_cls
    CB = CallbackEntry
    finish = sim._proc_finish
    pool = sim._timeout_pool
    cbpool = sim._cbe_pool
    PROC = _PROCESSED
    grc = getrefcount
    n = 0
    n0 = sim.events_executed
    try:
        while True:
            if (e := sim._single) is not None:
                sim._single = None
                sim._now = sim._single_when
                cls = e.__class__
                if cls is TO:
                    cb = e._cb1
                    e._cb1 = PROC
                    if cb.__class__ is PR:
                        # Chain spin: keep driving this process while each
                        # resume parks a fresh timeout in the register —
                        # the dominant `yield sim.timeout(...)` pattern
                        # keeps (event, callback) in locals instead of
                        # re-deriving them from the calendar per event.
                        # Register-occupied ⟹ structures empty, so the
                        # register entry is always the global minimum.
                        while True:
                            n += 1
                            try:
                                nxt = cb.send(e._value)
                            except BaseException as exc:
                                finish(cb, exc)
                                if e._cbs is not None:
                                    cbs = e._cbs
                                    e._cbs = None
                                    for fn in cbs:
                                        fn(e)
                                if grc(e) == 2:
                                    sim._stash = e
                                break
                            if nxt.__class__ is TO and nxt._cb1 is None and nxt.sim is sim:
                                nxt._cb1 = cb
                                if e._cbs is not None:
                                    cbs = e._cbs
                                    e._cbs = None
                                    for fn in cbs:
                                        fn(e)
                                # `nxt` was rebound to the new timeout by
                                # send(), so the dispatched `e` is
                                # referenced only by this frame: recycle
                                # it.  (Overwriting a non-empty stash just
                                # drops one pooled object — never
                                # incorrect.)  Every loop here drops `nxt`
                                # once it is wired: a stale local would
                                # pin that timeout's refcount at dispatch
                                # and make recycling depend on which
                                # process was resumed last.
                                if grc(e) == 2:
                                    sim._stash = e
                                # Wired means nxt._cb1 is cb and nxt is a
                                # Timeout; the spin continues iff nxt still
                                # sits in the register (an e._cbs callback
                                # may have migrated it into the structures).
                                if sim._single is nxt:
                                    sim._single = None
                                    sim._now = sim._single_when
                                    e = nxt
                                    nxt = None
                                    e._cb1 = PROC
                                    continue
                                nxt = None
                                break
                            cb._wait_on(nxt)
                            nxt = None
                            if e._cbs is not None:
                                cbs = e._cbs
                                e._cbs = None
                                for fn in cbs:
                                    fn(e)
                            if grc(e) == 2:
                                sim._stash = e
                            break
                    else:
                        n += 1
                        if cb is not None:
                            cb(e)
                        if e._cbs is not None:
                            cbs = e._cbs
                            e._cbs = None
                            for fn in cbs:
                                fn(e)
                        if grc(e) == 2:
                            sim._stash = e
                elif cls is CB:
                    n += 1
                    fn = e.fn
                    arg = e.arg
                    fn(arg)
                    if len(cbpool) < CBE_POOL_MAX:
                        e.fn = None
                        e.arg = None
                        cbpool.append(e)
                else:
                    n += 1
                    e._run()
                continue
            got = next_batch_fifo(sim)
            if got is None:
                return
            t, ls = got
            sim._now = t
            sim._base = t
            sim.events_executed = n0 + n
            sim._batch = ls
            sim._batch_time = t
            sim._reg_free = False
            sim._bi = 0
            i = 0
            blen = len(ls)
            try:
                while True:
                    e = ls[i]
                    ls[i] = None
                    i += 1
                    sim._bi = i
                    n += 1
                    cls = e.__class__
                    if cls is TO:
                        cb = e._cb1
                        e._cb1 = PROC
                        if cb.__class__ is PR:
                            try:
                                nxt = cb.send(e._value)
                            except BaseException as exc:
                                finish(cb, exc)
                            else:
                                if nxt.__class__ is TO and nxt._cb1 is None and nxt.sim is sim:
                                    nxt._cb1 = cb
                                else:
                                    cb._wait_on(nxt)
                                nxt = None
                        elif cb is not None:
                            cb(e)
                        if e._cbs is not None:
                            cbs = e._cbs
                            e._cbs = None
                            for fn in cbs:
                                fn(e)
                        if grc(e) == 2:
                            if sim._stash is None:
                                sim._stash = e
                            elif len(pool) < TIMEOUT_POOL_MAX:
                                pool.append(e)
                    elif cls is CB:
                        fn = e.fn
                        arg = e.arg
                        fn(arg)
                        if len(cbpool) < CBE_POOL_MAX:
                            e.fn = None
                            e.arg = None
                            cbpool.append(e)
                    else:
                        e._run()
                    if i == blen:
                        blen = len(ls)
                        if i == blen:
                            break
            except BaseException:
                restore_fifo(sim, t, ls, i)
                raise
            sim._batch = None
            sim._reg_free = not sim._nstruct
            sim._batches += 1
            sim._batched_events += i
            if i > sim._max_batch:
                sim._max_batch = i
    finally:
        sim.events_executed = n0 + n


def drain_fifo_gated(sim, stop, max_events):
    """FIFO drain honouring a stop time and/or an event cap.

    ``stop``/``max_events`` are ``inf`` when unset, so a single loop
    serves both gates.  Batches are atomic with respect to ``stop``
    (every entry in a batch shares one timestamp ≤ stop), which matches
    the flat kernel's per-event check exactly.
    """
    TO = sim._timeout_cls
    PR = sim._process_cls
    CB = CallbackEntry
    finish = sim._proc_finish
    pool = sim._timeout_pool
    cbpool = sim._cbe_pool
    PROC = _PROCESSED
    grc = getrefcount
    n = 0
    n0 = sim.events_executed
    try:
        while True:
            e = sim._single
            if e is not None:
                when = sim._single_when
                if when > stop:
                    sim._now = stop
                    return
                sim._single = None
                sim._now = when
                n += 1
                cls = e.__class__
                if cls is TO:
                    cb = e._cb1
                    e._cb1 = PROC
                    if cb.__class__ is PR:
                        try:
                            nxt = cb.send(e._value)
                        except BaseException as exc:
                            finish(cb, exc)
                        else:
                            if nxt.__class__ is TO and nxt._cb1 is None and nxt.sim is sim:
                                nxt._cb1 = cb
                            else:
                                cb._wait_on(nxt)
                            nxt = None
                    elif cb is not None:
                        cb(e)
                    if e._cbs is not None:
                        cbs = e._cbs
                        e._cbs = None
                        for fn in cbs:
                            fn(e)
                    if grc(e) == 2:
                        sim._stash = e
                elif cls is CB:
                    fn = e.fn
                    arg = e.arg
                    fn(arg)
                    if len(cbpool) < CBE_POOL_MAX:
                        e.fn = None
                        e.arg = None
                        cbpool.append(e)
                else:
                    e._run()
                if n >= max_events:
                    raise SimulationError(f"exceeded max_events={max_events}")
                continue
            got = next_batch_fifo(sim)
            if got is None:
                return
            t, ls = got
            if t > stop:
                restore_fifo(sim, t, ls, 0)
                sim._now = stop
                return
            sim._now = t
            sim._base = t
            sim.events_executed = n0 + n
            sim._batch = ls
            sim._batch_time = t
            sim._reg_free = False
            sim._bi = 0
            i = 0
            blen = len(ls)
            try:
                while True:
                    e = ls[i]
                    ls[i] = None
                    i += 1
                    sim._bi = i
                    n += 1
                    cls = e.__class__
                    if cls is TO:
                        cb = e._cb1
                        e._cb1 = PROC
                        if cb.__class__ is PR:
                            try:
                                nxt = cb.send(e._value)
                            except BaseException as exc:
                                finish(cb, exc)
                            else:
                                if nxt.__class__ is TO and nxt._cb1 is None and nxt.sim is sim:
                                    nxt._cb1 = cb
                                else:
                                    cb._wait_on(nxt)
                                nxt = None
                        elif cb is not None:
                            cb(e)
                        if e._cbs is not None:
                            cbs = e._cbs
                            e._cbs = None
                            for fn in cbs:
                                fn(e)
                        if grc(e) == 2:
                            if sim._stash is None:
                                sim._stash = e
                            elif len(pool) < TIMEOUT_POOL_MAX:
                                pool.append(e)
                    elif cls is CB:
                        fn = e.fn
                        arg = e.arg
                        fn(arg)
                        if len(cbpool) < CBE_POOL_MAX:
                            e.fn = None
                            e.arg = None
                            cbpool.append(e)
                    else:
                        e._run()
                    if n >= max_events:
                        raise SimulationError(f"exceeded max_events={max_events}")
                    if i == blen:
                        blen = len(ls)
                        if i == blen:
                            break
            except BaseException:
                restore_fifo(sim, t, ls, i)
                raise
            sim._batch = None
            sim._reg_free = not sim._nstruct
            sim._batches += 1
            sim._batched_events += i
            if i > sim._max_batch:
                sim._max_batch = i
    finally:
        sim.events_executed = n0 + n


def drain_heap(sim, stop, max_events):
    """Flat-heap drain (the pre-wheel kernel, bit for bit): FIFO as the
    wheel's reference, ``(tiebreak, seq)`` order under a schedule policy."""
    queue = sim._queue
    step = sim.step
    n = 0
    while queue:
        if queue[0][0] > stop:
            sim._now = stop
            return
        step()
        n += 1
        if n >= max_events:
            raise SimulationError(f"exceeded max_events={max_events}")
