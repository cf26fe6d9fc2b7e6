"""Temporally decoupled multi-cell event kernel.

The monolithic kernel (:mod:`repro.simnet.kernel`) keeps one global
calendar: every placement and every dispatch funnels through a single
timing wheel, so at fabric scale (thousands of connections across dozens
of hosts) the wheel is never empty, the register/chain fast paths never
engage, and every event pays global-structure costs.  This module
partitions the simulation into **cells** — one per topology host, one
per switch, plus a **control** cell for everything else — and gives each
cell its own hierarchical timing wheel.  Cells are executed in
*conservative safe windows* (classic Chandy–Misra–Bryant lookahead): a
cell may burst through its local calendar as long as no other cell could
still deliver an event into that range, where the bound comes from the
minimum cross-cell link latency of the topology.

Ordering contract
-----------------
Cells mode replaces the monolithic FIFO tie-break with a deterministic
**cell key**: every calendar entry carries ``_seq = (target_cell,
source_cell, cnt)`` where ``cnt`` comes from a per-``(target, source)``
counter matrix.  Within one cell, all entries at one instant execute in
key order, with same-instant placements joining live (a per-instant
heap).  Across cells, instants are granted in ``(time, cell index)``
order; the control cell has the largest index, so at any shared instant
host and switch cells run before control.  A cell whose instant ``t``
has already run can be *re-opened* by a same-instant cross-post (e.g. a
control action at ``t``); the re-opened batch forms a fresh key-ordered
instant at ``t``.

Because ``cnt`` is per ``(target, source)`` pair and the entries a cell
sends into another cell are produced by the source cell's own (ordered)
execution, the key sequence observed by every cell is independent of the
wall-clock interleaving of bursts.  That gives the central property,
checked by the determinism suite (tests/simnet/test_cells_kernel.py):

    ``CellSimulator(decouple=True)`` (windowed bursts) is **bit-identical**
    to ``CellSimulator(decouple=False)`` (lockstep: strict global
    ``(time, index)`` order — the monolithic execution of the same keyed
    calendar).

Note the cells ordering contract is *not* bit-identical to the legacy
monolithic wheel: same-instant ties across hosts resolve by cell key,
not by global placement sequence.  Events at different timestamps are
never reordered, and per-cell event streams are reproducible run to run.

Safety rules (enforced, not assumed)
------------------------------------
* A cross-cell post must arrive at or after the target cell's local
  clock; an arrival in the target's past raises
  :class:`~repro.simnet._core.SimulationError` (the causality guard —
  it fires only if a lookahead table overstates the real minimum
  latency).
* A burst window is ``min_other_next + L_in(cell)`` (and never beyond
  the control cell's next action, whose lookahead is zero).  The window
  is lowered dynamically to the arrival time of any cross-cell post the
  bursting cell itself makes, which conservatively covers same-instant
  relays through the control cell (``defer_control``).
* Zero lookahead degenerates to lockstep execution and stays correct —
  the cell holding the global minimum instant is always entitled to it.

Fallbacks (decided by :class:`repro.fabric.Fabric`): schedule policies,
causal capture / the flight recorder, jittered delay emulators, and
switchless (direct two-host) topologies all keep the legacy monolithic
kernel.  ``REPRO_KERNEL=cells`` on a plain :class:`Simulator` falls back
to the wheel (cells need a topology to derive lookahead from).
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from sys import getrefcount
from typing import Any, Callable, Dict, List, Optional, Tuple

from . import _accel
from ._core import (
    CBE_POOL_MAX,
    INF,
    TIMEOUT_POOL_MAX,
    CallbackEntry,
    SimulationError,
    _PROCESSED,
    insert,
    next_batch_fifo,
    peek_structures,
    S0_SIZE,
    S1_SIZE,
)
from .kernel import Simulator

__all__ = ["CellMap", "CellSimulator"]

#: name of the implicit control cell (largest index; runs last at ties)
CONTROL = "control"


class CellMap:
    """Static cell layout: names, indices, and per-cell lookahead.

    Built from a :class:`~repro.simnet.fabric.Topology` plus the
    jitter-free propagation delay of every edge.  Cells are the topology
    hosts followed by its switches, in topology order, with the control
    cell appended last — so cell indices are deterministic and the
    control cell always sorts after every host/switch at a shared
    instant.

    ``lookahead_in[c]`` is the minimum base propagation delay over the
    edges incident to cell ``c``: nothing outside ``c`` can affect ``c``
    sooner than that after its own next action.  The control cell's
    inbound lookahead is zero (any cell may defer work to it at the
    current instant).
    """

    __slots__ = ("names", "index", "control", "lookahead_in")

    def __init__(self, names: Tuple[str, ...], lookahead_in: Tuple[int, ...]) -> None:
        if len(names) != len(lookahead_in):
            raise SimulationError("cell names and lookahead table disagree")
        if len(names) < 2 or names[-1] != CONTROL:
            raise SimulationError("a CellMap needs >= 1 cell plus the control cell last")
        self.names = names
        self.index: Dict[str, int] = {n: i for i, n in enumerate(names)}
        self.control = len(names) - 1
        self.lookahead_in = lookahead_in

    @classmethod
    def from_topology(cls, topology, edge_prop_ns) -> "CellMap":
        """Derive the cell layout from *topology*.

        *edge_prop_ns* maps edge index → jitter-free one-way propagation
        (base link propagation plus any emulator base delay).  Lookahead
        never includes serialization or jitter: both only push arrivals
        later, so the minimum propagation is a sound lower bound.
        """
        nodes = tuple(topology.hosts) + tuple(topology.switches)
        look: Dict[str, int] = {}
        for i, (a, b) in enumerate(topology.edges):
            p = int(edge_prop_ns[i]) if not isinstance(edge_prop_ns, int) else edge_prop_ns
            for n in (a, b):
                cur = look.get(n)
                if cur is None or p < cur:
                    look[n] = p
        table = tuple(look.get(n, 0) for n in nodes) + (0,)
        return cls(nodes + (CONTROL,), table)


class _Cell:
    """One cell's calendar: a register plus a private timing wheel.

    Deliberately attribute-compatible with the wheel fields of
    :class:`~repro.simnet.kernel.Simulator`, so the structure functions
    in :mod:`repro.simnet._core` (``insert``/``next_batch_fifo``/
    ``peek_structures`` and the cascade they drive) operate on a cell
    exactly as they operate on a monolithic simulator.  Entries carry
    tuple keys in ``_seq``; all the _core code does with ``_seq`` is
    compare it, and tuples compare.
    """

    __slots__ = (
        "_i", "_name", "_now",
        # register + wheel (the _core attribute contract)
        "_single", "_single_when", "_slots0", "_slots1", "_t0", "_t1",
        "_hq", "_dirty", "_base", "_nstruct", "_reg_free",
        "_l0_inserts", "_l1_inserts", "_hq_inserts", "_cascades",
        # per-cell telemetry
        "_instants", "_events", "_inbox_merges", "_last_window",
    )

    def __init__(self, index: int, name: str) -> None:
        self._i = index
        self._name = name
        self._now = 0
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
        self._reg_free = True  # written by insert(); cells never read it
        self._l0_inserts = 0
        self._l1_inserts = 0
        self._hq_inserts = 0
        self._cascades = 0
        self._instants = 0
        self._events = 0
        self._inbox_merges = 0
        self._last_window = 0

    def peek(self) -> Optional[int]:
        if self._single is not None:
            return self._single_when
        if self._nstruct:
            return peek_structures(self)
        return None


def _restore_cell(cell: _Cell, t: int, heap: list) -> None:
    """Re-insert an interrupted instant's remaining ``(key, entry)`` heap.

    Keys are preserved — unlike the monolithic FIFO restore, cells keys
    are observable (they order the merged calendar), so a restored entry
    must keep the exact key it was placed with.  Re-assembly sorts the
    batch by key, which reproduces precisely the order the uninterrupted
    heap would have popped.

    The interrupted instant may have parked a future self-post in the
    cell's register (the structures were empty after the batch was
    taken); spill it first so the register-occupied ⟹ structures-empty
    invariant survives the restore.
    """
    s = cell._single
    if s is not None:
        cell._single = None
        insert(cell, cell._single_when, s)
    for _key, e in heap:
        insert(cell, t, e)


class CellSimulator(Simulator):
    """Per-cell calendars behind the single-simulator facade.

    Every component keeps calling ``sim.schedule`` / ``sim.call_in`` /
    ``sim.timeout`` / ``sim.now`` unchanged; the facade routes each
    placement to the **currently executing cell** and stamps it with the
    cells ordering key.  Cross-cell deliveries go through
    :meth:`call_in_cell` (the link/ACK delivery sites) and
    :meth:`defer_control`.

    Parameters
    ----------
    cellmap:
        The static :class:`CellMap` (from the fabric's topology).
    decouple:
        ``True`` (default) runs conservative windowed bursts; ``False``
        runs the same keyed calendar in strict global ``(time, index)``
        order — the monolithic reference the determinism suite compares
        against.
    """

    #: lets call sites (FabricConnection, apps) pick cells-safe waiting
    is_cells = True

    __slots__ = (
        "_cellmap", "_cells", "_nexts", "_ctrl", "_cur", "_decouple",
        "_cnt", "_rt_cell", "_rt_time", "_rheap", "_W", "_maxe",
        "_grants",
        # per-instance rebind (the C fast path when the accelerator loads;
        # the slot shadows the legacy Simulator shim method)
        "call_in_cell",
    )

    def __init__(self, cellmap: CellMap, *, trace=None, decouple: bool = True) -> None:
        super().__init__(trace=trace, calendar="wheel")
        self._backend = "cells"
        self._cellmap = cellmap
        n = len(cellmap.names)
        self._cells = [_Cell(i, name) for i, name in enumerate(cellmap.names)]
        self._nexts: List[float] = [INF] * n
        self._ctrl = cellmap.control
        self._cur = cellmap.control
        self._decouple = decouple
        # per-(target, source) placement counters: the third key component
        self._cnt = [[0] * n for _ in range(n)]
        # live-instant state: placements for (_rt_cell, _rt_time) join the
        # running heap instead of the wheel
        self._rt_cell = -1
        self._rt_time = -1
        self._rheap: list = []
        self._W = INF
        self._maxe = INF
        self._grants = 0
        # rebind the per-instance backend methods to the cells paths
        self.schedule = self._schedule_cells
        self.call_in = self._call_in_cells
        self.timeout = self._timeout_cells
        self.step = self._step_cells
        self.peek = self._peek_cells
        self.call_in_cell = self._call_in_cell_py
        # C fast paths: placement + drain move to the accelerator while
        # every structure stays in these Python slots, so pure and C code
        # interleave freely (step()/peek() stay pure).  Subclasses keep
        # the pure paths — overridden hooks must stay live.
        if type(self) is CellSimulator:
            mod = _accel.load()
            if mod is not None:
                self.schedule = mod.bind_cells_schedule(self)
                self.call_in = mod.bind_cells_call_in(self)
                self.timeout = mod.bind_cells_timeout(self)
                self.call_in_cell = mod.bind_cells_call_in_cell(self)
                self._cdrain = mod.bind_cells_drain(self)
                self._accelerator = "live"
            else:
                self._accelerator = _accel.why_not()

    # ------------------------------------------------------------------
    # cell addressing
    # ------------------------------------------------------------------
    def cell_index(self, name: str) -> int:
        """Index of the cell called *name* (raises on unknown names)."""
        try:
            return self._cellmap.index[name]
        except KeyError:
            raise SimulationError(f"unknown cell {name!r}") from None

    def cell(self, name: str):
        """Context manager: placements inside run in cell *name*.

        Used during fabric assembly so each host's initial entries
        (device send pipeline, shard pollers) start on that host's
        calendar.  Mid-run the current cell tracks execution and this is
        not needed.
        """
        return _CellContext(self, self.cell_index(name))

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------
    def _place(self, target: int, entry, when: int) -> None:
        src = self._cur
        row = self._cnt[target]
        c = row[src]
        row[src] = c + 1
        entry._seq = (target, src, c)
        if target == self._rt_cell and when == self._rt_time:
            heappush(self._rheap, (entry._seq, entry))
            return
        cell = self._cells[target]
        if when < cell._now:
            raise SimulationError(
                f"causality violation: cell {self._cellmap.names[src]!r} posted "
                f"into {cell._name!r} at {when} ns, but that cell's clock is "
                f"already {cell._now} ns (lookahead table overstates the "
                f"minimum cross-cell latency?)"
            )
        s = cell._single
        if s is None:
            if cell._nstruct == 0:
                cell._single = entry
                cell._single_when = when
                if when < self._nexts[target]:
                    self._nexts[target] = when
                return
        else:
            cell._single = None
            cell._base = cell._now
            insert(cell, cell._single_when, s)
        insert(cell, when, entry)
        if when < self._nexts[target]:
            self._nexts[target] = when

    def _schedule_cells(self, event, delay: int = 0) -> None:
        if type(delay) is not int:
            if isinstance(delay, bool) or not isinstance(delay, int):
                raise SimulationError(
                    f"delay must be an int number of ns, got {type(delay).__name__}"
                )
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        self._place(self._cur, event, self._now + delay)

    def _call_in_cells(self, delay: int, fn: Callable[[Any], None], arg: Any = None) -> None:
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
        self._place(self._cur, e, self._now + delay)

    def _timeout_cells(self, delay: int, value: Any = None):
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
        self._timeout_reuses += 1
        t.delay = delay
        t._value = value
        t._cb1 = None
        self._place(self._cur, t, self._now + delay)
        return t

    # ------------------------------------------------------------------
    # cross-cell routing (the only entry points that cross a boundary)
    # ------------------------------------------------------------------
    def _call_in_cell_py(self, cell: int, delay: int, fn: Callable[[Any], None],
                         arg: Any = None) -> None:
        """Schedule ``fn(arg)`` ``delay`` ns from now **in cell** *cell*.

        The cross-cell delivery primitive, used by the link transmit
        site and the device ACK path.  Arrivals in the target cell's
        past raise (the causality guard).  When the posting cell is
        mid-burst, its window is lowered to the arrival time: the target
        cannot react back into this cell any sooner, even through a
        zero-delay control relay.
        """
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
        if cell != self._cur:
            self._cells[cell]._inbox_merges += 1
            if when < self._W:
                self._W = when
        self._place(cell, e, when)

    def defer_control(self, fn: Callable[[Any], None], arg: Any = None) -> None:
        """Run ``fn(arg)`` in the control cell at the current instant.

        Control has the largest cell index, so the deferred action runs
        after every host/switch cell has finished this instant — a
        deterministic rendezvous for bookkeeping that two cells would
        otherwise race on (e.g. the two sides of a connection handshake
        completing at the same nanosecond).  On legacy kernels
        :meth:`Simulator.defer_control` is a direct call.
        """
        self.call_in_cell(self._ctrl, 0, fn, arg)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _take_instant(self, cell: _Cell):
        """Pop the cell's minimum instant as ``(t, [(key, entry), ...])``."""
        s = cell._single
        if s is not None:
            cell._single = None
            return cell._single_when, [(s._seq, s)]
        got = next_batch_fifo(cell)
        if got is None:
            return None
        t, ls = got
        cell._base = t
        h = [(e._seq, e) for e in ls]
        if len(h) > 1:
            heapify(h)
        return t, h

    def _run_instant(self, cell: _Cell, t: int, h: list, budget) -> int:
        """Execute every entry of *cell* at instant *t* in key order.

        Same-instant placements by these entries join ``h`` live (see
        :meth:`_place`), so the instant drains in pure key order exactly
        like the monolithic reference.  On an escaping exception the
        remaining heap is restored **with its keys** and the exception
        propagates (StopSimulation included), leaving the calendar
        resumable.
        """
        TO = self._timeout_cls
        PR = self._process_cls
        CB = CallbackEntry
        finish = self._proc_finish
        pool = self._timeout_pool
        cbpool = self._cbe_pool
        PROC = _PROCESSED
        grc = getrefcount
        self._now = t
        cell._now = t
        cell._instants += 1
        ci = cell._i
        self._cur = ci
        self._rt_cell = ci
        self._rt_time = t
        self._rheap = h
        n = 0
        try:
            while h:
                e = heappop(h)[1]
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
                            if nxt.__class__ is TO and nxt._cb1 is None and nxt.sim is self:
                                nxt._cb1 = cb
                            else:
                                cb._wait_on(nxt)
                            nxt = None  # no stale local pinning its refcount
                    elif cb is not None:
                        cb(e)
                    if e._cbs is not None:
                        cbs = e._cbs
                        e._cbs = None
                        for fn in cbs:
                            fn(e)
                    if grc(e) == 2:
                        if self._stash is None:
                            self._stash = e
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
                if n >= budget:
                    raise SimulationError(f"exceeded max_events={self._maxe}")
        except BaseException:
            _restore_cell(cell, t, h)
            raise
        finally:
            self._rt_cell = -1
            self._rheap = []
            cell._events += n
            self._batches += 1
            self._batched_events += n
            if n > self._max_batch:
                self._max_batch = n
        return n

    def _refresh_next(self, i: int) -> None:
        t = self._cells[i].peek()
        self._nexts[i] = INF if t is None else t

    def _drain(self, stop, maxe) -> None:
        cells = self._cells
        nexts = self._nexts
        look = self._cellmap.lookahead_in
        ctrl = self._ctrl
        decouple = self._decouple
        self._maxe = maxe
        # Recompute the next-instant table from scratch: an exception that
        # escaped a previous drain leaves it stale (the granted cell was
        # masked to INF), and placements made outside run() only lower it.
        for i, c in enumerate(cells):
            t = c.peek()
            nexts[i] = INF if t is None else t
        n = 0
        n0 = self.events_executed
        try:
            while True:
                bt = min(nexts)
                if bt == INF:
                    return
                if bt > stop:
                    self._now = stop
                    return
                bi = nexts.index(bt)
                cell = cells[bi]
                # conservative window: nothing can reach `cell` before the
                # earliest other cell's next action plus this cell's inbound
                # lookahead — and never beyond control's next action (whose
                # lookahead is zero).  min(nexts) after masking this cell
                # covers both: if control is the minimum the +lookahead sum
                # is capped by the explicit control bound below.
                nexts[bi] = INF
                m2 = min(nexts)
                W = m2 + look[bi]
                if bi != ctrl and nexts[ctrl] < W:
                    W = nexts[ctrl]
                if stop < W:
                    W = stop + 1 if stop != INF else INF
                self._W = W
                cell._last_window = -1 if W == INF else int(W - bt)
                self._grants += 1
                first = True
                while True:
                    # peek before taking: an instant beyond the window (or
                    # the stop time) is left in place, so the window
                    # boundary costs nothing instead of a take + restore
                    # cycle per truncated burst
                    t = cell.peek()
                    if t is None:
                        break
                    if (not first and (t >= self._W or not decouple)) or t > stop:
                        break
                    t, h = self._take_instant(cell)
                    first = False
                    self.events_executed = n0 + n
                    n += self._run_instant(cell, t, h, maxe - n)
                self._refresh_next(bi)
        finally:
            self.events_executed = n0 + n
            self._cur = self._ctrl

    def _step_cells(self) -> None:
        """Execute the next global instant (lockstep semantics).

        One ``step()`` runs one *instant of one cell* — the global
        ``(time, index)`` minimum — which may dispatch several same-key
        entries; interleaving ``step()`` with ``run()`` stays safe.
        """
        nexts = self._nexts
        for i, c in enumerate(self._cells):
            t = c.peek()
            nexts[i] = INF if t is None else t
        bt = min(nexts)
        if bt == INF:
            raise IndexError("step on an empty calendar")
        bi = nexts.index(bt)
        cell = self._cells[bi]
        self._W = bt  # no burst: strictly this instant
        got = self._take_instant(cell)
        t, h = got
        n0 = self.events_executed
        try:
            n = self._run_instant(cell, t, h, INF)
        finally:
            self._refresh_next(bi)
            self._cur = self._ctrl
        self.events_executed = n0 + n

    def _peek_cells(self) -> Optional[int]:
        if self._rt_cell >= 0 and self._rheap:
            return self._now
        # Read the cells, not the incremental table — the table may be
        # stale outside a drain (e.g. after an interrupted run).
        best: Optional[int] = None
        for c in self._cells:
            t = c.peek()
            if t is not None and (best is None or t < best):
                best = t
        return best

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def calendar_stats(self) -> dict:
        """Monolithic-shaped stats plus a per-cell breakdown.

        The legacy keys aggregate over all cells; ``cells`` maps each
        cell name to its own counters, which the observability layer
        exposes as ``kernel.cell.<name>.*`` pull gauges:

        ``horizon_ns``
            the cell's local clock (how far its timeline has run),
        ``next_ns``
            its next pending instant (``None`` when idle),
        ``queued``
            entries pending on its calendar,
        ``safe_window_ns``
            width of the most recent conservative grant (``-1`` for an
            unbounded grant),
        ``inbox_merges``
            cross-cell deliveries merged into this cell's calendar.
        """
        per: Dict[str, dict] = {}
        pending = 0
        for c in self._cells:
            q = c._nstruct + (1 if c._single is not None else 0)
            pending += q
            nxt = c.peek()
            per[c._name] = {
                "horizon_ns": c._now,
                "next_ns": nxt,
                "queued": q,
                "instants": c._instants,
                "events": c._events,
                "safe_window_ns": c._last_window,
                "inbox_merges": c._inbox_merges,
                "lookahead_ns": self._cellmap.lookahead_in[c._i],
            }
        return {
            "backend": "cells",
            "mode": "decoupled" if self._decouple else "lockstep",
            "now": self._now,
            "events_executed": self.events_executed,
            "pending": pending,
            "next_time": self.peek(),
            "batches": self._batches,
            "batched_events": self._batched_events,
            "max_batch": self._max_batch,
            "grants": self._grants,
            "cascades": sum(c._cascades for c in self._cells),
            "l0_inserts": sum(c._l0_inserts for c in self._cells),
            "l1_inserts": sum(c._l1_inserts for c in self._cells),
            "overflow_inserts": sum(c._hq_inserts for c in self._cells),
            "timeout_allocs": self._timeout_allocs,
            "timeout_reuses": self._timeout_reuses,
            "timeout_pool": len(self._timeout_pool) + (1 if self._stash is not None else 0),
            "cbe_allocs": self._cbe_allocs,
            "cbe_reuses": self._cbe_reuses,
            "accelerator": self._accelerator,
            "accelerator_reason": self._accelerator_reason(),
            "cells": per,
        }


class _CellContext:
    """Reentrant current-cell override for construction-time placement."""

    __slots__ = ("_sim", "_idx", "_prev")

    def __init__(self, sim: CellSimulator, idx: int) -> None:
        self._sim = sim
        self._idx = idx
        self._prev = -1

    def __enter__(self):
        self._prev = self._sim._cur
        self._sim._cur = self._idx
        return self._sim

    def __exit__(self, *exc):
        self._sim._cur = self._prev
        return False
