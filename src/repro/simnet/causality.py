"""Causality capture for the simulation kernel.

When capture is enabled (:func:`enable_capture`), every calendar placement
records a :class:`CausalNode`: the id of the *parent* event (the event whose
callback performed the placement), a category tag, and the schedule/fire
timestamps.  Together the nodes form the run's **causal DAG** — the raw
material for critical-path latency attribution (:mod:`repro.obs.causal`)
and for the bounded **flight recorder** that dumps the last N events when
the stack hits a fatal error.

Design constraints (see docs/SIMULATION.md and docs/OBSERVABILITY.md):

* **Capture off must stay bit-identical.**  Enabling capture rebinds the
  per-instance ``schedule``/``call_in``/``timeout``/``step`` methods and
  routes ``run()`` through the recording drains in this module; a simulator
  that never calls :func:`enable_capture` executes exactly the code it did
  before this module existed (the only change is an extra ``None`` slot).
* **Capture on must not perturb the schedule.**  The recording wrappers
  delegate to the same pure-Python placement paths the kernel uses, with
  identical sequence-number consumption per backend (lazy in FIFO mode —
  unobservable — and one seq per placement in policy/heap mode, exactly as
  before).  The recording drains mirror their :mod:`repro.simnet._core`
  counterparts' batch assembly, stop-time, max-events and restore logic;
  the only difference is uniform dispatch through ``entry._run()`` (of
  which the specialized drain bodies are pure optimizations) plus the
  recorder bookkeeping.  The C accelerator is disabled for captured runs
  (``sim._creg = None``); object pools are bypassed so every placement
  carries a fresh ``_cid``.

The recorder itself is deliberately dumb and cheap: an integer id counter,
a dict of nodes, and a bounded deque of fired nodes (the flight ring).
Interpretation — segment attribution, path walking, Perfetto export —
lives in :mod:`repro.obs.causal` and :mod:`repro.obs.perfetto`.
"""

from __future__ import annotations

import json
import os
from collections import deque
from heapq import heappop
from typing import Any, Callable, Optional

from ._core import (
    CallbackEntry,
    SimulationError,
    next_batch_fifo,
    next_batch_policy,
    restore_fifo,
    restore_policy,
)

__all__ = [
    "CausalNode",
    "CausalRecorder",
    "enable_capture",
    "drain_record",
    "FLIGHT_SCHEMA",
]

#: schema tag stamped into flight-recorder dump files
FLIGHT_SCHEMA = "repro.flight/1"

#: flight-ring depth when the recorder runs in full-capture mode
DEFAULT_TAIL = 256

#: ``call_in`` callback name → causal category.  Unlisted callables are
#: generic "call" edges; the names below are the hot delivery paths whose
#: identity the critical-path walker needs.
_CALL_CATEGORIES = {
    "_on_wire": "link",
    "_on_ack": "ack",
    "_on_timer": "rto_timer",
    "_on_rnr_timer": "rnr_timer",
    "_tick": "sampler",
}


class CausalNode:
    """One calendar placement: who scheduled it, what kind, and when."""

    __slots__ = ("cid", "parent", "category", "sched_ns", "fire_ns", "meta")

    def __init__(self, cid: int, parent: int, category: str, sched_ns: int) -> None:
        self.cid = cid
        self.parent = parent
        self.category = category
        self.sched_ns = sched_ns
        #: -1 until the entry is dispatched
        self.fire_ns = -1
        #: optional site annotations (e.g. link timing split); None when unused
        self.meta: Optional[dict] = None

    def to_dict(self) -> dict:
        d = {
            "id": self.cid,
            "parent": self.parent,
            "category": self.category,
            "sched_ns": self.sched_ns,
            "fire_ns": self.fire_ns,
        }
        if self.meta:
            d["meta"] = dict(self.meta)
        return d

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<CausalNode {self.cid} {self.category} parent={self.parent} "
            f"sched={self.sched_ns} fire={self.fire_ns}>"
        )


class CausalRecorder:
    """Collects the causal DAG of a captured run.

    Parameters
    ----------
    capacity:
        ``None`` keeps every node (full capture, needed for critical-path
        extraction).  An integer keeps only the last *capacity* fired nodes
        plus the not-yet-fired pending set — the always-cheap flight-recorder
        mode.
    dump_dir:
        Directory for automatic flight-recorder dumps on :meth:`failure`.
        ``None`` keeps dumps in memory only (``last_dump`` / ``dumps``).
    scenario:
        Optional dict describing the run (typically
        ``ScenarioConfig.to_dict()``), embedded in dumps so they replay.
    """

    def __init__(
        self,
        capacity: Optional[int] = None,
        dump_dir: Optional[str] = None,
        scenario: Optional[dict] = None,
    ) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError("flight-recorder capacity must be positive")
        self.capacity = capacity
        self.dump_dir = dump_dir
        self.scenario = scenario
        #: id of the event whose callback is currently executing (-1 at top level)
        self.current: int = -1
        self._next: int = 0
        #: cid → node; in ring mode, pruned as the flight ring evicts
        self.nodes: dict[int, CausalNode] = {}
        #: fired nodes in dispatch order (the flight ring)
        self._tail: deque = deque(maxlen=capacity if capacity is not None else DEFAULT_TAIL)
        self.dumps: list[dict] = []
        self.last_dump: Optional[dict] = None
        # credit-stall windows per connection (see repro.exs.stream_sender)
        self._blocked_since: dict[Any, int] = {}
        self.credit_windows: list[tuple] = []

    # -- kernel-facing hot path -----------------------------------------
    def on_schedule(self, category: str, sched_ns: int) -> int:
        """Record a placement; returns the new node id (the entry's _cid)."""
        cid = self._next
        self._next = cid + 1
        self.nodes[cid] = CausalNode(cid, self.current, category, sched_ns)
        return cid

    def on_fire(self, cid: int, fire_ns: int) -> None:
        node = self.nodes.get(cid)
        if node is None:
            return
        node.fire_ns = fire_ns
        tail = self._tail
        if self.capacity is not None and len(tail) == tail.maxlen:
            # evicting from the ring also forgets the node entirely
            self.nodes.pop(tail[0].cid, None)
        tail.append(node)

    # -- site annotations ------------------------------------------------
    def annotate_last(self, count: int = 1, **fields: Any) -> None:
        """Attach *fields* to the *count* most recently created nodes.

        Used right after a placement by the site that knows the timing
        decomposition (e.g. the link transmitter knows queue/tx/prop).
        """
        for cid in range(self._next - count, self._next):
            node = self.nodes.get(cid)
            if node is not None:
                if node.meta is None:
                    node.meta = dict(fields)
                else:
                    node.meta.update(fields)

    def note_credit_block(self, conn: Any, now: int) -> None:
        """A sender stalled for credits on *conn* starting at *now*."""
        self._blocked_since.setdefault(conn, now)

    def note_credit_unblock(self, conn: Any, now: int) -> None:
        """The sender for *conn* made progress again at *now*."""
        start = self._blocked_since.pop(conn, None)
        if start is not None and now > start:
            self.credit_windows.append((conn, start, now))

    # -- flight recorder -------------------------------------------------
    def failure(self, reason: str, time_ns: int, **context: Any) -> dict:
        """Record a failure and dump the flight ring.

        The synthetic failure node is parented to the currently executing
        event, so the dump's tail reconstructs the causal chain that led
        here (e.g. last retransmit timer → QP ERROR transition).
        """
        cid = self._next
        self._next = cid + 1
        node = CausalNode(cid, self.current, "failure", time_ns)
        node.fire_ns = time_ns
        node.meta = dict(context, reason=reason)
        self.nodes[cid] = node
        self._tail.append(node)
        dump = {
            "schema": FLIGHT_SCHEMA,
            "reason": reason,
            "time_ns": time_ns,
            "context": dict(context),
            "scenario": dict(self.scenario) if self.scenario else None,
            "events": [n.to_dict() for n in self._tail],
        }
        self.dumps.append(dump)
        self.last_dump = dump
        if self.dump_dir:
            os.makedirs(self.dump_dir, exist_ok=True)
            path = os.path.join(
                self.dump_dir, f"flight-{len(self.dumps)}-{_slug(reason)}.json"
            )
            with open(path, "w") as fh:
                json.dump(dump, fh, indent=1, sort_keys=True)
            dump["path"] = path
        return dump

    # -- queries ----------------------------------------------------------
    def node(self, cid: int) -> Optional[CausalNode]:
        return self.nodes.get(cid)

    def fired_nodes(self) -> list:
        """Fired nodes currently retained, in dispatch order."""
        return list(self._tail)

    def __len__(self) -> int:
        return len(self.nodes)


def _slug(text: str) -> str:
    return "".join(c if c.isalnum() else "-" for c in text.lower()).strip("-") or "failure"


# ----------------------------------------------------------------------
# capture enablement: rebind the per-instance placement methods
# ----------------------------------------------------------------------
def enable_capture(sim, recorder: CausalRecorder) -> CausalRecorder:
    """Route every placement on *sim* through *recorder*.

    Must be called before the simulation starts (an already-pending
    calendar would hold untagged entries).  Idempotent per simulator is
    not supported — enable once, at testbed construction.
    """
    if sim._recorder is not None:
        raise SimulationError("causality capture already enabled on this simulator")
    if sim.peek() is not None:
        raise SimulationError("enable_capture requires an empty calendar")
    sim._recorder = recorder
    # The C register drain bypasses Python dispatch entirely; captured
    # runs take the recording drains below instead.
    sim._creg = None
    sim._accelerator = "off"

    backend = sim._backend
    if backend == "heap":
        base_schedule = sim._schedule_heap
    elif sim._tiebreak is None:
        base_schedule = sim._schedule_wheel
    else:
        base_schedule = sim._schedule_policy_wheel
    timeout_cls = sim._timeout_cls
    process_cls = sim._process_cls
    on_schedule = recorder.on_schedule
    call_cats = _CALL_CATEGORIES

    def schedule(event, delay: int = 0) -> None:
        cls = type(event)
        if cls is timeout_cls:
            cat = "timeout"
        elif cls is process_cls:
            cat = "process"
        else:
            cat = "event"
        event._cid = on_schedule(cat, sim._now)
        base_schedule(event, delay)

    def call_in(delay: int, fn: Callable[[Any], None], arg: Any = None) -> None:
        e = CallbackEntry(fn, arg)
        e._cid = on_schedule(
            call_cats.get(getattr(fn, "__name__", ""), "call"), sim._now
        )
        base_schedule(e, delay)

    def timeout(delay: int, value: Any = None):
        # Fresh object per placement (no freelist) so the _cid tag is unique;
        # Timeout.__init__ calls sim.schedule, i.e. the wrapper above.
        return timeout_cls(sim, delay, value)

    def step() -> None:
        _step_record(sim, recorder)

    sim.schedule = schedule
    sim.call_in = call_in
    sim.timeout = timeout
    sim.step = step
    return recorder


# ----------------------------------------------------------------------
# recording dispatch
# ----------------------------------------------------------------------
def _fire(rec: CausalRecorder, e, now: int) -> None:
    """Dispatch one entry, bracketed by recorder bookkeeping.

    Uniform ``e._run()`` dispatch: the specialized Timeout/Process/
    CallbackEntry bodies in the production drains are pure optimizations
    of ``_run`` (same callbacks in the same order), so recording runs
    replay the identical schedule.
    """
    cid = getattr(e, "_cid", -1)
    rec.on_fire(cid, now)
    rec.current = cid
    try:
        e._run()
    finally:
        rec.current = -1


def drain_record(sim, stop, max_events) -> None:
    """Backend-dispatching drain for captured runs (selected by ``run()``)."""
    rec = sim._recorder
    if sim._backend == "heap":
        _drain_record_heap(sim, stop, max_events, rec)
    elif sim._tiebreak is not None:
        _drain_record_policy(sim, stop, max_events, rec)
    else:
        _drain_record_fifo(sim, stop, max_events, rec)


def _drain_record_fifo(sim, stop, max_events, rec) -> None:
    """Recording twin of :func:`repro.simnet._core.drain_fifo_gated`."""
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
                _fire(rec, e, when)
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
                    _fire(rec, e, t)
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


def _drain_record_policy(sim, stop, max_events, rec) -> None:
    """Recording twin of :func:`repro.simnet._core.drain_policy`."""
    n = 0
    n0 = sim.events_executed
    try:
        while True:
            got = next_batch_policy(sim)
            if got is None:
                return
            t, ls = got
            if t > stop:
                restore_policy(sim, t, ls)
                sim._now = stop
                return
            sim._now = t
            sim._base = t
            sim.events_executed = n0 + n
            sim._pol_batch = ls
            sim._batch_time = t
            k0 = n
            try:
                while ls:
                    e = heappop(ls)[2]
                    n += 1
                    _fire(rec, e, t)
                    if n >= max_events:
                        raise SimulationError(f"exceeded max_events={max_events}")
            except BaseException:
                restore_policy(sim, t, ls)
                raise
            sim._pol_batch = None
            sim._batches += 1
            sim._batched_events += n - k0
            if n - k0 > sim._max_batch:
                sim._max_batch = n - k0
    finally:
        sim.events_executed = n0 + n


def _drain_record_heap(sim, stop, max_events, rec) -> None:
    """Recording twin of :func:`repro.simnet._core.drain_heap`."""
    queue = sim._queue
    n = 0
    while queue:
        when = queue[0][0]
        if when > stop:
            sim._now = stop
            return
        e = heappop(queue)[-1]
        if when < sim._now:  # pragma: no cover - defensive, as _step_heap
            raise SimulationError("event calendar corrupted: time went backwards")
        sim._now = when
        sim.events_executed += 1
        _fire(rec, e, when)
        n += 1
        if n >= max_events:
            raise SimulationError(f"exceeded max_events={max_events}")


def _step_record(sim, rec) -> None:
    """Single-step a captured simulator (any backend)."""
    if sim._backend == "heap":
        queue = sim._queue
        item = heappop(queue)  # IndexError on empty, as before
        when, e = item[0], item[-1]
        sim._now = when
        sim.events_executed += 1
        _fire(rec, e, when)
        return
    e = sim._single
    if e is not None:
        sim._single = None
        sim._now = sim._single_when
        sim.events_executed += 1
        _fire(rec, e, sim._now)
        return
    if sim._tiebreak is None:
        got = next_batch_fifo(sim)
        if got is None:
            raise IndexError("step on an empty calendar")
        t, ls = got
        e = ls[0]
        sim._base = t
        restore_fifo(sim, t, ls, 1)
        sim._now = t
        sim.events_executed += 1
        _fire(rec, e, t)
        return
    got = next_batch_policy(sim)
    if got is None:
        raise IndexError("step on an empty calendar")
    t, ls = got
    e = heappop(ls)[2]
    sim._base = t
    restore_policy(sim, t, ls)
    sim._now = t
    sim.events_executed += 1
    _fire(rec, e, t)
