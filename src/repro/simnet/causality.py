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
  per-instance ``schedule``/``call_in``/``timeout`` methods; a simulator
  that never calls :func:`enable_capture` executes exactly the code it did
  before this module existed (the only trace is a ``None`` slot the kernel
  never reads).
* **Capture on must not perturb the schedule.**  Capture is an *entry
  wrapper*, not a drain: the rebound placement methods put a small slotted
  stand-in (:class:`_CapturedEntry`) on the calendar through the
  backend's own ``schedule`` — identical sequence-number consumption
  (lazy on the wheel, one per placement on the heap) — and its ``_run()``
  brackets the real entry's ``_run()`` with the recorder bookkeeping.
  Every run loop the kernel has (the C wheel's register/batch dispatch
  and ``step()``, the heap's drain) executes it through its generic
  ``entry._run()`` branch, of which the specialized Timeout/Process/
  CallbackEntry bodies are pure optimizations, so there is no recording
  loop to keep in sync and the C wheel stays live.  Object pools idle
  under capture (nothing on the calendar is a bare Timeout or
  CallbackEntry).

The recorder itself is deliberately dumb and cheap: an integer id counter,
a dict of nodes, and a bounded deque of fired nodes (the flight ring).
Interpretation — segment attribution, path walking, Perfetto export —
lives in :mod:`repro.obs.causal` and :mod:`repro.obs.perfetto`.
"""

from __future__ import annotations

import json
import os
from collections import deque
from typing import Any, Callable, Optional

from ._core import CallbackEntry, SimulationError

__all__ = [
    "CausalNode",
    "CausalRecorder",
    "enable_capture",
    "FLIGHT_SCHEMA",
]

#: schema tag stamped into flight-recorder dump files
FLIGHT_SCHEMA = "repro.flight/1"

#: flight-ring depth when the recorder runs in full-capture mode
DEFAULT_TAIL = 256

#: ``call_in`` callback name → causal category.  Unlisted callables are
#: generic "call" edges; the names below are the hot delivery paths whose
#: identity the critical-path walker needs, and the callback engines' steps
#: (HCA send pipeline, EXS library threads, the core serving them), each
#: labelled as the process-engine entry it stands for.
_CALL_CATEGORIES = {
    "_on_wire": "link",
    "_on_ack": "ack",
    "_on_timer": "rto_timer",
    "_on_rnr_timer": "rnr_timer",
    "_tick": "sampler",
    "_tx_wake": "event",
    "_tx_wire": "timeout",
    "_engine_start": "event",
    "_engine_chan_wake": "event",
    "_engine_kick_wake": "event",
    "_cpu_turn": "event",
    "_cpu_done": "timeout",
    "_engine_exit": "process",
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
        # the simulator's own (schedule, call_in, timeout), which
        # enable_capture wraps and disable_capture puts back
        self._calendar: tuple = ()

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
# capture enablement: every placement goes on the calendar wrapped
# ----------------------------------------------------------------------
class _CapturedEntry:
    """Stand-in calendar entry: records the dispatch, then runs the real one.

    Neither a Timeout nor a CallbackEntry, so every drain takes its generic
    ``entry._run()`` branch (see the module docstring).  ``_seq`` is the
    kernel's tie-break slot, as on any entry.
    """

    __slots__ = ("sim", "rec", "cid", "inner", "_seq")

    def __init__(self, sim, rec: CausalRecorder, cid: int, inner) -> None:
        self.sim = sim
        self.rec = rec
        self.cid = cid
        self.inner = inner

    def _run(self) -> None:
        rec = self.rec
        cid = self.cid
        rec.on_fire(cid, self.sim._now)
        rec.current = cid
        try:
            self.inner._run()
        finally:
            rec.current = -1


def enable_capture(sim, recorder: CausalRecorder) -> CausalRecorder:
    """Route every placement on *sim* through *recorder*.

    Must be called before the simulation starts (an already-pending
    calendar would hold unwrapped entries).  Idempotent per simulator is
    not supported — enable once, at testbed construction.
    """
    if sim._recorder is not None:
        raise SimulationError("causality capture already enabled on this simulator")
    if sim.peek() is not None:
        raise SimulationError("enable_capture requires an empty calendar")
    sim._recorder = recorder
    recorder._calendar = (sim.schedule, sim.call_in, sim.timeout)

    base_schedule = sim.schedule
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
        base_schedule(
            _CapturedEntry(sim, recorder, on_schedule(cat, sim._now), event), delay
        )

    def call_in(delay: int, fn: Callable[[Any], None], arg: Any = None) -> None:
        cid = on_schedule(call_cats.get(getattr(fn, "__name__", ""), "call"), sim._now)
        base_schedule(_CapturedEntry(sim, recorder, cid, CallbackEntry(fn, arg)), delay)

    def timeout(delay: int, value: Any = None):
        # Timeout.__init__ places itself through sim.schedule, i.e. the
        # wrapper above.  (The freelists stay empty under capture: the
        # drains only recycle entries that are themselves Timeouts.)
        return timeout_cls(sim, delay, value)

    sim.schedule = schedule
    sim.call_in = call_in
    sim.timeout = timeout
    return recorder


def disable_capture(sim) -> None:
    """Undo :func:`enable_capture` once the run is over: the simulator gets
    its own calendar entry points back and lets go of the recorder, whose
    capture closures would otherwise keep every node on the simulator's
    reference cycle.  The recorder stays readable wherever it is held."""
    sim.schedule, sim.call_in, sim.timeout = sim._recorder._calendar
    sim._recorder = None
