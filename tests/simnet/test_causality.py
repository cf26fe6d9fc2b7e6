"""Causality capture: schedule-identical replay plus a correct causal DAG.

The contract of :mod:`repro.simnet.causality` is twofold:

* **Equivalence** — a captured run executes the exact same schedule as an
  uncaptured one, on every calendar (wheel, heap, heap + policy).  The
  fingerprint workload from the timing-wheel suite is reused: any ordering
  divergence derails a shared PRNG and amplifies.
* **Causal structure** — every placement records its parent (the entry
  executing when it was scheduled), category, and schedule/fire times,
  and ``child.sched_ns == parent.fire_ns`` so chains tile exactly.
"""

import pytest

from repro.exs.engine import SLEEP, Engine
from repro.hosts import Cpu
from repro.simnet import (
    CausalRecorder,
    Event,
    FifoPolicy,
    RandomTiebreakPolicy,
    SimulationError,
    Simulator,
    Store,
    enable_capture,
)
from repro.verbs import CompletionChannel


def _lcg(seed):
    state = (seed * 2654435761) & 0x7FFFFFFF or 1
    while True:
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        yield state


DELAYS = (0, 1, 3, 7, 100, 1000, 4095, 4096, 4097, 70_000, 16_773_120, 50_000_000)


def _build_workload(sim, seed, log):
    """Deterministic event soup: timeout chains, same-instant bursts,
    call_in deliveries, manually triggered events (as in test_timing_wheel),
    plus the progress engines' wake path — an :class:`Engine` sleeping on a
    completion channel (sampled wake latency) or its kick, charging a
    library core it shares with a ``Cpu.work`` process — that feeds a
    consumer through delayed Store puts."""
    rnd = _lcg(seed)

    def chain_worker(wid):
        for i in range(15):
            d = DELAYS[next(rnd) % len(DELAYS)]
            v = yield sim.timeout(d, value=(wid, i))
            log.append(("w", wid, i, v, sim.now))

    def burst_worker(wid):
        for i in range(6):
            base = next(rnd) % 5000
            evs = [sim.timeout(base) for _ in range(next(rnd) % 4 + 2)]
            for j, t in enumerate(evs):
                t.add_callback(
                    lambda e, wid=wid, i=i, j=j: log.append(("b", wid, i, j, sim.now)))
            yield evs[0]
            log.append(("bw", wid, i, sim.now))
            yield sim.timeout(next(rnd) % 64)

    cpu = Cpu(sim)
    channel = CompletionChannel(sim, wakeup=lambda _rng: next(rnd) % 3)
    engine = Engine(sim, cpu, channel)
    mailbox = Store(sim)

    def engine_body():
        for lap in range(30):
            yield SLEEP
            log.append(("eng", lap, engine._kick_absorb, sim.now))
            mailbox.put(lap, delay=next(rnd) % 300)
            if next(rnd) % 3 == 0:
                yield next(rnd) % 50  # a library-core charge

    def core_worker():
        for i in range(20):
            yield from cpu.work(next(rnd) % 40)
            log.append(("core", i, sim.now))
            yield sim.timeout(next(rnd) % 400)

    def consumer_worker():
        for _ in range(30):
            item = yield mailbox.get()
            log.append(("app", item, sim.now))
            yield sim.timeout(next(rnd) % 200)

    engine.start(engine_body(), "test engine")
    sim.process(core_worker())
    sim.process(consumer_worker())
    for i in range(60):
        d = (next(rnd) % 600) * 16
        if next(rnd) % 2:
            sim.call_in(d, lambda _arg: engine.kick(), None)
        else:
            sim.call_in(d, lambda _arg: channel.notify(), None)
    for wid in range(4):
        sim.process(chain_worker(wid))
    for wid in range(2):
        sim.process(burst_worker(wid))
    for i in range(40):
        d = (next(rnd) % 40) * 128
        sim.call_in(d, lambda arg: log.append(("cb",) + arg), (i, d))
    for i in range(20):
        ev = Event(sim)
        ev.add_callback(lambda e, i=i: log.append(("ev", i, e._value, sim.now)))
        ev.succeed(value=i, delay=next(rnd) % 3)


def _policy(kind, seed):
    if kind == "fifo":
        return FifoPolicy()
    if kind == "random":
        return RandomTiebreakPolicy(seed=seed * 7 + 5)
    return None


def _make_sim(default, policy_kind, seed):
    """A simulator as a run configures one: *default* is the calendar the
    run names (``REPRO_KERNEL`` / ``calendar=``), honoured when there is no
    schedule policy.  A policy resolves to the heap whatever the default —
    and may not be combined with an explicit wheel — so those rows leave
    the choice to the kernel's rule."""
    policy = _policy(policy_kind, seed)
    return Simulator(schedule_policy=policy, calendar=None if policy else default)


def _fingerprint(backend, policy_kind, seed, capture):
    sim = _make_sim(backend, policy_kind, seed)
    rec = enable_capture(sim, CausalRecorder()) if capture else None
    log = []
    _build_workload(sim, seed, log)
    sim.run()
    return (tuple(log), sim.now, sim.events_executed), sim, rec


#: (default calendar, policy) — resolving to the four calendars a run can
#: be on: the C wheel, heap, heap + FifoPolicy, heap + random policy
CALENDARS = [("wheel", None), ("heap", None), ("wheel", "fifo"), ("wheel", "random")]


def _calendar_params(with_policy_none):
    for default, policy_kind in CALENDARS:
        label = default
        if policy_kind is not None or with_policy_none:
            label += f"-{policy_kind}"
        yield pytest.param(default, policy_kind, id=label)


# ----------------------------------------------------------------------
# equivalence: capture replays the identical schedule, every calendar
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [1, 2, 17])
@pytest.mark.parametrize("backend,policy_kind", _calendar_params(True))
def test_capture_is_schedule_identical(backend, policy_kind, seed):
    plain, _, _ = _fingerprint(backend, policy_kind, seed, capture=False)
    captured, sim, rec = _fingerprint(backend, policy_kind, seed, capture=True)
    assert plain == captured
    assert len(rec.nodes) > 0
    stats = sim.calendar_stats()
    heap = policy_kind or stats["accelerator"] == "unavailable"
    assert stats["backend"] == ("heap" if heap else backend)


def test_captured_run_matches_heap_reference():
    """Cross-calendar AND cross-capture: every FIFO-ordered combination
    (FifoPolicy included) agrees, captured or not."""
    results = {
        (b, p, c): _fingerprint(b, p, 23, capture=c)[0]
        for b, p in CALENDARS if p != "random"
        for c in (False, True)
    }
    assert len(set(results.values())) == 1


# ----------------------------------------------------------------------
# DAG structure
# ----------------------------------------------------------------------
def test_parent_links_and_tiling():
    _, sim, rec = _fingerprint("wheel", None, 5, capture=True)
    fired = [n for n in rec.nodes.values() if n.fire_ns >= 0]
    assert fired, "no nodes fired"
    rooted = 0
    for node in fired:
        assert node.fire_ns >= node.sched_ns
        if node.parent >= 0:
            parent = rec.node(node.parent)
            assert parent is not None
            # the child was scheduled during its parent's dispatch
            assert node.sched_ns == parent.fire_ns
        else:
            rooted += 1
    assert rooted > 0, "expected top-level placements with parent=-1"


def test_categories_recorded():
    sim = Simulator()
    rec = enable_capture(sim, CausalRecorder())
    log = []

    def proc():
        yield sim.timeout(10)
        sim.call_in(5, log.append, "x")
        ev = Event(sim)
        ev.succeed(delay=3)
        yield ev

    sim.process(proc())
    sim.run()
    cats = {n.category for n in rec.nodes.values()}
    assert {"process", "timeout", "call", "event"} <= cats


def test_named_callbacks_get_semantic_categories():
    sim = Simulator()
    rec = enable_capture(sim, CausalRecorder())

    class Engine:
        def _on_wire(self, arg):
            pass

        def _on_timer(self, arg):
            pass

    eng = Engine()
    sim.call_in(5, eng._on_wire, None)
    sim.call_in(7, eng._on_timer, None)
    sim.run()
    cats = sorted(n.category for n in rec.nodes.values())
    assert cats == ["link", "rto_timer"]


def test_annotate_last_attaches_meta():
    sim = Simulator()
    rec = enable_capture(sim, CausalRecorder())
    sim.call_in(10, lambda a: None, None)
    rec.annotate_last(1, queue_ns=2, tx_ns=5, prop_ns=3)
    sim.run()
    (node,) = rec.nodes.values()
    assert node.meta == {"queue_ns": 2, "tx_ns": 5, "prop_ns": 3}


# ----------------------------------------------------------------------
# flight ring bounds + failure dumps
# ----------------------------------------------------------------------
def test_ring_mode_bounds_memory():
    sim = Simulator()
    rec = enable_capture(sim, CausalRecorder(capacity=8))
    for i in range(50):
        sim.call_in(i, lambda a: None, None)
    sim.run()
    # at most the ring (8) plus any never-fired pending nodes (none here)
    assert len(rec.nodes) <= 8
    assert [n.cid for n in rec.fired_nodes()] == list(range(42, 50))


def test_failure_dump_parents_to_current_event(tmp_path):
    sim = Simulator()
    rec = enable_capture(
        sim, CausalRecorder(capacity=16, dump_dir=str(tmp_path),
                            scenario={"seed": 9}))

    def boom(arg):
        rec.failure("qp_error", sim.now, qpn=3)

    sim.call_in(100, boom, None)
    sim.run()
    assert len(rec.dumps) == 1
    dump = rec.last_dump
    assert dump["schema"] == "repro.flight/1"
    assert dump["reason"] == "qp_error"
    assert dump["scenario"] == {"seed": 9}
    # the synthetic failure node is parented to the event that was executing
    failure = dump["events"][-1]
    assert failure["category"] == "failure"
    cause = [n for n in dump["events"] if n["id"] == failure["parent"]]
    assert cause and cause[0]["category"] == "call"
    import json, os
    path = dump["path"]
    assert os.path.exists(path)
    with open(path) as fh:
        assert json.load(fh)["reason"] == "qp_error"


# ----------------------------------------------------------------------
# guards + step
# ----------------------------------------------------------------------
def test_enable_capture_rejects_pending_calendar():
    sim = Simulator()
    sim.call_in(5, lambda a: None, None)
    with pytest.raises(SimulationError):
        enable_capture(sim, CausalRecorder())


def test_enable_capture_rejects_double_enable():
    sim = Simulator()
    enable_capture(sim, CausalRecorder())
    with pytest.raises(SimulationError):
        enable_capture(sim, CausalRecorder())


@pytest.mark.parametrize("backend,policy_kind", _calendar_params(False))
def test_step_records(backend, policy_kind):
    sim = _make_sim(backend, policy_kind, 1)
    rec = enable_capture(sim, CausalRecorder())
    log = []
    sim.call_in(5, log.append, "a")
    sim.call_in(9, log.append, "b")
    sim.step()
    assert log == ["a"] and sim.now == 5
    sim.step()
    assert log == ["a", "b"] and sim.now == 9
    assert all(n.fire_ns >= 0 for n in rec.nodes.values())
    with pytest.raises(IndexError):
        sim.step()
