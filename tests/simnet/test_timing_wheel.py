"""Timing-wheel calendar: heap equivalence, rollover/cascade edges, public API.

The wheel backend must be *observationally identical* to the flat-heap
reference: same callback order, same clock readings, same values — in the
default FIFO order, and against :class:`FifoPolicy` on the heap (schedule
policies run on the heap calendar only).  The property tests here run one
deterministic event soup through both backends and compare complete trace
fingerprints; the edge-case tests pin the wheel's
boundary behaviour (slot rollover, L1 cascade, overflow horizon, batch
interruption) where an off-by-one would hide from the soup.
"""

import pytest

from repro.simnet import Event, Simulator, Timeout
from repro.simnet import _accel
from repro.simnet._core import S0_SIZE, WHEEL_HORIZON
from repro.simnet.kernel import SimulationError
from repro.simnet.schedule import FifoPolicy, RandomTiebreakPolicy

BACKENDS = ("wheel", "heap")


@pytest.fixture
def sim():
    """Override the conftest fixture: these tests pin *wheel* behaviour,
    so they must not silently flip when REPRO_KERNEL=heap is exported
    (the fallback CI job runs the whole suite that way)."""
    return Simulator(calendar="wheel")


# ----------------------------------------------------------------------
# property test: identical fingerprints across backends
# ----------------------------------------------------------------------
def _lcg(seed):
    """Tiny deterministic PRNG; no dependence on Python's hash or random."""
    state = (seed * 2654435761) & 0x7FFFFFFF or 1
    while True:
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        yield state


#: delay classes spanning every calendar tier: register/L0 (0..4095),
#: L1 (4096..horizon), overflow (>= horizon), and the exact boundaries
DELAYS = (
    0, 1, 3, 7, 100, 1000,
    S0_SIZE - 1, S0_SIZE, S0_SIZE + 1,
    17 * S0_SIZE, 100 * S0_SIZE,
    WHEEL_HORIZON - 1, WHEEL_HORIZON, WHEEL_HORIZON + 1,
    3 * WHEEL_HORIZON,
)


#: scene instants (see _structure_scenes)
T_DIRTY = 8 * S0_SIZE + 123       # an L1 entry, joined late by a direct insert
T_LATE = 8 * S0_SIZE - 100        # ... made from here, one bucket earlier
T_FAR = 3 * WHEEL_HORIZON + 777   # an overflow entry, joined the same way
TICK = 4099                       # the in-callback sampler's period


def _stats(sim):
    """calendar_stats() minus the keys that say *which* path ran."""
    return {k: v for k, v in sim.calendar_stats().items()
            if not k.startswith("accelerator")}


def _structure_scenes(sim, log, probes):
    """Deterministic scenes, one per structure-regime path of the wheel.

    The random soup below only *probably* reaches these; here each is
    constructed, and ``probes`` — (tag, now, peek(), calendar_stats())
    taken around it, most from inside a dispatched callback — lets a test
    prove it happened and compare what a callback can observe mid-drain.
    Must run first, on an empty calendar.
    """
    def probe(tag):
        probes.append((tag, sim.now, sim.peek(), _stats(sim)))

    def note(tag):
        log.append(("scene", tag, sim.now))

    def on_fire(tag):
        return lambda _e: note(tag)

    def raw_event(tag):
        ev = Event(sim)
        ev.add_callback(on_fire(tag))
        ev._ok, ev._value = True, tag
        return ev

    def zero_delay(tag):
        # all three placement calls with delay 0, plus schedule's 1-arg form
        sim.call_in(0, note, tag + "-call_in")
        sim.timeout(0).add_callback(on_fire(tag + "-timeout"))
        sim.schedule(raw_event(tag + "-schedule"), 0)
        sim.schedule(raw_event(tag + "-schedule1"))

    def first(_arg):
        # runs inside the live two-entry batch at t=5: same-instant
        # placements join it instead of entering the structures
        note("reg")
        probe("in-batch")
        zero_delay("join")
        probe("joined")

    def late(_arg):
        # bucket 8 has not cascaded (this entry, below its lower bound, was
        # pending until now), so the insert lands in the L0 slot *first* and
        # the cascade appends the older entry behind it: a dirty-slot sort
        probe("pre-direct")
        sim.timeout(T_DIRTY - T_LATE).add_callback(on_fire("dirty-new"))
        probe("post-direct")

    def near(_arg):
        # a direct L0 insert at an instant the overflow heap also holds
        probe("pre-merge")
        sim.timeout(50).add_callback(on_fire("far-new"))
        probe("post-merge")

    def _tick(k):
        probe("tick")
        if k:
            sim.call_in(TICK, _tick, k - 1)

    probe("empty")
    sim.call_in(5, first, None)          # parks in the register
    probe("parked")
    sim.call_in(5, note, "spill")        # spills it: two structure inserts
    probe("spilled")
    zero_delay("top")
    Timeout(sim, T_DIRTY).add_callback(lambda _e: (note("dirty-old"), probe("cascaded")))
    sim.call_in(T_LATE, late, None)
    Timeout(sim, T_FAR).add_callback(on_fire("far-old"))
    probe("overflowed")
    sim.call_in(T_FAR - 50, near, None)
    sim.call_in(1, _tick, 40)


def _build_workload(sim, seed, log, probes=None):
    """Deterministic event soup touching every scheduling surface.

    The single shared LCG is drawn from *at resume time*, so any ordering
    divergence between backends immediately derails every later draw —
    a small trace difference amplifies into a totally different run.
    """
    _structure_scenes(sim, log, [] if probes is None else probes)
    rnd = _lcg(seed)

    def chain_worker(wid):
        # dominant pattern: yield sim.timeout(...) chains (register + spin)
        for i in range(25):
            d = DELAYS[next(rnd) % len(DELAYS)]
            v = yield sim.timeout(d, value=(wid, i))
            log.append(("w", wid, i, v, sim.now))

    def burst_worker(wid):
        # same-instant bursts: schedule several events for one instant
        for i in range(8):
            base = next(rnd) % 5000
            evs = [sim.timeout(base) for _ in range(next(rnd) % 4 + 2)]
            for j, t in enumerate(evs):
                t.add_callback(
                    lambda e, wid=wid, i=i, j=j: log.append(("b", wid, i, j, sim.now)))
            yield evs[0]
            log.append(("bw", wid, i, sim.now))
            yield sim.timeout(next(rnd) % 64)

    for wid in range(6):
        sim.process(chain_worker(wid))
    for wid in range(3):
        sim.process(burst_worker(wid))
    # fire-and-forget deliveries across tiers, many same-instant collisions
    for i in range(60):
        d = (next(rnd) % 40) * 128
        sim.call_in(d, lambda arg: log.append(("cb",) + arg), (i, d))
    # manually triggered events with small delays (heavy collisions near 0)
    for i in range(30):
        ev = Event(sim)
        ev.add_callback(lambda e, i=i: log.append(("ev", i, e._value, sim.now)))
        ev.succeed(value=i, delay=next(rnd) % 3)


def _force_pure(sim):
    """Rebind a wheel simulator to its pure-Python paths.

    The C accelerator (see _accel.py) is a per-instance binding, so
    swapping the bound methods back *before any scheduling* yields the
    reference pure-Python behaviour on the same interpreter.
    """
    sim.schedule = sim._schedule_wheel
    sim.call_in = sim._call_in_wheel
    sim.timeout = sim._timeout_wheel
    sim._cdrain = None
    return sim


def _fingerprint(backend, policy, seed):
    sim = Simulator(schedule_policy=policy, calendar=backend)
    log = []
    _build_workload(sim, seed, log)
    sim.run()
    return tuple(log), sim.now, sim.events_executed


@pytest.mark.parametrize("seed", [1, 2, 3, 11, 29])
@pytest.mark.parametrize("policy_kind", [None, "fifo"])
def test_wheel_matches_heap_fingerprint(seed, policy_kind):
    """The plain wheel against the heap reference: bare, and under
    FifoPolicy — the regression probe that the policy calendar's
    (tiebreak, seq) keying reproduces the default order bit for bit."""
    policy = FifoPolicy() if policy_kind == "fifo" else None
    assert _fingerprint("wheel", None, seed) == _fingerprint("heap", policy, seed)


def test_fifo_policy_matches_no_policy_on_wheel():
    """The same probe through the selection rule: a FifoPolicy simulator
    (no calendar asked for) replays the plain wheel."""
    assert _fingerprint(None, FifoPolicy(), 5) == _fingerprint("wheel", None, 5)


def test_policy_selects_the_heap_calendar(monkeypatch):
    """One rule: a schedule policy runs on the heap, whatever the default;
    asking for the wheel as well is an error, not a silent switch."""
    for env in ("", "wheel", "heap"):
        monkeypatch.setenv("REPRO_KERNEL", env)
        sim = Simulator(schedule_policy=RandomTiebreakPolicy(seed=3))
        assert sim.calendar_stats()["backend"] == "heap"
    with pytest.raises(SimulationError, match="heap calendar"):
        Simulator(schedule_policy=FifoPolicy(), calendar="wheel")


# ----------------------------------------------------------------------
# wheel boundary edge cases
# ----------------------------------------------------------------------
def test_rollover_slot_wraparound(sim):
    """Delays straddling the L0 window from a mid-slot clock must not alias.

    With now=4000, a delay of 96 lands in slot 0 of the *next* wrap —
    the classic timing-wheel aliasing bug if the window bound is wrong.
    """
    order = []

    def proc():
        yield sim.timeout(4000)
        for d in (S0_SIZE + 1, 95, S0_SIZE - 1, 96, 0, S0_SIZE, 97, 1):
            Timeout(sim, d).add_callback(lambda e, d=d: order.append((d, sim.now)))

    sim.process(proc())
    sim.run()
    assert order == [(d, 4000 + d) for d in (0, 1, 95, 96, 97,
                                             S0_SIZE - 1, S0_SIZE, S0_SIZE + 1)]


def test_far_future_cascade_and_horizon(sim):
    """L1 buckets cascade intact and overflow entries re-enter in order."""
    order = []
    delays = [WHEEL_HORIZON + 1, 10 * S0_SIZE + 7, WHEEL_HORIZON - 1, 3,
              WHEEL_HORIZON, 10 * S0_SIZE + 7, 5 * WHEEL_HORIZON]
    for i, d in enumerate(delays):
        Timeout(sim, d).add_callback(lambda e, i=i, d=d: order.append((i, d, sim.now)))
    sim.run()
    assert [o[2] for o in order] == sorted(d for d in delays)
    # the same-instant L1 pair keeps schedule order after its cascade
    pair = [o for o in order if o[1] == 10 * S0_SIZE + 7]
    assert [o[0] for o in pair] == [1, 5]
    stats = sim.calendar_stats()
    assert stats["cascades"] >= 1
    assert stats["l1_inserts"] >= 2
    assert stats["overflow_inserts"] >= 3


def test_cascade_preserves_fifo_against_direct_inserts(sim):
    """Entries cascading from L1 carry older seqs than direct L0 inserts.

    Schedule a far entry first (via L1), then — once the clock is close —
    a same-instant direct insert.  FIFO order is by schedule time, so the
    cascaded (older) entry must still fire first.
    """
    T = 8 * S0_SIZE + 123
    order = []
    Timeout(sim, T).add_callback(lambda e: order.append("old"))

    def late_scheduler():
        yield sim.timeout(T - 10)
        Timeout(sim, 10).add_callback(lambda e: order.append("new"))

    sim.process(late_scheduler())
    sim.run()
    assert order == ["old", "new"]


def test_run_until_mid_calendar_restores_tail(sim):
    fired = []
    for i, d in enumerate((100, 200, 200, 200, 300)):
        Timeout(sim, d).add_callback(lambda e, i=i: fired.append((i, sim.now)))
    sim.run(until=150)
    assert sim.now == 150
    assert fired == [(0, 100)]
    assert sim.peek_next_time() == 200
    sim.run()
    assert fired == [(0, 100), (1, 200), (2, 200), (3, 200), (4, 300)]


def test_max_events_mid_batch_preserves_order(sim):
    """Tripping max_events inside a same-instant batch must not lose or
    reorder the undispatched tail."""
    fired = []
    for i in range(6):
        Timeout(sim, 50).add_callback(lambda e, i=i: fired.append(i))
    with pytest.raises(SimulationError, match="max_events"):
        sim.run(max_events=3)
    assert fired == [0, 1, 2]
    sim.run()
    assert fired == [0, 1, 2, 3, 4, 5]


def test_schedule_into_live_batch_joins_it(sim):
    """An event scheduled for *now* from inside a batch fires in the same
    batch, after everything already in it — the flat heap's behaviour."""
    order = []

    def first(e):
        order.append("first")
        Timeout(sim, 0).add_callback(lambda e: order.append("joined"))

    Timeout(sim, 10).add_callback(first)
    Timeout(sim, 10).add_callback(lambda e: order.append("second"))
    sim.run()
    assert order == ["first", "second", "joined"]


def test_peek_inside_live_batch_reports_now(sim):
    seen = []
    Timeout(sim, 10).add_callback(lambda e: seen.append(sim.peek()))
    Timeout(sim, 10).add_callback(lambda e: None)
    Timeout(sim, 99).add_callback(lambda e: None)
    sim.run()
    # peeked during the t=10 batch with a peer still pending -> 10, not 99
    assert seen == [10]


def test_step_interleaves_with_run(sim):
    order = []
    for i in range(4):
        Timeout(sim, 5).add_callback(lambda e, i=i: order.append(i))
    Timeout(sim, 9).add_callback(lambda e: order.append("late"))
    sim.step()
    assert order == [0]
    assert sim.now == 5
    sim.step()
    assert order == [0, 1]
    sim.run()
    assert order == [0, 1, 2, 3, "late"]
    with pytest.raises(IndexError):
        sim.step()


# ----------------------------------------------------------------------
# public introspection API + backend selection
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
def test_calendar_stats_surface(backend):
    sim = Simulator(calendar=backend)
    stats = sim.calendar_stats()
    assert stats["backend"] == backend
    assert stats["pending"] == 0
    assert stats["next_time"] is None

    def proc():
        for _ in range(50):
            yield sim.timeout(7)

    sim.process(proc())
    Timeout(sim, 20 * S0_SIZE)
    Timeout(sim, 2 * WHEEL_HORIZON)
    assert sim.calendar_stats()["pending"] == 3
    assert sim.peek_next_time() == 0  # process bootstrap event
    sim.run()
    stats = sim.calendar_stats()
    assert stats["pending"] == 0
    assert stats["events_executed"] == sim.events_executed > 50
    if backend == "wheel":
        assert stats["l1_inserts"] >= 1
        assert stats["overflow_inserts"] >= 1
        # chains reuse pooled timeouts via the stash
        assert stats["timeout_pool"] >= 1


def test_repro_kernel_env_selects_backend(monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL", "heap")
    assert Simulator().calendar_stats()["backend"] == "heap"
    monkeypatch.setenv("REPRO_KERNEL", "wheel")
    assert Simulator().calendar_stats()["backend"] == "wheel"
    monkeypatch.setenv("REPRO_KERNEL", "")
    assert Simulator().calendar_stats()["backend"] == "wheel"
    # explicit argument beats the environment
    monkeypatch.setenv("REPRO_KERNEL", "heap")
    assert Simulator(calendar="wheel").calendar_stats()["backend"] == "wheel"


def test_calendar_stats_say_whether_the_accelerator_is_live(monkeypatch):
    """"live" / "off" (not asked for) / "unavailable" (asked, not loadable)."""
    from repro.simnet import CausalRecorder, FifoPolicy, _accel, enable_capture

    def status(**kwargs):
        return Simulator(**kwargs).calendar_stats()["accelerator"]

    assert status(calendar="heap") == "off"
    under_policy = Simulator(schedule_policy=FifoPolicy()).calendar_stats()
    assert (under_policy["accelerator"], under_policy["backend"]) == ("off", "heap")
    loadable = _accel.load() is not None
    assert status(calendar="wheel") == ("live" if loadable else _accel.why_not())
    # capture wraps entries; it does not take the accelerator away
    captured = Simulator(calendar="wheel")
    enable_capture(captured, CausalRecorder())
    assert captured.calendar_stats()["accelerator"] == status(calendar="wheel")
    assert (captured._cdrain is not None) == loadable

    monkeypatch.setattr(_accel, "_state", None)  # as after a failed build
    monkeypatch.delenv("REPRO_KERNEL_C", raising=False)
    assert status(calendar="wheel") == "unavailable"
    monkeypatch.setenv("REPRO_KERNEL_C", "0")
    assert status(calendar="wheel") == "off"


def test_unavailable_accelerator_is_a_recorded_fact(monkeypatch, tmp_path, recwarn):
    """A failing compiler costs ~20 % of host speed, so it is not silent:
    one RuntimeWarning per process, and the first line of the failure in
    calendar_stats() on every backend and in the run report's meta line.
    REPRO_KERNEL_C=0 is a choice, not a failure: "off", no warning."""
    import subprocess
    import warnings

    def failing_cc(cmd, **kwargs):
        return subprocess.CompletedProcess(
            cmd, 1, b"", b"_speedup.c:1:1: error: no Python.h here\ncompilation terminated.\n")

    monkeypatch.setattr(subprocess, "run", failing_cc)
    monkeypatch.setenv("REPRO_ACCEL_CACHE", str(tmp_path))  # nothing cached
    monkeypatch.delenv("REPRO_KERNEL_C", raising=False)
    monkeypatch.setattr(_accel, "_state", "unloaded")
    monkeypatch.setattr(_accel, "_reason", None)
    warnings.simplefilter("always")
    sims = [Simulator(calendar="wheel"), Simulator(calendar="wheel"),
            Simulator(calendar="heap")]
    reason = "RuntimeError: accelerator compile failed: _speedup.c:1:1: error: no Python.h here"
    assert _accel.failure_reason() == reason
    for sim in sims[:2]:
        stats = sim.calendar_stats()
        assert (stats["accelerator"], stats["accelerator_reason"]) == ("unavailable", reason)
        assert sim._cdrain is None and type(sim.timeout).__name__ == "method"
    heap = sims[2].calendar_stats()  # never asked for it: off, and no reason
    assert (heap["accelerator"], heap["accelerator_reason"]) == ("off", None)
    assert [str(w.message) for w in recwarn.list if w.category is RuntimeWarning] == [
        f"repro.simnet: C kernel accelerator unavailable, running the pure-Python kernels ({reason})"
    ]

    recwarn.clear()
    monkeypatch.setenv("REPRO_KERNEL_C", "0")
    monkeypatch.setattr(_accel, "_state", "unloaded")
    monkeypatch.setattr(_accel, "_reason", None)
    stats = Simulator(calendar="wheel").calendar_stats()
    assert (stats["accelerator"], stats["accelerator_reason"]) == ("off", None)
    assert not recwarn.list and _accel.failure_reason() is None


def test_unknown_backend_rejected():
    with pytest.raises(SimulationError, match="calendar backend"):
        Simulator(calendar="btree")


def test_removed_kernel_in_the_environment_is_refused(monkeypatch):
    """A plain Simulator reads REPRO_KERNEL itself; a removed kernel name
    there is an error naming the valid calendars, never a quiet wheel."""
    monkeypatch.setenv("REPRO_KERNEL", "cells")
    with pytest.raises(SimulationError, match="'wheel' or 'heap'"):
        Simulator()


# ----------------------------------------------------------------------
# C accelerator (skipped wholesale when the compile/handshake failed)
# ----------------------------------------------------------------------
accel = pytest.mark.skipif(
    _accel.load() is None, reason="C accelerator unavailable on this host"
)


def _soup(seed, pure):
    """A wheel simulator (C paths, or forced pure) loaded with the soup."""
    sim = Simulator(calendar="wheel")
    if pure:
        _force_pure(sim)
    log, probes = [], []
    _build_workload(sim, seed, log, probes)
    return sim, log, probes


def _by_tag(probes):
    return {tag: stats for tag, _now, _peek, stats in probes}


@accel
@pytest.mark.parametrize("seed", [3, 7, 29])
def test_accel_matches_pure_python_fingerprint(seed):
    """The compiled placement + run loop must be bit-identical to the
    pure-Python wheel on the full event soup: dispatch order, everything a
    callback can observe mid-drain (peek(), calendar_stats()), and every
    calendar counter at the end — perf/'s fingerprints hash
    events_executed, max_batch and overflow_inserts."""
    runs = []
    for pure in (False, True):
        sim, log, probes = _soup(seed, pure)
        sim.run()
        runs.append((log, probes, _stats(sim)))
    (c_log, c_probes, c_stats), (p_log, p_probes, p_stats) = runs
    assert c_log == p_log
    assert c_probes == p_probes
    assert c_stats == p_stats
    assert len([p for p in c_probes if p[0] == "tick"]) == 41


def test_soup_exercises_the_structure_regime():
    """The scenes do what they say (so the comparison above covers them):
    register park and spill, live-batch joins, a cascade into a slot that
    already holds a direct insert, an overflow entry merging into an
    occupied instant — on whichever path this platform runs."""
    sim, log, probes = _soup(3, pure=False)
    sim.run()
    at = _by_tag(probes)
    assert (at["parked"]["pending"], at["parked"]["l0_inserts"]) == (1, 0)
    assert (at["spilled"]["pending"], at["spilled"]["l0_inserts"]) == (2, 2)
    # joining the live batch is not a structure insert
    joined, before = at["joined"], at["in-batch"]
    assert joined["pending"] == before["pending"] + 4
    for key in ("l0_inserts", "l1_inserts", "overflow_inserts"):
        assert joined[key] == before[key]
    assert at["overflowed"]["overflow_inserts"] >= 1 and at["overflowed"]["l1_inserts"] >= 1
    # direct L0 inserts, made before the older entry arrived in the slot
    for pre, post in (("pre-direct", "post-direct"), ("pre-merge", "post-merge")):
        assert at[post]["l0_inserts"] == at[pre]["l0_inserts"] + 1
        assert at[post]["cascades"] == at[pre]["cascades"]
    assert at["cascaded"]["cascades"] > at["post-direct"]["cascades"]
    scenes = [(tag, now) for kind, tag, now in (e for e in log if e[0] == "scene")]
    order = [tag for tag, _ in scenes]
    assert order.index("dirty-old") + 1 == order.index("dirty-new")
    assert order.index("far-old") + 1 == order.index("far-new")
    assert ("dirty-old", T_DIRTY) in scenes and ("far-new", T_FAR) in scenes
    # delay-0 placements: from the top level they fire at t=0 in call
    # order; from inside the t=5 batch they run in it, after its entries
    zero = ["-call_in", "-timeout", "-schedule", "-schedule1"]
    assert order[:4] == ["top" + z for z in zero]
    assert order[4:10] == ["reg", "spill"] + ["join" + z for z in zero]
    assert all(now == 5 for _tag, now in scenes[4:10])


def _boom(_arg):
    raise RuntimeError("boom")


def _interrupt(kind, sim, at=T_LATE):
    """Cut a run short one of the ways a run can be cut short; *at* is an
    instant the calendar holds entries for."""
    if kind == "raise":
        with pytest.raises(RuntimeError, match="boom"):
            sim.run()
    elif kind == "until-event":
        target = Event(sim)
        target.succeed("stop", delay=at)  # mid-batch: peers stay pending
        assert sim.run(until=target) == "stop"
    elif kind == "until-between":
        sim.run(until=at - 1)
    elif kind == "until-on":
        sim.run(until=at)
    else:
        with pytest.raises(SimulationError, match=rf"exceeded max_events={kind}\b"):
            sim.run(max_events=kind)


@accel
@pytest.mark.parametrize("kind", ["raise", "until-event", "until-between",
                                  "until-on", 8, 1, 300])
def test_interrupted_runs_resume_identically(kind):
    """A run cut short — a raising callback, run(until=event), run(until=t)
    between and on instants, max_events tripping mid-batch and between
    batches — leaves the same calendar under C and pure: the same counts,
    the same pure step()s, and the same remaining order in a second run()."""
    phases = []
    for pure in (False, True):
        sim, log, probes = _soup(11, pure)
        for d in (0, T_LATE):
            # the middle entry of three same-instant peers, so a tail is
            # always left to restore
            sim.call_in(d, lambda _a: None, None)
            if kind == "raise":
                sim.call_in(d, _boom, None)
            sim.call_in(d, lambda _a: None, None)
        seen = []
        _interrupt(kind, sim)
        seen.append((len(log), sim.now, sim.peek(), _stats(sim)))
        for _ in range(7):
            sim.step()
            seen.append((len(log), sim.now, sim.peek(), _stats(sim)))
        if kind == "raise":
            _interrupt(kind, sim)  # the second _boom, later in the calendar
            seen.append((len(log), sim.now, sim.peek(), _stats(sim)))
        sim.run()
        seen.append((log, probes, sim.now, _stats(sim)))
        phases.append(seen)
    assert phases[0] == phases[1]
    if kind == "until-between":
        assert phases[0][0][1] == T_LATE - 1 and phases[0][0][2] == T_LATE
    if kind == "until-on":
        assert phases[0][0][1] == T_LATE and phases[0][0][2] > T_LATE
    if kind == 8:  # tripped inside the t=0 batch: its tail went back
        assert phases[0][0][1] == phases[0][0][2] == 0


@accel
@pytest.mark.parametrize("kind", ["raise", "until-between", "until-on", 57, "until-self"])
def test_register_regime_gates_match_pure(kind):
    """The same, in the register regime — the soup never is: a placement
    made from inside a batch goes to the structures, so only a lone chain
    started on an empty calendar spins through the register.  The stop time
    and the event cap are checked per event there, between chain links."""
    phases = []
    for pure in (False, True):
        sim = Simulator(calendar="wheel")
        if pure:
            _force_pure(sim)
        log = []

        def chain():
            for i in range(300):
                t = sim.timeout(100, i)
                if i == 150 and kind == "raise":
                    t.add_callback(_boom)  # first waiter: runs instead of the resume
                elif i % 50 == 7:
                    # an earlier waiter makes the process an overflow (_cbs)
                    # waiter: the plain-callback branch, then the resume
                    t.add_callback(lambda e: log.append(("cb", e._value, sim.now)))
                log.append((i, (yield t), sim.now))
            return "done"

        proc = sim.process(chain())
        if kind == "until-self":
            assert sim.run(until=proc) == "done"
            seen = [(list(log), sim.now, sim.peek(), _stats(sim))]
        else:
            _interrupt(kind, sim, at=12_300)
            seen = [(list(log), sim.now, sim.peek(), _stats(sim))]
            assert sim.calendar_stats()["batches"] == 0  # never left the register
            # (the raise took the chain's only resume with it: nothing left)
            for _ in range(0 if kind == "raise" else 5):
                sim.step()
                seen.append((list(log), sim.now, sim.peek(), _stats(sim)))
        sim.run()
        seen.append((log, sim.now, sim.peek(), _stats(sim)))
        phases.append(seen)
    assert phases[0] == phases[1]
    _log, now, peek, stats = phases[0][0]
    if kind == "until-between":
        assert (now, peek, stats["events_executed"]) == (12_299, 12_300, 123)
    if kind == "until-on":
        assert (now, peek, stats["events_executed"]) == (12_300, 12_400, 124)
    if kind == 57:
        assert (now, peek, stats["events_executed"]) == (5_600, 5_700, 57)


BAD_DELAYS = [
    (-1, "cannot schedule in the past (delay=-1)", "negative timeout: -1"),
    (1.5, "delay must be an int number of ns, got float", None),
    (True, "delay must be an int number of ns, got bool", None),
]


@accel
@pytest.mark.parametrize("delay, text, timeout_text", BAD_DELAYS)
def test_bad_delays_raise_the_same_error_on_both_paths(delay, text, timeout_text):
    """-1 / 1.5 / True are refused by all three placement calls with the
    pure methods' messages (the C entry points hand them over), from an
    empty calendar, a live batch and a busy one, pools and stash intact."""
    outcomes = []
    for pure in (False, True):
        sim = Simulator(calendar="wheel")
        if pure:
            _force_pure(sim)
        seen = []

        def attempt(_arg=None):
            before = _stats(sim)
            for call in (lambda: sim.schedule(Event(sim), delay),
                         lambda: sim.call_in(delay, print, None),
                         lambda: sim.timeout(delay),
                         lambda: sim.timeout(delay, "v")):
                with pytest.raises(SimulationError) as err:
                    call()
                seen.append(str(err.value))
            after = _stats(sim)
            # a fresh Timeout counts its allocation before __init__ refuses
            # the delay; nothing else moves — stash, pools and calendar stay
            assert after.pop("timeout_allocs") - before.pop("timeout_allocs") in (0, 2)
            assert after == before
            seen.append(after)

        attempt()                          # empty calendar, empty pools
        def chain():
            for _ in range(4):
                yield sim.timeout(3)
        sim.process(chain())
        for _ in range(3):
            sim.call_in(20, lambda _a: None, None)
        sim.call_in(20, attempt)           # inside a live batch, pools filled
        sim.call_in(90, lambda _a: None, None)
        sim.run(until=50)
        assert sim.calendar_stats()["timeout_pool"] >= 1
        attempt()                          # between runs, one entry pending
        sim.run()
        outcomes.append(seen)
    assert outcomes[0] == outcomes[1]
    messages = [m for m in outcomes[0] if isinstance(m, str)]
    assert messages == [text, text, timeout_text or text, timeout_text or text] * 3


@accel
def test_accel_binds_compiled_paths():
    """Placement and the run loop are builtins on an exact wheel Simulator;
    heap / policy / subclass instances keep the pure methods."""
    sim = Simulator(calendar="wheel")
    for bound in (sim.schedule, sim.call_in, sim.timeout, sim._cdrain):
        assert type(bound).__name__ == "builtin_function_or_method"
    assert type(sim.step).__name__ == type(sim.peek).__name__ == "method"

    class Sub(Simulator):
        __slots__ = ()

    for pure in (Simulator(schedule_policy=FifoPolicy()),
                 Simulator(calendar="heap"), Sub(calendar="wheel")):
        assert pure._cdrain is None
        for bound in (pure.schedule, pure.call_in, pure.timeout):
            assert type(bound).__name__ == "method"
    # the C entry points refuse a simulator whose wheel slots do not exist
    with pytest.raises(TypeError, match="timing-wheel Simulator"):
        _accel.load().bind_wheel_drain(Simulator(calendar="heap"))


def test_accel_env_disable(monkeypatch):
    """REPRO_KERNEL_C=0 forces the pure-Python kernel paths."""
    monkeypatch.setenv("REPRO_KERNEL_C", "0")
    monkeypatch.setattr(_accel, "_state", "unloaded")
    sim = Simulator(calendar="wheel")
    assert sim._cdrain is None
    assert type(sim.timeout).__name__ == "method"


@accel
def test_accel_spin_exception_and_count(sim):
    """An exception escaping a process mid-chain propagates out of run()
    with the interrupted event already counted (count-before-dispatch)."""
    before = []

    def chain():
        for i in range(5):
            yield sim.timeout(10)
            before.append(i)
        raise RuntimeError("boom")

    p = sim.process(chain())
    sim.run()  # the failure is captured by the process event, not raised
    assert before == [0, 1, 2, 3, 4]
    assert p.ok is False
    with pytest.raises(RuntimeError, match="boom"):
        p.result()
    # bootstrap + 5 timeouts + the final resume that raised = 7
    assert sim.events_executed == 7


@accel
def test_accel_stop_on_target_mid_chain(sim):
    """StopSimulation from run(until=process) unwinds through the C drain
    with the partial count handed back exactly."""

    def finite():
        for _ in range(3):
            yield sim.timeout(100)
        return "done"

    p = sim.process(finite())
    assert sim.run(until=p) == "done"
    assert sim.now == 300
    # bootstrap + timeouts at 100/200/300 + the completion event whose
    # callback raised StopSimulation = 5 (counted before dispatch)
    assert sim.events_executed == 5
