"""Timing-wheel calendar: heap equivalence, rollover/cascade edges, public API.

The wheel (which exists only in C) must be *observationally identical* to
the flat-heap reference: same callback order, same clock readings, same
``peek()`` and ``pending`` — in the default FIFO order, and against
:class:`FifoPolicy` on the heap (schedule policies run on the heap
calendar only).  The property tests here run one deterministic event soup
through both calendars and compare complete trace fingerprints, also
across runs cut short and resumed; the edge-case tests pin the wheel's
boundary behaviour (slot rollover, L1 cascade, overflow horizon, batch
interruption) where an off-by-one would hide from the soup, and its
structure counters — which the heap does not have — are pinned at values
worked out by hand.
"""

import pytest

from repro.simnet import Event, Simulator, Timeout
from repro.simnet import _accel
from repro.simnet._core import S0_SIZE, WHEEL_HORIZON
from repro.simnet.kernel import SimulationError
from repro.simnet.schedule import FifoPolicy, RandomTiebreakPolicy

#: the wheel is C: on a host that cannot build it, a wheel request runs the
#: heap, so tests that pin wheel behaviour skip there
accel = pytest.mark.skipif(
    _accel.load() is None, reason="C accelerator unavailable on this host"
)

BACKENDS = ("wheel", "heap")


@pytest.fixture
def sim():
    """Override the conftest fixture: these tests pin *wheel* behaviour,
    so they must not silently flip when REPRO_KERNEL=heap is exported
    (the fallback CI job runs the whole suite that way)."""
    if _accel.load() is None:
        pytest.skip("C accelerator unavailable on this host")
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


def _observed(sim):
    """What both calendars define at a run() boundary."""
    return sim.now, sim.peek(), sim.calendar_stats()["pending"], sim.events_executed


def _probed(probes):
    """The probes as both calendars define them: ``events_executed`` lags
    inside a wheel batch, and the structure counters are the wheel's own."""
    return [(tag, now, peek, stats["pending"]) for tag, now, peek, stats in probes]


def _structure_scenes(sim, log, probes):
    """Deterministic scenes, one per structure-regime path of the wheel.

    The random soup below only *probably* reaches these; here each is
    constructed, and ``probes`` — (tag, now, peek(), calendar_stats())
    taken around it, most from inside a dispatched callback — lets a test
    prove it happened and compare what a callback can observe mid-drain.
    Must run first, on an empty calendar.
    """
    def probe(tag):
        probes.append((tag, sim.now, sim.peek(), sim.calendar_stats()))

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
@pytest.mark.parametrize("backend", [pytest.param("wheel", marks=accel), "heap"])
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


@accel
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
    """"live" (the C wheel) / "off" (the heap, asked for) / "unavailable"
    (the wheel asked for, not loadable: the heap runs)."""
    from repro.simnet import CausalRecorder, FifoPolicy, _accel, enable_capture

    def status(**kwargs):
        stats = Simulator(**kwargs).calendar_stats()
        return stats["backend"], stats["accelerator"]

    assert status(calendar="heap") == ("heap", "off")
    assert status(schedule_policy=FifoPolicy()) == ("heap", "off")
    loadable = _accel.load() is not None
    wheel = ("wheel", "live") if loadable else ("heap", "unavailable")
    assert status(calendar="wheel") == wheel
    # capture wraps entries; it does not take the accelerator away
    captured = Simulator(calendar="wheel")
    enable_capture(captured, CausalRecorder())
    captured_stats = captured.calendar_stats()
    assert (captured_stats["backend"], captured_stats["accelerator"]) == wheel
    assert (captured._cdrain is not None) == loadable

    monkeypatch.setattr(_accel, "_state", None)  # as after a failed build
    assert status(calendar="wheel") == ("heap", "unavailable")
    assert status(calendar="heap") == ("heap", "off")


def test_unavailable_accelerator_is_a_recorded_fact(monkeypatch, tmp_path, recwarn):
    """A failing compiler turns every wheel into the heap, which costs host
    speed, so it is not silent: one RuntimeWarning per process naming the
    heap, and the first line of the failure in calendar_stats() and in the
    run report's meta line."""
    import shutil
    import subprocess
    import warnings

    def failing_cc(cmd, **kwargs):
        return subprocess.CompletedProcess(
            cmd, 1, b"", b"_speedup.c:1:1: error: no Python.h here\ncompilation terminated.\n")

    monkeypatch.setattr(shutil, "which", lambda name: f"/usr/bin/{name}")  # a compiler...
    monkeypatch.setattr(subprocess, "run", failing_cc)  # ...that fails
    monkeypatch.setenv("REPRO_ACCEL_CACHE", str(tmp_path))  # nothing cached
    monkeypatch.setattr(_accel, "_state", "unloaded")
    monkeypatch.setattr(_accel, "_reason", None)
    warnings.simplefilter("always")
    sims = [Simulator(calendar="wheel"), Simulator(calendar="wheel"),
            Simulator(calendar="heap")]
    reason = "RuntimeError: accelerator compile failed: _speedup.c:1:1: error: no Python.h here"
    assert _accel.failure_reason() == reason
    for sim in sims[:2]:
        stats = sim.calendar_stats()
        assert (stats["backend"], stats["accelerator"], stats["accelerator_reason"]) == (
            "heap", "unavailable", reason)
        assert sim._cdrain is None and type(sim.timeout).__name__ == "method"
    heap = sims[2].calendar_stats()  # never asked for the wheel: off, and no reason
    assert (heap["accelerator"], heap["accelerator_reason"]) == ("off", None)
    assert [str(w.message) for w in recwarn.list if w.category is RuntimeWarning] == [
        f"repro.simnet: C kernel accelerator unavailable, running the heap calendar ({reason})"
    ]


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
# the C wheel against the heap reference (skipped when it cannot build)
# ----------------------------------------------------------------------
def _soup(seed, calendar):
    """A simulator on *calendar* loaded with the soup."""
    sim = Simulator(calendar=calendar)
    log, probes = [], []
    _build_workload(sim, seed, log, probes)
    return sim, log, probes


def _by_tag(probes):
    return {tag: stats for tag, _now, _peek, stats in probes}


@accel
@pytest.mark.parametrize("seed", [3, 7, 29])
def test_accel_matches_heap_fingerprint(seed):
    """The C wheel must be bit-identical to the heap on the full event soup:
    dispatch order, what a callback can observe mid-drain (now, peek(),
    pending), and the clock, peek(), pending and events_executed at the
    end."""
    runs = []
    for calendar in BACKENDS:
        sim, log, probes = _soup(seed, calendar)
        sim.run()
        assert sim.calendar_stats()["backend"] == calendar
        runs.append((log, _probed(probes), _observed(sim)))
    (c_log, c_probes, c_end), (h_log, h_probes, h_end) = runs
    assert c_log == h_log
    assert c_probes == h_probes
    assert c_end == h_end
    assert len([p for p in c_probes if p[0] == "tick"]) == 41


#: the scenes alone on an empty wheel — per probe: (pending, l0_inserts,
#: l1_inserts, overflow_inserts, cascades, batches, max_batch), derived by
#: walking the scene through the wheel's rules.  The sampler ticks at
#: t = 1 + 4099k (k = 0..40), so tick k sits in L1 bucket k at slot 1 + 3k,
#: and every re-arm (d = 4099 from a base re-anchored to the tick) is an L1
#: insert; T_LATE shares bucket 7 with tick 7 and T_DIRTY bucket 8 with
#: tick 8, so buckets 1..40 cascade once each.
SCENE_COUNTERS = {
    "empty": (0, 0, 0, 0, 0, 0, 0),
    "parked": (1, 0, 0, 0, 0, 0, 0),      # call_in(5) parks in the register
    "spilled": (2, 2, 0, 0, 0, 0, 0),     # the second spills it: 2 L0 inserts
    # four delay-0 placements into L0, T_DIRTY and T_LATE into L1, T_FAR overflows
    "overflowed": (9, 6, 2, 1, 0, 0, 0),
    # inside the t=5 batch (2 entries, one taken): T_FAR-50 overflowed, the
    # tick at t=1 was placed (L0) and re-armed (L1); batches t=0 (4) and t=1
    "in-batch": (6, 7, 3, 2, 0, 2, 4),
    "joined": (10, 7, 3, 2, 0, 2, 4),     # four joins of the live batch
    # T_LATE's batch: buckets 1..7 cascaded, ticks 0..7 re-armed
    "pre-direct": (4, 7, 10, 2, 7, 10, 6),
    "post-direct": (5, 8, 10, 2, 7, 10, 6),
    # T_DIRTY's batch (old + new, one taken): bucket 8 cascaded, tick 8 re-armed
    "cascaded": (4, 8, 11, 2, 8, 12, 6),
    # T_FAR-50: every tick ran (41 batches) and re-armed but the last
    "pre-merge": (1, 8, 42, 2, 40, 45, 6),
    "post-merge": (2, 9, 42, 2, 40, 45, 6),
}
COUNTER_KEYS = ("pending", "l0_inserts", "l1_inserts", "overflow_inserts",
                "cascades", "batches", "max_batch")


@accel
def test_structure_scenes_pin_the_wheel_counters():
    """The wheel-only counters, from the constructed scenes: register park
    and spill, live-batch joins, L1 cascades into a slot that already holds
    a direct insert, an overflow entry merging into an occupied instant."""
    sim = Simulator(calendar="wheel")
    log, probes = [], []
    _structure_scenes(sim, log, probes)
    sim.run()
    at = _by_tag(probes)
    for tag, want in SCENE_COUNTERS.items():
        assert tuple(at[tag][k] for k in COUNTER_KEYS) == want, tag
    # 57 entries in 47 batches: t=0 (4), t=5 (6 with the joins), T_LATE,
    # T_DIRTY (2), 41 ticks, T_FAR-50 and T_FAR (old + new)
    final = sim.calendar_stats()
    assert tuple(final[k] for k in COUNTER_KEYS) == (0, 9, 42, 2, 40, 47, 6)
    assert (final["events_executed"], final["batched_events"], final["now"]) == (57, 57, T_FAR)
    # one Timeout allocated (the top-level delay-0 one); the joins', T_LATE's
    # and T_FAR-50's came from the stash.  Six call_in allocations; every
    # sampler re-arm and the join reused a pooled entry.
    assert (final["timeout_allocs"], final["timeout_reuses"], final["timeout_pool"]) == (1, 3, 3)
    assert (final["cbe_allocs"], final["cbe_reuses"]) == (6, 41)


@accel
def test_soup_exercises_the_structure_regime():
    """The scenes still do what they say inside the soup (so the heap
    comparison above covers them)."""
    sim, log, probes = _soup(3, "wheel")
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
    batches — leaves the same calendar on the C wheel and the heap: the
    same clock, peek(), pending and count, the same step()s, and the same
    remaining order in a second run()."""
    phases = []
    for calendar in BACKENDS:
        sim, log, probes = _soup(11, calendar)
        for d in (0, T_LATE):
            # the middle entry of three same-instant peers, so a tail is
            # always left to restore
            sim.call_in(d, lambda _a: None, None)
            if kind == "raise":
                sim.call_in(d, _boom, None)
            sim.call_in(d, lambda _a: None, None)
        seen = []
        _interrupt(kind, sim)
        seen.append((len(log),) + _observed(sim))
        for _ in range(7):
            sim.step()
            seen.append((len(log),) + _observed(sim))
        if kind == "raise":
            _interrupt(kind, sim)  # the second _boom, later in the calendar
            seen.append((len(log),) + _observed(sim))
        sim.run()
        seen.append((log, _probed(probes)) + _observed(sim))
        phases.append(seen)
    assert phases[0] == phases[1]
    _n, now, peek, _pending, _count = phases[0][0]
    if kind == "until-between":
        assert (now, peek) == (T_LATE - 1, T_LATE)
    if kind == "until-on":
        assert now == T_LATE and peek > T_LATE
    if kind == 8:  # tripped inside the t=0 batch: its tail went back
        assert now == peek == 0


@accel
@pytest.mark.parametrize("kind", ["raise", "until-between", "until-on", 57, "until-self"])
def test_register_regime_gates_match_heap(kind):
    """The same, in the wheel's register regime — the soup never is: a
    placement made from inside a batch goes to the structures, so only a
    lone chain started on an empty calendar spins through the register.
    The stop time and the event cap are checked per event there, between
    chain links."""
    phases = []
    for calendar in BACKENDS:
        sim = Simulator(calendar=calendar)
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
            seen = [(list(log),) + _observed(sim)]
        else:
            _interrupt(kind, sim, at=12_300)
            seen = [(list(log),) + _observed(sim)]
            if calendar == "wheel":
                assert sim.calendar_stats()["batches"] == 0  # never left the register
            for _ in range(0 if kind == "raise" else 5):
                sim.step()
                seen.append((list(log),) + _observed(sim))
        if kind == "raise":
            # (the raise took the chain's only resume with it: the drain
            # strands the process, and says where)
            with pytest.raises(SimulationError, match=r"deadlock: .* 'chain' in chain") as info:
                sim.run()
            seen.append((log, str(info.value)) + _observed(sim))
        else:
            sim.run()
            seen.append((log,) + _observed(sim))
        phases.append(seen)
    assert phases[0] == phases[1]
    _log, now, peek, _pending, count = phases[0][0]
    if kind == "until-between":
        assert (now, peek, count) == (12_299, 12_300, 123)
    if kind == "until-on":
        assert (now, peek, count) == (12_300, 12_400, 124)
    if kind == 57:
        assert (now, peek, count) == (5_600, 5_700, 57)


BAD_DELAYS = [
    (-1, "cannot schedule in the past (delay=-1)", "negative timeout: -1"),
    (-1.5, "delay must be an int number of ns, got float", "negative timeout: -1.5"),
    (1.5, "delay must be an int number of ns, got float", None),
    (True, "delay must be an int number of ns, got bool", None),
]


@accel
@pytest.mark.parametrize("delay, text, timeout_text", BAD_DELAYS)
def test_bad_delays_raise_the_same_error_on_both_calendars(delay, text, timeout_text):
    """-1 / -1.5 / 1.5 / True are refused by all three placement calls, positional
    and keyword-spelled, with one set of messages (the C wheel's odd calls
    and the heap share one check), from an empty calendar, a live batch
    and a busy one — pools, stash and calendar intact."""
    outcomes = []
    for calendar in BACKENDS:
        sim = Simulator(calendar=calendar)
        seen = []

        def attempt(_arg=None):
            before = sim.calendar_stats()
            for call in (lambda: sim.schedule(Event(sim), delay),
                         lambda: sim.schedule(Event(sim), delay=delay),
                         lambda: sim.call_in(delay, print, None),
                         lambda: sim.call_in(delay=delay, fn=print),
                         lambda: sim.timeout(delay),
                         lambda: sim.timeout(delay, value="v")):
                with pytest.raises(SimulationError) as err:
                    call()
                seen.append(str(err.value))
            after = sim.calendar_stats()
            # the heap counts a Timeout's allocation before __init__ refuses
            # the delay; nothing else moves
            assert after.pop("timeout_allocs") - before.pop("timeout_allocs") in (0, 2)
            assert after == before
            seen.append((sim.now, sim.peek(), after["pending"]))

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
        if calendar == "wheel":  # (the heap keeps no Timeout freelist)
            assert sim.calendar_stats()["timeout_pool"] >= 1
        attempt()                          # between runs, one entry pending
        sim.run()
        outcomes.append(seen)
    assert outcomes[0] == outcomes[1]
    messages = [m for m in outcomes[0] if isinstance(m, str)]
    assert messages == [text] * 4 + [timeout_text or text] * 2 + [text] * 4 + \
        [timeout_text or text] * 2 + [text] * 4 + [timeout_text or text] * 2


@accel
@pytest.mark.parametrize("calendar", BACKENDS)
def test_keyword_spellings_place_like_positional_ones(calendar):
    """The C entry points bind keywords as the heap's Python signatures do."""
    sim = Simulator(calendar=calendar)
    order = []
    sim.timeout(delay=5, value="kw").add_callback(lambda e: order.append((e.result(), sim.now)))
    sim.call_in(fn=lambda a: order.append((a, sim.now)), arg="call", delay=3)
    ev = Event(sim)
    ev._ok, ev._value = True, "sched"
    ev.add_callback(lambda e: order.append((e._value, sim.now)))
    sim.schedule(delay=4, event=ev)
    sim.run()
    assert order == [("call", 3), ("sched", 4), ("kw", 5)]
    with pytest.raises(TypeError, match="unexpected keyword argument 'when'"):
        sim.call_in(print, when=3)
    with pytest.raises(TypeError, match="multiple values for argument 'delay'"):
        sim.timeout(1, delay=2)
    with pytest.raises(TypeError, match="missing 1 required positional argument: 'fn'"):
        sim.call_in(1)


@accel
def test_accel_binds_compiled_paths():
    """Placement, step(), peek(), advance() and the run loop are builtins on every
    wheel Simulator, subclasses included; heap / policy instances keep the
    Python methods."""

    class Sub(Simulator):
        __slots__ = ()

    for sim in (Simulator(calendar="wheel"), Sub(calendar="wheel")):
        for bound in (sim.schedule, sim.call_in, sim.timeout, sim.step, sim.peek, sim.advance,
                      sim._cdrain):
            assert type(bound).__name__ == "builtin_function_or_method"
    for heap in (Simulator(schedule_policy=FifoPolicy()), Simulator(calendar="heap")):
        assert heap._cdrain is None
        for bound in (heap.schedule, heap.call_in, heap.timeout, heap.step, heap.peek,
                      heap.advance):
            assert type(bound).__name__ == "method"
    # the C entry points refuse a simulator whose wheel slots do not exist
    with pytest.raises(TypeError, match="timing-wheel Simulator"):
        _accel.load().bind_wheel(Simulator(calendar="heap"))


@accel
@pytest.mark.parametrize("calendar", BACKENDS)
def test_accel_spin_exception_and_count(calendar):
    """A process failing mid-chain, with nothing waiting on it, ends run()
    with a SimulationError chained to its exception, the event that
    raised already counted (count-before-dispatch)."""
    sim = Simulator(calendar=calendar)
    before = []

    def chain():
        for i in range(5):
            yield sim.timeout(10)
            before.append(i)
        raise RuntimeError("boom")

    p = sim.process(chain())
    with pytest.raises(SimulationError, match=r"process 'chain' failed at t=50 ns") as info:
        sim.run()
    assert isinstance(info.value.__cause__, RuntimeError)
    assert str(info.value.__cause__) == "boom"
    assert before == [0, 1, 2, 3, 4]
    assert p.ok is False
    with pytest.raises(RuntimeError, match="boom"):
        p.result()
    # bootstrap + 5 timeouts (the fifth's resume raised) + the process's
    # completion, whose dispatch raised = 7
    assert sim.events_executed == 7
    assert sim.peek() is None


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
