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


def _build_workload(sim, seed, log):
    """Deterministic event soup touching every scheduling surface.

    The single shared LCG is drawn from *at resume time*, so any ordering
    divergence between backends immediately derails every later draw —
    a small trace difference amplifies into a totally different run.
    """
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
    sim.timeout = sim._timeout_wheel
    sim._creg = None
    sim._cbatch = None
    return sim


def _fingerprint(backend, policy, seed, force_pure=False):
    sim = Simulator(schedule_policy=policy, calendar=backend)
    if force_pure:
        _force_pure(sim)
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
    for env in ("", "wheel", "heap", "cells"):
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
    assert (captured._creg is not None) == loadable

    monkeypatch.setattr(_accel, "_state", None)  # as after a failed build
    monkeypatch.delenv("REPRO_KERNEL_C", raising=False)
    assert status(calendar="wheel") == "unavailable"
    monkeypatch.setenv("REPRO_KERNEL_C", "0")
    assert status(calendar="wheel") == "off"


def test_unknown_backend_rejected():
    with pytest.raises(SimulationError, match="calendar backend"):
        Simulator(calendar="btree")


# ----------------------------------------------------------------------
# C accelerator (skipped wholesale when the compile/handshake failed)
# ----------------------------------------------------------------------
accel = pytest.mark.skipif(
    _accel.load() is None, reason="C accelerator unavailable on this host"
)


@accel
@pytest.mark.parametrize("seed", [3, 7, 29])
def test_accel_matches_pure_python_fingerprint(seed):
    """The compiled timeout/register-drain paths must be bit-identical to
    the pure-Python wheel on the full event soup."""
    assert _fingerprint("wheel", None, seed) == _fingerprint(
        "wheel", None, seed, force_pure=True
    )


@accel
def test_accel_binds_compiled_paths():
    sim = Simulator(calendar="wheel")
    assert type(sim.timeout).__name__ == "builtin_function_or_method"
    assert sim._creg is not None
    # the heap calendar (policies included) stays pure
    assert Simulator(schedule_policy=FifoPolicy())._creg is None
    assert Simulator(calendar="heap")._creg is None


def test_accel_env_disable(monkeypatch):
    """REPRO_KERNEL_C=0 forces the pure-Python kernel paths."""
    monkeypatch.setenv("REPRO_KERNEL_C", "0")
    monkeypatch.setattr(_accel, "_state", "unloaded")
    sim = Simulator(calendar="wheel")
    assert sim._creg is None
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
