"""Kernel basics: clock, calendar ordering, run modes."""

import pytest

from repro.simnet import Event, FifoPolicy, Simulator, Timeout
from repro.simnet.kernel import SimulationError


def test_clock_starts_at_zero(sim):
    assert sim.now == 0


def test_timeout_advances_clock(sim):
    fired = []
    t = Timeout(sim, 100, value="x")
    t.add_callback(lambda e: fired.append((sim.now, e.result())))
    sim.run()
    assert fired == [(100, "x")]


def test_events_fire_in_time_order(sim):
    order = []
    for delay in (50, 10, 30, 10, 0):
        Timeout(sim, delay).add_callback(lambda e, d=delay: order.append(d))
    sim.run()
    assert order == [0, 10, 10, 30, 50]


def test_same_time_events_fire_in_schedule_order(sim):
    order = []
    for i in range(10):
        Timeout(sim, 42).add_callback(lambda e, i=i: order.append(i))
    sim.run()
    assert order == list(range(10))


def test_run_until_time_stops_clock_exactly(sim):
    Timeout(sim, 100)
    Timeout(sim, 300)
    sim.run(until=200)
    assert sim.now == 200
    # the 300ns event is still pending
    assert sim.peek() == 300


def test_run_until_event_returns_value(sim):
    def proc():
        yield sim.timeout(25)
        return "done"

    p = sim.process(proc())
    assert sim.run(until=p) == "done"
    assert sim.now == 25


def test_run_until_untriggered_event_raises(sim):
    ev = Event(sim)  # never triggered
    Timeout(sim, 10)
    with pytest.raises(SimulationError, match="deadlock"):
        sim.run(until=ev)


def _bad_delay_cases(delays):
    """(label, place, delay) for every placement surface on every calendar
    a Simulator can be on: wheel, heap, and the heap under a policy (the
    fuzzer's calendar)."""
    for label, kwargs in (("wheel", {"calendar": "wheel"}),
                          ("heap", {"calendar": "heap"}),
                          ("heap+policy", {"schedule_policy": FifoPolicy()})):
        sim = Simulator(**kwargs)
        surfaces = (
            ("schedule", lambda d, sim=sim: sim.schedule(Event(sim), delay=d)),
            ("call_in", lambda d, sim=sim: sim.call_in(d, print, None)),
            ("timeout", lambda d, sim=sim: sim.timeout(d)),
        )
        for name, place in surfaces:
            for delay in delays:
                yield f"{label}.{name}({delay!r})", sim, place, delay


def test_negative_delay_rejected():
    for case, sim, place, delay in _bad_delay_cases((-1,)):
        with pytest.raises(SimulationError):
            place(delay)
            pytest.fail(f"{case} was accepted")
        assert sim.peek() is None, case


def test_non_integer_delay_rejected():
    # a float delay would turn the int-ns clock into a float; a bool is
    # always a bug, not a 1 ns delay
    for case, sim, place, delay in _bad_delay_cases((1.5, True)):
        with pytest.raises(SimulationError, match="must be an int number of ns"):
            place(delay)
            pytest.fail(f"{case} was accepted")
        assert sim.peek() is None, case


def test_only_the_wheel_recycles_timeouts():
    """The heap keeps no Timeout freelist: a 1,000-timeout chain allocates
    1,000 and pools none.  The wheel serves the same chain from its stash
    after two allocations (the first timeout, and the one yielded while
    the first is still being dispatched)."""
    counts = {}
    for calendar in ("wheel", "heap"):
        sim = Simulator(calendar=calendar)

        def chain():
            for _ in range(1000):
                yield sim.timeout(1)

        sim.process(chain())
        sim.run()
        stats = sim.calendar_stats()
        counts[stats["backend"]] = (stats["timeout_allocs"], stats["timeout_pool"], sim.now)
    assert counts["heap"] == (1000, 0, 1000)
    if "wheel" in counts:  # (a host that cannot build the C wheel runs the heap)
        assert counts["wheel"][0] == 2 and counts["wheel"][2] == 1000


def test_max_events_guard(sim):
    def ticker():
        while True:
            yield sim.timeout(1)

    sim.process(ticker())
    with pytest.raises(SimulationError, match="max_events"):
        sim.run(max_events=100)


def test_events_executed_counter(sim):
    for _ in range(5):
        Timeout(sim, 1)
    sim.run()
    assert sim.events_executed == 5


def test_peek_empty_calendar(sim):
    assert sim.peek() is None
