"""``Simulator.advance(delay)``: a callback's last placement, dispatched in place.

A callback that would end by placing an entry ``delay`` ns ahead and carry
on in it may instead call ``advance(delay)``.  True means that entry would
have been dispatched next: the clock is at ``now + delay``, one more event
counts in ``events_executed`` and ``calendar_stats()["advanced"]``, and the
callback does the entry's work itself.  False means anything else, and
changes nothing.  Both calendars keep this contract; a chain that advances
is indistinguishable from one that places, except by those two counters'
split (``advanced``, and the wheel's structure counters).
"""

import pytest

from repro.simnet import Simulator, _accel
from repro.simnet._core import S0_SIZE
from repro.simnet.causality import CausalRecorder, enable_capture
from repro.simnet.kernel import SimulationError
from repro.simnet.schedule import FifoPolicy

CALENDARS = [
    pytest.param("wheel", marks=pytest.mark.skipif(
        _accel.load() is None, reason="C accelerator unavailable on this host")),
    "heap",
]


def _probe(sim, at, delay, *, then=None, **run):
    """Run *sim* with one callback at *at* that tries ``advance(delay)``
    (and an empty entry placed after it at *then*, if given); returns what
    the callback saw: (advanced?, now before, now after)."""
    seen = []

    def callback(_arg):
        before = sim.now
        seen.append((sim.advance(delay), before, sim.now))

    sim.call_in(at, callback)
    if then is not None:
        sim.call_in(then, lambda _arg: None)
    sim.run(**run)
    return seen[0]


@pytest.mark.parametrize("calendar", CALENDARS)
def test_advances_when_nothing_is_due_and_counts_the_event(calendar):
    sim = Simulator(calendar=calendar)
    sim.call_in(16, lambda _arg: None)  # due just after the advanced instant
    sim.call_in(3 * S0_SIZE, lambda _arg: None)  # beyond the wheel's L0 window
    assert _probe(sim, 5, 10) == (True, 5, 15)
    stats = sim.calendar_stats()
    assert (sim.now, sim.events_executed, stats["advanced"]) == (3 * S0_SIZE, 4, 1)


@pytest.mark.parametrize("calendar", CALENDARS)
@pytest.mark.parametrize("due", [15, 12, 5], ids=["at-the-end", "before-it", "same-instant"])
def test_refuses_when_an_entry_is_due_by_then(calendar, due):
    sim = Simulator(calendar=calendar)
    assert _probe(sim, 5, 10, then=due) == (False, 5, 5)
    assert (sim.events_executed, sim.calendar_stats()["advanced"]) == (2, 0)


@pytest.mark.parametrize("calendar", CALENDARS)
@pytest.mark.parametrize("until, advanced", [(14, False), (15, True)])
def test_refuses_past_the_run_stop_time(calendar, until, advanced):
    sim = Simulator(calendar=calendar)
    assert _probe(sim, 5, 10, until=until) == (advanced, 5, 15 if advanced else 5)
    assert sim.calendar_stats()["advanced"] == advanced


@pytest.mark.parametrize("calendar", CALENDARS)
def test_refuses_outside_run_and_under_step(calendar):
    sim = Simulator(calendar=calendar)
    assert sim.advance(10) is False and sim.now == 0
    seen = []
    sim.call_in(5, lambda _arg: seen.append(sim.advance(10)))
    sim.step()
    assert seen == [False] and sim.now == 5
    assert sim.calendar_stats()["advanced"] == 0


@pytest.mark.parametrize("calendar", CALENDARS)
@pytest.mark.parametrize("delay", [-1, 1.0, True, None])
def test_refuses_a_bad_delay(calendar, delay):
    sim = Simulator(calendar=calendar)
    assert _probe(sim, 5, delay) == (False, 5, 5)


def test_refuses_under_a_schedule_policy():
    sim = Simulator(schedule_policy=FifoPolicy())
    assert _probe(sim, 5, 10) == (False, 5, 5)


@pytest.mark.parametrize("calendar", CALENDARS)
def test_refuses_under_causal_capture(calendar):
    sim = Simulator(calendar=calendar)
    enable_capture(sim, CausalRecorder())
    assert _probe(sim, 5, 10) == (False, 5, 5)


def _chain(calendar, max_events, advance):
    """A callback chain of six 10 ns steps, each ending by advancing (or,
    as a reference, placing) the next, beside an independent entry; returns
    what the run did, its end state and how it ended."""
    sim = Simulator(calendar=calendar)
    log = []

    def step(k):
        while True:
            log.append((sim.now, k))
            if k == 5:
                return
            k += 1
            if not (advance and sim.advance(10)):
                sim.call_in(10, step, k)
                return

    sim.call_in(1, step, 0)
    sim.call_in(35, log.append)
    try:
        sim.run(max_events=max_events)
        error = None
    except SimulationError as exc:
        error = str(exc)
    return (log, sim.now, sim.events_executed, error), sim.calendar_stats()["advanced"]


@pytest.mark.parametrize("calendar", CALENDARS)
@pytest.mark.parametrize("max_events", range(1, 9))
def test_the_event_cap_trips_at_the_same_count_and_time(calendar, max_events):
    advanced, n = _chain(calendar, max_events, advance=True)
    placed, _ = _chain(calendar, max_events, advance=False)
    assert advanced == placed
    if max_events > 7:  # the whole chain ran: all but its first step and
        assert n == 4   # the one after the independent entry advanced
