"""Event primitives: success/failure, conditions, signals."""

import pytest

from repro.simnet import AllOf, AnyOf, Event, Signal, Timeout
from repro.simnet.kernel import SimulationError


class Boom(Exception):
    pass


def test_event_lifecycle(sim):
    ev = Event(sim)
    assert not ev.triggered and ev.ok is None
    ev.succeed(42)
    assert ev.triggered and ev.ok
    sim.run()
    assert ev.processed
    assert ev.result() == 42


def test_event_failure_propagates(sim):
    ev = Event(sim)
    ev.fail(Boom("bad"))
    sim.run()
    with pytest.raises(Boom):
        ev.result()


def test_double_trigger_rejected(sim):
    ev = Event(sim)
    ev.succeed()
    with pytest.raises(SimulationError):
        ev.succeed()
    with pytest.raises(SimulationError):
        ev.fail(Boom())


def test_fail_requires_exception(sim):
    with pytest.raises(SimulationError):
        Event(sim).fail("not an exception")  # type: ignore[arg-type]


def test_result_before_trigger_raises(sim):
    with pytest.raises(SimulationError):
        Event(sim).result()


def test_callback_after_processed_still_runs(sim):
    ev = Event(sim)
    ev.succeed("v")
    sim.run()
    got = []
    ev.add_callback(lambda e: got.append(e.result()))
    sim.run()
    assert got == ["v"]


def test_delayed_succeed(sim):
    ev = Event(sim)
    times = []
    ev.add_callback(lambda e: times.append(sim.now))
    ev.succeed(delay=75)
    sim.run()
    assert times == [75]


# -- AllOf -------------------------------------------------------------------
def test_allof_waits_for_all(sim):
    evs = [Timeout(sim, d, value=d) for d in (10, 30, 20)]
    cond = AllOf(sim, evs)
    done_at = []
    cond.add_callback(lambda e: done_at.append(sim.now))
    sim.run()
    assert done_at == [30]
    assert cond.result() == [10, 30, 20]


def test_allof_empty_succeeds_immediately(sim):
    cond = AllOf(sim, [])
    sim.run()
    assert cond.result() == []


def test_allof_fails_fast(sim):
    bad = Event(sim)
    slow = Timeout(sim, 1000)
    cond = AllOf(sim, [bad, slow])
    bad.fail(Boom(), delay=5)
    sim.run(until=20)
    assert cond.triggered and cond.ok is False


# -- AnyOf -------------------------------------------------------------------
def test_anyof_first_wins(sim):
    a = Timeout(sim, 50, value="a")
    b = Timeout(sim, 10, value="b")
    cond = AnyOf(sim, [a, b])
    sim.run()
    assert cond.result() == (1, "b")


def test_anyof_already_triggered_child(sim):
    a = Event(sim)
    a.succeed("now")
    cond = AnyOf(sim, [a, Timeout(sim, 99)])
    sim.run(until=1)
    assert cond.triggered
    assert cond.result() == (0, "now")


def test_anyof_zero_events_rejected(sim):
    with pytest.raises(SimulationError):
        AnyOf(sim, [])


def test_anyof_completes_in_the_deciding_childs_slot(sim):
    """No relay event: the condition's waiters run as part of the winning
    child's dispatch — after callbacks registered on the child earlier,
    before whatever else shares the instant — and the calendar executes
    one event (the child), not two."""
    order = []
    child = Event(sim)
    child.add_callback(lambda e: order.append("child-waiter"))
    cond = AnyOf(sim, [child, Event(sim)])
    cond.add_callback(lambda e: order.append(("cond", e.result())))
    child.succeed("v")
    peer = Event(sim)
    peer.add_callback(lambda e: order.append("same-instant-peer"))
    peer.succeed()
    before = sim.events_executed
    sim.run()
    assert order == ["child-waiter", ("cond", (0, "v")), "same-instant-peer"]
    assert sim.events_executed - before == 2  # child + peer, no relay
    assert cond.processed
    assert sim.calendar_stats()["inline_conditions"] == 1


def test_anyof_detaches_from_the_losers(sim):
    """The losing children forget the condition: a long-lived child that is
    re-waited every lap carries at most one callback, and a lost
    Signal.wait() event is withdrawn from its signal."""
    sig = Signal(sim)
    channel = Event(sim)  # stays pending across laps, like a channel waiter
    for _ in range(5):
        timer = sim.timeout(10)
        kick = sig.wait()
        cond = AnyOf(sim, [channel, kick, timer])
        sim.run(until=cond)
        assert cond.result() == (2, None)
        assert channel.callbacks == []
        assert kick.callbacks == [] and not kick.triggered
        assert sig.waiter_count == 0

    # a loser that still fires later is a no-op for the finished condition
    channel.succeed("late")
    sim.run()
    assert cond.result() == (2, None)


def test_anyof_detach_keeps_other_waiters_in_order(sim):
    order = []
    shared = Event(sim)
    winner = Event(sim)
    cond = AnyOf(sim, [shared, winner])  # takes shared's first callback slot
    shared.add_callback(lambda e: order.append("second"))
    shared.add_callback(lambda e: order.append("third"))
    winner.succeed()
    sim.run()
    assert cond.result() == (1, None)
    shared.add_callback(lambda e: order.append("fourth"))
    shared.succeed()
    sim.run()
    assert order == ["second", "third", "fourth"]


def test_anyof_with_already_processed_child(sim):
    done = Event(sim)
    done.succeed("early")
    sim.run()
    assert done.processed
    got = []

    def waiter():
        got.append((yield AnyOf(sim, [Event(sim), done])))

    sim.process(waiter())
    sim.run()
    assert got == [(1, "early")]


def test_anyof_failure_propagates(sim):
    bad = Event(sim)
    sig = Signal(sim)
    caught = []

    def waiter():
        try:
            yield AnyOf(sim, [bad, sig.wait()])
        except Boom as exc:
            caught.append(exc)

    sim.process(waiter())
    bad.fail(Boom("child"), delay=5)
    sim.run()
    assert len(caught) == 1 and sig.waiter_count == 0


# -- Signal ------------------------------------------------------------------
def test_signal_wakes_all_waiters(sim):
    sig = Signal(sim)
    results = []

    def waiter(tag):
        yield sig.wait()
        results.append((tag, sim.now))

    sim.process(waiter("a"))
    sim.process(waiter("b"))

    def firer():
        yield sim.timeout(40)
        sig.fire()

    sim.process(firer())
    sim.run()
    assert sorted(results) == [("a", 40), ("b", 40)]


def test_signal_latches_when_no_waiters(sim):
    sig = Signal(sim)
    sig.fire()

    def waiter():
        yield sig.wait()
        return sim.now

    (t,) = [sim.run(until=sim.process(waiter()))]
    assert t == 0  # latched fire consumed immediately


def test_signal_latch_consumed_once(sim):
    sig = Signal(sim)
    sig.fire()
    first = sig.wait()
    second = sig.wait()
    sim.run()
    assert first.triggered
    assert not second.triggered


def test_signal_non_latching(sim):
    sig = Signal(sim, latching=False)
    sig.fire()  # lost: nobody waiting
    ev = sig.wait()
    sim.run()
    assert not ev.triggered


def test_signal_withdraw_removes_the_waiter_and_absorbs_one_fire(sim):
    """A withdrawn waiter never fires and leaves nothing queued; its owner
    is awake, so the next fire is absorbed rather than latched."""
    sig = Signal(sim)
    ev = sig.wait()
    sig.withdraw(ev)
    assert sig.waiter_count == 0
    sig.fire()  # absorbed
    sim.run()
    assert not ev.triggered
    pending = sig.wait()
    sim.run()
    assert not pending.triggered  # nothing was latched
    sig.fire()
    sim.run()
    assert pending.triggered
    sig.fire()  # nobody waiting, nothing withdrawn: latches as ever
    assert sig.wait().triggered


def test_signal_withdraw_ignores_foreign_and_fired_events(sim):
    sig = Signal(sim)
    ev = sig.wait()
    sig.fire()
    sig.withdraw(ev)  # already fired
    sig.withdraw(Event(sim))  # never ours
    sig.fire()
    assert sig.wait().triggered  # the latch was not disturbed
