"""Process semantics: chaining, returns, exceptions."""

import pytest

from helpers import run_procs
from repro.config import KERNELS
from repro.simnet import Event, Process, Simulator
from repro.simnet.kernel import SimulationError


class Boom(Exception):
    pass


def test_process_returns_value(sim):
    def proc():
        yield sim.timeout(5)
        return 123

    assert run_procs(sim, proc()) == [123]


def test_process_requires_generator(sim):
    def not_a_generator():
        return 1

    with pytest.raises(SimulationError, match="generator"):
        Process(sim, not_a_generator())  # type: ignore[arg-type]


def test_processes_can_wait_on_each_other(sim):
    def child():
        yield sim.timeout(30)
        return "payload"

    def parent():
        value = yield sim.process(child())
        return (value, sim.now)

    assert run_procs(sim, parent()) == [("payload", 30)]


@pytest.mark.parametrize("calendar", KERNELS)
def test_exception_in_process_marks_failure(calendar):
    """A failure nothing waits on ends the run: SimulationError naming the
    process and the time, chained to the exception, which the process
    event still holds."""
    sim = Simulator(calendar=calendar)

    def proc():
        yield sim.timeout(1)
        raise Boom()

    p = sim.process(proc(), name="boomer")
    with pytest.raises(SimulationError, match=r"process 'boomer' failed at t=1 ns") as info:
        sim.run()
    assert isinstance(info.value.__cause__, Boom)
    assert p.triggered and p.ok is False
    with pytest.raises(Boom):
        p.result()
    assert sim._live == {}


def test_failed_event_raises_inside_waiter(sim):
    ev = Event(sim)

    def proc():
        try:
            yield ev
        except Boom:
            return "caught"
        return "missed"

    ev.fail(Boom(), delay=10)
    assert run_procs(sim, proc()) == ["caught"]


@pytest.mark.parametrize("calendar", KERNELS)
def test_waiting_on_failed_child_propagates(calendar):
    """The child's failure reaches its waiter; the run then ends on the
    parent, the process nothing waits on."""
    sim = Simulator(calendar=calendar)

    def child():
        yield sim.timeout(1)
        raise Boom()

    def parent():
        yield sim.process(child())

    p = sim.process(parent())
    with pytest.raises(SimulationError, match=r"process 'parent' failed") as info:
        sim.run()
    assert isinstance(info.value.__cause__, Boom)
    assert p.ok is False


@pytest.mark.parametrize("calendar", KERNELS)
def test_yield_non_event_fails_process(calendar):
    sim = Simulator(calendar=calendar)

    def proc():
        yield 42  # type: ignore[misc]

    p = sim.process(proc())
    with pytest.raises(SimulationError, match=r"process 'proc' failed at t=0 ns") as info:
        sim.run()
    assert p.ok is False
    assert isinstance(info.value.__cause__, SimulationError)
    assert "must yield Events" in str(info.value.__cause__)
    with pytest.raises(SimulationError, match="must yield Events"):
        p.result()


@pytest.mark.parametrize("calendar", KERNELS)
def test_awaited_failure_raises_its_own_exception(calendar):
    """A failure something waits on is that waiter's to handle:
    run(until=p) raises the exception itself."""
    sim = Simulator(calendar=calendar)

    def proc():
        yield sim.timeout(5)
        raise Boom()

    with pytest.raises(Boom):
        sim.run(until=sim.process(proc()))


@pytest.mark.parametrize("calendar", KERNELS)
def test_drained_calendar_names_blocked_processes(calendar):
    """Two processes, each waiting on an event only the other would
    trigger: the drain raises, naming both and where each is suspended."""
    sim = Simulator(calendar=calendar)
    ping, pong = Event(sim), Event(sim)

    def waiter(mine, theirs):
        yield sim.timeout(3)
        yield mine
        theirs.succeed()

    sim.process(waiter(ping, pong), name="left")
    sim.process(waiter(pong, ping), name="right")
    with pytest.raises(SimulationError) as info:
        sim.run()
    text = str(info.value)
    assert "deadlock: calendar drained at t=3 ns with 2 process(es) blocked" in text
    line = waiter.__code__.co_firstlineno + 2  # the ``yield mine``
    for name in ("left", "right"):
        assert f"{name!r} in waiter ({__file__}:{line})" in text


@pytest.mark.parametrize("calendar", KERNELS)
def test_blocked_process_is_found_through_yield_from(calendar):
    """The census follows ``yield from`` to the innermost suspended
    frame, and run(until=event) reports it in place of a bare deadlock."""
    sim = Simulator(calendar=calendar)

    def inner():
        yield Event(sim)

    def outer():
        yield from inner()

    sim.process(outer(), name="nested")
    with pytest.raises(SimulationError, match=r"'until' event never triggered, deadlock: ") as info:
        sim.run(until=Event(sim))
    assert f"'nested' in inner ({__file__}:{inner.__code__.co_firstlineno + 1})" in str(info.value)


def test_run_until_time_leaves_blocked_processes_alone(sim):
    """A run bounded in time may end with processes blocked."""

    def proc():
        yield Event(sim)

    p = sim.process(proc())
    sim.run(until=100)
    assert p.is_alive


def test_is_alive(sim):
    def proc():
        yield sim.timeout(10)

    p = sim.process(proc())
    assert p.is_alive
    sim.run()
    assert not p.is_alive
