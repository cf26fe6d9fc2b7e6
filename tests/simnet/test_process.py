"""Process semantics: chaining, returns, exceptions."""

import pytest

from helpers import run_procs
from repro.simnet import Event, Process
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


def test_exception_in_process_marks_failure(sim):
    def proc():
        yield sim.timeout(1)
        raise Boom()

    p = sim.process(proc())
    sim.run()
    assert p.triggered and p.ok is False
    with pytest.raises(Boom):
        p.result()


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


def test_waiting_on_failed_child_propagates(sim):
    def child():
        yield sim.timeout(1)
        raise Boom()

    def parent():
        yield sim.process(child())

    p = sim.process(parent())
    sim.run()
    assert p.ok is False


def test_yield_non_event_fails_process(sim):
    def proc():
        yield 42  # type: ignore[misc]

    p = sim.process(proc())
    sim.run()
    assert p.ok is False
    with pytest.raises(SimulationError, match="must yield Events"):
        p.result()


def test_is_alive(sim):
    def proc():
        yield sim.timeout(10)

    p = sim.process(proc())
    assert p.is_alive
    sim.run()
    assert not p.is_alive
