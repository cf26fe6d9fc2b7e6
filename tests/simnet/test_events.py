"""Event primitives: success/failure, triggering, callbacks."""

import pytest

from repro.simnet import Event
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
