"""The library-thread driver (:class:`repro.exs.engine.Engine`) on its own.

A bare simulator, one core and one completion channel: the body's
charges, kicks and channel wakes are driven directly, so each rule of the
driver shows without a connection around it.  The races between a channel
wake and a kick on the real stack are pinned in ``test_engine_wake.py``.
"""

import pytest

from repro.exs.engine import SLEEP, Engine
from repro.hosts import Cpu
from repro.verbs import CompletionChannel, fixed_wakeup


def _engine(sim, wake_ns=0):
    cpu = Cpu(sim)
    return Engine(sim, cpu, CompletionChannel(sim, wakeup=fixed_wakeup(wake_ns))), cpu


def test_charges_resume_the_body_after_the_core(sim):
    """An int charges the core and resumes the body when it is paid; a
    zero charge on a free core carries on inline.  A finished body leaves
    one exit entry, as a finished process did."""
    engine, cpu = _engine(sim)
    seen = []

    def body():
        yield 100
        seen.append(sim.now)
        yield 0
        seen.append(sim.now)
        yield 50
        seen.append(sim.now)

    engine.start(body(), "test engine")
    assert seen == [] and sim.peek() == 0  # nothing runs before the start entry
    sim.run()
    assert seen == [100, 100, 150]
    assert cpu.busy_ns_total == 150 and cpu.busy_ns_between(0, 150) == 150
    # start, two charge ends, exit
    assert sim.events_executed == 4


def test_kicks_before_the_first_sleep_latch_into_one_wake(sim):
    """Kicks that land before the thread sleeps are remembered, once: it
    wakes at once on going to sleep, then sleeps until the next wake.  A
    kick wake costs nothing; a channel wake pays the sampled latency."""
    engine, _cpu = _engine(sim, wake_ns=200)
    wakes = []

    def body():
        while True:
            yield SLEEP
            wakes.append(sim.now)

    engine.kick()
    engine.kick()
    engine.start(body(), "test engine")
    sim.call_in(500, lambda _arg: engine.kick())
    sim.call_in(1000, lambda _arg: engine.channel.notify())
    sim.run()
    assert wakes == [0, 500, 1200]


def test_kick_while_charging_wakes_the_next_sleep(sim):
    """A kick during a charge cannot be lost: the thread re-checks the
    instant it goes back to sleep."""
    engine, _cpu = _engine(sim)
    wakes = []

    def body():
        yield SLEEP
        wakes.append(sim.now)
        yield 100
        yield SLEEP
        wakes.append(sim.now)
        yield SLEEP
        wakes.append(sim.now)

    engine.start(body(), "test engine")
    sim.call_in(10, lambda _arg: engine.kick())  # wakes the first sleep
    sim.call_in(60, lambda _arg: engine.kick())  # lands mid-charge: latches
    sim.run()
    assert wakes == [10, 110]  # the third sleep has nothing to wake it
    assert engine._sleep is not None


def test_a_failing_body_names_its_thread(sim):
    engine, _cpu = _engine(sim)

    def body():
        yield 10
        raise KeyError("boom")

    engine.start(body(), "test engine on core 0")
    with pytest.raises(RuntimeError, match="test engine on core 0 died") as info:
        sim.run()
    assert isinstance(info.value.__cause__, KeyError)
