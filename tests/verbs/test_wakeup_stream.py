"""Wake-up streams: ``random.Random(seed).random()``'s floats, drawn ahead.

Every completion channel and EXS event queue draws its OS wake-up
latencies from a :class:`WakeupStream`; the simulated nanosecond of every
wake-up depends on it yielding exactly the generator's floats, whichever
of its three stages (short prefix, refill, kept generator) a draw falls in.
"""

import random

import pytest

from helpers import run_procs
from repro.exs.eventqueue import ExsEvent, ExsEventQueue, ExsEventType
from repro.verbs.comp_channel import CompletionChannel, WakeupStream, uniform_wakeup


@pytest.mark.parametrize("draws", [1, 7, 8, 9, 39, 40, 41, 5000])
@pytest.mark.parametrize("seed", [0, 1, 10**12])
def test_stream_yields_the_generators_floats_bit_for_bit(seed, draws):
    ref = random.Random(seed)
    expected = [ref.random().hex() for _ in range(draws)]
    stream = WakeupStream(seed)
    assert [stream.random().hex() for _ in range(draws)] == expected
    # the holders' spelling: the kept generator once there is one
    stream = WakeupStream(seed)
    assert [(stream.rng or stream).random().hex() for _ in range(draws)] == expected


def test_stream_keeps_a_generator_only_once_it_outruns_its_refill():
    stream = WakeupStream(3)
    assert stream.rng is None and len(stream._drawn) == 0  # nothing built up front
    lengths = []
    for _ in range(41):
        stream.random()
        lengths.append((len(stream._drawn), stream.rng is not None))
    assert lengths[0] == lengths[7] == (8, False)
    assert lengths[8] == lengths[39] == (40, False)
    assert lengths[40] == (0, True)


def _uniform_delays(seed, wakes):
    ref = random.Random(seed)
    return [int(round(ref.uniform(2_000, 16_000))) for _ in range(wakes)]


@pytest.mark.parametrize("seed", [0, 5])
def test_channel_wakes_on_the_generators_uniform_draws(sim, seed):
    """Across the generator hand-off (draw 41), each wake-up lands on the
    nanosecond ``random.Random(seed).uniform`` gives."""
    ch = CompletionChannel(sim, wakeup=uniform_wakeup(2_000, 16_000), seed=seed)
    delays = []
    for _ in range(60):
        start = sim.now
        ch.wait(lambda _token: delays.append(sim.now - start))
        ch.notify()
        sim.run()
    assert delays == _uniform_delays(seed, 60)
    assert ch.slept_wakeups == 60


@pytest.mark.parametrize("seed", [0, 5])
def test_event_queue_wakes_on_the_generators_uniform_draws(sim, seed):
    eq = ExsEventQueue(sim, wakeup=uniform_wakeup(2_000, 16_000), seed=seed)
    delays = []

    def consumer():
        for _ in range(60):
            ev = yield eq.dequeue()
            delays.append(sim.now - ev.nbytes)

    def producer():
        for _ in range(60):
            yield sim.timeout(20_000)  # the consumer is asleep by now
            eq.post(ExsEvent(kind=ExsEventType.RECV, socket=None, nbytes=sim.now))

    run_procs(sim, consumer(), producer())
    assert delays == _uniform_delays(seed, 60)
    assert eq.slept_wakeups == 60


def _uniform_by_method(rng):
    return rng.uniform(2_000, 16_000)


def test_a_sampler_calling_another_generator_method_fails_on_its_first_draw(sim):
    """A stream offers only ``random()``: a sampler written against the
    rest of ``random.Random`` raises instead of drawing other floats."""
    ch = CompletionChannel(sim, wakeup=_uniform_by_method, seed=1)
    ch.wait(lambda _token: None)
    with pytest.raises(AttributeError, match="uniform"):
        ch.notify()
    eq = ExsEventQueue(sim, wakeup=_uniform_by_method, seed=1)
    eq.dequeue()
    with pytest.raises(AttributeError, match="uniform"):
        eq.post(ExsEvent(kind=ExsEventType.RECV, socket=None))
