"""Completion queues and event channels (wake-up latency model)."""

import pytest

from repro.simnet import SimulationError
from repro.verbs import CompletionQueue, WCOpcode, WCStatus, WorkCompletion, fixed_wakeup
from repro.verbs.comp_channel import CompletionChannel, uniform_wakeup


def wc(i=0):
    return WorkCompletion(wr_id=i, opcode=WCOpcode.SEND, status=WCStatus.SUCCESS)


def test_poll_drains_fifo():
    cq = CompletionQueue()
    for i in range(3):
        cq.push(wc(i))
    assert [w.wr_id for w in cq.poll(2)] == [0, 1]
    assert [w.wr_id for w in cq.poll()] == [2]
    assert cq.poll() == []
    assert cq.total_pushed == 3


def test_push_does_not_notify_unarmed_channel(sim):
    ch = CompletionChannel(sim)
    cq = CompletionQueue(ch)
    cq.push(wc())
    assert ch.notifications == 0


def test_armed_cq_notifies_once(sim):
    ch = CompletionChannel(sim)
    cq = CompletionQueue(ch)
    cq.req_notify()
    cq.push(wc(1))
    cq.push(wc(2))  # second push: not armed any more
    assert ch.notifications == 1


def test_arming_with_pending_entries_does_not_fire(sim):
    """Verbs semantics: consumers must poll before sleeping."""
    ch = CompletionChannel(sim)
    cq = CompletionQueue(ch)
    cq.push(wc())
    cq.req_notify()
    assert ch.notifications == 0


def test_wakeup_latency_applied_when_sleeping(sim):
    ch = CompletionChannel(sim, wakeup=fixed_wakeup(5000))
    cq = CompletionQueue(ch)
    woke = []
    cq.req_notify()
    ch.wait(lambda token: woke.append((token, sim.now)), "t")
    sim.call_in(100, lambda _: cq.push(wc()))
    sim.run()
    assert woke == [("t", 100 + 5000)]
    assert ch.slept_wakeups == 1


def test_latched_notify_costs_nothing(sim):
    ch = CompletionChannel(sim, wakeup=fixed_wakeup(5000))
    ch.notify()  # nobody waiting: latch
    woke = []
    ch.wait(lambda token: woke.append((token, sim.now)), "t")
    sim.run()
    assert woke == [("t", 0)]
    assert ch.slept_wakeups == 0
    ch.wait(woke.append, "again")  # the latch was consumed
    sim.run()
    assert len(woke) == 1


class _Sleeper:
    def __init__(self):
        self.woke = []

    def on_wake(self, token):
        self.woke.append(token)


def test_rewait_while_pending_rebinds_and_places_nothing(sim):
    """The channel-or-kick loop: a thread woken by its kick waits again on
    the channel it is still registered with.  Its own callback (even as a
    fresh bound method) takes the new token; nothing is placed."""
    ch = CompletionChannel(sim, wakeup=fixed_wakeup(10))
    thread = _Sleeper()
    ch.wait(thread.on_wake, 1)
    ch.wait(thread.on_wake, 2)
    assert sim.peek() is None
    ch.notify()
    before = sim.events_executed
    sim.run()
    assert thread.woke == [2]
    assert sim.events_executed - before == 1


def test_second_waiting_thread_fails_loudly(sim):
    """One waiting thread per channel: a different callback registering
    while one is pending would silently replace it and its owner would
    never wake, so it raises instead.  Once the first was notified, the
    channel is free again."""
    ch = CompletionChannel(sim)
    first, second = _Sleeper(), _Sleeper()
    ch.wait(first.on_wake, "a")
    with pytest.raises(SimulationError, match="already has a waiting thread"):
        ch.wait(second.on_wake, "b")
    ch.notify()
    sim.run()
    assert first.woke == ["a"] and second.woke == []
    ch.wait(second.on_wake, "b")
    ch.notify()
    sim.run()
    assert second.woke == ["b"]


def test_uniform_wakeup_within_bounds(sim):
    import random

    sampler = uniform_wakeup(10, 20)
    rng = random.Random(0)
    draws = [sampler(rng) for _ in range(100)]
    assert all(10 <= d <= 20 for d in draws)
    assert len(set(round(d, 3) for d in draws)) > 1


@pytest.mark.parametrize("lo, hi", [(2_000, 16_000), (0, 1), (3, 3), (7_500, 7_500)])
@pytest.mark.parametrize("seed", [0, 1, 9, 12345])
def test_uniform_wakeup_draws_random_uniform_bit_for_bit(lo, hi, seed):
    """The folded sampler returns ``random.Random.uniform``'s floats, so
    every channel wake-up lands on the same nanosecond."""
    import random

    sampler = uniform_wakeup(lo, hi)
    mine, ref = random.Random(seed), random.Random(seed)
    draws = [sampler(mine) for _ in range(10_000)]
    assert all(type(d) is float for d in draws)
    assert [d.hex() for d in draws] == [ref.uniform(lo, hi).hex() for _ in range(10_000)]


def test_cq_overflow_detected():
    cq = CompletionQueue(capacity=2)
    cq.push(wc())
    cq.push(wc())
    with pytest.raises(RuntimeError, match="overflow"):
        cq.push(wc())
    assert cq.overflowed
