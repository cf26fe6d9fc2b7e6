"""Resource and Store semantics."""

import pytest

from helpers import run_procs
from repro.simnet import Resource, Store
from repro.simnet.kernel import SimulationError


def test_resource_grants_up_to_capacity(sim):
    res = Resource(sim, capacity=2)
    r1, r2, r3 = res.request(), res.request(), res.request()
    sim.run()
    assert r1.triggered and r2.triggered
    assert not r3.triggered
    assert res.in_use == 2 and res.queue_length == 1


def test_resource_fifo_order(sim):
    res = Resource(sim, capacity=1)
    order = []

    def worker(tag, hold):
        req = res.request()
        yield req
        order.append((tag, sim.now))
        yield sim.timeout(hold)
        res.release(req)

    run_procs(sim, worker("a", 10), worker("b", 10), worker("c", 10))
    assert order == [("a", 0), ("b", 10), ("c", 20)]


def test_release_pending_request_cancels(sim):
    res = Resource(sim, capacity=1)
    r1 = res.request()
    r2 = res.request()
    res.release(r2)  # cancel queued request
    sim.run()
    assert res.queue_length == 0
    res.release(r1)
    assert res.in_use == 0


def test_release_without_use_rejected(sim):
    res = Resource(sim, capacity=1)
    r = res.request()
    res.release(r)
    with pytest.raises(SimulationError):
        res.release(r)


def test_capacity_validation(sim):
    with pytest.raises(SimulationError):
        Resource(sim, capacity=0)


def test_acquire_helper_accounts_hold_time(sim):
    res = Resource(sim, capacity=1)

    def worker():
        yield from res.acquire(25)
        return sim.now

    assert run_procs(sim, worker()) == [25]
    assert res.in_use == 0


def test_store_fifo(sim):
    store = Store(sim)
    store.put(1)
    store.put(2)
    got = []

    def getter():
        a = yield store.get()
        b = yield store.get()
        got.extend([a, b])

    run_procs(sim, getter())
    assert got == [1, 2]


def test_store_blocking_get(sim):
    store = Store(sim)

    def getter():
        value = yield store.get()
        return (value, sim.now)

    def putter():
        yield sim.timeout(50)
        store.put("late")

    results = run_procs(sim, getter(), putter())
    assert results[0] == ("late", 50)


def test_store_delayed_put_postpones_the_blocked_getter(sim):
    """``put(item, delay=)`` wakes a blocked getter *delay* ns later; with
    nobody waiting the item is queued at once."""
    store = Store(sim)
    assert store.waiting == 0

    def getter():
        value = yield store.get()
        return (value, sim.now)

    def putter():
        yield sim.timeout(50)
        assert store.waiting == 1
        store.put("slow", delay=30)
        assert store.waiting == 0 and len(store) == 0
        yield sim.timeout(40)
        store.put("queued", delay=999)
        assert store.try_get() == "queued"

    results = run_procs(sim, getter(), putter())
    assert results[0] == ("slow", 80)


def test_store_try_get_and_snapshot(sim):
    store = Store(sim)
    assert store.try_get() is None
    store.put("x")
    store.put("y")
    assert store.snapshot() == ["x", "y"]
    assert store.try_get() == "x"
    assert len(store) == 1
