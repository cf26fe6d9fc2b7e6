"""Store semantics."""

from helpers import run_procs
from repro.simnet import Store


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
