"""Helpers shared across the test suite (importable via pytest pythonpath)."""

from __future__ import annotations

from repro.simnet import Simulator


def run_procs(sim: Simulator, *generators, max_events: int = 5_000_000):
    """Spawn each generator as a process, run to completion, return results.

    Raises if any process failed or if the simulation deadlocked with
    processes still alive.
    """
    procs = [sim.process(g, name=f"test-proc-{i}") for i, g in enumerate(generators)]
    sim.run(max_events=max_events)
    for p in procs:
        if not p.triggered:
            raise AssertionError(f"simulation deadlocked: {p.name} still alive at t={sim.now}")
    return [p.result() for p in procs]


def idle_wakeups(kick_signal, channel, sim, laps=40):
    """Wake an idle engine *laps* times through the channel only, then
    *laps* times through its kick only; returns the worst leftovers seen:
    (queued kick waiters, callbacks on the pending channel waiter)."""
    worst_kick = worst_cbs = 0
    for _ in range(laps):
        channel.notify()
        sim.run()
        worst_kick = max(worst_kick, kick_signal.waiter_count)
    for _ in range(laps):
        kick_signal.fire()
        sim.run()
        worst_cbs = max(worst_cbs, len(channel._waiter.callbacks))
    return worst_kick, worst_cbs
