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


def idle_wakeups(engine, sim, laps=40):
    """Wake an idle engine *laps* times through its completion channel
    only, then *laps* times through its kick only, letting it fall asleep
    after each.  Returns the calendar events the wake-ups cost and every
    distinct footprint the engine showed between them: (asleep, kick
    armed, kick latched, library-core queue length, channel registered,
    channel latches).  A wake-up that strands anything shows as a second
    footprint."""
    channel = engine.channel
    seen = set()
    before = sim.events_executed
    for wake in [channel.notify] * laps + [engine.kick] * laps:
        wake()
        sim.run()
        seen.add((engine._sleep is not None, engine._kick_armed, engine._kick_latched,
                  len(engine.cpu._waiting), channel._fn is not None, channel._latched))
    return sim.events_executed - before, seen
