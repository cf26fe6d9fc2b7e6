"""Helpers shared across the test suite (importable via pytest pythonpath)."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.config import ScenarioConfig
from repro.exs.flags import TRANSPORTS
from repro.simnet import Simulator
from repro.verbs.reliability import MODE_GO_BACK_N, MODE_SELECTIVE_REPEAT


def run_procs(sim: Simulator, *generators, max_events: int = 5_000_000):
    """Spawn each generator as a process, run to completion, return results
    (``sim.run`` raises if one fails or is left blocked)."""
    procs = [sim.process(g, name=f"test-proc-{i}") for i, g in enumerate(generators)]
    sim.run(max_events=max_events)
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


@dataclass(frozen=True)
class Variant:
    """One point of the protocol design space the stack carries: an EXS
    data plane crossed with an RC reliability discipline."""

    transport: str
    mode: str

    def __str__(self) -> str:
        return f"{self.transport}-{self.mode}"

    def scenario(self, **fields) -> ScenarioConfig:
        """A scenario on this variant: its transport, and RC reliability in
        its mode — the explicit config in *fields* with the mode replaced,
        else one scaled to the scenario's worst path."""
        scenario = ScenarioConfig(transport=self.transport, **fields)
        if scenario.reliability is None:
            return scenario.with_(reliability=scenario.path_reliability(self.mode))
        return scenario.with_(reliability=dataclasses.replace(scenario.reliability,
                                                              mode=self.mode))


#: every (transport, reliability mode) pair: the variant matrix
VARIANTS = tuple(Variant(transport, mode) for transport in TRANSPORTS
                 for mode in (MODE_GO_BACK_N, MODE_SELECTIVE_REPEAT))
