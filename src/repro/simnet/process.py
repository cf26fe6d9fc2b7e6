"""Generator-based simulation processes.

A :class:`Process` wraps a Python generator.  The generator ``yield``\\ s
:class:`~repro.simnet.events.Event` objects (timeouts, signals, other
processes, ...) and is resumed with the event's value when it fires; if the
event failed, the exception is thrown into the generator.  When the
generator returns, the process — which is itself an event — succeeds with
the generator's return value, so processes can wait on each other.

This is the cooperative-multitasking layer every actor in the simulated
system (HCA engines, EXS progress threads, application code) is built on.

Kernel contract: a process *is its own resume callback* — waiting
registers the process object itself (``__call__`` drives the generator),
and ``send``/``throw`` are the generator's bound methods cached as
instance attributes.  The kernel's dispatch loop exploits both: when a
:class:`~repro.simnet.events.Timeout` fires for a waiting process it
calls ``process.send(value)`` directly and wires the next yielded timeout
in place, skipping the whole callback protocol on the dominant
``yield sim.timeout(...)`` path.
"""

from __future__ import annotations

from typing import Any, Iterator

from .events import Event
from .kernel import SimulationError, Simulator

__all__ = ["Process"]


def _finish_process(proc: "Process", exc: BaseException) -> None:
    """Terminate *proc* according to how its generator ended (cold path):
    ``StopIteration`` is a normal return, anything else fails the process
    event."""
    if isinstance(exc, StopIteration):
        proc.succeed(exc.value)
    else:
        proc.fail(exc)


class Process(Event):
    """A running simulation process (also an event: its own completion)."""

    __slots__ = ("generator", "name", "send", "throw")

    def __init__(self, sim: Simulator, generator: Iterator[Any], name: str = "") -> None:
        super().__init__(sim)
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise SimulationError(
                f"Process requires a generator, got {type(generator).__name__}; "
                "did you forget to call the generator function?"
            )
        self.generator = generator
        self.send = generator.send
        self.throw = generator.throw
        self.name = name or getattr(generator, "__name__", "process")
        # Bootstrap: start the generator at the current instant via the calendar
        # so that process start order is deterministic.
        start = Event(sim)
        start.add_callback(self)
        start.succeed()

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    # ------------------------------------------------------------------
    def __call__(self, event: Event) -> None:
        """Drive the generator one step with *event*'s outcome."""
        try:
            if event._ok:
                nxt = self.send(event._value)
            else:
                nxt = self.throw(event._value)
        except BaseException as exc:
            _finish_process(self, exc)
            return
        self._wait_on(nxt)

    def _throw(self, exc: BaseException) -> None:
        try:
            nxt = self.throw(exc)
        except BaseException as err:
            _finish_process(self, err)
            return
        self._wait_on(nxt)

    def _wait_on(self, target: Any) -> None:
        if not isinstance(target, Event):
            self._throw(
                SimulationError(
                    f"process {self.name!r} yielded {target!r}; processes must yield Events"
                )
            )
            return
        if target.sim is not self.sim:
            self._throw(SimulationError("yielded event belongs to a different simulator"))
            return
        target.add_callback(self)
