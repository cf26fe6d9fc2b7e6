"""Shared-resource primitives: FIFO resources and stores.

:class:`Resource` models a server with fixed capacity (e.g. a CPU core or a
DMA engine): processes request a slot, hold it while working, and release
it.  Requests are granted strictly FIFO so contention is deterministic.

:class:`Store` is an unbounded FIFO of items with blocking ``get``; it is a
convenient mailbox between producer/consumer processes.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Generator, List

from .events import Event
from .kernel import SimulationError, Simulator

__all__ = ["Resource", "Store"]


class Resource:
    """A counted resource with FIFO queuing.

    Usage from a process::

        req = resource.request()
        yield req
        try:
            yield sim.timeout(work_ns)
        finally:
            resource.release(req)
    """

    def __init__(self, sim: Simulator, capacity: int = 1) -> None:
        if capacity < 1:
            raise SimulationError("Resource capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self._in_use = 0
        self._waiting: Deque[Event] = deque()

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queue_length(self) -> int:
        return len(self._waiting)

    def request(self) -> Event:
        """Return an event that fires when a slot is granted."""
        ev = Event(self.sim)
        if self._in_use < self.capacity:
            self._in_use += 1
            ev.succeed()
        else:
            self._waiting.append(ev)
        return ev

    def release(self, request: Event) -> None:
        """Release a previously granted slot."""
        if not request.triggered:
            # The request was still queued: cancel it.
            try:
                self._waiting.remove(request)
            except ValueError:  # pragma: no cover - defensive
                raise SimulationError("release() of unknown pending request")
            return
        if self._in_use <= 0:  # pragma: no cover - defensive
            raise SimulationError("release() with no slots in use")
        if self._waiting:
            nxt = self._waiting.popleft()
            nxt.succeed()  # slot transfers; _in_use unchanged
        else:
            self._in_use -= 1

    def acquire(self, hold_ns: int) -> Generator[Event, Any, None]:
        """Convenience sub-process: acquire, hold for *hold_ns*, release."""
        req = self.request()
        yield req
        try:
            yield self.sim.timeout(hold_ns)
        finally:
            self.release(req)


class Store:
    """Unbounded FIFO store of items with blocking ``get``."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def waiting(self) -> int:
        """Number of getters blocked on an empty store."""
        return len(self._getters)

    def put(self, item: Any, delay: int = 0) -> None:
        """Add an item, waking the oldest blocked getter if any.

        *delay* postpones that getter's own event (a consumer that takes
        time to wake up); an item nobody is waiting for is queued at once.
        """
        if self._getters:
            self._getters.popleft().succeed(item, delay)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Return an event that fires with the next item."""
        ev = Event(self.sim)
        if self._items:
            ev.succeed(self._items.popleft())
        else:
            self._getters.append(ev)
        return ev

    def try_get(self) -> Any:
        """Non-blocking get; returns None if empty."""
        return self._items.popleft() if self._items else None

    def snapshot(self) -> List[Any]:
        """Copy of queued items (for inspection in tests)."""
        return list(self._items)
