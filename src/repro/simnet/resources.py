"""The store: an unbounded FIFO of items with blocking ``get``, the
mailbox between producer and consumer processes (a listener's incoming
connection requests in the CM, ``ExsEventQueue``).

There is one per event queue, so one or more per connection, and its
FIFOs are mostly empty or short: they are plain lists (``pop(0)``), which
cost 56 bytes empty where a deque costs some 760."""

from __future__ import annotations

from typing import Any, List

from .events import Event
from .kernel import Simulator

__all__ = ["Store"]


class Store:
    """Unbounded FIFO store of items with blocking ``get``."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._items: List[Any] = []
        self._getters: List[Event] = []

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
            self._getters.pop(0).succeed(item, delay)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Return an event that fires with the next item."""
        ev = Event(self.sim)
        if self._items:
            ev.succeed(self._items.pop(0))
        else:
            self._getters.append(ev)
        return ev

    def try_get(self) -> Any:
        """Non-blocking get; returns None if empty."""
        return self._items.pop(0) if self._items else None

    def snapshot(self) -> List[Any]:
        """Copy of queued items (for inspection in tests)."""
        return list(self._items)
