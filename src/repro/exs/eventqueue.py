"""EXS event queues.

Almost every EXS call is asynchronous (paper §II-B): the library queues the
request and returns immediately; when the operation completes, an event is
placed on an event queue previously created by the user with
``exs_qcreate()``, and the user retrieves it with ``exs_qdequeue()``.

In the simulation, ``exs_qdequeue`` returns a kernel event to ``yield`` on.
"""

from __future__ import annotations

import enum
from typing import Any, Optional

from ..records import record
from ..simnet import Event, Simulator, Store
from ..verbs.comp_channel import WakeupSampler, WakeupStream

__all__ = ["ExsEventType", "ExsEvent", "ExsEventQueue"]


class ExsEventType(enum.Enum):
    """What completed."""

    CONNECT = "connect"
    ACCEPT = "accept"
    SEND = "send"
    RECV = "recv"
    CLOSE = "close"
    ERROR = "error"


@record
class ExsEvent:
    """One completion delivered to the application."""

    kind: ExsEventType
    socket: Any
    #: bytes transferred (sends: full request; recvs: possibly fewer)
    nbytes: int = 0
    #: True when a recv completed at end-of-stream with no data
    eof: bool = False
    #: True when a SOCK_SEQPACKET message was cut to fit the receive buffer
    truncated: bool = False
    #: user context passed to the originating call
    context: Any = None
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None

    def expect(self, kind: "ExsEventType") -> "ExsEvent":
        """Assert this completion is a successful *kind*; returns ``self``.

        The named replacement for ad-hoc ``if ev.kind is not ...`` poking::

            ev = (yield eq.dequeue()).expect(ExsEventType.SEND)
            sent = ev.nbytes

        Raises :class:`~repro.exs.socket.ExsError` carrying both the
        expected and actual kind (plus the library's error string, if any)
        when the completion is anything else.
        """
        if self.kind is not kind or self.error is not None:
            from .socket import ExsError  # circular at module load time

            detail = f": {self.error}" if self.error else ""
            raise ExsError(
                f"expected {kind.value} completion, got {self.kind.value}{detail}"
            )
        return self


class ExsEventQueue:
    """Created by ``exs_qcreate()``; the application's completion mailbox.

    When the application is actually *blocked* in ``exs_qdequeue`` (the
    queue was empty), delivery pays an OS wake-up latency drawn from
    ``wakeup`` — the application-thread twin of the completion-channel
    wake-up (see :mod:`repro.verbs.comp_channel`).  An application that
    finds events already queued pays nothing, which models the natural
    batching of a busy event loop.
    """

    def __init__(
        self,
        sim: Simulator,
        depth: int = 4096,
        wakeup: Optional[WakeupSampler] = None,
        seed: int = 0,
    ) -> None:
        self.sim = sim
        self.depth = depth
        self._store = Store(sim)
        self.delivered = 0
        self.wakeup = wakeup
        self._wakes = WakeupStream(seed)
        self.slept_wakeups = 0
        #: completions discarded because the application stopped dequeueing
        self.dropped = 0
        self._overflow_reported = False

    def post(self, event: ExsEvent) -> None:
        """Library side: deliver a completion.

        Overflow (the application stopped dequeueing) must not crash the
        library mid-callback: the completion is dropped and counted, and a
        single reserved-slot ERROR event is surfaced so the application
        learns its mailbox overflowed the next time it does dequeue.
        """
        store = self._store
        if len(store._items) >= self.depth:
            self.dropped += 1
            if not self._overflow_reported:
                # The reserved slot goes one past depth so the error itself
                # cannot be lost to the same overflow it reports.
                self._overflow_reported = True
                self.delivered += 1
                store.put(
                    ExsEvent(
                        kind=ExsEventType.ERROR,
                        socket=event.socket,
                        context=event.context,
                        error="event queue overflow (application not dequeueing)",
                    )
                )
            return
        self.delivered += 1
        if self.wakeup is not None and store._getters:
            # the application is asleep in dequeue(): it gets the event
            # one OS wake-up later
            wakes = self._wakes
            store.put(event, delay=int(round(self.wakeup(wakes.rng or wakes))))
        else:
            store.put(event)

    def dequeue(self) -> Event:
        """``exs_qdequeue()``: event firing with the next :class:`ExsEvent`."""
        ev = self._store.get()
        if ev._ok is None and self.wakeup is not None:  # not triggered
            # The caller is about to sleep; post() charges the wake-up.
            self.slept_wakeups += 1
        return ev

    def try_dequeue(self) -> Optional[ExsEvent]:
        """Non-blocking poll."""
        return self._store.try_get()

    def __len__(self) -> int:
        return len(self._store)
