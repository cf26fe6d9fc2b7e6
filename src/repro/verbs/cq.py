"""Completion queues and work completions."""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, List, Optional

from ..records import record
from .enums import WCOpcode, WCStatus

__all__ = ["WorkCompletion", "CompletionQueue"]


@record
class WorkCompletion:
    """One completion-queue entry (``ibv_wc``)."""

    wr_id: int
    opcode: WCOpcode
    status: WCStatus
    byte_len: int = 0
    imm_data: int = 0
    qp_num: int = 0
    #: True when the completion carries an immediate value (WWI receives)
    wc_flags_with_imm: bool = False
    context: Any = None
    #: model-level delivery metadata for receive completions: the payload
    #: chunk and the remote address it was placed at.  A real system infers
    #: both from DMA placement; the simulation surfaces them so upper layers
    #: can run their safety checks against ground truth.
    meta: Any = None

    @property
    def ok(self) -> bool:
        return self.status is WCStatus.SUCCESS


class CompletionQueue:
    """FIFO of :class:`WorkCompletion` with optional event notification.

    Mirrors the verbs usage pattern::

        cq.req_notify()           # arm
        channel.wait(on_wake)     # sleep until something completes
        wcs = cq.poll()           # drain (in on_wake)

    ``req_notify`` arms a one-shot notification on the attached channel;
    pushing a CQE onto an armed CQ fires the channel (which models the OS
    wake-up latency, see :class:`~repro.verbs.comp_channel.CompletionChannel`).
    A poller that asks "anything queued?" on every lap tests :attr:`entries`
    for truth (no Python call) and polls only when it holds something.
    """

    def __init__(self, channel: "Optional[object]" = None, capacity: int = 1 << 16) -> None:
        #: the queued completions, oldest first; read it, never change it
        self.entries: Deque[WorkCompletion] = deque()
        self.channel = channel
        self.capacity = capacity
        self._armed = False
        #: cumulative counters for diagnostics
        self.total_pushed = 0
        self.overflowed = False

    def __len__(self) -> int:
        return len(self.entries)

    def push(self, wc: WorkCompletion) -> None:
        """Add a completion (called by the transport engine)."""
        if len(self.entries) >= self.capacity:  # pragma: no cover - defensive
            self.overflowed = True
            raise RuntimeError("completion queue overflow")
        self.entries.append(wc)
        self.total_pushed += 1
        if self._armed and self.channel is not None:
            self._armed = False
            self.channel.notify()  # type: ignore[attr-defined]

    def poll(self, max_entries: int = 0) -> List[WorkCompletion]:
        """Remove and return up to *max_entries* completions (0 = all)."""
        entries = self.entries
        if not entries:
            return []
        if max_entries <= 0 or max_entries >= len(entries):
            out = list(entries)
            entries.clear()
            return out
        return [entries.popleft() for _ in range(max_entries)]

    def req_notify(self) -> None:
        """Arm a one-shot notification for the next pushed completion."""
        self._armed = True
        # Verbs semantics: arming with entries already queued does not fire
        # the channel; callers must poll before sleeping.  The EXS progress
        # engine does exactly that.
