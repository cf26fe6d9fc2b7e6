"""Host CPU model: serialized execution with busy-time accounting.

The paper's receiver-side CPU usage (its Fig. 10) comes from one effect: in
indirect mode the EXS library thread spends its time ``memcpy``-ing data out
of the intermediate buffer, while in direct mode the HCA places data without
CPU involvement and the thread only handles completion events.

:class:`Cpu` models the *library/application core* of a host: one core
served strictly FIFO.  Work items occupy the core for a duration given by the
:class:`CpuCostModel` and the busy time is accumulated, from which
utilisation over a measurement window is computed exactly (partial overlap
of a work interval with the window is accounted for).
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Generator, List, Optional, Tuple

from ..simnet import Event, Simulator

__all__ = ["Cpu", "CpuCostModel"]


@dataclass(frozen=True)
class CpuCostModel:
    """Per-operation CPU costs (nanoseconds) for the EXS software path.

    These constants are *calibration knobs* of the simulation; the defaults
    were chosen so that FDR-InfiniBand-profile runs land in the paper's
    reported ranges (see ``repro.bench.profiles``).
    """

    #: cost to post one send/recv work request (driver + doorbell)
    post_wr_ns: int = 200
    #: cost to reap and dispatch one completion-queue entry
    completion_ns: int = 350
    #: cost to process one incoming control message (ADVERT/ACK)
    control_ns: int = 250
    #: cost to build and post one outgoing control message
    send_control_ns: int = 300
    #: application-level cost to handle one event-queue completion and repost
    app_repost_ns: int = 500
    #: fixed per-copy overhead added to the byte-rate cost of a memcpy
    copy_setup_ns: int = 150

    def copy_ns(self, nbytes: int, copy_bandwidth_bps: float) -> int:
        """Duration of a memcpy of *nbytes* at the host's copy bandwidth."""
        if nbytes <= 0:
            return self.copy_setup_ns
        return self.copy_setup_ns + int(round(nbytes * 8 * 1e9 / copy_bandwidth_bps))


class Cpu:
    """Single-core FIFO CPU with exact busy-time accounting."""

    def __init__(self, sim: Simulator, costs: CpuCostModel | None = None) -> None:
        self.sim = sim
        self.costs = costs or CpuCostModel()
        self._busy = False
        #: work items queued behind the running one: a work() turn event
        #: or a run() request tuple
        self._waiting: Deque[Any] = deque()
        #: busy intervals [(start, end)], time-ordered and disjoint;
        #: work() coalesces intervals that touch
        self._intervals: List[Tuple[int, int]] = []
        self._busy_ns_total = 0
        # the run() charge holding the core: its start and continuation
        self._start = 0
        self._then: Optional[Callable[[Any], None]] = None
        self._then_arg: Any = None

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def work(self, duration_ns: int) -> Generator[Event, Any, None]:
        """Sub-process: occupy the core for *duration_ns* and account it.

        Usage: ``yield from cpu.work(ns)`` from inside a simulation process.
        The free-core path is straight-line: the core is claimed
        synchronously (no grant event) and the clock is read from the slot
        behind ``sim.now``.
        """
        if duration_ns < 0:
            raise ValueError("negative CPU work")
        sim = self.sim
        if self._busy:
            # Contended: strict FIFO through the event queue.  The core is
            # handed over still busy when this turn comes.
            turn = Event(sim)
            self._waiting.append(turn)
            yield turn
        else:
            self._busy = True
        start = sim._now
        try:
            if duration_ns:
                yield sim.timeout(duration_ns)
        finally:
            self._release(start)

    def run(self, duration_ns: int, fn: Callable[[Any], None], arg: Any = None) -> bool:
        """Callback form of :meth:`work` (same queue, accounting and
        calendar entries): occupy the core for *duration_ns*, then call
        ``fn(arg)`` from the calendar and return True — or return False,
        calling nothing, when there is nothing to wait for (zero ns on a
        free core), so a driver loop simply carries on."""
        if duration_ns < 0:
            raise ValueError("negative CPU work")
        if self._busy:
            self._waiting.append((duration_ns, fn, arg))
            return True
        if not duration_ns:
            return False
        self._busy = True
        self._hold(duration_ns, fn, arg)
        return True

    def _hold(self, duration_ns: int, fn: Callable[[Any], None], arg: Any) -> None:
        """Occupy the claimed core for a :meth:`run` request (one holds it
        at a time, so its continuation waits on the Cpu itself)."""
        if duration_ns:
            self._start = self.sim._now
            self._then = fn
            self._then_arg = arg
            self.sim.call_in(duration_ns, self._cpu_done)
        else:
            self._release(self.sim._now)
            fn(arg)

    def _cpu_turn(self, request: Tuple[int, Callable[[Any], None], Any]) -> None:
        self._hold(*request)

    def _cpu_done(self, _arg: Any) -> None:
        fn = self._then
        arg = self._then_arg
        self._release(self._start)
        fn(arg)

    def _release(self, start: int) -> None:
        """Account the work item that held the core since *start*, then
        hand the core to the next queued item (still busy) or free it."""
        end = self.sim._now
        if end > start:
            intervals = self._intervals
            if intervals and intervals[-1][1] > start:
                # a busy-poll span recorded meanwhile reaches past *start*
                self._merge(start, end)
            else:
                self._busy_ns_total += end - start
                if intervals and intervals[-1][1] == start:
                    # back-to-back work extends the open interval: a busy
                    # core keeps one entry per burst, not one per work item
                    intervals[-1] = (intervals[-1][0], end)
                else:
                    intervals.append((start, end))
        waiting = self._waiting
        if waiting:
            nxt = waiting.popleft()
            if nxt.__class__ is tuple:
                self.sim.call_in(0, self._cpu_turn, nxt)
            else:
                nxt.succeed()
        else:
            self._busy = False

    def record_busy(self, start: int, end: int) -> None:
        """Account busy time that did not go through :meth:`work` (e.g. a
        thread spinning in a busy-poll loop).

        Several busy-polling engines share the one core, so their spans
        overlap each other and the work done meanwhile: the core is busy
        over the *union* of them, counted once.
        """
        if end > start:
            self._merge(start, end)

    def _merge(self, start: int, end: int) -> None:
        """Add ``[start, end)`` to the busy intervals as a union, keeping
        them time-ordered and disjoint."""
        intervals = self._intervals
        i = bisect_left(intervals, (start, start))
        if i and intervals[i - 1][1] >= start:
            i -= 1
        j = i
        lo, hi, covered = start, end, 0
        while j < len(intervals) and intervals[j][0] <= end:
            s, e = intervals[j]
            covered += e - s
            lo = min(lo, s)
            hi = max(hi, e)
            j += 1
        intervals[i:j] = [(lo, hi)]
        self._busy_ns_total += hi - lo - covered

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    @property
    def busy_ns_total(self) -> int:
        return self._busy_ns_total

    def busy_ns_between(self, start: int, end: int) -> int:
        """Busy nanoseconds overlapping the window ``[start, end]``."""
        if end <= start:
            return 0
        total = 0
        for s, e in self._intervals:
            lo = max(s, start)
            hi = min(e, end)
            if hi > lo:
                total += hi - lo
        return total

    def utilization_between(self, start: int, end: int) -> float:
        """Fraction of ``[start, end]`` the core was busy (0.0–1.0)."""
        if end <= start:
            return 0.0
        return self.busy_ns_between(start, end) / (end - start)

    @property
    def queue_length(self) -> int:
        return len(self._waiting)
