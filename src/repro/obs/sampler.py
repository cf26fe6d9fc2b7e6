"""Simulator-clock-driven metric sampling into columns.

The :class:`Sampler` reads every source of a
:class:`~repro.obs.registry.MetricsRegistry` every ``interval_ns`` of
*simulated* time — queue depths, ring occupancy, credits, link bytes, CPU
busy time, direct/indirect transfer counts — so that "direct-ratio over
time" plots exist where the paper's Table III only has end-of-run totals.
A sample appends one time to a shared time column and one row (the
reader's tuple) to each source's block; names exist only when
:attr:`Sampler.series` builds its :class:`TimeSeries` views.

Observation discipline (the determinism contract): a sampler tick only
*reads* simulation state.  It schedules its own calendar entries, which
consume sequence numbers, but the relative order of all other events is
preserved (ties are broken by a monotone per-simulator counter), it never
consumes randomness, and it never touches protocol state — so simulated
results are bit-identical with sampling on or off.  The regression test in
``tests/obs/test_determinism.py`` enforces this.

The tick reschedules itself only while the calendar holds other events;
when the simulation quiesces the sampler stops, so ``Simulator.run()`` with
no ``until`` still terminates, and the next :meth:`Sampler.start` (every
``Fabric.run`` makes one) resumes it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..simnet import Simulator
from .registry import MetricsRegistry, Reader

__all__ = ["Sampler", "TimeSeries"]


class TimeSeries:
    """One metric's sampled points: a time column and a value column, in time order.

    A view: the sampler's views may share a time column with the other
    metrics of their source, so read the columns, don't mutate them.
    """

    __slots__ = ("name", "_times", "_values")

    def __init__(self, name: str, times: Optional[List[int]] = None,
                 values: Optional[List[float]] = None) -> None:
        self.name = name
        self._times: List[int] = times if times is not None else []
        self._values: List[float] = values if values is not None else []

    @property
    def points(self) -> List[Tuple[int, float]]:
        return list(zip(self._times, self._values))

    def times(self) -> List[int]:
        return self._times

    def values(self) -> List[float]:
        return self._values

    def last(self) -> Optional[float]:
        return self._values[-1] if self._values else None

    def deltas(self, allow_negative: bool = False) -> List[Tuple[int, float]]:
        """Per-interval increments of a cumulative series.

        Cumulative counters only move forward, so a negative increment
        means the underlying state reset (a reconnect); by default those
        are clamped to 0 rather than poisoning rate plots with a huge
        negative spike.  Pass ``allow_negative=True`` for genuinely signed
        series (e.g. queue depths).
        """
        out: List[Tuple[int, float]] = []
        prev = 0.0
        for t, v in zip(self._times, self._values):
            d = v - prev
            if d < 0 and not allow_negative:
                d = 0.0
            out.append((t, d))
            prev = v
        return out

    def __len__(self) -> int:
        return len(self._times)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TimeSeries {self.name!r} n={len(self)}>"


class Sampler:
    """Periodic reads of every registry source on the simulated clock."""

    def __init__(
        self,
        sim: Simulator,
        registry: MetricsRegistry,
        *,
        interval_ns: int = 100_000,
        max_samples: int = 100_000,
    ) -> None:
        if interval_ns <= 0:
            raise ValueError("sample interval must be positive")
        self.sim = sim
        self.registry = registry
        self.interval_ns = int(interval_ns)
        self.max_samples = int(max_samples)
        #: the simulated time of every sample
        self._times: List[int] = []
        #: per registry source: (index of its first sample, its rows, its reader)
        self._blocks: List[Tuple[int, list, Reader]] = []
        self.samples_taken = 0
        #: True once the cap stopped further sampling (reported, not silent)
        self.truncated = False
        self._started = False
        #: simulated time of the most recent sample (-1 before the first)
        self.last_sample_ns = -1

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Schedule the next tick ``interval_ns`` from now.

        Idempotent: a no-op while a tick is pending or once the sample cap
        truncated the run.
        """
        if self._started or self.truncated:
            return
        self._started = True
        self.sim.call_in(self.interval_ns, self._tick, None)

    def _tick(self, _arg) -> None:
        self.sample_now()
        if self.samples_taken >= self.max_samples:
            # Bounded memory on very long runs; the truncation is surfaced
            # in exports/reports rather than silently losing the tail.
            self.truncated = True
            return
        # Reschedule only while the simulation is still live: if the
        # calendar is empty nothing can ever run again, and a standing
        # tick would keep `run(until=None)` from terminating.
        if self.sim.peek() is not None:
            self.sim.call_in(self.interval_ns, self._tick, None)
        else:
            self._started = False

    def sample_now(self) -> None:
        """Record one row per source at the current simulated time."""
        blocks = self._blocks
        # a source registered since the last sample starts at this one
        for _names, reader in self.registry.sources[len(blocks):]:
            blocks.append((self.samples_taken, [], reader))
        now = self.sim.now
        self._times.append(now)
        for _first, rows, read in blocks:
            rows.append(read())
        self.samples_taken += 1
        self.last_sample_ns = now

    def finish(self) -> None:
        """Flush one final sample at end-of-run time.

        The tick stream stops at the last multiple of ``interval_ns`` before
        the run ends, silently dropping the tail interval; teardown
        (``Telemetry.finish`` / ``Testbed.run``) calls this so every series
        extends to the run's actual end.  No-op when a sample already
        exists at the current instant, so repeated teardowns don't add
        duplicate points.
        """
        if self.last_sample_ns != self.sim.now:
            self.sample_now()

    # ------------------------------------------------------------------
    @property
    def series(self) -> Dict[str, TimeSeries]:
        """A :class:`TimeSeries` view per metric with at least one point,
        built from the columns on each read."""
        out: Dict[str, TimeSeries] = {}
        for (names, _reader), (first, rows, _read) in zip(self.registry.sources, self._blocks):
            times = self._times[first:first + len(rows)]
            for i, name in enumerate(names):
                t, v = times, [row[i] for row in rows]
                if None in v:
                    t = [ti for ti, vi in zip(times, v) if vi is not None]
                    v = [vi for vi in v if vi is not None]
                if t:
                    out[name] = TimeSeries(name, t, v)
        return out

    def get(self, name: str) -> Optional[TimeSeries]:
        return self.series.get(name)

    def names(self) -> List[str]:
        return sorted(self.series)
