"""Metrics registry: sampled sources and log-bucketed histograms.

One registry per telemetry session unifies the instrumentation that used to
be scattered over :class:`~repro.core.stats.ProtocolStats`,
:class:`~repro.simnet.link.LinkStats`, and the per-host CPU busy-interval
lists.  Two metric kinds:

* a **source** — a fixed tuple of metric names and one zero-argument reader
  that returns their current values as a tuple of the same length, read
  straight out of existing simulation state.  Names and reader are resolved
  once, at registration, so a read is one call and no name is built; a
  value of ``None`` means "no point at this read" (``kernel.next_time`` on a
  drained calendar).  Registering a source adds **zero** cost to the hot
  path: it is only read when the :class:`~repro.obs.sampler.Sampler` (or an
  exporter) asks.  Objects created *after* attachment (EXS connections
  appear mid-simulation) register their own source when they appear.
* :class:`Histogram` — power-of-two ("log2") bucketed distribution for
  latency-style values; observing costs one ``bit_length`` and one list
  index.

The disabled-path discipline matches the tracer's: components hold a
telemetry reference that is ``None`` by default and guard emission with a
single attribute check (see ``ExsConnection.trace``).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = ["Histogram", "MetricsRegistry"]

#: enough log2 buckets for values up to 2**63 ns (~292 years)
_HIST_BUCKETS = 64

#: a zero-argument reader returning one value (or ``None``) per source name
Reader = Callable[[], Sequence[Optional[float]]]


class Histogram:
    """Log2-bucketed distribution of non-negative integer observations.

    Bucket ``i`` counts values whose upper bound is ``2**i - 1`` (i.e. all
    values with ``bit_length() == i``; bucket 0 holds exact zeros).  This
    gives latency histograms spanning nanoseconds to seconds in 64 slots
    with O(1) observation cost.
    """

    __slots__ = ("name", "counts", "count", "sum")

    def __init__(self, name: str) -> None:
        self.name = name
        self.counts: List[int] = [0] * _HIST_BUCKETS
        self.count = 0
        self.sum = 0

    def observe(self, value: int) -> None:
        if value < 0:
            raise ValueError(f"histogram {self.name!r}: negative observation {value}")
        self.counts[value.bit_length()] += 1
        self.count += 1
        self.sum += value

    def nonzero_buckets(self) -> List[Tuple[int, int]]:
        """``(upper_bound, count)`` for every populated bucket, ascending."""
        return [
            ((1 << i) - 1, c) for i, c in enumerate(self.counts) if c
        ]

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> int:
        """Upper bound of the bucket containing the *q*-quantile (0..1)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if not self.count:
            return 0
        target = q * self.count
        seen = 0
        for i, c in enumerate(self.counts):
            seen += c
            if c and seen >= target:
                return (1 << i) - 1
        return (1 << (_HIST_BUCKETS - 1)) - 1  # pragma: no cover - defensive


class MetricsRegistry:
    """Home for sources and histograms; every metric name is registered once."""

    def __init__(self) -> None:
        #: ``(names, reader)`` per source, in registration order (the
        #: sampler keeps one column block per entry)
        self.sources: List[Tuple[Tuple[str, ...], Reader]] = []
        self._names: set = set()
        self._histograms: Dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def source(self, names: Iterable[str], reader: Reader) -> None:
        """Register *reader*, which returns one value per name in *names*."""
        names = tuple(names)
        for i, name in enumerate(names):
            if name in self._names or name in self._histograms or name in names[:i]:
                raise ValueError(f"metric {name!r} already registered")
        self._names.update(names)
        self.sources.append((names, reader))

    def histogram(self, name: str) -> Histogram:
        """The histogram called *name*, created on first use."""
        h = self._histograms.get(name)
        if h is None:
            if name in self._names:
                raise ValueError(f"metric {name!r} already registered")
            h = self._histograms[name] = Histogram(name)
        return h

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, float]:
        """Current value of every source name (``None`` values left out).

        Histograms are excluded (they are not scalars); exporters read them
        through :meth:`histograms`.
        """
        out: Dict[str, float] = {}
        for names, reader in self.sources:
            for name, value in zip(names, reader()):
                if value is not None:
                    out[name] = value
        return out

    def histograms(self) -> Iterable[Histogram]:
        return self._histograms.values()

    def get_histogram(self, name: str) -> Optional[Histogram]:
        return self._histograms.get(name)

    def __len__(self) -> int:
        return len(self._names) + len(self._histograms)
