"""Measurement and aggregation helpers.

Throughput follows the paper's equation (1)::

    throughput = total user bytes sent / (end time - start time)

with *start* the start of the first transfer and *end* the end of the last
transfer.  CPU usage is the host library/application core's busy fraction
over the same window.  Repeated runs aggregate into mean and a 95%
confidence interval, as the paper reports ("we ran each test 10 times and
took the average and 95% confidence interval").
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

__all__ = ["throughput_bps", "MeanCI", "mean_ci", "percentile"]

#: two-sided 97.5% Student-t quantiles for small sample sizes (df 1..30)
_T975 = [
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
    2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
    2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
]


def throughput_bps(total_bytes: int, start_ns: int, end_ns: int) -> float:
    """Paper equation (1), in bits per second."""
    if end_ns <= start_ns:
        return 0.0
    return total_bytes * 8 * 1e9 / (end_ns - start_ns)


@dataclass(frozen=True)
class MeanCI:
    """Mean with a symmetric 95% confidence half-width."""

    mean: float
    half_width: float
    n: int

    @property
    def lo(self) -> float:
        return self.mean - self.half_width

    @property
    def hi(self) -> float:
        return self.mean + self.half_width

    def __str__(self) -> str:
        return f"{self.mean:.4g} ± {self.half_width:.2g}"


def mean_ci(values: Sequence[float]) -> MeanCI:
    """Mean and 95% CI half-width (Student-t for the small-n paper style)."""
    n = len(values)
    if n == 0:
        raise ValueError("no values")
    mean = sum(values) / n
    if n == 1:
        return MeanCI(mean, 0.0, 1)
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    t = _T975[min(n - 1, len(_T975)) - 1]
    return MeanCI(mean, t * math.sqrt(var / n), n)


def percentile(values: Sequence[float], q: float) -> float:
    """The *q*-th percentile (linear interpolation between closest ranks)."""
    if not values:
        raise ValueError("no values")
    if not (0 <= q <= 100):
        raise ValueError("percentile must be in [0, 100]")
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = q / 100 * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    frac = rank - lo
    return ordered[lo] * (1 - frac) + ordered[hi] * frac
