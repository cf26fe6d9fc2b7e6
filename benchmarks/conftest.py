"""Shared infrastructure for the reproduction benchmarks.

Every benchmark regenerates one table or figure from the paper, prints the
series (the data behind the plot), and asserts the paper's *shape* claims —
who wins, by roughly what factor, where crossovers fall.  Absolute numbers
are simulator-calibrated, not testbed-identical (see EXPERIMENTS.md).

Run with ``pytest benchmarks/ --benchmark-only``.  Scale with
``REPRO_BENCH_QUALITY={smoke,quick,paper}`` (default: quick).
"""

from __future__ import annotations

import sys

import pytest

sys.path.insert(0, "tests")  # reuse test helpers when run standalone

from repro.bench.experiment import QUICK, quality_from_env


@pytest.fixture(scope="session")
def quality():
    return quality_from_env(default=QUICK)


def run_once(benchmark, fn):
    """Run *fn* exactly once under pytest-benchmark and return its result.

    The simulations are deterministic and long; statistical repetition adds
    nothing (the interesting statistics are the paper-style mean±CI across
    seeds *inside* each run).
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
