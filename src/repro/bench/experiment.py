"""Experiment execution: repeated runs, aggregation, quality levels.

The paper ran each configuration 10 times and reported mean ± 95% CI.  The
same scheme is used here, with a *quality* knob controlling how many
messages per run and how many repetitions (seeds) — so the benchmark suite
can run as a quick smoke pass or at full paper scale:

* ``smoke`` — minimal, for CI (~minutes for the whole suite)
* ``quick`` — the default; shapes are stable
* ``paper`` — 10 repetitions, long runs

Select with the ``REPRO_BENCH_QUALITY`` environment variable.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

from ..apps.blast import BlastConfig, BlastResult, run_blast
from ..apps.metrics import MeanCI, mean_ci
from ..config import ScenarioConfig
from ..sweep import run_sweep

__all__ = [
    "RunQuality",
    "SMOKE",
    "QUICK",
    "PAPER",
    "quality_from_env",
    "AggregateResult",
    "run_repeated",
    "run_grid",
]


@dataclass(frozen=True)
class RunQuality:
    """How much work to spend per experiment point."""

    name: str
    #: messages per run for exponential-size workloads
    messages: int
    #: seeds (= repetitions); the paper used 10
    seeds: tuple
    #: total-bytes budget used to scale message counts for fixed-size sweeps
    bytes_budget: int = 96 * 1024 * 1024

    def fixed_size_messages(self, size: int, lo: int = 30, hi: int = 800) -> int:
        """Message count for a fixed-size run, bounded to keep runs sane."""
        return max(lo, min(hi, self.bytes_budget // size))


SMOKE = RunQuality("smoke", messages=120, seeds=(1, 2), bytes_budget=48 * 1024 * 1024)
QUICK = RunQuality("quick", messages=300, seeds=(1, 2, 3))
PAPER = RunQuality("paper", messages=1500, seeds=tuple(range(1, 11)), bytes_budget=512 * 1024 * 1024)

_QUALITIES = {q.name: q for q in (SMOKE, QUICK, PAPER)}


def quality_from_env(default: RunQuality = QUICK) -> RunQuality:
    """Quality selected by ``REPRO_BENCH_QUALITY`` (smoke/quick/paper)."""
    name = os.environ.get("REPRO_BENCH_QUALITY", "").strip().lower()
    return _QUALITIES.get(name, default)


@dataclass
class AggregateResult:
    """Mean±CI of the standard metrics over repeated runs."""

    throughput_bps: MeanCI
    receiver_cpu: MeanCI
    sender_cpu: MeanCI
    direct_ratio: MeanCI
    mode_switches: MeanCI
    runs: List[BlastResult]

    @property
    def throughput_gbps(self) -> float:
        return self.throughput_bps.mean / 1e9

    @property
    def throughput_mbps(self) -> float:
        return self.throughput_bps.mean / 1e6


def _blast_worker(unit, seed: int) -> BlastResult:
    """Sweep worker: one simulation run.  Module-level so it pickles.

    The unit carries a fully-resolved :class:`~repro.config.ScenarioConfig`
    (seed already folded in), so workers need no environment-variable side
    channel; *seed* is the sweep bookkeeping copy of ``scenario.seed``.
    """
    cfg, scenario, max_events = unit
    return run_blast(cfg, scenario=scenario, max_events=max_events)


def _reseeded(config: BlastConfig, seed: int) -> BlastConfig:
    """The per-repetition config: message-size generator mixed with *seed*."""
    sizes = config.sizes
    if hasattr(sizes, "seed"):
        sizes = replace_seed(sizes, seed)
    return replace(config, sizes=sizes)


def _aggregate(runs: List[BlastResult]) -> AggregateResult:
    return AggregateResult(
        throughput_bps=mean_ci([r.throughput_bps for r in runs]),
        receiver_cpu=mean_ci([r.receiver_cpu for r in runs]),
        sender_cpu=mean_ci([r.sender_cpu for r in runs]),
        direct_ratio=mean_ci([r.direct_ratio for r in runs]),
        mode_switches=mean_ci([float(r.mode_switches) for r in runs]),
        runs=runs,
    )


def run_grid(
    configs: Sequence[BlastConfig],
    scenario: Optional[ScenarioConfig] = None,
    quality: RunQuality = QUICK,
    *,
    processes: int = 1,
    max_events: Optional[int] = 400_000_000,
) -> List[AggregateResult]:
    """Run every config once per seed — optionally in parallel — and
    aggregate per config, preserving config order.

    Expands ``configs × quality.seeds`` into independent simulation units
    and executes them through :func:`repro.sweep.run_sweep`; each unit
    reseeds both the testbed (wake-up latencies) and the message-size
    generator, as independent runs of the real tool would.  Results are
    identical for any ``processes`` value (simulations are deterministic
    and self-contained).

    *scenario* is the run-environment template (default
    ``ScenarioConfig()``): each unit gets a copy with that repetition's
    seed folded in (``replace(scenario, seed=seed)``), and the copy travels
    inside the pickled work unit, so sweep workers need no
    environment-variable side channel.  ``scenario.telemetry_dir`` makes
    every unit write a per-run :mod:`repro.obs` JSONL artifact into that
    directory (created if missing).
    """
    scenario = scenario or ScenarioConfig()
    if scenario.telemetry_dir:
        os.makedirs(scenario.telemetry_dir, exist_ok=True)
    units = []
    unit_seeds: List[int] = []
    for config in configs:
        for seed in quality.seeds:
            units.append((_reseeded(config, seed), replace(scenario, seed=seed), max_events))
            unit_seeds.append(seed)
    results = run_sweep(units, _blast_worker, processes, seeds=unit_seeds)
    reps = len(quality.seeds)
    return [_aggregate(results[i * reps:(i + 1) * reps]) for i in range(len(configs))]


def run_repeated(
    config: BlastConfig,
    scenario: Optional[ScenarioConfig] = None,
    quality: RunQuality = QUICK,
    *,
    processes: int = 1,
    max_events: Optional[int] = 400_000_000,
) -> AggregateResult:
    """Run *config* once per seed and aggregate the paper's metrics."""
    return run_grid([config], scenario, quality, processes=processes,
                    max_events=max_events)[0]


def replace_seed(gen, seed: int):
    """Copy a size generator with a new seed (mixing in its original)."""
    import copy

    out = copy.copy(gen)
    out.seed = gen.seed * 1000 + seed
    return out
