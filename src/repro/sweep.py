"""Deterministic parallel sweep runner.

Every experiment in this reproduction is an embarrassingly parallel sweep:
many independent simulations (one per parameter point per seed) whose
results are aggregated afterwards.  Simulations are deterministic and
self-contained, so spreading them across worker processes changes only the
wall-clock time — never the simulated results.  This module provides the
one sanctioned way to do that:

* :func:`run_sweep` — run ``worker(config, seed)`` for every config, across
  a process pool, with **ordered result collection** (results come back in
  config order regardless of completion order) and **failure propagation**
  (the first worker exception aborts the sweep and re-raises in the parent,
  carrying the failing config's index and traceback).

``python -m repro.bench <artifact> -j N`` fans a paper artifact's grid out
over N worker processes through :func:`run_sweep`.

Determinism contract: for the same ``configs``/``seeds``, the returned list
is identical whether ``processes`` is 1 or N (the regression test in
``tests/test_sweep.py`` enforces this).  Workers must therefore be pure
functions of ``(config, seed)`` — in particular they must not read mutable
process-global state, which no app in :mod:`repro.apps` does.
"""

from __future__ import annotations

import multiprocessing
import os
import traceback
from typing import Any, Callable, List, Optional, Sequence

__all__ = ["SweepError", "run_sweep", "default_seeds"]


class SweepError(RuntimeError):
    """A worker failed; carries the failing config's position and traceback."""

    def __init__(self, index: int, config: Any, seed: int, cause_repr: str, cause_tb: str) -> None:
        super().__init__(
            f"sweep worker failed on config #{index} (seed={seed}): {cause_repr}\n"
            f"--- worker traceback ---\n{cause_tb}"
        )
        self.index = index
        self.config = config
        self.seed = seed


def default_seeds(count: int) -> List[int]:
    """The default per-config seed assignment: 1, 2, 3, ... (deterministic)."""
    return list(range(1, count + 1))


def _invoke(payload):
    """Pool entry point: run one unit, trapping the exception for transport.

    Returns ``(index, True, result)`` or ``(index, False, (repr, tb))`` so
    the parent can both re-order results and propagate failures with the
    worker's traceback (raw exceptions don't always pickle).
    """
    index, worker, config, seed = payload
    try:
        return index, True, worker(config, seed)
    except BaseException as exc:  # noqa: BLE001 - transported to the parent
        return index, False, (repr(exc), traceback.format_exc())


def run_sweep(
    configs: Sequence[Any],
    worker: Callable[[Any, int], Any],
    processes: Optional[int] = None,
    *,
    seeds: Optional[Sequence[int]] = None,
    chunksize: int = 1,
) -> List[Any]:
    """Run ``worker(config, seed)`` for every config; return results in order.

    Parameters
    ----------
    configs:
        The sweep grid.  Each entry (and the worker) must be picklable when
        ``processes > 1``.
    worker:
        A module-level callable ``worker(config, seed) -> result``.
    processes:
        Worker process count.  ``1`` (or a single-entry grid) runs serially
        in-process — no pool, no pickling; ``None``/``0`` means one worker
        per CPU.
    seeds:
        Per-config seeds, parallel to *configs*.  Defaults to
        :func:`default_seeds` (1-based positions).
    chunksize:
        Work units handed to a worker at a time; raise above 1 only for
        very large grids of very short runs.
    """
    configs = list(configs)
    if seeds is None:
        seeds = default_seeds(len(configs))
    else:
        seeds = list(seeds)
        if len(seeds) != len(configs):
            raise ValueError(f"{len(configs)} configs but {len(seeds)} seeds")
    if processes is None or processes <= 0:
        processes = os.cpu_count() or 1

    if processes == 1 or len(configs) <= 1:
        # Serial fast path: same code path shape, no multiprocessing at all.
        results: List[Any] = []
        for i, (config, seed) in enumerate(zip(configs, seeds)):
            try:
                results.append(worker(config, seed))
            except BaseException as exc:
                raise SweepError(i, config, seed, repr(exc), traceback.format_exc()) from exc
        return results

    payloads = [(i, worker, config, seed)
                for i, (config, seed) in enumerate(zip(configs, seeds))]
    # fork (where available) inherits sys.path / imported modules, which
    # keeps "PYTHONPATH=src pytest" invocations working; elsewhere spawn
    # re-imports the worker's module by qualified name.
    method = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
    ctx = multiprocessing.get_context(method)
    out: List[Any] = [None] * len(payloads)
    with ctx.Pool(processes=min(processes, len(payloads))) as pool:
        # imap_unordered: results are re-slotted by index, so collection
        # order never depends on scheduling; failures abort immediately.
        for index, ok, value in pool.imap_unordered(_invoke, payloads, chunksize=chunksize):
            if not ok:
                cause_repr, cause_tb = value
                pool.terminate()
                raise SweepError(index, configs[index], seeds[index], cause_repr, cause_tb)
            out[index] = value
    return out
