"""Command-line figure runner: regenerate the paper's tables and figures.

Usage::

    python -m repro.bench                 # every figure + Table III (quick)
    python -m repro.bench fig9a fig13     # a subset
    python -m repro.bench --quality smoke # faster / --quality paper for 10 reps
    python -m repro.bench fig12a -j 4     # the run grid over 4 worker processes
    python -m repro.bench --list

Prints each artifact as an aligned table (the data behind the paper's
plots).  ``--processes/-j`` spreads each artifact's grid of independent
simulations over worker processes (:func:`repro.sweep.run_sweep`); the
tables are identical for every worker count.  See EXPERIMENTS.md for the
paper-vs-simulation comparison.
"""

from __future__ import annotations

import argparse
import sys
import time

from .experiment import PAPER, QUICK, SMOKE
from .figures import fig9a, fig9b, fig10a, fig10b, fig11, fig12, fig13, table3

QUALITIES = {"smoke": SMOKE, "quick": QUICK, "paper": PAPER}


def _figure_runners():
    return {
        "fig9a": lambda q, p: fig9a(q, processes=p).text("throughput"),
        "fig9b": lambda q, p: fig9b(q, processes=p).text("throughput"),
        "fig10a": lambda q, p: fig10a(q, processes=p).text("cpu"),
        "fig10b": lambda q, p: fig10b(q, processes=p).text("cpu"),
        "fig11a": lambda q, p: fig11(q, processes=p).text("throughput"),
        "fig11b": lambda q, p: fig11(q, processes=p).text("ratio"),
        "fig12a": lambda q, p: fig12(q, processes=p).text("throughput"),
        "fig12b": lambda q, p: fig12(q, processes=p).text("ratio"),
        "fig13": lambda q, p: fig13(q, processes=p).text("throughput_mbps"),
        "table3": lambda q, p: table3(q, processes=p)[1],
    }


def main(argv=None) -> int:
    runners = _figure_runners()
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's evaluation tables and figures.",
    )
    parser.add_argument("artifacts", nargs="*", metavar="ARTIFACT",
                        help=f"which to run (default: all): {', '.join(runners)}")
    parser.add_argument("--quality", choices=sorted(QUALITIES), default="quick",
                        help="run length / repetition count (default: quick)")
    parser.add_argument("--processes", "-j", type=int, default=1,
                        help="worker processes for each artifact's run grid "
                             "(default: 1 = serial; 0 = one per CPU)")
    parser.add_argument("--list", action="store_true", help="list artifacts and exit")
    args = parser.parse_args(argv)

    if args.list:
        for name in runners:
            print(name)
        return 0

    selected = args.artifacts or list(runners)
    unknown = [a for a in selected if a not in runners]
    if unknown:
        parser.error(f"unknown artifact(s): {', '.join(unknown)}")

    quality = QUALITIES[args.quality]
    for name in selected:
        t0 = time.time()
        text = runners[name](quality, args.processes)
        print(text)
        print(f"[{name} done in {time.time() - t0:.1f}s at quality={quality.name}]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
