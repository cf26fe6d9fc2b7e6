#!/usr/bin/env python3
"""Apply BENCHMARK.json's bounds to two result files of perf/run.py.

    python3 perf/compare.py A.json B.json     # A = parent (base), B = change

One row per workload x end-to-end metric: ``better``, ``within bound``,
``worse`` (B's median is worse than A's by more than the bound) or
``unresolved`` (the run-to-run spread is wider than the bound, so the
medians cannot say; not the same as unchanged).  Every ratio is printed with
its base.  Exits non-zero on any ``worse``.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_bounds(path: str = os.path.join(ROOT, "BENCHMARK.json")) -> Dict[str, Tuple[str, float]]:
    with open(path) as fh:
        spec = json.load(fh)
    return {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}


def spread(metric: dict) -> float:
    """Interquartile range of the run's samples as a share of their median
    (0 for simulated metrics, which have no samples: they are exact)."""
    if "q1" not in metric or not metric["value"]:
        return 0.0
    return abs(metric["q3"] - metric["q1"]) / abs(metric["value"])


def verdict(a: dict, b: dict, better: str, bound: float) -> Tuple[str, float]:
    """(verdict, worsening): worsening is B's change in the bad direction as
    a share of A's value (negative = improvement)."""
    sign = -1.0 if better == "higher" else 1.0
    worsening = sign * (b["value"] - a["value"]) / abs(a["value"])
    if a.get("resolved") is False or b.get("resolved") is False:
        return "unresolved", worsening
    if max(spread(a), spread(b)) > bound:
        # too noisy for the medians to decide, unless the samples separate:
        # B's worse quartile still on the good side of A's better quartile
        def badness(m: dict) -> Tuple[float, float]:
            return tuple(sorted((sign * m["q1"], sign * m["q3"])))

        if "q1" in a and "q1" in b and badness(b)[1] < badness(a)[0]:
            return "better", worsening
        return "unresolved", worsening
    if worsening > bound:
        return "worse", worsening
    # host numbers wobble even with tight samples (peak RSS has none): below a
    # third of the bound an improvement is noise; simulated values are exact
    noise = max(spread(a), spread(b), bound / 3 if a.get("clock") == "host" else 0.0)
    if -worsening > noise:
        return "better", worsening
    return "within bound", worsening


def compare(a: dict, b: dict, bounds: Dict[str, Tuple[str, float]]) -> List[dict]:
    rows = []
    for name, base in a["workloads"].items():
        new = b["workloads"].get(name)
        if new is None or "end_to_end" not in base or "end_to_end" not in new:
            continue
        same = base["fingerprint"] == new["fingerprint"]
        for metric, (better, bound) in bounds.items():
            va, vb = base["end_to_end"].get(metric), new["end_to_end"].get(metric)
            if va is None or vb is None:
                continue
            what, worsening = verdict(va, vb, better, bound)
            rows.append({
                "workload": name, "metric": metric, "a": va["value"], "b": vb["value"],
                "unit": va["unit"], "worsening": worsening, "bound": bound,
                "spread_a": spread(va), "spread_b": spread(vb),
                "verdict": what, "sim_identical": same,
            })
    return rows


def render(rows: List[dict]) -> str:
    lines = []
    workload: Optional[str] = None
    for r in rows:
        if r["workload"] != workload:
            workload = r["workload"]
            lines.append(f"{workload}: simulated fingerprint "
                         f"{'identical' if r['sim_identical'] else 'CHANGED (a model change)'}")
        lines.append(
            f"  {r['metric']:20s} A={r['a']:<12.6g} B={r['b']:<12.6g} {r['unit']:5s} "
            f"worsening {r['worsening'] * 100:+7.2f}% of A={r['a']:.6g} "
            f"(bound {r['bound'] * 100:.0f}%, spread A {r['spread_a'] * 100:.1f}% "
            f"B {r['spread_b'] * 100:.1f}%)  {r['verdict']}"
        )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    docs = []
    for path in args:
        with open(path) as fh:
            docs.append(json.load(fh))
    rows = compare(docs[0], docs[1], load_bounds())
    print(render(rows))
    counts: Dict[str, int] = {}
    for r in rows:
        counts[r["verdict"]] = counts.get(r["verdict"], 0) + 1
    print("; ".join(f"{n} {v}" for v, n in sorted(counts.items())) or "no comparable rows")
    return 1 if counts.get("worse") or not rows else 0


if __name__ == "__main__":
    sys.exit(main())
