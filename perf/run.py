#!/usr/bin/env python3
"""The repo's benchmark: end-to-end and per-layer host time of the simulator.

    python3 perf/run.py                       # all workloads, untraced + traced
    python3 perf/run.py --workload blast_stream --seed 1 --seconds 24 --trace 0
    python3 perf/run.py --workload echo_small --trace 1 --out echo-traced.json

Prints every metric by name with its unit, naming its clock (**host**:
CPU seconds of the harness, speed-normalised, noisy, bounded; **sim**:
simulated nanoseconds, bit-exact for a fixed seed), then one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  Exits non-zero on any
correctness failure.  See perf/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import warnings
from typing import List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def prepare_environment() -> None:
    """Make the run depend on nothing but its arguments.

    Every ``REPRO_*`` variable is dropped before ``repro`` is imported, so
    no kernel/transport/reliability knob leaks in.  One is then set: the C
    accelerator's compile cache, which defaults to ``~/.cache`` — the
    benchmark must write only inside its checkout.
    """
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        sys.exit("perf/run.py: no src/repro beside perf/ — run it from a checkout "
                 "of the repository")
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["REPRO_ACCEL_CACHE"] = os.path.join(ROOT, ".bench_build", "repro-simnet")
    sys.path.insert(0, os.path.join(ROOT, "src"))


def git_commit() -> Optional[str]:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None  # an exported checkout
    done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return done.stdout.strip() if done.returncode == 0 else None


def run_one(name: str, seed: int, seconds: float, traced: bool) -> Tuple[dict, dict]:
    """Measure one workload in this process; returns (result document for
    ``--out``, the final JSON line's object)."""
    # imported only now: these import repro, which must see the environment
    # main() cleaned
    import layers
    import measure
    from workloads import WORKLOADS

    # calls made from here on must not lean on deprecated spellings
    warnings.simplefilter("error", DeprecationWarning)
    workload = WORKLOADS[name]
    accel_load_s = measure.accelerator_load_s()
    manifest = {
        "commit": git_commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "seconds": seconds,
        "accel_load_s": accel_load_s,
        "reference_nominal_s": measure.Calibration.NOMINAL_S,
    }
    print(f"== {name} seed={seed} {'traced' if traced else 'untraced'} ==")

    if traced:
        metrics, gate = layers.trace(workload, seed, seconds, accel_load_s)
        spec = layers.per_layer_spec()
        failures = gate["failures"]
        attempted, failed = gate["attempted"], gate["failed"]
        fingerprint, accelerator = gate["fingerprint"], gate["accelerator"]
        manifest.update(kernel=gate["kernel"], calendar=gate["calendar"])
        values = {n: {"value": metrics[n], "unit": unit, "clock": clock}
                  for n, unit, _better, clock in spec}
        section = "per_layer"
        extra = {"plain_wall_s": gate["plain_wall_s"], "profiled_reps": gate["profiled_reps"]}
    else:
        m = measure.measure(workload, seed, seconds, measure.Calibration())
        values = measure.end_to_end(workload, m)
        failures, attempted, failed = m.failures, m.attempted, m.failed
        fingerprint, accelerator = m.fingerprint, m.accelerator
        fabric = m.reference.fabric  # run_incast hides its fabric: see the traced run
        manifest.update(
            kernel=fabric.kernel if fabric else None,
            calendar=fabric.sim.calendar_stats()["backend"] if fabric else None,
        )
        missing = [n for n, *_ in measure.END_TO_END if n not in values]
        if missing:
            failures = failures + [f"not measured: {', '.join(missing)}"]
        section = "end_to_end"
        extra = measure.host_summary(m)
    manifest["accelerator"] = "live" if accelerator else "off (pure-Python kernel)"

    print("manifest: " + " ".join(f"{k}={v}" for k, v in manifest.items()))
    print(f"fingerprint[{name}] = {fingerprint}")
    for metric, v in values.items():
        line = f"[{v['clock']:4s}] {metric} = {v['value']:.6g} {v['unit']}"
        if "q1" in v:
            line += f"  (q1 {v['q1']:.6g}, q3 {v['q3']:.6g}, n={v['n']})"
        if "percentile" in v:
            line += f"  (p{v['percentile']:g} of {v['samples']} samples)"
        elif "samples" in v:
            line += f"  ({v['samples']} samples)"
        if v.get("resolved") is False:
            line += "  UNRESOLVED: too many disturbed samples"
        print(line)
    print("run: " + json.dumps({k: v for k, v in extra.items() if k != "samples"}))
    for failure in failures:
        print(f"FAILED: {failure}")
    print(f"fail_share = {failed}/{attempted}")

    mode = "traced" if traced else "untraced"
    document = {
        "schema": 1,
        "manifest": manifest,
        "workloads": {name: {
            "fingerprint": fingerprint,
            section: values,
            "runs": {mode: {**extra, "failures": failures, "attempted": attempted,
                            "failed": failed}},
        }},
    }
    final = {
        "correct": not failures and failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": v["value"], "unit": v["unit"]} for n, v in values.items()},
    }
    return document, final


def run_all(names: List[str], seed: int, seconds: float) -> Tuple[dict, int]:
    """Every workload, untraced then traced, each in a process of its own
    (one process and one thread per measurement; peak RSS is per workload).
    Returns the merged document and the number of failed runs."""
    merged: dict = {"schema": 1, "manifest": None, "workloads": {}}
    bad = 0
    with tempfile.TemporaryDirectory(prefix=".run-", dir=HERE) as scratch:
        for name in names:
            for traced in (0, 1):
                out = os.path.join(scratch, f"{name}-{traced}.json")
                done = subprocess.run(
                    [sys.executable, os.path.abspath(__file__), "--workload", name,
                     "--seed", str(seed), "--seconds", str(seconds),
                     "--trace", str(traced), "--out", out])
                bad += done.returncode != 0
                if not os.path.exists(out):
                    continue
                with open(out) as fh:
                    part = json.load(fh)
                merged["manifest"] = merged["manifest"] or part["manifest"]
                found = part["workloads"][name]
                entry = merged["workloads"].setdefault(name, {"runs": {}})
                if entry.get("fingerprint", found["fingerprint"]) != found["fingerprint"]:
                    print(f"FAILED: {name}: traced and untraced fingerprints differ")
                    bad += 1
                entry["runs"].update(found.pop("runs"))
                entry.update(found)
    return merged, bad


def main(argv: Optional[List[str]] = None) -> int:
    prepare_environment()
    from workloads import WORKLOADS  # imports repro: only after the clean-up

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1,
                        help="drives ScenarioConfig.seed, the fault stream and the size "
                             "generator (default 1)")
    parser.add_argument("--seconds", type=float, default=24.0,
                        help="how long one run measures (default 24)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics, nothing attached; 1: per-layer metrics "
                             "from cProfile and telemetry passes (ignored with --workload all, "
                             "which does both)")
    parser.add_argument("--out", help="write the full result document here (JSON)")
    args = parser.parse_args(argv)

    if args.workload == "all":
        document, bad = run_all(list(WORKLOADS), args.seed, args.seconds)
    else:
        document, final = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
        bad = 0 if final["correct"] else 1
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(document, fh, indent=1, sort_keys=True)
            fh.write("\n")
    if args.workload != "all":
        print(json.dumps(final))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
