"""Traced measurement: where host time went, layer by layer.

Layers are this repo's subpackages.  The traced run wraps the same
entry-point call the untraced run times in ``cProfile`` — from here, never
from inside ``repro`` — and folds function self-time and call counts by the
path prefix ``repro/<subpackage>/``.  The rule is a prefix rule with an
``other`` bucket, never a closed file list, so a PR that adds, renames or
deletes modules needs no edit here.

Self time is a layer's own functions, *excluding* callees in other layers.
Functions without a source file (C builtins, the C kernel accelerator,
dataclass-generated methods) have no layer of their own: their self time is
charged, caller edge by caller edge, to the layer that called them.

A second observed pass attaches a ``repro.obs`` telemetry session (whose
tracer feeds the protocol counters and ``repro.check.audit``); its host
time against the plain pass is the telemetry overhead.  No end-to-end
number is ever taken from either pass.
"""

from __future__ import annotations

import cProfile
import gc
import os
import pstats
import sys
import time
from typing import Dict, Iterable, List, Tuple

from repro.check.audit import audit_events

from measure import accelerator_live, fingerprint
from workloads import Outcome, Workload

HERE = os.path.dirname(os.path.abspath(__file__))

#: ``repro/<name>/`` prefixes that are layers; ``fabric`` is the top-level
#: assembly modules (``repro/*.py``), ``python`` the standard library, and
#: ``other`` everything else (an unknown subpackage, this directory)
LAYERS = ("simnet", "verbs", "exs", "core", "hosts", "apps", "fabric",
          "obs", "check", "python", "other")

#: sub-splits: (layer, module-name prefixes); ``None`` = the layer's rest
SPLITS = {
    "simnet.calendar": ("simnet", ("kernel", "_core", "cells", "events",
                                   "process", "resources", "schedule")),
    "simnet.link": ("simnet", ("link", "fabric", "faults", "emulator")),
    "verbs.reliability": ("verbs", ("reliability",)),
    "verbs.datapath": ("verbs", None),
    "exs.protocol": ("exs", ("connection", "stream_", "rendezvous", "control",
                             "credits")),
    "exs.completion": ("exs", ("shard", "eventqueue")),
    "hosts.memory": ("hosts", ("memory",)),
}


def place(filename: str) -> Tuple[str, str]:
    """(layer, module) of a profiled function's source file; ``("", "")``
    for functions without one (charged to their callers)."""
    if not filename.endswith(".py"):
        return "", ""
    path = filename.replace(os.sep, "/")
    head, sep, tail = path.rpartition("/repro/")
    if not sep:
        return ("other" if path.startswith(HERE.replace(os.sep, "/")) else "python"), ""
    first, slash, rest = tail.partition("/")
    if not slash:
        return "fabric", first[:-3]
    module = rest.rpartition("/")[2][:-3]
    return (first if first in LAYERS else "other"), module


def _splits_of(layer: str, module: str) -> List[str]:
    mine = [(s, p) for s, (l, p) in SPLITS.items() if l == layer]
    named = [s for s, p in mine if p and module.startswith(p)]
    return named or [s for s, p in mine if p is None]


def fold(stats: Dict[tuple, tuple]) -> Dict[str, Dict[str, float]]:
    """Fold a ``pstats.Stats.stats`` mapping into per-layer and per-split
    ``{"self_s", "calls", "calls_in"}``."""
    out = {name: {"self_s": 0.0, "calls": 0, "calls_in": 0}
           for name in LAYERS + tuple(SPLITS)}

    def charge(layer: str, module: str, self_s: float, calls: int, calls_in: int) -> None:
        for name in [layer] + _splits_of(layer, module):
            out[name]["self_s"] += self_s
            out[name]["calls"] += calls
            out[name]["calls_in"] += calls_in

    def caller_layer(func: tuple) -> str:
        """Layer a call comes from; a sourceless trampoline (the C drain,
        ``generator.send``) stands for the one layer that calls it."""
        layer = place(func[0])[0]
        if layer:
            return layer
        above = {place(c[0])[0] for c in stats.get(func, (0, 0, 0, 0, {}))[4]}
        return above.pop() if len(above) == 1 and "" not in above else "python"

    for (filename, _line, _name), (_cc, ncalls, self_s, _cum, callers) in stats.items():
        layer, module = place(filename)
        if layer:
            calls_in = sum(edge[0] for caller, edge in callers.items()
                           if caller_layer(caller) != layer)
            charge(layer, module, self_s, ncalls, calls_in)
            continue
        # no source file: charge each caller edge's share to the caller
        edge_total = 0.0
        for caller, edge in callers.items():
            above, above_module = place(caller[0])
            charge(above or "python", above_module, edge[2], 0, 0)
            edge_total += edge[2]
        charge("python", "", self_s - edge_total, 0, 0)  # entered from the profiler itself
    return out


# ----------------------------------------------------------------------
# counters read from public objects after a run
# ----------------------------------------------------------------------
def fabric_metrics(workload: Workload, outcome: Outcome) -> Dict[str, float]:
    """Simulated per-layer counters of one (untelemetered) run."""
    fabric = outcome.fabric
    msgs = outcome.messages
    stats = fabric.sim.calendar_stats()
    events = fabric.sim.events_executed
    directions = [d.stats for link in fabric.links.values() for d in link.directions]
    frames = sum(s.messages for s in directions)
    ports = [p for sw in fabric.switches.values() for p in sw.ports.values()]
    engines = [e for e in (fabric.device(h).reliability for h in fabric.host_names)
               if e is not None]
    rel = [e.stats for e in engines]
    pools = [p for p in (fabric.stack(h).srq_pool for h in fabric.host_names)
             if p is not None]
    shards = [s for h in fabric.host_names for s in fabric.stack(h).shards]
    busy = {h.name: h.cpu.utilization_between(0, outcome.end_ns) for h in fabric.all_hosts}
    senders = [v for name, v in busy.items() if name != workload.receiver]
    retransmits = sum(s.retransmits for s in rel)
    return {
        "simnet.events_per_msg": events / msgs,
        "simnet.max_batch": stats["max_batch"],
        "simnet.overflow_inserts": stats["overflow_inserts"],
        "simnet.link.frames_per_msg": frames / msgs,
        "simnet.link.wire_bytes_per_payload_byte":
            sum(s.wire_bytes for s in directions) / outcome.payload_bytes,
        "simnet.switch.backpressured": sum(p.backpressured for p in ports),
        "simnet.switch.drops": sum(p.drops for p in ports),
        "simnet.switch.peak_queue_bytes": max((p.peak_queue_bytes for p in ports), default=0),
        "simnet.faults.dropped": sum(m.dropped_total for m in fabric.impairments.values()),
        "verbs.reliability.retransmits": retransmits,
        "verbs.reliability.timeouts": sum(s.timeouts for s in rel),
        "verbs.reliability.retransmit_ratio": retransmits / frames,
        "verbs.reliability.naks": sum(s.naks_sent for s in rel),
        "verbs.reliability.duplicates_dropped": sum(s.duplicates_dropped for s in rel),
        "verbs.reliability.recovery_ns_max": max((s.recovery_ns_max for s in rel), default=0),
        "verbs.rnr_naks": sum(s.rnr_naks_sent for s in rel),
        "verbs.srq.peak_used": max((p.depth - p.min_free for p in pools), default=0),
        "exs.shard.rounds_per_msg": sum(s.rounds for s in shards) / msgs,
        "hosts.sender_cpu_busy": sum(senders) / len(senders),
        "hosts.receiver_cpu_busy": busy[workload.receiver],
    }


def protocol_metrics(events: Iterable, snapshot: Dict[str, float], msgs: int) -> Dict[str, float]:
    """Protocol counters from the observed pass: its trace events and the
    telemetry registry's final snapshot."""
    kinds: Dict[str, int] = {}
    discarded = copied = switches = 0
    for e in events:
        kinds[e.kind] = kinds.get(e.kind, 0) + 1
        if e.kind == "advert_drop":
            discarded += e.get("count", 0)
        elif e.kind == "copy":
            copied += e.get("nbytes", 0)
        elif e.kind == "phase" and e.get("side") == "tx":
            switches += 1
    direct, indirect = kinds.get("direct", 0), kinds.get("indirect", 0)
    return {
        "exs.direct_ratio": direct / (direct + indirect),
        "exs.mode_switches": switches,
        "exs.adverts_per_msg": kinds.get("advert_tx", 0) / msgs,
        "exs.adverts_discarded": discarded,
        "core.copies_per_msg": kinds.get("copy", 0) / msgs,
        "core.copied_bytes": copied,
        "hosts.payload_copies": sum(v for k, v in snapshot.items()
                                    if k.endswith(".copy.payload_copies")),
    }


# ----------------------------------------------------------------------
# the traced run
# ----------------------------------------------------------------------
def _timed(fn):
    gc.collect()
    t0 = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - t0


def trace(workload: Workload, seed: int, seconds: float,
          accel_load_s: float) -> Tuple[Dict[str, float], dict]:
    """Per-layer metrics of one workload, and the exactness gate's findings
    (fingerprint, failures, attempted/failed, resolved kernel)."""
    failures: List[str] = []
    warm = workload(seed, workload.full)
    expected = fingerprint(warm)
    msgs = warm.messages

    # plain pass: the base of both overhead ratios, allocator and GC counts
    gc.collect()
    collections0 = sum(g["collections"] for g in gc.get_stats())
    blocks0 = sys.getallocatedblocks()
    t0 = time.perf_counter()
    plain = workload(seed, workload.full)
    plain_s = time.perf_counter() - t0
    blocks = sys.getallocatedblocks() - blocks0
    collections = sum(g["collections"] for g in gc.get_stats()) - collections0
    if fingerprint(plain) != expected:
        failures.append("plain pass: simulated fingerprint differs from the warm-up's")

    # profiled passes, accumulated into one profile
    profile = cProfile.Profile()

    def keep(fabric) -> None:
        """Observer that only makes the workload keep its fabric reachable."""

    reps, profiled_s, profiled = 0, 0.0, None
    deadline = time.perf_counter() + seconds / 2
    while reps == 0 or time.perf_counter() < deadline:
        gc.collect()
        t0 = time.perf_counter()
        profile.enable()
        try:
            profiled = workload(seed, workload.full, observe=keep)
        finally:
            profile.disable()
        profiled_s += time.perf_counter() - t0
        reps += 1
        if fingerprint(profiled) != expected:
            failures.append(f"profiled pass {reps}: simulated fingerprint differs")
    folded = fold(pstats.Stats(profile).stats)
    total_s = sum(folded[layer]["self_s"] for layer in LAYERS)

    # observed pass: telemetry session (tracer + registry + sampler)
    observed, observed_s = _timed(
        lambda: workload(seed, workload.full,
                         observe=lambda fabric: fabric.attach_telemetry()))
    if observed.result != plain.result:
        failures.append("observed pass: telemetry changed the simulated result")
    telemetry = observed.fabric.telemetry
    if telemetry.tracer.dropped:
        failures.append(f"observed pass: tracer dropped {telemetry.tracer.dropped} events")
    report, audit_s = _timed(lambda: audit_events(telemetry.tracer.events))
    if report.violations:
        failures.append(f"audit: {len(report.violations)} violations, first: "
                        f"{report.violations[0]}")

    metrics: Dict[str, float] = {}
    for name, sums in folded.items():
        metrics[f"{name}.self_s"] = sums["self_s"] / reps
        if name in LAYERS:
            metrics[f"{name}.share"] = sums["self_s"] / total_s
            metrics[f"{name}.calls_per_msg"] = sums["calls"] / reps / msgs
            metrics[f"{name}.calls_in_per_msg"] = sums["calls_in"] / reps / msgs
    metrics.update(fabric_metrics(workload, profiled))
    metrics["simnet.host_ns_per_event"] = plain_s * 1e9 / profiled.fabric.sim.events_executed
    metrics.update(protocol_metrics(telemetry.tracer.events,
                                    telemetry.registry.snapshot(), msgs))
    metrics.update({
        "obs.telemetry_overhead_ratio": observed_s / plain_s,
        "check.audit_s": audit_s,
        "check.audit_violations": len(report.violations),
        "run.trace_overhead_ratio": profiled_s / reps / plain_s,
        "run.gc_collections": collections,
        "run.alloc_blocks_per_msg": blocks / msgs,
        "run.accel_load_s": accel_load_s,
    })
    fabric = profiled.fabric
    gate = {
        "fingerprint": expected,
        "failures": failures,
        "attempted": msgs * (reps + 3),
        "failed": msgs * min(len(failures), reps + 3),
        "accelerator": accelerator_live(fabric),
        "kernel": fabric.kernel,
        "calendar": fabric.sim.calendar_stats()["backend"],
        "plain_wall_s": plain_s,
        "profiled_reps": reps,
    }
    return metrics, gate


#: (name, unit, better, clock) of the counters and ratios, beside the folded
#: times; sim values are bit-exact for a seed, host values are wall-clock
COUNTERS = (
    ("simnet.events_per_msg", "1/msg", "lower", "sim"),
    ("simnet.host_ns_per_event", "ns", "lower", "host"),
    ("simnet.max_batch", "count", "lower", "sim"),
    ("simnet.overflow_inserts", "count", "lower", "sim"),
    ("simnet.link.frames_per_msg", "1/msg", "lower", "sim"),
    ("simnet.link.wire_bytes_per_payload_byte", "B/B", "lower", "sim"),
    ("simnet.switch.backpressured", "count", "lower", "sim"),
    ("simnet.switch.drops", "count", "lower", "sim"),
    ("simnet.switch.peak_queue_bytes", "B", "lower", "sim"),
    ("simnet.faults.dropped", "count", "lower", "sim"),
    ("verbs.reliability.retransmits", "count", "lower", "sim"),
    ("verbs.reliability.timeouts", "count", "lower", "sim"),
    ("verbs.reliability.retransmit_ratio", "ratio", "lower", "sim"),
    ("verbs.reliability.naks", "count", "lower", "sim"),
    ("verbs.reliability.duplicates_dropped", "count", "lower", "sim"),
    ("verbs.reliability.recovery_ns_max", "ns", "lower", "sim"),
    ("verbs.rnr_naks", "count", "lower", "sim"),
    ("verbs.srq.peak_used", "count", "lower", "sim"),
    ("exs.direct_ratio", "ratio", "higher", "sim"),
    ("exs.mode_switches", "count", "lower", "sim"),
    ("exs.adverts_per_msg", "1/msg", "lower", "sim"),
    ("exs.adverts_discarded", "count", "lower", "sim"),
    ("exs.shard.rounds_per_msg", "1/msg", "lower", "sim"),
    ("core.copies_per_msg", "1/msg", "lower", "sim"),
    ("core.copied_bytes", "B", "lower", "sim"),
    ("hosts.sender_cpu_busy", "ratio", "lower", "sim"),
    ("hosts.receiver_cpu_busy", "ratio", "lower", "sim"),
    ("hosts.payload_copies", "count", "lower", "sim"),
    ("obs.telemetry_overhead_ratio", "ratio", "lower", "host"),
    ("check.audit_s", "s", "lower", "host"),
    ("check.audit_violations", "count", "lower", "sim"),
    ("run.trace_overhead_ratio", "ratio", "lower", "host"),
    ("run.gc_collections", "count", "lower", "host"),
    ("run.alloc_blocks_per_msg", "1/msg", "lower", "host"),
    ("run.accel_load_s", "s", "lower", "host"),
)


def per_layer_spec() -> List[Tuple[str, str, str, str]]:
    """(name, unit, better, clock) of every per-layer metric, in output
    order — what BENCHMARK.json's ``per_layer`` must list."""
    spec: List[Tuple[str, str, str, str]] = []
    for layer in LAYERS:
        spec += [
            (f"{layer}.self_s", "s", "lower", "host"),
            (f"{layer}.share", "ratio", "lower", "host"),
            (f"{layer}.calls_per_msg", "1/msg", "lower", "host"),
            (f"{layer}.calls_in_per_msg", "1/msg", "lower", "host"),
        ]
    spec += [(f"{split}.self_s", "s", "lower", "host") for split in SPLITS]
    return spec + list(COUNTERS)
