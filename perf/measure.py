"""Untraced measurement: the end-to-end metrics of one workload.

Two clocks, always named: **host** (time of the harness) and **sim**
(simulated nanoseconds, bit-exact for a fixed seed).

Host seconds are the *speed-normalised CPU seconds* of the one thread that
does all the work.  The sandboxes this runs on are a few cores of a shared
host: for minutes at a time identical work takes twice the CPU time (wall ==
cpu, so the usual wall/cpu test cannot see it) and up to three times the
wall-clock (stolen and preempted time, which CPU time leaves out).  Every
timed sample is therefore bracketed by a fixed reference computation
(:class:`Calibration`) and reported as ``cpu * NOMINAL_S / reference_cpu``:
seconds on a machine that runs the reference in ``NOMINAL_S``.  The timed
repetition is kept as short as the scenario allows (50 ms on the two-host
workloads), because the reference only speaks for the sample it is next
to.  Raw wall and cpu seconds are kept beside every normalised number.
"""

from __future__ import annotations

import collections
import dataclasses
import enum
import gc
import hashlib
import heapq
import json
import random
import resource
import statistics
import struct
import time
import types
from typing import Dict, List, Optional, Sequence

from repro import Fabric
from repro.apps import percentile
from repro.simnet import Simulator

from workloads import Outcome, Workload

#: name, unit, better, bound (allowed worsening as a share of the parent's
#: median).  One bound per name covers all four workloads: host bounds are
#: at least 3x the worst run-to-run spread measured at this commit, sim
#: bounds 3x the worst seed-to-seed spread except blast_lossy's quantised
#: tail (see perf/README.md, "Measured A/A spread").
END_TO_END = (
    ("msgs_per_host_s", "1/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.10),
    ("sim_goodput_gbps", "Gb/s", "higher", 0.15),
    ("sim_latency_p50_us", "us", "lower", 0.20),
    ("sim_latency_tail_us", "us", "lower", 0.25),
)

#: a sample whose wall/cpu exceeds this was preempted or stalled
DISTURBED_WALL_PER_CPU = 1.10
#: more than this share of disturbed samples makes a host metric unresolved
DISTURBED_SHARE_MAX = 2 / 7
#: bring-up runs are batched until one timed sample lasts this long
BRINGUP_SAMPLE_S = 0.05
#: percentiles a tail may be reported at
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0)


def tail_percentile(samples: int) -> float:
    """The highest ladder percentile with at least ten samples beyond it."""
    for q in TAIL_LADDER:
        if samples * (100 - q) / 100 >= 10:
            return q
    return 50.0


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and count of *values* (the form every host metric
    is reported in)."""
    if len(values) < 2:
        v = float(values[0])
        return {"value": v, "q1": v, "q3": v, "n": len(values)}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"value": q2, "q1": q1, "q3": q3, "n": len(values)}


def fingerprint(outcome: Outcome) -> str:
    """sha256 over everything simulated that the run exposes."""
    blob = json.dumps(
        [outcome.messages, outcome.payload_bytes, outcome.end_ns,
         outcome.latencies_ns, outcome.result, outcome.handle],
        sort_keys=True, default=str,
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def accelerator_live(fabric: Optional[Fabric]) -> bool:
    """Whether the C kernel accelerator drives *fabric*'s simulator (a fresh
    default Simulator when the run hid its fabric): a live accelerator
    rebinds the public ``sim.timeout`` to a compiled callable, the pure
    kernel leaves a bound Python method there."""
    sim = fabric.sim if fabric is not None else Simulator()
    return not isinstance(sim.timeout, types.MethodType)


def accelerator_load_s() -> float:
    """Host seconds the first Simulator construction spends compiling and
    loading the accelerator (a later construction is the baseline)."""
    t0 = time.perf_counter()
    Simulator()
    t1 = time.perf_counter()
    Simulator()
    t2 = time.perf_counter()
    return max(0.0, (t1 - t0) - (t2 - t1))


# ----------------------------------------------------------------------
# reference computation
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class _Record:
    ident: int
    length: int
    key: int


class _Kind(enum.Enum):
    A = "a"
    B = "b"


class Calibration:
    """Fixed pure-Python reference work, timed beside every sample.

    Four dissimilar pieces (arithmetic loop, a small generator-and-heap
    event simulation, a random walk over a table larger than the L2 cache,
    and an allocation/exception/formatting mix), because each alone tracks
    only some of the machine's speed states: over sets of ten runs the piece
    that tracked best differed by workload (the loop on ``blast_stream``,
    the table walk on ``incast_fanin``) and from set to set, and the sum of
    the four was never the worst.
    """

    #: duration of :meth:`sample` on the box the baseline was taken on
    NOMINAL_S = 0.050

    def __init__(self) -> None:
        self._table = [(i, str(i)) for i in range(32768)]
        self._walk = list(range(len(self._table)))
        random.Random(1).shuffle(self._walk)

    def sample(self) -> float:
        """CPU seconds of one pass over the four pieces."""
        c0 = time.process_time()
        self._loop()
        self._events()
        self._memory()
        self._mix()
        return time.process_time() - c0

    @staticmethod
    def _loop() -> int:
        d: Dict[int, int] = {}
        acc = 0
        for i in range(50000):
            d[i & 1023] = acc
            acc += len(d) ^ i
        return acc

    @staticmethod
    def _events() -> int:
        queue: list = []

        def node(index: int):
            inbox: Dict[int, tuple] = {}
            while True:
                now, seq, hops = yield
                inbox[seq & 255] = (seq, hops, bytes(16))
                if hops:
                    heapq.heappush(
                        queue,
                        (now + seq * 7919 % 97 + 1, seq + 1, (index + seq) % 16, hops - 1),
                    )

        nodes = [node(i) for i in range(16)]
        for n in nodes:
            next(n)
        for i in range(48):
            heapq.heappush(queue, (i, i, i % 16, 200))
        count = 0
        while queue:
            now, seq, dst, hops = heapq.heappop(queue)
            nodes[dst].send((now, seq, hops))
            count += 1
        return count

    def _memory(self) -> int:
        table = self._table
        acc = 0
        for _ in range(2):
            for j in self._walk:
                entry = table[j]
                acc += entry[0] + len(entry[1])
        return acc

    @staticmethod
    def _mix() -> int:
        window: collections.deque = collections.deque()
        out = []
        seen = set()
        acc = 0
        for i in range(5000):
            rec = _Record(i, (i * 37) & 4095, i ^ 0x5A)
            window.append(rec)
            if len(window) > 32:
                old = window.popleft()
                acc += old.length
                seen.add(old.key & 511)
            if i % 7 == 0:
                out.append(struct.pack("<IHH", i, rec.length, rec.key & 0xFFFF))
            if i % 11 == 0:
                try:
                    if isinstance(rec, _Record) and _Kind("a") is _Kind.A:
                        raise KeyError(i)
                except KeyError:
                    acc += 1
            if i % 13 == 0:
                out.append(f"{i}:{acc}".encode())
            acc += min(rec.length, 2048) + max(i, acc & 1023) + (rec.key in seen)
        return acc + len(b"".join(out)) + len(sorted(seen))


# ----------------------------------------------------------------------
# the timed loop
# ----------------------------------------------------------------------
@dataclasses.dataclass
class Sample:
    wall_s: float
    cpu_s: float
    #: mean of the reference's CPU seconds just before and just after
    reference_s: float

    @property
    def host_s(self) -> float:
        return self.cpu_s * Calibration.NOMINAL_S / self.reference_s

    @property
    def disturbed(self) -> bool:
        return self.cpu_s > 0 and self.wall_s / self.cpu_s > DISTURBED_WALL_PER_CPU


@dataclasses.dataclass
class Measurement:
    """Everything the untraced run of one workload established."""

    fingerprint: str
    #: the full run: simulated metrics and the printed fingerprint
    reference: Outcome
    timed: List[Sample]
    #: bring-up samples, each divided down to one bring-up
    bringup: List[Sample]
    attempted: int
    failed: int
    failures: List[str]
    accelerator: bool
    peak_rss_mib: float

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.failures


def _timed(fn, reference_before: float, calibration: Calibration):
    t0, c0 = time.perf_counter(), time.process_time()
    value = fn()
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    after = calibration.sample()
    return value, Sample(wall, cpu, (reference_before + after) / 2), after


def measure(workload: Workload, seed: int, seconds: float,
            calibration: Calibration) -> Measurement:
    """One untimed full run (the simulated metrics; also builds the C
    accelerator and warms every lazy path), then alternate timed-size runs
    (cycling through the workload's timed seeds) and batched bring-up runs
    for *seconds*, checking every run's simulated fingerprint against the
    first run's of the same seed."""
    reference = workload(seed, workload.full)
    timed_seeds = workload.timed_seeds(seed)
    timed_prints = [fingerprint(workload(s, workload.timed)) for s in timed_seeds]
    bringup_print = fingerprint(workload(seed, workload.bringup))
    live = accelerator_live(reference.fabric)

    t0 = time.perf_counter()
    workload(seed, workload.bringup)
    batch = max(1, round(BRINGUP_SAMPLE_S / max(time.perf_counter() - t0, 1e-6)))

    m = Measurement(
        fingerprint=fingerprint(reference), reference=reference, timed=[], bringup=[],
        attempted=0, failed=0, failures=[], accelerator=live, peak_rss_mib=0.0,
    )

    def check(outcome: Outcome, expected: str, what: str) -> None:
        m.attempted += outcome.messages
        if fingerprint(outcome) != expected:
            m.failed += outcome.messages
            m.failures.append(f"{what}: simulated fingerprint differs from the warm-up's")
        now_live = accelerator_live(outcome.fabric)
        if now_live != live:
            m.failures.append(f"{what}: C accelerator went from {live} to {now_live}")

    def bringup_batch() -> Outcome:
        for _ in range(batch):
            outcome = workload(seed, workload.bringup)
        return outcome

    deadline = time.perf_counter() + seconds
    before = calibration.sample()
    while not m.timed or time.perf_counter() < deadline:
        gc.collect()
        try:
            variant = len(m.timed) % len(timed_seeds)
            outcome, sample, before = _timed(
                lambda: workload(timed_seeds[variant], workload.timed), before, calibration)
            check(outcome, timed_prints[variant], f"rep {len(m.timed) + 1}")
            m.timed.append(sample)
            outcome, sample, before = _timed(bringup_batch, before, calibration)
            check(outcome, bringup_print, f"bring-up {len(m.bringup) + 1}")
            m.bringup.append(Sample(sample.wall_s / batch, sample.cpu_s / batch,
                                    sample.reference_s))
        except Exception as exc:  # a deadlock, truncation or audit error is a result
            m.attempted += workload.timed
            m.failed += workload.timed
            m.failures.append(f"rep {len(m.timed) + 1}: {type(exc).__name__}: {exc}")
            break
    m.peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return m


def end_to_end(workload: Workload, m: Measurement) -> Dict[str, dict]:
    """The end-to-end metrics, each ``{"value", "unit", ...}``; host metrics
    carry quartiles, count and ``resolved``."""
    ref = m.reference
    lat_us = [v / 1e3 for v in ref.latencies_ns]
    tail_q = tail_percentile(len(lat_us))
    out: Dict[str, dict] = {}
    if m.timed and m.bringup:
        disturbed = sum(s.disturbed for s in m.timed + m.bringup)
        resolved = disturbed <= DISTURBED_SHARE_MAX * len(m.timed + m.bringup)
        setup = quartiles([s.host_s for s in m.bringup])
        timed = quartiles([s.host_s for s in m.timed])
        steady_msgs = workload.timed - workload.bringup
        # quartiles swap: the slowest runs give the lowest throughput
        rate = {k: steady_msgs / (timed[q] - setup["value"])
                for k, q in (("value", "value"), ("q1", "q3"), ("q3", "q1"))}
        out["msgs_per_host_s"] = {**rate, "n": timed["n"], "resolved": resolved}
        out["setup_s"] = {**setup, "resolved": resolved}
    out.update({
        "peak_rss_mib": {"value": m.peak_rss_mib},
        "sim_goodput_gbps": {"value": ref.goodput_gbps},
        "sim_latency_p50_us": {"value": percentile(lat_us, 50), "samples": len(lat_us)},
        "sim_latency_tail_us": {"value": percentile(lat_us, tail_q),
                                "percentile": tail_q, "samples": len(lat_us)},
    })
    for name, unit, _better, _bound in END_TO_END:
        if name in out:
            out[name].update(unit=unit, clock="sim" if name.startswith("sim_") else "host")
    return out


def host_summary(m: Measurement) -> Dict[str, object]:
    """Raw (not normalised) host numbers: reported, but not end-to-end
    metrics — they are redundant with ``msgs_per_host_s`` and ``setup_s``."""
    return {
        "wall_s": quartiles([s.wall_s for s in m.timed]) if m.timed else None,
        "cpu_s": quartiles([s.cpu_s for s in m.timed]) if m.timed else None,
        "bringup_wall_s": quartiles([s.wall_s for s in m.bringup]) if m.bringup else None,
        "reference_s": quartiles([s.reference_s for s in m.timed]) if m.timed else None,
        "reps": len(m.timed),
        "disturbed_reps": sum(s.disturbed for s in m.timed + m.bringup),
        "samples": {kind: [[s.wall_s, s.cpu_s, s.reference_s] for s in samples]
                    for kind, samples in (("timed", m.timed), ("bringup", m.bringup))},
    }
