"""Seeded schedule-permutation fuzzing of the full stack.

Where the model checker exhausts a *small* world with an abstract
transport, the fuzzer samples *large* worlds with the real one: it runs the
complete Testbed stack (verbs, completion channels, RC transport, EXS)
under a :class:`~repro.simnet.schedule.RandomTiebreakPolicy`, which
permutes same-timestamp event ordering deterministically per seed.  Every
run re-executes the stack's own safety checks (Theorem 1 ``require``
assertions, ring accounting, stream-integrity byte totals), so a seed that
fails is a real interleaving bug — and because the permutation is a pure
function of ``(seed, time, seq)``, the failing
:class:`~repro.config.ScenarioConfig` *is* the counterexample.

Two determinism properties are load-bearing (and tested):

* the same seed always produces bit-identical results, and
* the ``("fifo", 0)`` policy is byte-identical to running with no policy
  at all, so fuzzing is a strict generalisation of the default kernel.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, field
from typing import Callable, List, Optional, Sequence

from ..config import ScenarioConfig
from .counterexample import Counterexample

__all__ = ["FuzzCase", "FuzzOutcome", "FuzzReport", "run_case", "run_fuzz", "fingerprint_result"]


@dataclass(frozen=True)
class FuzzCase:
    """The workload knobs of one fuzz run (all JSON-serializable)."""

    messages: int = 48
    outstanding_sends: int = 3
    outstanding_recvs: int = 3
    size_seed: int = 1
    recv_buffer_bytes: int = 1 << 20
    waitall: bool = False
    mode: str = "dynamic"

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "FuzzCase":
        known = {f: data[f] for f in cls.__dataclass_fields__ if f in data}
        return cls(**known)

    def to_blast_config(self):
        from ..apps.blast import BlastConfig
        from ..apps.workloads import ExponentialSizes
        from ..core import ProtocolMode

        return BlastConfig(
            total_messages=self.messages,
            sizes=ExponentialSizes(mean=64 * 1024, maximum=1 << 20, seed=self.size_seed),
            outstanding_sends=self.outstanding_sends,
            outstanding_recvs=self.outstanding_recvs,
            recv_buffer_bytes=self.recv_buffer_bytes,
            waitall=self.waitall,
            mode=ProtocolMode(self.mode),
        )


@dataclass
class FuzzOutcome:
    """One seed's result."""

    scenario: ScenarioConfig
    fingerprint: Optional[str] = None
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class FuzzReport:
    """Aggregate over a seed range."""

    case: FuzzCase
    outcomes: List[FuzzOutcome] = field(default_factory=list)
    failures: List[Counterexample] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def describe(self) -> str:
        n = len(self.outcomes)
        if self.ok:
            distinct = len({o.fingerprint for o in self.outcomes})
            return (
                f"fuzz ok: {n} seeds, 0 failures "
                f"({distinct} distinct outcome fingerprints)"
            )
        return f"fuzz FAILED: {len(self.failures)}/{n} seeds violated"


def fingerprint_result(result) -> str:
    """A stable digest of everything a blast run observably produced.

    Two runs with equal fingerprints executed the same simulated history
    (byte totals, timing, transfer mix, per-message latencies).
    """
    h = hashlib.sha256()
    tx, rx = result.tx_stats, result.rx_stats
    h.update(
        (
            f"{result.total_bytes}|{result.start_ns}|{result.end_ns}|"
            f"{tx.direct_transfers}|{tx.direct_bytes}|{tx.indirect_transfers}|"
            f"{tx.indirect_bytes}|{tx.mode_switches}|{tx.adverts_received}|"
            f"{tx.adverts_discarded}|{rx.adverts_sent}|{rx.adverts_suppressed}|"
            f"{rx.copies}|{rx.copied_bytes}|"
        ).encode()
    )
    for lat in result.send_latencies_ns:
        h.update(lat.to_bytes(8, "little"))
    return h.hexdigest()[:16]


def run_case(case: FuzzCase, scenario: ScenarioConfig) -> FuzzOutcome:
    """One full-stack run under *scenario*; errors become the outcome."""
    from ..apps.blast import run_blast
    from ..core.invariants import SafetyViolation
    from ..core.ring import RingError

    try:
        result = run_blast(
            case.to_blast_config(),
            scenario=scenario,
            max_events=scenario.max_events or 200_000_000,
        )
    except (SafetyViolation, RingError, AssertionError, RuntimeError) as exc:
        return FuzzOutcome(scenario=scenario, error=f"{type(exc).__name__}: {exc}")
    return FuzzOutcome(scenario=scenario, fingerprint=fingerprint_result(result))


def run_fuzz(
    seeds: Sequence[int],
    case: Optional[FuzzCase] = None,
    base: Optional[ScenarioConfig] = None,
    *,
    progress: Optional[Callable[[int, FuzzOutcome], None]] = None,
) -> FuzzReport:
    """Run *case* once per schedule seed and collect counterexamples.

    Each seed fuzzes only the same-instant event ordering
    (``schedule=("random", seed)``); the testbed seed and workload stay
    fixed so any divergence is attributable to the schedule permutation.
    Scenarios are resolved before they run, so a counterexample names the
    transport / reliability / kernel variant it ran and replays without
    the ``REPRO_KERNEL`` environment that selected its calendar.
    """
    case = case or FuzzCase()
    base = base or ScenarioConfig()
    report = FuzzReport(case=case)
    for seed in seeds:
        scenario = base.with_(schedule=("random", int(seed))).resolved()
        outcome = run_case(case, scenario)
        report.outcomes.append(outcome)
        if not outcome.ok:
            report.failures.append(
                Counterexample(
                    kind="fuzz",
                    claim="full-stack safety",
                    detail=outcome.error,
                    scenario=scenario.to_dict(),
                    fuzz_case=case.to_dict(),
                )
            )
        if progress is not None:
            progress(seed, outcome)
    return report
