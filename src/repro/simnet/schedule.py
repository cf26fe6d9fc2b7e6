"""Pluggable same-timestamp tie-break policies for the event calendar.

The kernel keeps simulated time exact, so the only scheduling freedom left
in a run is the order of events that fire at the *same* nanosecond.  By
default that order is FIFO (by scheduling sequence number) — deterministic,
but it means every test exercises exactly one interleaving of each
same-instant race.  A :class:`SchedulePolicy` re-keys those ties, letting
:mod:`repro.check` drive full-stack runs through adversarial-but-
reproducible interleavings (the schedule-fuzzer half of the protocol
conformance checker).

Policies are pure functions of ``(time_ns, seq)``: no RNG object state, no
platform-dependent hashing — the same policy instance produces the same
schedule on every run, machine, and Python version.  Events at *different*
timestamps are never reordered (simulated time stays causal); a policy can
only permute genuinely concurrent events.

A policy runs on the flat-heap calendar, which orders
``(when, tiebreak, seq, entry)`` natively: a ``Simulator`` built with a
``schedule_policy`` selects that backend (the timing wheel orders ties FIFO
only).  :class:`FifoPolicy` there reproduces the plain wheel bit for bit
(property-tested in ``tests/simnet/test_timing_wheel.py``).
"""

from __future__ import annotations

__all__ = ["SchedulePolicy", "FifoPolicy", "RandomTiebreakPolicy", "policy_from_spec"]

_MASK64 = (1 << 64) - 1


def _mix64(x: int) -> int:
    """SplitMix64 finalizer: a fast, well-distributed 64-bit int hash."""
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB & _MASK64
    return (x ^ (x >> 31)) & _MASK64


class SchedulePolicy:
    """Decides the firing order of events scheduled for the same instant.

    :meth:`tiebreak` returns an integer sort key; among events with equal
    ``time_ns``, lower keys fire first, and equal keys fall back to FIFO
    (scheduling order).  Implementations must be deterministic functions of
    their constructor arguments and ``(time_ns, seq)``.
    """

    def tiebreak(self, time_ns: int, seq: int) -> int:
        raise NotImplementedError

    def spec(self) -> tuple:
        """Serializable ``(kind, seed)`` form (see :func:`policy_from_spec`)."""
        raise NotImplementedError


class FifoPolicy(SchedulePolicy):
    """The kernel's native order, spelled as a policy.

    A run under ``FifoPolicy`` is bit-identical to a run with no policy at
    all — the regression test for the fuzzer harness itself.
    """

    def tiebreak(self, time_ns: int, seq: int) -> int:
        return 0  # equal keys everywhere -> pure FIFO fallback

    def spec(self) -> tuple:
        return ("fifo", 0)

    def __repr__(self) -> str:
        return "FifoPolicy()"


class RandomTiebreakPolicy(SchedulePolicy):
    """Seeded pseudo-random permutation of every same-instant group.

    Each ``(seed, time_ns, seq)`` triple hashes to an independent 64-bit
    key, so any two events that collide on the clock are ordered by a coin
    flip that is fixed for the whole run — randomized schedules that replay
    exactly from the seed alone.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        # pre-mix the seed so consecutive seeds give unrelated schedules
        self._seed_mix = _mix64(self.seed ^ 0x9E3779B97F4A7C15)

    def tiebreak(self, time_ns: int, seq: int) -> int:
        return _mix64(self._seed_mix ^ _mix64(time_ns) ^ (seq * 0xD1B54A32D192ED03 & _MASK64))

    def spec(self) -> tuple:
        return ("random", self.seed)

    def __repr__(self) -> str:
        return f"RandomTiebreakPolicy(seed={self.seed})"


def policy_from_spec(spec) -> "SchedulePolicy | None":
    """Build a policy from its serializable spec.

    Accepts ``None`` (kernel default), a :class:`SchedulePolicy` instance
    (returned as-is), or a ``(kind, seed)`` pair with kind ``"fifo"`` or
    ``"random"`` — the form stored in scenario/counterexample JSON.
    """
    if spec is None or isinstance(spec, SchedulePolicy):
        return spec
    kind, seed = spec
    if kind == "fifo":
        return FifoPolicy()
    if kind == "random":
        return RandomTiebreakPolicy(int(seed))
    raise ValueError(f"unknown schedule policy kind {kind!r}")
