"""Runtime verification of the paper's correctness claims.

The paper proves four lemmas and a safety theorem (§IV-A).  Rather than
trusting the proof, the implementation *checks the claims at runtime* on
every run — including the large benchmark runs, where the checks are cheap
integer comparisons: a check whose message is formatted from protocol
state raises ``violation(claim, f"...")`` from an ``if`` on its failing
condition, so a passing check formats nothing (:func:`require` takes a
fixed message).  A
violation raises :class:`SafetyViolation`, which in this codebase is
treated like an assertion failure: it means the algorithm implementation
(not the caller) is wrong.

Checked claims:

* Lemma 1 — every ADVERT carries a direct phase number
  (enforced by :class:`repro.core.advert.Advert` itself).
* Lemma 4 — when the sender's phase is direct, an arriving usable ADVERT
  carries exactly the sender's phase.
* Theorem 1 (safety) — a direct transfer arriving at the receiver matches
  the ADVERT of the receive at the *head* of the receiver queue, lands at
  the exact current stream position (no loss, no reorder, no overwrite),
  and never arrives while un-copied indirect data is pending.
* Stream continuity — indirect data enters the intermediate buffer in
  exact stream order.
"""

from __future__ import annotations

__all__ = ["SafetyViolation", "require", "violation"]


class SafetyViolation(AssertionError):
    """A proven-impossible protocol state was reached (implementation bug)."""


def violation(claim: str, detail: str = "") -> SafetyViolation:
    """The :class:`SafetyViolation` for a failed *claim*, to ``raise``."""
    message = f"safety violation [{claim}]"
    if detail:
        message += f": {detail}"
    return SafetyViolation(message)


def require(condition: bool, claim: str, detail: str = "") -> None:
    """Raise :class:`SafetyViolation` with context unless *condition*
    holds (a fixed *detail*; a formatted one goes through :func:`violation`)."""
    if not condition:
        raise violation(claim, detail)
