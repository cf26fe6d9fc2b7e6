"""Schedule-permutation fuzzer: determinism and FIFO-identity guarantees."""

from __future__ import annotations

from repro.check import FuzzCase, run_case, run_fuzz
from repro.config import ScenarioConfig

CASE = FuzzCase(messages=12)


def test_same_seed_is_bit_deterministic():
    scenario = ScenarioConfig(schedule=("random", 7))
    a = run_case(CASE, scenario)
    b = run_case(CASE, scenario)
    assert a.ok and b.ok
    assert a.fingerprint == b.fingerprint


def test_fifo_policy_is_byte_identical_to_unfuzzed():
    plain = run_case(CASE, ScenarioConfig())
    fifo = run_case(CASE, ScenarioConfig(schedule=("fifo", 0)))
    assert plain.ok and fifo.ok
    assert plain.fingerprint == fifo.fingerprint


def test_run_fuzz_collects_outcomes_per_seed():
    report = run_fuzz(range(3), CASE)
    assert report.ok
    assert len(report.outcomes) == 3
    assert all(o.ok for o in report.outcomes)
    # the scenario embedded in each outcome records its schedule seed
    seeds = [o.scenario.schedule for o in report.outcomes]
    assert seeds == [("random", 0), ("random", 1), ("random", 2)]


def test_failing_outcome_becomes_replayable_counterexample():
    # an impossible event budget guarantees a RuntimeError from run_blast
    base = ScenarioConfig(max_events=10)
    report = run_fuzz([5], CASE, base)
    assert not report.ok
    ce = report.failures[0]
    assert ce.kind == "fuzz"
    assert ce.scenario["schedule"] == ["random", 5]
    assert ce.fuzz_case["messages"] == CASE.messages


def test_a_waitall_case_delivers_its_last_partial_buffer():
    assert run_case(FuzzCase(waitall=True), ScenarioConfig(seed=1)).error is None


def test_fuzz_case_round_trips():
    case = FuzzCase(messages=7, waitall=True, mode="indirect")
    assert FuzzCase.from_dict(case.to_dict()) == case


def test_each_transport_variant_is_bit_deterministic():
    """The fuzz fingerprint covers copy/transfer accounting, so this pins
    bit-determinism of every data plane, not just byte totals."""
    case = FuzzCase(messages=10)
    for transport in ("wwi", "eager_rendezvous"):
        scenario = ScenarioConfig(schedule=("random", 13), transport=transport)
        a = run_case(case, scenario)
        b = run_case(case, scenario)
        assert a.ok and b.ok, f"transport={transport}"
        assert a.fingerprint == b.fingerprint, f"transport={transport}"


def test_run_fuzz_holds_on_each_variant(variant):
    """Five schedule seeds on each (transport, reliability mode) pair, as
    ``make check-smoke`` fuzzes them; the counterexample scenario would
    name the variant it ran."""
    report = run_fuzz(range(5), CASE, variant.scenario())
    assert report.ok, report.describe()
    for outcome in report.outcomes:
        assert outcome.scenario.transport == variant.transport
        assert outcome.scenario.reliability.mode == variant.mode


def test_selective_repeat_base_is_bit_deterministic():
    from repro.verbs import ReliabilityConfig

    rel = ReliabilityConfig(mode="selective_repeat")
    scenario = ScenarioConfig(schedule=("random", 17), reliability=rel)
    a = run_case(CASE, scenario)
    b = run_case(CASE, scenario)
    assert a.ok and b.ok
    assert a.fingerprint == b.fingerprint


def test_transport_variants_fingerprint_differently():
    """Sanity: the fingerprint actually distinguishes the planes (same
    schedule, same messages — different copy accounting)."""
    scenario = ScenarioConfig(schedule=("random", 13))
    case = FuzzCase(messages=10)
    wwi = run_case(case, scenario.with_(transport="wwi"))
    rdv = run_case(case, scenario.with_(transport="eager_rendezvous"))
    assert wwi.ok and rdv.ok
    assert wwi.fingerprint != rdv.fingerprint


def test_transport_survives_counterexample_round_trip():
    base = ScenarioConfig(max_events=10, transport="eager_rendezvous")
    report = run_fuzz([5], FuzzCase(messages=12), base)
    assert not report.ok
    ce = report.failures[0]
    assert ce.scenario["transport"] == "eager_rendezvous"
    assert ScenarioConfig.from_dict(ce.scenario).transport == "eager_rendezvous"
