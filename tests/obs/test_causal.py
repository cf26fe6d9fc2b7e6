"""Critical-path attribution: exact reconciliation, named segments.

The load-bearing property is *telescoping exactness*: chain nodes satisfy
``child.sched_ns == parent.fire_ns``, so the per-message segment sums must
equal the span's ``e2e_ns`` to the nanosecond — not approximately.  The
lossy-run test is the ISSUE acceptance criterion: a seeded heavy-loss
blast must attribute nonzero latency to ``retransmit_backoff``.
"""

import pytest

from repro.apps import BlastConfig, ExponentialSizes, run_blast
from repro.config import ScenarioConfig
from repro.obs.__main__ import main as obs_main
from repro.obs.causal import (
    SEGMENTS,
    _relabel_credit,
    critical_paths,
    flight_chain,
)
from repro.simnet import HEAVY_LOSS
from repro.testbed import Testbed


def _traced_blast(seed, messages, faults=None):
    scenario = ScenarioConfig(
        seed=seed, faults=faults, causal_capture=True, max_events=400_000_000)
    tb = Testbed.from_scenario(scenario)
    tel = tb.attach_telemetry()
    run_blast(BlastConfig(total_messages=messages,
                          sizes=ExponentialSizes(seed=seed)),
              testbed=tb, scenario=scenario)
    tel.finish()
    return tb, tel


@pytest.fixture(scope="module")
def lossy_run():
    return _traced_blast(seed=1, messages=40, faults=HEAVY_LOSS)


@pytest.fixture(scope="module")
def clean_run():
    return _traced_blast(seed=3, messages=20)


def test_every_message_reconciles_exactly(lossy_run):
    tb, tel = lossy_run
    report = critical_paths(tb.causal, tel.tracer.events, tel.spans())
    assert report.unattributed == 0
    assert len(report.paths) == 40
    for path in report.paths:
        assert path.total_ns == path.span.e2e_ns, (
            f"send_id={path.span.send_id}: segments sum {path.total_ns} "
            f"!= e2e {path.span.e2e_ns}")
        assert path.depth > 0


def test_trace_smoke_segment_totals_are_pinned(capsys):
    """The ``python -m repro.obs trace --smoke`` attribution, to the ns.

    Reconciliation alone cannot see a causal *relabel*: tagging, say, the
    HCA's per-WR overhead wait as a generic call instead of a timeout moves
    its time from ``cpu`` to ``queueing`` while every path still sums to
    its e2e latency.  Re-pin only for a deliberate attribution change.
    """
    assert obs_main(["trace", "--smoke"]) == 0
    rows = [line.split()[:2] for line in capsys.readouterr().out.splitlines()
            if line.startswith("  ")]
    assert dict(rows) == {
        "cpu": "54582.952",
        "link_serialization": "5736.353",
        "propagation": "11.600",
        "queueing": "5809.774",
        "retransmit_backoff": "9063.513",
        "total": "75204.192",
    }


def test_lossy_run_attributes_retransmit_backoff(lossy_run):
    tb, tel = lossy_run
    report = critical_paths(tb.causal, tel.tracer.events, tel.spans())
    assert report.totals.get("retransmit_backoff", 0) > 0
    # and the physical segments are present too
    assert report.totals["cpu"] > 0
    assert report.totals["link_serialization"] > 0
    assert report.totals["propagation"] > 0
    assert set(report.totals) <= set(SEGMENTS)


def test_intervals_tile_the_span(lossy_run):
    """The labeled intervals partition [submit, delivered]: sorted, gap-free."""
    tb, tel = lossy_run
    report = critical_paths(tb.causal, tel.tracer.events, tel.spans())
    for path in report.paths[:10]:
        ivs = sorted(path.intervals)
        assert ivs[0][0] == path.span.submit_ns
        assert ivs[-1][1] == path.span.delivered_ns
        for (s0, e0, _), (s1, e1, _) in zip(ivs, ivs[1:]):
            assert e0 == s1, "intervals must tile without gaps or overlaps"


def test_clean_run_reconciles_and_has_no_backoff(clean_run):
    tb, tel = clean_run
    report = critical_paths(tb.causal, tel.tracer.events, tel.spans())
    assert report.unattributed == 0
    assert all(p.total_ns == p.span.e2e_ns for p in report.paths)
    assert report.totals.get("retransmit_backoff", 0) == 0


def test_report_render_and_dict(lossy_run):
    tb, tel = lossy_run
    report = critical_paths(tb.causal, tel.tracer.events, tel.spans())
    text = report.render()
    assert "retransmit_backoff" in text
    assert "critical-path attribution (40 messages)" in text
    d = report.to_dict()
    assert d["messages"] == 40
    assert sum(d["totals"].values()) == report.total_ns


# ----------------------------------------------------------------------
# credit relabeling (unit level: totals preserved, only queueing moves)
# ----------------------------------------------------------------------
def test_relabel_credit_splits_overlap():
    intervals = [(0, 100, "queueing"), (100, 150, "cpu")]
    out = _relabel_credit(intervals, [(20, 60)])
    assert out == [
        (0, 20, "queueing"), (20, 60, "credit_wait"), (60, 100, "queueing"),
        (100, 150, "cpu"),
    ]
    assert sum(e - s for s, e, _ in out) == 150


def test_relabel_credit_ignores_non_queueing():
    intervals = [(0, 50, "propagation")]
    assert _relabel_credit(intervals, [(0, 50)]) == intervals


def test_relabel_credit_multiple_windows():
    out = _relabel_credit([(0, 100, "queueing")], [(10, 20), (30, 40)])
    assert out == [
        (0, 10, "queueing"), (10, 20, "credit_wait"),
        (20, 30, "queueing"), (30, 40, "credit_wait"),
        (40, 100, "queueing"),
    ]


# ----------------------------------------------------------------------
# flight-chain reconstruction from a dump dict
# ----------------------------------------------------------------------
def test_flight_chain_walks_parents():
    dump = {"events": [
        {"id": 1, "parent": -1, "category": "link"},
        {"id": 2, "parent": 1, "category": "rto_timer"},
        {"id": 3, "parent": 2, "category": "failure"},
    ]}
    chain = flight_chain(dump)
    assert [n["id"] for n in chain] == [3, 2, 1]


def test_flight_chain_handles_truncated_ring():
    dump = {"events": [{"id": 9, "parent": 4, "category": "failure"}]}
    assert [n["id"] for n in flight_chain(dump)] == [9]
    assert flight_chain({"events": []}) == []
