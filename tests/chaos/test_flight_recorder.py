"""Flight recorder: automatic blackbox dumps when the stack dies.

A total-loss run exhausts ``retry_cnt`` and moves the QP to ERROR; the
bounded flight ring must auto-dump a replayable JSON artifact whose tail
reconstructs — via parent links — the causal chain from the last
retransmit timer to the QP ERROR transition (the ISSUE acceptance
criterion), without ever paying full-capture memory — on each (transport,
reliability mode) pair.
"""

import json
import os

import pytest

from helpers import run_procs
from repro.config import ScenarioConfig
from repro.exs import BlockingSocket, ExsError
from repro.obs.causal import flight_chain
from repro.simnet import FLIGHT_SCHEMA, FaultProfile
from repro.testbed import Testbed
from repro.verbs import ReliabilityConfig


def _run_retry_exhaustion(variant, tmp_path, flight=128):
    scenario = variant.scenario(
        seed=3,
        faults=FaultProfile(drop_prob=1.0),
        reliability=ReliabilityConfig(retry_timeout_ns=100_000, retry_cnt=3),
        flight_recorder=flight,
        telemetry_dir=str(tmp_path),
    )
    tb = Testbed.from_scenario(scenario)

    def server():
        try:
            conn = yield from BlockingSocket.accept_one(tb.server, 4321)
            yield from conn.recv_bytes(8192)
        except ExsError as exc:
            return str(exc)

    def client():
        try:
            conn = yield from BlockingSocket.connect(tb.client, 4321)
            yield from conn.send_bytes(b"x" * 20_000)
        except ExsError as exc:
            return str(exc)

    results = run_procs(tb.sim, server(), client(), max_events=50_000_000)
    assert all(r is not None for r in results), "both sides must observe the error"
    return tb, scenario


def test_qp_error_auto_dumps_flight_artifact(variant, tmp_path):
    tb, scenario = _run_retry_exhaustion(variant, tmp_path)
    rec = tb.causal
    assert rec is not None
    reasons = [d["reason"] for d in rec.dumps]
    assert "qp_error" in reasons
    dump = next(d for d in rec.dumps if d["reason"] == "qp_error")

    # written to disk, replayable: embeds the exact scenario
    assert os.path.exists(dump["path"])
    with open(dump["path"]) as fh:
        loaded = json.load(fh)
    assert loaded["schema"] == FLIGHT_SCHEMA
    assert loaded["reason"] == "qp_error"
    # ... as resolved, so the dump replays without the REPRO_KERNEL environment
    assert ScenarioConfig.from_dict(loaded["scenario"]) == scenario.resolved() == tb.scenario
    assert loaded["context"]["status"] == "retry_exceeded"


def test_dump_tail_reconstructs_retransmit_chain(variant, tmp_path):
    """The acceptance criterion: failure ← rto_timer ← rto_timer ← ... —
    the dump's tail explains *why* the QP died, by parent links alone."""
    tb, _ = _run_retry_exhaustion(variant, tmp_path)
    dump = next(d for d in tb.causal.dumps if d["reason"] == "qp_error")
    chain = flight_chain(dump)
    assert chain[0]["category"] == "failure"
    assert chain[0]["meta"]["reason"] == "qp_error"
    # immediate cause: the final retransmission timer expiry
    assert chain[1]["category"] == "rto_timer"
    rto_links = [n for n in chain if n["category"] == "rto_timer"]
    # retry_cnt=3 → initial arm + 3 retries of exponential backoff on the chain
    assert len(rto_links) >= 3
    fires = [n["fire_ns"] for n in rto_links]
    assert fires == sorted(fires, reverse=True), "chain walks backwards in time"
    # exponential backoff: each successive timer waited longer than the last
    waits = [n["fire_ns"] - n["sched_ns"] for n in reversed(rto_links)]
    assert all(b > a for a, b in zip(waits, waits[1:]))


def test_ring_stays_bounded_during_failure_run(variant, tmp_path):
    tb, _ = _run_retry_exhaustion(variant, tmp_path, flight=64)
    rec = tb.causal
    # retained nodes: the 64-deep ring plus still-pending placements only
    assert len(rec.fired_nodes()) <= 64
    assert len(rec.nodes) <= 64 + 32
    for dump in rec.dumps:
        assert len(dump["events"]) <= 64


def test_failure_run_is_deterministic(variant, tmp_path):
    a, _ = _run_retry_exhaustion(variant, tmp_path / "a")
    b, _ = _run_retry_exhaustion(variant, tmp_path / "b")

    # Device/QP numbers come from a process-global counter and the artifact
    # paths from tmp dirs, so compare the causal skeleton: same failures at
    # the same times with the same DAG shape.
    def skeleton(dumps):
        return [
            (d["reason"], d["time_ns"],
             [(n["id"], n["parent"], n["category"], n["sched_ns"], n["fire_ns"])
              for n in d["events"]])
            for d in dumps
        ]

    assert skeleton(a.causal.dumps) == skeleton(b.causal.dumps)
