"""A run is a value: what it names and checks follows from its scenario alone.

Devices, QPNs, memory keys and connection ids are numbered per fabric, and
no process-wide switch decides what a run asserts, so three ledger rows run
forward, then in reverse in one process, then in forked ``run_sweep``
workers, observe the same run each time.  The traced lossy row carries
reliability events, which name their QP, into its Perfetto export.
"""

from __future__ import annotations

import io
import json

from repro.obs.perfetto import build_chrome_trace
from repro.simnet import HEAVY_LOSS
from repro.sweep import run_sweep
from test_ledger import CALENDAR, PINNED, _blast, _row, _telemetry, view

TRACED = "observed/p2p/eager_rendezvous/gobackn/s1"
ROWS = (TRACED, "blast/p2p/wwi/selective_repeat/s2",
        "incast/star/eager_rendezvous/gobackn/shards/s1")


def run_row(name: str, _seed: int = 0) -> dict:
    """The row's observable half, and the traced row's JSONL and Perfetto exports."""
    if name != TRACED:
        return {"observable": _row(*PINNED[name]())["observable"]}
    _record, fabric = _blast(1, "eager_rendezvous", HEAVY_LOSS, "gobackn", observe=True)
    telemetry = fabric.telemetry
    jsonl = io.StringIO()
    telemetry.export(jsonl)
    events = telemetry.tracer.events
    assert any(e.kind == "retransmit" for e in events)
    return {"observable": _telemetry(jsonl.getvalue())["observable"],
            "jsonl": jsonl.getvalue(),
            "perfetto": json.dumps(build_chrome_trace(events, telemetry.spans()), sort_keys=True)}


def test_rows_observe_the_same_run_in_any_order_and_process():
    forward = {name: run_row(name) for name in ROWS}
    reverse = {name: run_row(name) for name in reversed(ROWS)}
    forked = dict(zip(ROWS, run_sweep(ROWS, run_row, processes=2)))
    ledger = view(CALENDAR)
    for name in ROWS:
        assert forward[name]["observable"] == ledger[name]["observable"], name
        assert reverse[name] == forward[name], name
        assert forked[name] == forward[name], name
