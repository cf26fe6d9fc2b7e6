"""Exporters and the ``python -m repro.obs`` CLI."""

import io
import json
import re

import pytest

from repro.apps import BlastConfig, ExponentialSizes, run_blast
from repro.obs import (SCHEMA_VERSION, load_jsonl, render_report,
                       validate_records, write_csv, write_jsonl,
                       write_prometheus)
from repro.obs.__main__ import main as obs_main
from repro.testbed import Testbed
from repro.config import ScenarioConfig


@pytest.fixture(scope="module")
def session():
    tb = Testbed(ScenarioConfig(seed=4))
    tel = tb.attach_telemetry(sample_interval_ns=50_000)
    cfg = BlastConfig(total_messages=30, sizes=ExponentialSizes(seed=4))
    run_blast(cfg, testbed=tb, max_events=50_000_000)
    tel.finish(scenario="export-test", seed=4)
    return tel


def test_jsonl_round_trip(session):
    buf = io.StringIO()
    n = write_jsonl(buf, session)
    assert n == len(buf.getvalue().splitlines())
    buf.seek(0)
    art = load_jsonl(buf)

    assert art.meta["scenario"] == "export-test"
    assert art.end_ns == session.sim.now
    assert sorted(art.series) == sorted(session.sampler.series)
    for name, ts in art.series.items():
        assert ts.points == session.sampler.series[name].points
    assert len(art.spans) == len(session.spans())
    assert [s.to_dict() for s in art.spans] == [s.to_dict() for s in session.spans()]
    by_name = {h["name"]: h for h in art.hists}
    live = session.registry.get_histogram("span.e2e_ns")
    assert by_name["span.e2e_ns"]["count"] == live.count
    assert by_name["span.e2e_ns"]["sum"] == live.sum


def test_kernel_calendar_gauges_sampled(session):
    """The standard telemetry run samples the event-calendar kernel counters."""
    series = session.sampler.series
    for name in ("kernel.events_executed", "kernel.pending", "kernel.batches",
                 "kernel.batched_events", "kernel.cascades",
                 "kernel.l0_inserts", "kernel.overflow_inserts",
                 "kernel.timeout_allocs", "kernel.timeout_reuses"):
        assert name in series, name
    executed = series["kernel.events_executed"].values()
    assert executed == sorted(executed)  # cumulative counter, monotone
    assert executed[-1] > 0
    rate = series["kernel.timeout_freelist_hit_rate"].values()[-1]
    assert 0.0 <= rate <= 1.0


def test_schema_validation_catches_drift():
    assert validate_records([{"type": "meta", "schema": SCHEMA_VERSION,
                              "end_ns": 1, "run": {}}]) == []
    errs = validate_records([
        {"type": "meta", "schema": SCHEMA_VERSION + 1, "end_ns": 1, "run": {}},
        {"type": "series", "name": "x"},          # missing points
        {"type": "wat"},                          # unknown type
    ])
    assert len(errs) == 3
    assert validate_records([]) == ["no meta record"]


def test_load_rejects_bad_artifacts():
    with pytest.raises(ValueError, match="not valid JSON"):
        load_jsonl(io.StringIO("{nope\n"))
    bad = json.dumps({"type": "meta", "schema": 999, "end_ns": 0, "run": {}})
    with pytest.raises(ValueError, match="schema"):
        load_jsonl(io.StringIO(bad + "\n"))


def test_csv_export_long_form(session):
    buf = io.StringIO()
    rows = write_csv(buf, session)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "name,t_ns,value"
    assert len(lines) == rows + 1
    assert rows == sum(len(ts) for ts in session.sampler.series.values())


def test_prometheus_exposition(session):
    buf = io.StringIO()
    write_prometheus(buf, session)
    text = buf.getvalue()
    assert "# TYPE repro_client_app_cpu_busy_ns gauge" in text
    assert "# TYPE repro_span_e2e_ns histogram" in text
    assert 'repro_span_e2e_ns_bucket{name="span.e2e_ns",le="+Inf"}' in text
    # bucket counts are cumulative
    hist = session.registry.get_histogram("span.e2e_ns")
    assert f'repro_span_e2e_ns_count{{name="span.e2e_ns"}} {hist.count}' in text


_PROM_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^{}]*)\})?"
    r" (?P<value>[-+]?(?:[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?|Inf|NaN))$")
_PROM_LABEL = re.compile(r'^[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\[\\"n])*"$')


def test_prometheus_grammar_valid(session):
    """Every exposed line must parse under the text exposition grammar:
    metric names ``[a-zA-Z_:][a-zA-Z0-9_:]*``, label values escaped."""
    buf = io.StringIO()
    write_prometheus(buf, session)
    for line in buf.getvalue().splitlines():
        if line.startswith("#"):
            continue
        m = _PROM_LINE.match(line)
        assert m, f"line fails exposition grammar: {line!r}"
        if m.group("labels"):
            for pair in m.group("labels").split(","):
                assert _PROM_LABEL.match(pair), f"bad label {pair!r} in {line!r}"


def test_prometheus_dotted_names_keep_identity(session):
    """Sanitizing ``conn1.client.tx.ring_free`` → ``_`` is lossy, so the
    original dotted name must survive as a ``name`` label."""
    buf = io.StringIO()
    write_prometheus(buf, session)
    text = buf.getvalue()
    dotted = [n for n in session.registry.snapshot() if "." in n]
    assert dotted, "expected dotted per-connection metric names"
    for name in dotted:
        assert f'name="{name}"' in text, name


def test_prometheus_escaping():
    from repro.obs.export import _prom_escape, _prom_name

    assert _prom_name("conn1.client.tx") == "repro_conn1_client_tx"
    assert _prom_name("0weird-name") == "repro_0weird_name"
    assert _prom_escape('a"b\\c\nd') == 'a\\"b\\\\c\\nd'


def test_report_renders_from_live_and_loaded(session):
    live = render_report(session)
    buf = io.StringIO()
    write_jsonl(buf, session)
    buf.seek(0)
    loaded = render_report(load_jsonl(buf))
    assert live == loaded
    for needle in ("telemetry run report", "connection summary",
                   "slowest spans", "latency histograms"):
        assert needle in live
    # the bogus conns.opened counter must not appear as a connection row
    assert "conns@opened" not in live
    # the run says which kernel served it and whether the C path was live
    stats = session.sim.calendar_stats()
    assert session.meta["accelerator"] == stats["accelerator"]
    assert "event kernel:" in live and "max batch" in live
    assert f"accelerator={stats['accelerator']}" in live


def test_report_says_why_the_accelerator_is_unavailable(session, monkeypatch):
    """An unavailable C accelerator is a fact of the run: the report's meta
    line carries the recorded reason next to ``accelerator=`` (and says
    nothing when there is none)."""
    from repro.simnet import _accel

    # a reason only when there is one (a host that could not build the wheel)
    assert ("accelerator_reason" in session.meta) == (session.meta["accelerator"] == "unavailable")
    monkeypatch.setattr(_accel, "_state", None)  # as after a failed build
    monkeypatch.setattr(_accel, "_reason", "RuntimeError: no C compiler available")
    tb = Testbed(ScenarioConfig(seed=4, kernel="wheel"))
    tel = tb.attach_telemetry(sample_interval_ns=50_000)
    run_blast(BlastConfig(total_messages=3, sizes=ExponentialSizes(seed=4)),
              testbed=tb, max_events=50_000_000)
    tel.finish()
    report = render_report(tel)
    assert "accelerator=unavailable" in report
    assert "accelerator_reason=RuntimeError: no C compiler available" in report
    assert tel.meta["kernel"] == "heap"  # the calendar that ran


def test_report_markdown_flavour(session):
    md = render_report(session, fmt="markdown")
    assert md.startswith("# Telemetry run report")
    assert "## Connection summary" in md
    assert "|---|" in md
    with pytest.raises(ValueError):
        render_report(session, fmt="html")


def test_cli_smoke_gate(tmp_path, capsys):
    out = tmp_path / "smoke.jsonl"
    assert obs_main(["smoke", "--out", str(out)]) == 0
    assert "obs smoke ok" in capsys.readouterr().out
    with out.open() as fh:
        art = load_jsonl(fh)
    assert art.spans and all(s.complete for s in art.spans)


def test_cli_run_and_report_round_trip(tmp_path, capsys):
    art_path = tmp_path / "run.jsonl"
    assert obs_main(["run", "--scenario", "blast", "--messages", "12",
                     "--out", str(art_path)]) == 0
    first = capsys.readouterr().out
    assert "telemetry run report" in first
    assert obs_main(["report", str(art_path)]) == 0
    second = capsys.readouterr().out
    assert second == first
