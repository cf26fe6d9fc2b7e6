"""Protocol tracer: event capture, timeline rendering, CSV export."""

import io

import pytest

from helpers import run_procs
from repro.apps import BlastConfig, PhasedSizes, FixedSizes, run_blast
from repro.config import ScenarioConfig
from repro.core import ProtocolMode
from repro.core.stats import PHASE_TRACE_CAP, ProtocolStats
from repro.exs import BlockingSocket
from repro.testbed import Testbed
from repro.trace import (ProtocolTracer, TraceEvent, events_from_csv,
                         render_timeline, summarize)


def traced_run(seed=5):
    tb = Testbed(ScenarioConfig(seed=seed))
    tracer = ProtocolTracer.attach(tb)
    out = {}

    def server():
        conn = yield from BlockingSocket.accept_one(tb.server, 4900)
        got = b""
        while len(got) < 120_000:
            got += yield from conn.recv_bytes(50_000)
        out["got"] = got

    def client():
        conn = yield from BlockingSocket.connect(tb.client, 4900)
        yield from conn.send_bytes(b"t" * 120_000)
        yield from conn.close()

    run_procs(tb.sim, server(), client(), max_events=20_000_000)
    return tracer


def test_tracer_captures_transfer_events():
    tracer = traced_run()
    kinds = {e.kind for e in tracer.events}
    # a synchronous exchange goes indirect, with copies, acks and a FIN
    assert "indirect" in kinds
    assert "copy" in kinds
    assert "ring_ack" in kinds
    assert "fin" in kinds
    assert "advert_tx" in kinds  # receiver advertised (even if late)
    times = [e.time_ns for e in tracer.events]
    assert times == sorted(times)


def test_trace_event_fields_accessible():
    tracer = traced_run()
    transfer = tracer.of_kind("indirect")[0]
    assert transfer.get("nbytes") > 0
    assert transfer.get("seq") is not None
    assert transfer.get("missing", "dflt") == "dflt"


def test_phase_trace_recorded_in_stats():
    tb = Testbed(ScenarioConfig(seed=5))
    ProtocolTracer.attach(tb)
    cfg = BlastConfig(
        total_messages=40,
        sizes=PhasedSizes([(FixedSizes(1 << 20), 10), (FixedSizes(32 << 10), 20),
                           (FixedSizes(1 << 20), 10)]),
        outstanding_sends=2, outstanding_recvs=4,
        recv_buffer_bytes=1 << 20,
    )
    r = run_blast(cfg, testbed=tb, max_events=50_000_000)
    if r.mode_switches:
        trace = r.tx_stats.phase_trace
        assert len(trace) >= r.mode_switches
        phases = [p for _t, p in trace]
        assert phases == sorted(phases)  # monotone
        times = [t for t, _p in trace]
        assert times == sorted(times)


def test_timeline_rendering():
    tracer = traced_run()
    art = render_timeline(tracer, width=40)
    assert "timeline" in art
    assert "|" in art and ("I" in art or "D" in art)
    # an empty tracer renders gracefully
    assert render_timeline(ProtocolTracer()) == "(no transfers recorded)"


def test_summarize_counts():
    tracer = traced_run()
    text = summarize(tracer)
    assert "conn" in text and "copy=" in text


def test_csv_export():
    tracer = traced_run()
    buf = io.StringIO()
    n = tracer.to_csv(buf)
    lines = buf.getvalue().strip().splitlines()
    assert len(lines) == n + 1  # header + rows
    assert lines[0].startswith("time_ns,conn,host,kind")


def test_csv_round_trip():
    tracer = traced_run()
    # adversarial values: the old "k=v;k=v" packing corrupted on these
    tracer.emit(999_999, 9, "client", "note", label="a=b;c=d", text='quote"me')
    buf = io.StringIO()
    tracer.to_csv(buf)
    buf.seek(0)
    events = events_from_csv(buf)
    assert events == tracer.events
    noted = [e for e in events if e.kind == "note"][0]
    assert noted.get("label") == "a=b;c=d"
    assert noted.get("text") == 'quote"me'


def test_csv_rejects_foreign_header():
    with pytest.raises(ValueError):
        events_from_csv(io.StringIO("a,b,c\n1,2,3\n"))


def test_summarize_reports_bytes_and_direct_ratio():
    tracer = ProtocolTracer()
    tracer.emit(10, 1, "client", "direct", nbytes=3000, seq=0)
    tracer.emit(20, 1, "client", "indirect", nbytes=1000, seq=3000)
    text = summarize(tracer)
    assert "direct=3000" in text
    assert "indirect=1000" in text
    assert "total=4000" in text
    assert "direct_ratio=0.500" in text


def test_timeline_single_timestamp_does_not_divide_by_zero():
    tracer = ProtocolTracer()
    for conn in (1, 2):
        tracer.emit(5_000, conn, "client", "direct", nbytes=64, seq=0)
    art = render_timeline(tracer, width=16)
    assert "D" in art
    assert "0.000 ms" in art  # span clamped to 1 ns, not a ZeroDivisionError


def test_capacity_drops_are_counted():
    tracer = ProtocolTracer(capacity=2)
    for i in range(5):
        tracer.emit(i, 1, "h", "direct", nbytes=1)
    assert len(tracer.events) == 2
    assert tracer.dropped == 3


def test_phase_trace_is_bounded():
    stats = ProtocolStats()
    for i in range(PHASE_TRACE_CAP + 25):
        stats.note_phase(i, i % 2)
    assert len(stats.phase_trace) == PHASE_TRACE_CAP
    assert stats.phase_trace_dropped == 25
    # oldest entries were the ones evicted
    assert stats.phase_trace[0][0] == 25
    assert stats.phase_trace[-1][0] == PHASE_TRACE_CAP + 24


def test_summarize_reliability_section_on_lossy_run():
    """A lossy blast must surface the reliability kinds; a clean run must
    not grow the section at all."""
    from repro.simnet import HEAVY_LOSS

    scenario = ScenarioConfig(seed=1, faults=HEAVY_LOSS, max_events=400_000_000)
    tb = Testbed.from_scenario(scenario)
    tracer = ProtocolTracer.attach(tb)
    run_blast(BlastConfig(total_messages=25, sizes=FixedSizes(48_000)),
              testbed=tb, scenario=scenario)
    text = summarize(tracer)
    assert "reliability events:" in text
    assert "totals:" in text
    assert "retransmit=" in text or "nak=" in text
    assert "messages retransmitted:" in text

    clean = summarize(traced_run())
    assert "reliability events:" not in clean


def test_connections_listing():
    tracer = traced_run()
    conns = tracer.connections()
    hosts = {host for _c, host in conns}
    assert hosts == {"client", "server"}
