"""The one endpoint index every offline reader shares.

:class:`~repro.trace.EventIndex` is the only code that reads ``conn_open``'s
``peer`` and ``socket_type``; the auditor, span stitching, critical paths
and the Perfetto export all read the stream through it.  Two properties
pin it down:

* **Same outputs.**  One traced run mixing a WWI byte stream, an
  eager/rendezvous stream and a SOCK_SEQPACKET message plane, under loss
  and causal capture, must reproduce the digests recorded from the
  readers as they were before the index: each reader then parsed
  ``conn_open`` itself, found a peer by scanning every endpoint, and the
  critical-path walker re-derived each span's deliver cause in a second
  walk over the deliveries.
* **Linear readers.**  A synthetic stream of 10,000 connection pairs is
  stitched, span-audited and exported well inside a few seconds; the
  per-direction peer scan took about 14 s at this size on a 2-vCPU VM.
"""

from __future__ import annotations

import hashlib
import json
import time

from repro.check import audit_events, audit_spans
from repro.config import ScenarioConfig
from repro.exs import BlockingSocket, ExsSocketOptions, SocketType
from repro.obs import build_spans, validate_chrome_trace
from repro.obs.perfetto import build_chrome_trace
from repro.simnet import HEAVY_LOSS
from repro.testbed import Testbed
from repro.trace import EventIndex, ProtocolTracer, TraceEvent


def _mixed_run():
    """Three connections on one lossy, causally captured testbed."""
    scenario = ScenarioConfig(seed=2, faults=HEAVY_LOSS, causal_capture=True)
    tb = Testbed.from_scenario(scenario)
    tracer = ProtocolTracer.attach(tb)
    plans = (
        (4200, SocketType.SOCK_STREAM, ExsSocketOptions(transport="wwi"),
         (3000, 70_000, 12_345, 200_000, 1, 40_000), 262_144),
        (4201, SocketType.SOCK_STREAM, ExsSocketOptions(transport="eager_rendezvous"),
         (512, 90_000, 4_000, 150_000, 64), 65_536),
        (4202, SocketType.SOCK_SEQPACKET, None, (9, 400, 1, 2_000), 4_096),
    )
    got = {}

    def server(port, socket_type, options, total, recv_bytes):
        conn = yield from BlockingSocket.accept_one(tb.server, port, socket_type, options)
        chunks = got.setdefault(port, [])
        while (data := (yield from conn.recv_bytes(recv_bytes))) or sum(chunks) < total:
            chunks.append(len(data))

    def client(port, socket_type, options, sizes):
        conn = yield from BlockingSocket.connect(tb.client, port, socket_type, options)
        with conn:
            for n in sizes:
                yield from conn.send_bytes(bytes(n))

    for port, socket_type, options, sizes, recv_bytes in plans:
        tb.sim.process(server(port, socket_type, options, sum(sizes), recv_bytes),
                       name=f"server{port}")
        tb.sim.process(client(port, socket_type, options, sizes), name=f"client{port}")
    tb.run()
    assert {port: sum(chunks) for port, chunks in got.items()} == {
        4200: 325_346, 4201: 244_576, 4202: 2_410}
    return tracer.events


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True, default=str).encode()).hexdigest()


def test_readers_reproduce_the_recorded_outputs():
    events = _mixed_run()
    kinds = {e.kind for e in events}
    assert {"direct", "indirect", "eager", "rendezvous", "retransmit"} <= kinds
    spans = build_spans(events)
    causes = {(s.conn, s.host, s.send_id): s.cause for s in spans if s.cause != -1}
    report = audit_events(events)
    first_deliver = next(e for e in events if e.kind == "deliver")
    doctored = [e for e in events if e is not first_deliver]
    bad = audit_events(doctored)
    assert len(events) == 126
    assert _sha([s.to_dict() for s in spans]) == (
        "609efc23cdf62245a077826731f8f8ff9e47a31900c6e647fc0c7ae31e1dd897")
    assert _sha(sorted(causes.items())) == (
        "4ed9c17d14578b50bdafa6579128b8d8bed1e69485e2c4bc0c93efdebcdd0cbd")
    assert _sha([report.describe(), sorted(report.transferred.items()),
                 sorted(report.delivered.items())]) == (
        "f5149c8967ba1f986a1e3e79e277d909bd7222e943c114cc0f7941fb3d1a722f")
    assert _sha([str(v) for v in audit_spans(events)]) == _sha([])
    assert _sha([bad.describe(), [str(v) for v in audit_spans(doctored)]]) == (
        "eb9258d2f675c589cde5d2f9fbb4a96fd2c95763440119620f27aaf1167c6023")
    assert _sha(build_chrome_trace(events, spans)) == (
        "238b91554ef664c293243bfb2ad92adfebd24fbd87b23a35fad3cac301f5ac4a")


def _synthetic_pairs(pairs: int):
    """One 100-byte message per connection pair, client → server."""
    events = []
    for i in range(pairs):
        a, b, t = 2 * i + 1, 2 * i + 2, 10 * i
        for dt, conn, host, kind, fields in (
            (0, a, "client", "conn_open", {"peer": b, "socket_type": "stream"}),
            (0, b, "server", "conn_open", {"peer": a, "socket_type": "stream"}),
            (1, a, "client", "send", {"send_id": 1, "nbytes": 100}),
            (2, a, "client", "direct", {"seq": 0, "nbytes": 100, "phase": 0}),
            (3, a, "client", "send_done", {"send_id": 1, "nbytes": 100}),
            (4, b, "server", "deliver", {"nbytes": 100}),
            (5, a, "client", "fin", {"seq": 100}),
        ):
            events.append(TraceEvent(t + dt, conn, host, kind, tuple(sorted(fields.items()))))
    return events


def test_index_resolves_peers_and_units():
    events = _synthetic_pairs(2) + [
        TraceEvent(30, 5, "server", "conn_open", (("peer", 6), ("socket_type", "seqpacket"))),
        TraceEvent(31, 1_000_001, "client", "retransmit", (("count", 1),)),
    ]
    index = EventIndex(events)
    assert EventIndex.of(index) is index and index.events == events
    assert list(index.endpoints) == [(1, "client"), (2, "server"), (3, "client"),
                                     (4, "server"), (5, "server"), (1_000_001, "client")]
    eps = index.endpoints
    assert (eps[1, "client"].peer, eps[2, "server"].peer) == ((2, "server"), (1, "client"))
    assert eps[5, "server"].peer is None  # its peer never traced
    assert eps[1_000_001, "client"].peer is None  # no conn_open: a QP's records
    assert [ep.unit for ep in eps.values()] == ["bytes"] * 4 + ["messages", "bytes"]
    assert [e.kind for e in eps[2, "server"].events] == ["conn_open", "deliver"]
    # the span readers take the index in place of the event list
    assert not audit_spans(index)
    assert build_spans(index) == build_spans(events)


def test_readers_are_linear_in_the_stream():
    events = _synthetic_pairs(10_000)
    start = time.perf_counter()
    spans = build_spans(events)
    violations = audit_spans(events)
    doc = build_chrome_trace(events, spans)
    elapsed = time.perf_counter() - start
    assert len(spans) == 10_000 and all(s.complete for s in spans)
    assert not violations
    assert sum(ev["ph"] == "f" for ev in doc["traceEvents"]) == 10_000
    assert not validate_chrome_trace(doc)
    assert elapsed < 5.0, f"offline readers took {elapsed:.2f}s over 10,000 pairs"
