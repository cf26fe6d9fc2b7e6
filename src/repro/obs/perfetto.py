"""Chrome trace-event (Perfetto) export of a traced run.

Converts a :class:`~repro.trace.ProtocolTracer` event stream plus stitched
:class:`~repro.obs.spans.MessageSpan` records into the Chrome trace-event
JSON format that https://ui.perfetto.dev and ``chrome://tracing`` load
directly:

* one *process* track per host (``client`` / ``server``),
  one *thread* track per connection (``ph:"M"`` metadata events);
* one complete event (``ph:"X"``) per message span on the sender's track,
  from submit to final delivery;
* one flow arrow (``ph:"s"`` → ``ph:"f"``) per message, keyed by
  ``conn:send_id``, from the sender's first WWI post to the receiver's
  final delivery — the cross-track "message travels the wire" arrows;
* instant events (``ph:"i"``) for protocol phase changes and every
  reliability event (retransmits, NAKs, RNR, QP and connection errors).
  Dropped frames and link outages are not traced: the impairment model
  counts them (the ``faults.*`` telemetry gauges).

Timestamps are microseconds (the format's unit) with nanosecond fractions
preserved.  :func:`validate_chrome_trace` is the strict checker the CI
``trace-smoke`` gate and the test-suite validator run — required fields per
phase type, per-track timestamp monotonicity, and matched flow begin/end
pairs.
"""

from __future__ import annotations

import json
from typing import IO, Dict, Iterable, List, Optional, Tuple

from ..trace import RELIABILITY_KINDS, EventIndex
from .spans import MessageSpan, build_spans

__all__ = ["build_chrome_trace", "validate_chrome_trace", "write_chrome_trace"]

#: tracer kinds rendered as instant events, beyond the reliability set
_INSTANT_KINDS = RELIABILITY_KINDS + ("phase", "advert_drop")


def _us(t_ns: int) -> float:
    return t_ns / 1000.0


def build_chrome_trace(
    events: Iterable,
    spans: Optional[List[MessageSpan]] = None,
) -> dict:
    """Build a Chrome trace-event document from tracer *events* (or their
    :class:`~repro.trace.EventIndex`).

    Returns ``{"traceEvents": [...], "displayTimeUnit": "ms"}``; feed it to
    :func:`write_chrome_trace` or ``json.dump`` and open in Perfetto.
    """
    index = EventIndex.of(events)
    if spans is None:
        spans = build_spans(index)
    endpoints = index.endpoints
    pid_of = {host: i + 1 for i, host in enumerate(sorted({h for _, h in endpoints}))}

    out: List[dict] = []
    # ---- metadata: process per host, thread per connection ----------------
    for host, pid in sorted(pid_of.items(), key=lambda kv: kv[1]):
        out.append({"name": "process_name", "ph": "M", "pid": pid,
                    "args": {"name": host}})
    for host, conn in sorted((h, c) for c, h in endpoints):
        out.append({"name": "thread_name", "ph": "M", "pid": pid_of[host],
                    "tid": conn, "args": {"name": f"conn {conn}"}})

    body: List[dict] = []
    # ---- message spans as complete events on the sender's track -----------
    for span in spans:
        if not span.complete or span.e2e_ns is None:
            continue
        body.append({
            "name": f"msg {span.send_id} ({span.kind})",
            "cat": "message",
            "ph": "X",
            "ts": _us(span.submit_ns),
            "dur": _us(span.e2e_ns),
            "pid": pid_of[span.host],
            "tid": span.conn,
            "args": {
                "nbytes": span.nbytes,
                "direct_bytes": span.direct_bytes,
                "indirect_bytes": span.indirect_bytes,
                "copies": span.copies,
                "queue_ns": span.queue_ns,
                "e2e_ns": span.e2e_ns,
            },
        })
        # flow arrow: first post at the sender -> final delivery at the peer
        peer = endpoints[span.conn, span.host].peer
        if peer is None or span.first_post_ns is None:
            continue
        flow_id = f"{span.conn}:{span.send_id}"
        body.append({
            "name": "msg", "cat": "flow", "ph": "s", "id": flow_id,
            "ts": _us(span.first_post_ns),
            "pid": pid_of[span.host], "tid": span.conn,
        })
        body.append({
            "name": "msg", "cat": "flow", "ph": "f", "bp": "e", "id": flow_id,
            "ts": _us(span.delivered_ns),
            "pid": pid_of[peer[1]], "tid": peer[0],
        })

    # ---- instants: phase changes, faults, reliability events --------------
    for e in index.events:
        if e.kind not in _INSTANT_KINDS:
            continue
        body.append({
            "name": e.kind,
            "cat": "fault" if e.kind in RELIABILITY_KINDS else "protocol",
            "ph": "i",
            "s": "t",
            "ts": _us(e.time_ns),
            "pid": pid_of[e.host],
            "tid": e.conn,
            "args": dict(e.fields),
        })

    # The format requires non-decreasing timestamps per track; a global
    # stable sort by ts satisfies that and keeps same-instant order.
    body.sort(key=lambda ev: ev["ts"])
    out.extend(body)
    return {"traceEvents": out, "displayTimeUnit": "ms"}


# ---------------------------------------------------------------------------
# validation (the trace-smoke gate)
# ---------------------------------------------------------------------------
_REQUIRED: Dict[str, Tuple[str, ...]] = {
    "M": ("name", "pid", "args"),
    "X": ("name", "cat", "ts", "dur", "pid", "tid"),
    "i": ("name", "ts", "pid", "tid", "s"),
    "s": ("name", "cat", "id", "ts", "pid", "tid"),
    "f": ("name", "cat", "id", "ts", "pid", "tid"),
}


def validate_chrome_trace(trace) -> List[str]:
    """Strictly check a Chrome trace-event document.

    Returns a list of human-readable violations (empty = valid):
    required fields per phase type, numeric non-negative ``ts``/``dur``,
    non-decreasing ``ts`` per ``(pid, tid)`` track, and exactly one
    matched ``s``/``f`` pair per flow id with ``s.ts <= f.ts``.
    """
    errors: List[str] = []
    if not isinstance(trace, dict) or not isinstance(trace.get("traceEvents"), list):
        return ["not a trace document: expected {'traceEvents': [...]}"]
    last_ts: Dict[Tuple, float] = {}
    flows: Dict[str, Dict[str, dict]] = {}
    for i, ev in enumerate(trace["traceEvents"]):
        if not isinstance(ev, dict):
            errors.append(f"event {i}: not an object")
            continue
        ph = ev.get("ph")
        req = _REQUIRED.get(ph)
        if req is None:
            errors.append(f"event {i}: unknown/missing ph {ph!r}")
            continue
        missing = [k for k in req if k not in ev]
        if missing:
            errors.append(f"event {i} (ph={ph}): missing fields {missing}")
            continue
        if ph == "M":
            if ev["name"] not in ("process_name", "thread_name"):
                errors.append(f"event {i}: unknown metadata {ev['name']!r}")
            elif "name" not in ev.get("args", {}):
                errors.append(f"event {i}: metadata args lack 'name'")
            continue
        ts = ev["ts"]
        if not isinstance(ts, (int, float)) or ts < 0:
            errors.append(f"event {i} (ph={ph}): bad ts {ts!r}")
            continue
        if ph == "X":
            dur = ev["dur"]
            if not isinstance(dur, (int, float)) or dur < 0:
                errors.append(f"event {i}: bad dur {dur!r}")
        if ph == "i" and ev["s"] not in ("t", "p", "g"):
            errors.append(f"event {i}: bad instant scope {ev['s']!r}")
        if ph == "f" and ev.get("bp") != "e":
            errors.append(f"event {i}: flow end without bp='e'")
        track = (ev["pid"], ev["tid"])
        prev = last_ts.get(track)
        if prev is not None and ts < prev:
            errors.append(
                f"event {i} (ph={ph}): ts {ts} < {prev} on track pid={track[0]} tid={track[1]}")
        last_ts[track] = ts
        if ph in ("s", "f"):
            slot = flows.setdefault(str(ev["id"]), {})
            if ph in slot:
                errors.append(f"event {i}: duplicate flow {ph!r} for id {ev['id']!r}")
            slot[ph] = ev
    for fid, slot in sorted(flows.items()):
        if "s" not in slot or "f" not in slot:
            errors.append(f"flow {fid!r}: unmatched (have {sorted(slot)})")
        elif slot["s"]["ts"] > slot["f"]["ts"]:
            errors.append(f"flow {fid!r}: start ts after finish ts")
    return errors


def write_chrome_trace(fh: IO[str], trace: dict) -> int:
    """Serialize a trace document; returns the event count."""
    json.dump(trace, fh, separators=(",", ":"), sort_keys=True)
    fh.write("\n")
    return len(trace.get("traceEvents", ()))
