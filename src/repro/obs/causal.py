"""Critical-path latency attribution over the captured causal DAG.

A captured run (:func:`repro.simnet.causality.enable_capture`) records one
:class:`~repro.simnet.causality.CausalNode` per calendar placement, with
parent links.  This module walks that DAG backwards from each message's
final ``deliver`` event to its originating ``exs_send`` and attributes the
end-to-end latency to named segments:

============================ ==============================================
``cpu``                      host CPU work (post/copy/turnaround timeouts)
``link_serialization``       time on the transmitter (bytes / bandwidth)
``propagation``              wire flight time (incl. in-order clamping)
``queueing``                 calendar residency not otherwise classified
``credit_wait``              queueing that overlaps a sender credit stall
``retransmit_backoff``       retransmission / RNR timer arming delays
============================ ==============================================

The accounting is exact by construction: a chain node scheduled during its
parent's dispatch has ``sched_ns == parent.fire_ns``, so the chain's
``[sched_ns, fire_ns]`` intervals tile the window from submit to delivery
with no gaps or overlaps — per-message segment sums equal the span's
``e2e_ns`` to the nanosecond (enforced by ``tests/obs/test_causal.py``).

The bridge from spans to DAG nodes is the ``cause`` field that
:meth:`repro.exs.connection.ExsConnection.trace` stamps on every protocol
event under capture: the id of the calendar entry executing when the event
was emitted.  For a ``deliver`` event that is the entry whose dispatch
performed the delivery, and its ``fire_ns`` *is* the span's
``delivered_ns``; span stitching stamps it on the span as
:attr:`~repro.obs.spans.MessageSpan.cause`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from .spans import MessageSpan, build_spans

__all__ = [
    "SEGMENTS",
    "MessagePath",
    "CriticalPathReport",
    "critical_paths",
    "flight_chain",
]

#: attribution segments, in report order
SEGMENTS = (
    "cpu",
    "link_serialization",
    "propagation",
    "queueing",
    "credit_wait",
    "retransmit_backoff",
)


@dataclass
class MessagePath:
    """One message's critical path, attributed to segments."""

    span: MessageSpan
    #: segment name -> total ns on this message's path
    segments: Dict[str, int] = field(default_factory=dict)
    #: (start_ns, end_ns, segment) pieces in time order (tile [submit, deliver])
    intervals: List[Tuple[int, int, str]] = field(default_factory=list)
    #: chain length in DAG nodes (0 = no cause recorded; fell back to queueing)
    depth: int = 0

    @property
    def total_ns(self) -> int:
        return sum(self.segments.values())

    @property
    def reconciled(self) -> bool:
        """Segment sums equal the span's end-to-end latency (≤1 ns slack)."""
        e2e = self.span.e2e_ns
        return e2e is not None and abs(self.total_ns - e2e) <= 1

    def to_dict(self) -> dict:
        return {
            "send_id": self.span.send_id,
            "conn": self.span.conn,
            "host": self.span.host,
            "nbytes": self.span.nbytes,
            "e2e_ns": self.span.e2e_ns,
            "depth": self.depth,
            "segments": dict(self.segments),
        }


@dataclass
class CriticalPathReport:
    """Per-run critical-path attribution across all complete spans."""

    paths: List[MessagePath] = field(default_factory=list)
    #: segment name -> ns summed over every attributed message
    totals: Dict[str, int] = field(default_factory=dict)
    #: spans that could not be attributed (no deliver cause recorded)
    unattributed: int = 0

    @property
    def total_ns(self) -> int:
        return sum(self.totals.values())

    def to_dict(self) -> dict:
        return {
            "totals": dict(self.totals),
            "messages": len(self.paths),
            "unattributed": self.unattributed,
            "paths": [p.to_dict() for p in self.paths],
        }

    def render(self) -> str:
        """Human-readable per-segment breakdown."""
        lines = [f"critical-path attribution ({len(self.paths)} messages)"]
        total = self.total_ns or 1
        for seg in SEGMENTS:
            ns = self.totals.get(seg, 0)
            if not ns and seg not in self.totals:
                continue
            bar = "#" * int(round(40 * ns / total))
            lines.append(f"  {seg:<20s} {ns / 1e3:>12.3f} us  {ns * 100 / total:5.1f}%  |{bar}")
        lines.append(f"  {'total':<20s} {self.total_ns / 1e3:>12.3f} us")
        if self.unattributed:
            lines.append(f"  ({self.unattributed} spans without a recorded deliver cause)")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# chain walking and segment attribution
# ---------------------------------------------------------------------------
def _split_node(node, lo: int, hi: int) -> List[Tuple[int, int, str]]:
    """Attribute one chain node's clipped window ``[lo, hi]`` to segments.

    Annotated link/ack edges split into sub-segments from the transmit
    site's timing decomposition (see ``LinkDirection.transmit`` /
    ``_send_ack_message``); timer edges are backoff; plain timeouts are
    host CPU work; everything else is calendar queueing.
    """
    cat = node.category
    if cat in ("rto_timer", "rnr_timer"):
        return [(lo, hi, "retransmit_backoff")]
    if cat == "timeout":
        return [(lo, hi, "cpu")]
    meta = node.meta
    if cat == "link" and meta is not None:
        parts = (
            ("queueing", meta.get("queue_ns", 0)),
            ("link_serialization", meta.get("tx_ns", 0)),
            ("propagation", meta.get("prop_ns", 0)),
        )
    elif cat == "ack" and meta is not None:
        parts = (
            ("cpu", meta.get("turnaround_ns", 0)),
            ("propagation", meta.get("prop_ns", 0)),
        )
    else:
        return [(lo, hi, "queueing")]
    out: List[Tuple[int, int, str]] = []
    pos = node.sched_ns
    for seg, length in parts:
        s, e = pos, pos + length
        pos = e
        s2, e2 = max(s, lo), min(e, hi)
        if e2 > s2:
            out.append((s2, e2, seg))
    if pos < hi:  # pragma: no cover - defensive (decomposition should tile)
        out.append((max(pos, lo), hi, "queueing"))
    return out


def _relabel_credit(
    intervals: List[Tuple[int, int, str]],
    windows: List[Tuple[int, int]],
) -> List[Tuple[int, int, str]]:
    """Relabel queueing time overlapping a credit-stall window.

    Totals-preserving: pieces are split, never stretched, so per-message
    reconciliation with ``e2e_ns`` is unaffected.
    """
    if not windows:
        return intervals
    out: List[Tuple[int, int, str]] = []
    for s, e, seg in intervals:
        if seg != "queueing":
            out.append((s, e, seg))
            continue
        cur = s
        for ws, we in windows:
            if we <= cur:
                continue
            if ws >= e:
                break
            os_, oe = max(cur, ws), min(e, we)
            if oe > os_:
                if os_ > cur:
                    out.append((cur, os_, "queueing"))
                out.append((os_, oe, "credit_wait"))
                cur = oe
        if cur < e:
            out.append((cur, e, "queueing"))
    return out


def _attribute(recorder, cause_cid: int, submit_ns: int, delivered_ns: int,
               windows: List[Tuple[int, int]]) -> Tuple[List[Tuple[int, int, str]], int]:
    """Walk the parent chain from *cause_cid* back past *submit_ns* and
    attribute ``[submit_ns, delivered_ns]``; returns (intervals, depth)."""
    chain = []
    node = recorder.node(cause_cid)
    while node is not None:
        chain.append(node)
        if node.sched_ns <= submit_ns:
            break
        node = recorder.node(node.parent) if node.parent >= 0 else None
    if not chain:
        # no recorded cause (capture partial / ring evicted): whole window
        # is unclassified queueing so totals still reconcile
        return _relabel_credit([(submit_ns, delivered_ns, "queueing")], windows), 0
    chain.reverse()
    intervals: List[Tuple[int, int, str]] = []
    first = chain[0]
    if first.sched_ns > submit_ns:
        # the chain was truncated (evicted ancestor): charge the unknown
        # prefix to queueing rather than dropping it
        intervals.append((submit_ns, first.sched_ns, "queueing"))
    for node in chain:
        lo = max(node.sched_ns, submit_ns)
        hi = node.fire_ns
        if hi > lo:
            intervals.extend(_split_node(node, lo, hi))
    return _relabel_credit(intervals, windows), len(chain)


def critical_paths(
    recorder,
    events: Iterable,
    spans: Optional[List[MessageSpan]] = None,
) -> CriticalPathReport:
    """Attribute every complete span's end-to-end latency to segments.

    *recorder* is the run's :class:`~repro.simnet.causality.CausalRecorder`
    (full-capture mode — ``capacity=None`` — for exact chains; ring mode
    yields truncated chains whose unknown prefix degrades to queueing).
    *events* is the tracer's event list; *spans* may be passed if already
    stitched from it (each span carries its deliver ``cause``).
    """
    if spans is None:
        spans = build_spans(events)

    windows_by_conn: Dict[int, List[Tuple[int, int]]] = {}
    for conn, start, end in recorder.credit_windows:
        windows_by_conn.setdefault(conn, []).append((start, end))
    for ws in windows_by_conn.values():
        ws.sort()

    report = CriticalPathReport()
    for span in spans:
        if not span.complete or span.e2e_ns is None or span.nbytes == 0:
            continue
        if span.cause < 0:
            report.unattributed += 1
            continue
        windows = windows_by_conn.get(span.conn, [])
        intervals, depth = _attribute(
            recorder, span.cause, span.submit_ns, span.delivered_ns, windows)
        path = MessagePath(span=span, intervals=intervals, depth=depth)
        for s, e, seg in intervals:
            path.segments[seg] = path.segments.get(seg, 0) + (e - s)
        report.paths.append(path)
        for seg, ns in path.segments.items():
            report.totals[seg] = report.totals.get(seg, 0) + ns
    return report


# ---------------------------------------------------------------------------
# flight-recorder dump interpretation
# ---------------------------------------------------------------------------
def flight_chain(dump: dict) -> List[dict]:
    """Reconstruct the causal chain ending at a flight dump's failure node.

    Returns node dicts from the failure backwards through its parent links,
    as far as the bounded ring retained them — e.g. ``qp_error`` ←
    ``rto_timer`` ← previous ``rto_timer`` ← the original ``link`` edge.
    """
    events = dump.get("events", [])
    if not events:
        return []
    by_id = {n["id"]: n for n in events}
    chain = []
    node = events[-1]
    seen = set()
    while node is not None and node["id"] not in seen:
        seen.add(node["id"])
        chain.append(node)
        node = by_id.get(node.get("parent", -1))
    return chain
