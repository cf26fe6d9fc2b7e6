"""Protocol tracing and timeline rendering.

Understanding *why* a connection fell back to buffered mode (or failed to
recover) requires seeing the interleaving of ADVERTs, transfers, copies
and phase changes.  :class:`ProtocolTracer` records structured events from
every EXS connection on a testbed, and the renderers turn them into a
time-bucketed ASCII timeline or CSV for external tooling.

Usage::

    tb = Testbed.from_scenario(ScenarioConfig(seed=1))
    tracer = ProtocolTracer.attach(tb)
    ... run ...
    print(render_timeline(tracer, width=72))
    tracer.to_csv(open("trace.csv", "w"))

Tracing is off unless attached; the emission points cost one attribute
check when disabled.

The tracer is the one protocol event sink below the applications: EXS
connections and the reliability layer reach it through ``host.tracer``.
Offline readers (the auditor, span stitching, critical paths, the
Perfetto export) read a recorded stream back through one
:class:`EventIndex`.
"""

from __future__ import annotations

import csv as _csv
import json as _json
from collections import defaultdict
from dataclasses import dataclass
from typing import IO, Dict, Iterable, List, Optional, Tuple

__all__ = ["TraceEvent", "ProtocolTracer", "EventIndex", "events_from_csv",
           "render_timeline", "summarize"]


@dataclass(frozen=True)
class TraceEvent:
    """One structured protocol event."""

    time_ns: int
    #: connection id (unique per endpoint)
    conn: int
    #: endpoint host name ("client"/"server" on a Testbed)
    host: str
    #: event kind: phase, direct, indirect, advert_tx, advert_rx,
    #: advert_drop, copy, ring_ack, fin, ...
    kind: str
    #: kind-specific payload (nbytes, seq, phase, ...)
    fields: Tuple[Tuple[str, object], ...] = ()

    def get(self, key: str, default=None):
        for k, v in self.fields:
            if k == key:
                return v
        return default


class ProtocolTracer:
    """Collects :class:`TraceEvent` records from EXS connections."""

    def __init__(self, capacity: int = 1_000_000) -> None:
        self.capacity = capacity
        self.events: List[TraceEvent] = []
        self.dropped = 0

    # ------------------------------------------------------------------
    @classmethod
    def attach(cls, fabric, capacity: int = 1_000_000) -> "ProtocolTracer":
        """Create a tracer and attach it to every host of a
        :class:`~repro.fabric.Fabric` (or :class:`~repro.testbed.Testbed`).

        Connections created afterwards emit events into it.
        """
        tracer = cls(capacity)
        for host in fabric.all_hosts:
            host.tracer = tracer
        return tracer

    def emit(self, time_ns: int, conn: int, host: str, kind: str, **fields) -> None:
        if len(self.events) >= self.capacity:
            self.dropped += 1
            return
        self.events.append(
            TraceEvent(time_ns, conn, host, kind, tuple(sorted(fields.items())))
        )

    # ------------------------------------------------------------------
    def of_kind(self, *kinds: str) -> List[TraceEvent]:
        wanted = set(kinds)
        return [e for e in self.events if e.kind in wanted]

    def connections(self) -> List[Tuple[int, str]]:
        """Distinct (conn, host) pairs in first-seen order."""
        seen: Dict[Tuple[int, str], None] = {}
        for e in self.events:
            seen.setdefault((e.conn, e.host), None)
        return list(seen)

    def to_csv(self, fh: IO[str]) -> int:
        """Write all events as CSV; returns the row count.

        The kind-specific payload goes into the ``fields`` column as one
        JSON object (a ``k=v;k=v`` packing would corrupt on values that
        themselves contain ``;`` or ``=``).  :func:`events_from_csv`
        round-trips the export.
        """
        writer = _csv.writer(fh)
        writer.writerow(["time_ns", "conn", "host", "kind", "fields"])
        for e in self.events:
            writer.writerow(
                [e.time_ns, e.conn, e.host, e.kind,
                 _json.dumps(dict(e.fields), sort_keys=True, default=str,
                             separators=(",", ":"))]
            )
        return len(self.events)


class Endpoint:
    """One ``(conn, host)`` endpoint of a recorded event stream."""

    __slots__ = ("conn", "host", "events", "peer", "messages")

    def __init__(self, conn: int, host: str) -> None:
        self.conn = conn
        self.host = host
        #: this endpoint's events, in stream order
        self.events: List[TraceEvent] = []
        #: the key of the other end of the connection, from ``conn_open``
        self.peer: Optional[Tuple[int, str]] = None
        #: True on a ``SOCK_SEQPACKET`` socket: a message plane, whose
        #: sequence counts messages rather than bytes
        self.messages = False

    @property
    def unit(self) -> str:
        return "messages" if self.messages else "bytes"


class EventIndex:
    """A recorded event stream indexed by ``(conn, host)`` endpoint.

    Built in one pass over *events* (any iterable of
    :class:`TraceEvent`-shaped records); the one reader of the
    ``conn_open`` schema.  Each endpoint knows its events, its peer's key
    and its unit.  Conn ids are process-unique, so the peer of an endpoint
    whose ``conn_open`` names conn *p* is the first-seen endpoint of conn
    *p* on another host.
    """

    def __init__(self, events: Iterable[TraceEvent]) -> None:
        self.events: List[TraceEvent] = list(events)
        #: endpoint key -> :class:`Endpoint`, in first-seen order
        self.endpoints: Dict[Tuple[int, str], Endpoint] = {}
        hosts_of: Dict[int, List[str]] = {}
        peer_conn: Dict[Tuple[int, str], int] = {}
        for e in self.events:
            key = (e.conn, e.host)
            ep = self.endpoints.get(key)
            if ep is None:
                ep = self.endpoints[key] = Endpoint(e.conn, e.host)
                hosts_of.setdefault(e.conn, []).append(e.host)
            ep.events.append(e)
            if e.kind == "conn_open":
                peer_conn[key] = e.get("peer", 0)
                if e.get("socket_type") == "seqpacket":
                    ep.messages = True
        for (conn, host), peer in peer_conn.items():
            if peer:
                for h in hosts_of.get(peer, ()):
                    if h != host:
                        self.endpoints[conn, host].peer = (peer, h)
                        break

    @classmethod
    def of(cls, events: Iterable[TraceEvent]) -> "EventIndex":
        """*events* itself when already an index, else its index."""
        return events if isinstance(events, cls) else cls(events)


def events_from_csv(fh: IO[str]) -> List[TraceEvent]:
    """Parse a :meth:`ProtocolTracer.to_csv` export back into events.

    JSON-representable field values (ints, floats, strings, bools) come
    back exactly; anything else was stringified on export.
    """
    reader = _csv.reader(fh)
    header = next(reader, None)
    if header != ["time_ns", "conn", "host", "kind", "fields"]:
        raise ValueError(f"not a protocol-trace CSV (header {header!r})")
    events: List[TraceEvent] = []
    for row in reader:
        if not row:
            continue
        time_ns, conn, host, kind, fields_json = row
        fields = _json.loads(fields_json) if fields_json else {}
        events.append(TraceEvent(int(time_ns), int(conn), host, kind,
                                 tuple(sorted(fields.items()))))
    return events


def render_timeline(tracer: ProtocolTracer, width: int = 72) -> str:
    """ASCII strip per sending direction: ``D`` direct, ``I`` indirect,
    ``*`` both within one bucket, ``.`` quiet.  A compact view of when the
    protocol switched modes."""
    transfers = tracer.of_kind("direct", "indirect")
    if not transfers:
        return "(no transfers recorded)"
    t0 = min(e.time_ns for e in transfers)
    t1 = max(e.time_ns for e in transfers)
    span = max(1, t1 - t0)
    by_dir: Dict[Tuple[int, str], List[TraceEvent]] = defaultdict(list)
    for e in transfers:
        by_dir[(e.conn, e.host)].append(e)

    lines = [f"transfer timeline ({span / 1e6:.3f} ms, {width} buckets; "
             f"D=direct I=indirect *=mixed)"]
    for (conn, host), events in sorted(by_dir.items()):
        buckets = [set() for _ in range(width)]
        for e in events:
            idx = min(width - 1, (e.time_ns - t0) * width // span)
            buckets[idx].add(e.kind)
        strip = "".join(
            "*" if len(b) == 2 else ("D" if "direct" in b else "I" if "indirect" in b else ".")
            for b in buckets
        )
        lines.append(f"  conn {conn} @{host:<7s} |{strip}|")
    return "\n".join(lines)


#: event kinds emitted by the reliability layer and on connection failure;
#: they get their own section in :func:`summarize` so chaos runs read at a
#: glance
RELIABILITY_KINDS = ("retransmit", "nak", "rnr", "qp_error", "conn_error")


def summarize(tracer: ProtocolTracer) -> str:
    """Per-connection event counts, byte totals, direct ratio — and, when
    the run was lossy, a reliability section (retransmits, NAKs, RNR
    pauses, QP and connection errors).  Dropped frames and link outages
    are counted by the impairment model, not traced."""
    counts: Dict[Tuple[int, str], Dict[str, int]] = defaultdict(lambda: defaultdict(int))
    tx_bytes: Dict[Tuple[int, str], Dict[str, int]] = defaultdict(
        lambda: {"direct": 0, "indirect": 0})
    rel_counts: Dict[str, int] = defaultdict(int)
    rel_detail: Dict[Tuple[int, str], Dict[str, int]] = defaultdict(lambda: defaultdict(int))
    retransmitted_msgs = 0
    rel_kinds = set(RELIABILITY_KINDS)
    for e in tracer.events:
        key = (e.conn, e.host)
        if e.kind in rel_kinds:
            rel_counts[e.kind] += 1
            rel_detail[key][e.kind] += 1
            if e.kind == "retransmit":
                retransmitted_msgs += e.get("count", 0)
            continue
        counts[key][e.kind] += 1
        if e.kind in ("direct", "indirect"):
            tx_bytes[key][e.kind] += e.get("nbytes", 0)
    lines = ["per-connection event counts:"]
    for (conn, host), kinds in sorted(counts.items()):
        detail = ", ".join(f"{k}={v}" for k, v in sorted(kinds.items()))
        lines.append(f"  conn {conn} @{host}: {detail}")
        transfers = kinds.get("direct", 0) + kinds.get("indirect", 0)
        if transfers:
            b = tx_bytes[(conn, host)]
            ratio = kinds.get("direct", 0) / transfers
            lines.append(
                f"    bytes: direct={b['direct']}, indirect={b['indirect']}, "
                f"total={b['direct'] + b['indirect']}; direct_ratio={ratio:.3f}"
            )
    if rel_counts:
        lines.append("reliability events:")
        totals = ", ".join(
            f"{k}={rel_counts[k]}" for k in RELIABILITY_KINDS if rel_counts.get(k)
        )
        lines.append(f"  totals: {totals}")
        if retransmitted_msgs:
            lines.append(f"  messages retransmitted: {retransmitted_msgs}")
        for (conn, host), kinds in sorted(rel_detail.items()):
            detail = ", ".join(f"{k}={v}" for k, v in sorted(kinds.items()))
            lines.append(f"  conn {conn} @{host}: {detail}")
    if tracer.dropped:
        lines.append(f"  ({tracer.dropped} events dropped at capacity)")
    return "\n".join(lines)
