"""Post-hoc trace auditing: re-verify protocol invariants from records.

The third engine closes the loop on *recorded* runs: given a
:class:`~repro.trace.ProtocolTracer` event stream (live, or round-tripped
through its CSV export), the auditor replays the protocol bookkeeping and
re-checks the same claims the model checker and the live ``require`` calls
enforce — so a telemetry artifact from any past run (including chaos runs
under fault injection) can be audited without re-simulating it:

* **stream contiguity** — each direction's transfer plans tile the byte
  stream exactly: transfer ``i`` starts at ``sum(nbytes_0..i-1)``;
* **phase discipline** — ``direct`` transfers carry even phases,
  ``indirect`` transfers odd ones (Theorem 1's phase argument), and each
  endpoint's phase trace is strictly increasing (monotonicity);
* **Lemma 1** — every ADVERT sent or received carries a direct phase;
* **ring ACK monotonicity** — cumulative copied-out counters never run
  backwards;
* **copy-range sanity** — ring copy-outs cover non-overlapping,
  non-decreasing stream ranges;
* **conservation** — a FIN is recorded on the *sending* direction **at
  most once** and its sequence number must equal that direction's
  transferred byte total; no data may be delivered after an EOF was
  signalled; when the ``conn_open`` peer mapping is present, the peer
  direction must have delivered exactly that many bytes.  A
  ``SOCK_SEQPACKET`` connection (``conn_open`` names the socket type)
  traces no transfers and its FIN counts messages: there the FIN must
  equal the direction's ``send`` events and the peer's deliveries.

The eager/rendezvous transport's ``eager``/``rendezvous`` transfer events
are audited for stream contiguity exactly like ``direct``/``indirect``
(they carry no phases — the RTS/CTS handshake replaces the phase
machinery).

:func:`audit_spans` additionally lifts :mod:`repro.obs` message spans and
checks stage ordering and per-span byte accounting.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import IO, Dict, Iterable, List, Optional, Tuple

from ..core.phase import is_direct
from ..trace import EventIndex, TraceEvent, events_from_csv

__all__ = ["AuditViolation", "AuditReport", "audit_events", "audit_csv", "audit_spans"]


@dataclass(frozen=True)
class AuditViolation:
    """One failed re-check."""

    claim: str
    detail: str
    time_ns: int = -1
    conn: int = -1
    host: str = ""

    def __str__(self) -> str:
        where = f" (conn {self.conn}@{self.host}, t={self.time_ns}ns)" if self.conn >= 0 else ""
        return f"{self.claim}: {self.detail}{where}"


@dataclass
class AuditReport:
    """Everything one audit pass established."""

    events: int
    connections: int
    violations: List[AuditViolation] = field(default_factory=list)
    #: per-direction transferred and delivered byte totals (message
    #: counts on a SOCK_SEQPACKET connection), keyed by (conn, host)
    transferred: Dict[Tuple[int, str], int] = field(default_factory=dict)
    delivered: Dict[Tuple[int, str], int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def describe(self) -> str:
        if self.ok:
            return (
                f"audit ok: {self.events} events, {self.connections} connection "
                f"directions, all invariants re-verified"
            )
        lines = [f"audit FAILED: {len(self.violations)} violation(s) in {self.events} events"]
        lines += [f"  - {v}" for v in self.violations]
        return "\n".join(lines)


def audit_events(events: Iterable[TraceEvent]) -> AuditReport:
    """Re-verify the protocol invariants over a recorded event stream."""
    index = EventIndex(sorted(events, key=lambda e: e.time_ns))
    endpoints = index.endpoints
    report = AuditReport(events=len(index.events), connections=len(endpoints))
    v = report.violations
    fins: Dict[Tuple[int, str], int] = {}

    for (conn, host), ep in sorted(endpoints.items()):
        unit, messages = ep.unit, ep.messages
        expected_seq = 0
        phases: Dict[str, int] = {}
        last_ack = -1
        copy_edge = -1
        delivered = 0
        fin_seq: Optional[int] = None
        eof_seen = False

        def flag(claim: str, detail: str, e: TraceEvent) -> None:
            v.append(AuditViolation(claim, detail, e.time_ns, conn, host))

        for e in ep.events:
            if e.kind in ("direct", "indirect", "eager", "rendezvous"):
                seq, nbytes, phase = e.get("seq"), e.get("nbytes"), e.get("phase")
                if seq != expected_seq:
                    flag(
                        "stream contiguity",
                        f"{e.kind} transfer at seq {seq}, expected {expected_seq}",
                        e,
                    )
                    expected_seq = seq  # resynchronise to limit cascading noise
                expected_seq += nbytes
                if e.kind == "direct" and not is_direct(phase):
                    flag("phase discipline", f"direct transfer in odd phase {phase}", e)
                if e.kind == "indirect" and is_direct(phase):
                    flag("phase discipline", f"indirect transfer in even phase {phase}", e)
            elif e.kind == "phase":
                side, phase = e.get("side"), e.get("phase")
                prev = phases.get(side)
                if prev is not None and phase <= prev:
                    flag("phase monotonicity", f"{side} phase {prev} -> {phase}", e)
                phases[side] = phase
            elif e.kind in ("advert_tx", "advert_rx"):
                phase = e.get("phase")
                if phase is not None and not is_direct(phase):
                    flag("Lemma 1", f"{e.kind} carries indirect phase {phase}", e)
            elif e.kind == "ring_ack":
                copied = e.get("copied")
                if copied < last_ack:
                    flag("ring ACK monotonicity", f"copied {last_ack} -> {copied}", e)
                last_ack = max(last_ack, copied)
            elif e.kind == "copy":
                seq, nbytes = e.get("seq"), e.get("nbytes")
                if seq < copy_edge:
                    flag(
                        "copy-range sanity",
                        f"copy [{seq}, {seq + nbytes}) overlaps prior edge {copy_edge}",
                        e,
                    )
                copy_edge = max(copy_edge, seq + nbytes)
            elif e.kind == "send" and messages:
                expected_seq += 1  # the message plane's sequence
            elif e.kind == "deliver":
                nbytes = e.get("nbytes", 0)
                if messages:
                    nbytes = 0 if e.get("eof") else 1
                if eof_seen and nbytes > 0:
                    flag(
                        "EOF finality",
                        f"{nbytes} {unit} delivered after EOF was signalled",
                        e,
                    )
                delivered += nbytes
                if e.get("eof"):
                    eof_seen = True
            elif e.kind == "fin":
                if fin_seq is not None:
                    flag(
                        "FIN uniqueness",
                        f"second FIN (seq {e.get('seq')}) after FIN at {fin_seq}",
                        e,
                    )
                fin_seq = e.get("seq")

        report.transferred[(conn, host)] = expected_seq
        report.delivered[(conn, host)] = delivered
        if fin_seq is not None:
            fins[(conn, host)] = fin_seq
            if fin_seq != expected_seq:
                v.append(
                    AuditViolation(
                        "conservation",
                        f"FIN says {fin_seq} {unit} but {expected_seq} were transferred",
                        conn=conn,
                        host=host,
                    )
                )

    # cross-direction conservation: every byte a finished sender claimed
    # must have been delivered by the peer direction it was sent to
    for (conn, host), fin_seq in sorted(fins.items()):
        ep = endpoints[conn, host]
        if ep.peer is None:
            continue
        rconn, rhost = ep.peer
        got = report.delivered[ep.peer]
        if got != fin_seq:
            report.violations.append(
                AuditViolation(
                    "conservation",
                    f"sender {conn}@{host} finished at {fin_seq} "
                    f"{ep.unit} but peer {rconn}@{rhost} delivered {got}",
                    conn=rconn,
                    host=rhost,
                )
            )
    return report


def audit_csv(fh: IO[str]) -> AuditReport:
    """Audit a :meth:`repro.trace.ProtocolTracer.to_csv` export."""
    return audit_events(events_from_csv(fh))


def audit_spans(events: Iterable[TraceEvent]) -> List[AuditViolation]:
    """Lift :mod:`repro.obs` message spans from *events* (or their
    :class:`~repro.trace.EventIndex`) and re-check them.

    Only structural claims are asserted — stage ordering and byte
    accounting; incomplete spans are flagged only when the stream finished
    (a FIN was recorded for the span's connection pair).
    """
    from ..obs.spans import build_spans

    index = EventIndex.of(events)
    spans = build_spans(index)
    endpoints = index.endpoints
    finished_hosts = {(e.conn, e.host) for e in index.events if e.kind == "fin"}
    out: List[AuditViolation] = []
    by_conn: Dict[Tuple[int, str], int] = defaultdict(int)
    for s in spans:
        stages = [
            ("submit", s.submit_ns),
            ("first_post", s.first_post_ns),
            ("acked", s.acked_ns),
        ]
        seen = [(n, t) for n, t in stages if t is not None]
        for (n1, t1), (n2, t2) in zip(seen, seen[1:]):
            if t2 < t1:
                out.append(
                    AuditViolation(
                        "span stage order",
                        f"send {s.send_id}: {n2} at {t2}ns before {n1} at {t1}ns",
                        conn=s.conn,
                        host=s.host,
                    )
                )
        if s.seq_start != by_conn[(s.conn, s.host)]:
            out.append(
                AuditViolation(
                    "span contiguity",
                    f"send {s.send_id} starts at {s.seq_start}, "
                    f"expected {by_conn[(s.conn, s.host)]}",
                    conn=s.conn,
                    host=s.host,
                )
            )
        by_conn[(s.conn, s.host)] = s.seq_end
        moved = s.direct_bytes + s.indirect_bytes
        # a message moves whole, or cut to fit the receive buffer
        if s.complete and (moved > s.nbytes if endpoints[s.conn, s.host].messages
                           else moved != s.nbytes):
            out.append(
                AuditViolation(
                    "span byte accounting",
                    f"send {s.send_id}: {s.direct_bytes} direct + "
                    f"{s.indirect_bytes} indirect != {s.nbytes}",
                    conn=s.conn,
                    host=s.host,
                )
            )
        if not s.complete and (s.conn, s.host) in finished_hosts:
            # fin on the span's own (sending) direction means every send
            # ran to completion — an incomplete span is a real gap
            out.append(
                AuditViolation(
                    "span completeness",
                    f"send {s.send_id} incomplete after stream finished",
                    conn=s.conn,
                    host=s.host,
                )
            )
    return out
