"""Per-message span stitching on top of :class:`~repro.trace.ProtocolTracer`.

A *span* follows one ``exs_send()`` end to end::

    submit ──▶ first WWI post ──▶ transport ack ──▶ (ring copy) ──▶ deliver
       queue_ns        transport_ns                       delivery_ns

The tracer records flat events per endpoint; this module stitches them into
one :class:`MessageSpan` per message, with stage latencies, so a
fallback-to-indirect episode can be explained end to end ("message #12
waited 80 µs for an ADVERT, went indirect, and spent 40 µs in the copy
pump").

Stitching works on stream offsets, which both endpoints share by
construction (the sender's sequence numbers *are* the receiver's stream
positions):

* ``send`` events (one per ``exs_send``) are cumulative: message *i* covers
  ``[sum(nbytes_0..i-1), sum(nbytes_0..i))`` of the byte stream.
* ``direct``/``indirect`` transfer events carry their plan's ``seq``; a
  plan never crosses a message boundary, so each transfer maps to exactly
  one span.
* ``send_done`` (full RC acknowledgement) maps by ``send_id``.
* ``deliver`` events on the **peer** connection are cumulative in stream
  order (RC delivery is ordered), giving exact delivered ranges; the last
  one overlapping a span stamps its ``cause`` (the causal node whose
  dispatch performed the delivery, under capture) on the span.
* ``copy`` events carry the receiver stream position of the copied range.

The peer connection and unit of each direction come from the stream's
:class:`~repro.trace.EventIndex`.

A ``SOCK_SEQPACKET`` connection traces no transfers and counts messages:
message *i* spans ``[i, i + 1)``, its ``send_done`` gives the bytes that
moved and the peer's *i*-th ``deliver`` delivers it.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from ..trace import Endpoint, EventIndex

__all__ = ["MessageSpan", "build_spans"]


@dataclass
class MessageSpan:
    """One message's life, stitched across both endpoints."""

    conn: int
    host: str
    send_id: int
    nbytes: int
    #: stream range [seq_start, seq_end) this message occupies
    seq_start: int
    seq_end: int
    #: stage timestamps (ns, simulated); None until the stage is observed
    submit_ns: Optional[int] = None
    first_post_ns: Optional[int] = None
    acked_ns: Optional[int] = None
    delivered_ns: Optional[int] = None
    #: transfer mix
    direct_bytes: int = 0
    indirect_bytes: int = 0
    transfers: int = 0
    #: receive-side copy activity overlapping this message
    copies: int = 0
    copied_bytes: int = 0
    #: ``cause`` of the last peer ``deliver`` event overlapping this
    #: message (-1: none recorded); not serialized
    cause: int = field(default=-1, init=False, compare=False, repr=False)

    # ------------------------------------------------------------------
    @property
    def kind(self) -> str:
        """``direct`` / ``indirect`` / ``mixed`` / ``none``."""
        if self.direct_bytes and self.indirect_bytes:
            return "mixed"
        if self.direct_bytes:
            return "direct"
        if self.indirect_bytes:
            return "indirect"
        return "none"

    @property
    def complete(self) -> bool:
        """Submitted, acked, and delivered.  On a byte stream the ack
        follows a traced first post; a message plane traces no posts."""
        return (
            self.submit_ns is not None
            and self.acked_ns is not None
            and self.delivered_ns is not None
        )

    @property
    def queue_ns(self) -> Optional[int]:
        """Submit → first WWI post (waiting on ADVERT / ring space / credits)."""
        if self.submit_ns is None or self.first_post_ns is None:
            return None
        return self.first_post_ns - self.submit_ns

    @property
    def transport_ns(self) -> Optional[int]:
        """First WWI post → full RC acknowledgement."""
        if self.first_post_ns is None or self.acked_ns is None:
            return None
        return self.acked_ns - self.first_post_ns

    @property
    def delivery_ns(self) -> Optional[int]:
        """First WWI post → last user delivery at the receiver."""
        if self.first_post_ns is None or self.delivered_ns is None:
            return None
        return self.delivered_ns - self.first_post_ns

    @property
    def e2e_ns(self) -> Optional[int]:
        """Submit → last user delivery (the whole span)."""
        if self.submit_ns is None or self.delivered_ns is None:
            return None
        return self.delivered_ns - self.submit_ns

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "conn": self.conn,
            "host": self.host,
            "send_id": self.send_id,
            "nbytes": self.nbytes,
            "seq_start": self.seq_start,
            "seq_end": self.seq_end,
            "submit_ns": self.submit_ns,
            "first_post_ns": self.first_post_ns,
            "acked_ns": self.acked_ns,
            "delivered_ns": self.delivered_ns,
            "direct_bytes": self.direct_bytes,
            "indirect_bytes": self.indirect_bytes,
            "transfers": self.transfers,
            "copies": self.copies,
            "copied_bytes": self.copied_bytes,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "MessageSpan":
        return cls(**{k: d.get(k) for k in (
            "conn", "host", "send_id", "nbytes", "seq_start", "seq_end",
            "submit_ns", "first_post_ns", "acked_ns", "delivered_ns",
            "direct_bytes", "indirect_bytes", "transfers", "copies",
            "copied_bytes",
        )})


# ---------------------------------------------------------------------------
# stitching
# ---------------------------------------------------------------------------
def build_spans(events: Iterable) -> List[MessageSpan]:
    """Stitch tracer events into one :class:`MessageSpan` per message.

    *events* is any iterable of :class:`~repro.trace.TraceEvent`-shaped
    records in time order (a live tracer's ``events`` list), or their
    :class:`~repro.trace.EventIndex`.  Connections without ``send`` events
    (the pure-receiver side) produce no spans.
    """
    index = EventIndex.of(events)
    spans: List[MessageSpan] = []
    for ep in index.endpoints.values():
        spans.extend(_stitch_direction(ep, index))
    spans.sort(key=lambda s: (s.host, s.conn, s.send_id))
    return spans


def _stitch_direction(ep: Endpoint, index: EventIndex) -> List[MessageSpan]:
    conn, host, local, messages = ep.conn, ep.host, ep.events, ep.messages
    sends = [e for e in local if e.kind == "send"]
    if not sends:
        return []

    # 1. one span per send, stream ranges by cumulative submit order (a
    #    message plane's sequence counts messages)
    spans: List[MessageSpan] = []
    by_send_id: Dict[int, MessageSpan] = {}
    cum = 0
    for e in sends:
        nbytes = e.get("nbytes", 0)
        size = 1 if messages else nbytes
        span = MessageSpan(
            conn=conn, host=host,
            send_id=e.get("send_id", len(spans) + 1),
            nbytes=nbytes, seq_start=cum, seq_end=cum + size,
            submit_ns=e.time_ns,
        )
        cum += size
        spans.append(span)
        by_send_id[span.send_id] = span
    starts = [s.seq_start for s in spans]

    def span_at(seq: int) -> Optional[MessageSpan]:
        i = bisect_right(starts, seq) - 1
        if 0 <= i < len(spans) and spans[i].seq_start <= seq < spans[i].seq_end:
            return spans[i]
        return None

    def spans_overlapping(seq: int, nbytes: int) -> List[MessageSpan]:
        if nbytes <= 0:
            return []
        i = max(0, bisect_right(starts, seq) - 1)
        out = []
        while i < len(spans) and spans[i].seq_start < seq + nbytes:
            if spans[i].seq_end > seq:
                out.append(spans[i])
            i += 1
        return out

    # 2. transfers and acks from the local (sender) endpoint.  The
    # eager/rendezvous transport's transfer kinds map onto the same copy
    # classes: a rendezvous WRITE places directly into user memory (one
    # copy) and an eager SEND stages through a bounce slot (two copies).
    for e in local:
        if e.kind in ("direct", "indirect", "eager", "rendezvous"):
            span = span_at(e.get("seq", -1))
            if span is None:
                continue
            if span.first_post_ns is None or e.time_ns < span.first_post_ns:
                span.first_post_ns = e.time_ns
            span.transfers += 1
            nbytes = e.get("nbytes", 0)
            if e.kind in ("direct", "rendezvous"):
                span.direct_bytes += nbytes
            else:
                span.indirect_bytes += nbytes
        elif e.kind == "send_done":
            span = by_send_id.get(e.get("send_id"))
            if span is not None:
                span.acked_ns = e.time_ns
                if messages:
                    span.transfers = 1
                    span.direct_bytes = e.get("nbytes", 0)

    # 3. deliveries and copies from the peer endpoint (the receiver of
    #    this direction); peer events live on the other host
    remote = index.endpoints[ep.peer].events if ep.peer is not None else ()
    delivered_cum = 0
    for e in remote:
        if e.kind == "deliver":
            nbytes = e.get("nbytes", 0)
            if messages:
                nbytes = 0 if e.get("eof") else 1
            cause = e.get("cause", -1)
            for span in spans_overlapping(delivered_cum, nbytes):
                if span.delivered_ns is None or e.time_ns > span.delivered_ns:
                    span.delivered_ns = e.time_ns
                # events arrive in time order: the last overlapping
                # deliver's cause wins, also at an equal time
                span.cause = cause
            delivered_cum += nbytes
        elif e.kind == "copy":
            seq = e.get("seq")
            nbytes = e.get("nbytes", 0)
            if seq is None:
                continue
            for span in spans_overlapping(seq, nbytes):
                span.copies += 1
                lo = max(seq, span.seq_start)
                hi = min(seq + nbytes, span.seq_end)
                span.copied_bytes += max(0, hi - lo)

    # Zero-byte stream messages (legal exs_send) deliver nothing; mark
    # them delivered at the ack so `complete` has a consistent meaning.
    for span in spans:
        if span.nbytes == 0 and not messages:
            if span.first_post_ns is None:
                span.first_post_ns = span.submit_ns
            if span.delivered_ns is None:
                span.delivered_ns = span.acked_ns
    return spans
