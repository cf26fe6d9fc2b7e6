"""On-wire message records exchanged between simulated HCAs.

These are *model* records, not byte-accurate packets: the link layer charges
``wire_bytes`` of serialization time for each, and the receiving device
interprets the fields.  Three kinds exist:

* :class:`DataMessage` — one RC message (SEND / RDMA WRITE / WWI).
  Messages on a QP carry a per-QP sequence number (``seq``) used by
  cumulative acknowledgements.
* :class:`AckMessage` — transport-level cumulative ACK (or NAK / RNR NAK).
  Real IB ACKs are tiny link-layer packets that coalesce; the model
  delivers them out of band (no serialization cost) after the link's
  propagation delay.
* :class:`CmMessage` — connection-management datagrams (REQ/REP/RTU/...).
* :class:`TermMessage` — fatal-error notification toward the peer QP.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from ..hosts.memory import Chunk
from .enums import Opcode

__all__ = [
    "DataMessage",
    "AckMessage",
    "CmMessage",
    "TermMessage",
    "HEADER_BYTES",
    "CM_WIRE_BYTES",
    "CTRL_WIRE_BYTES_GUESS",
]

#: per-message header/framing charge (BTH/RETH etc., amortised per message)
HEADER_BYTES = 64
#: size of a CM datagram on the wire
CM_WIRE_BYTES = 256
#: nominal size of an upper-layer control message (used by analytic models;
#: the EXS layer defines its own authoritative constant)
CTRL_WIRE_BYTES_GUESS = 48


@dataclass(slots=True)
class DataMessage:
    """One RC transport message.

    ``payload`` is forwarded by reference end to end (the zero-copy plane):
    for real-bytes runs the chunk usually wraps a ``memoryview`` of sender
    memory that is only materialised at final placement.  Consumers that
    need owned bytes (hashing, trace capture) must use
    :meth:`~repro.hosts.memory.Chunk.materialize`.
    """

    src_qpn: int
    dst_qpn: int
    opcode: Opcode
    seq: int
    payload: Optional[Chunk] = None
    remote_addr: int = 0
    rkey: int = 0
    imm_data: int = 0
    #: wr bookkeeping at the requester
    wr_id: int = 0

    @property
    def payload_bytes(self) -> int:
        return self.payload.nbytes if self.payload is not None else 0

    def wire_bytes(self) -> int:
        return HEADER_BYTES + self.payload_bytes


@dataclass(slots=True)
class AckMessage:
    """Cumulative transport acknowledgement for a QP direction.

    ``kind`` distinguishes the positive cumulative ACK from the negative
    acknowledgements the reliability layer uses: ``"nak"`` (sequence gap
    detected — go back to ``msn + 1``) and ``"rnr"`` (receiver not ready —
    back off, then resend from ``msn + 1``).
    """

    dst_qpn: int
    #: highest message sequence number consumed at the responder
    msn: int
    kind: str = "ack"  # "ack" | "nak" | "rnr"
    #: selective-repeat only: bitmap of sequences received *above* ``msn``
    #: (bit ``i`` set means ``msn + 1 + i`` is buffered at the responder).
    #: Always 0 under go-back-N.
    sack: int = 0


@dataclass
class CmMessage:
    """Connection-management datagram."""

    # CM datagrams ride the separately-protected management path (MAD-level
    # retries), which the model collapses into reliable delivery.
    fault_exempt = True

    kind: str  # "req" | "rep" | "rtu" | "rej" | "disconnect"
    port: int
    src_qpn: int = 0
    dst_qpn: int = 0
    #: destination host name on a multi-host fabric (REQ only — every
    #: other kind is routed by ``dst_qpn``); empty on the classic
    #: point-to-point wire, where the peer is implicit
    dst_lid: str = ""
    private_data: Dict[str, Any] = field(default_factory=dict)

    def wire_bytes(self) -> int:
        return CM_WIRE_BYTES


@dataclass
class TermMessage:
    """Notification that the sending QP entered a fatal error state.

    Models the CM-level disconnect/terminate detection a real stack gets
    from DREQ or QP-event hardware paths, so it is exempt from wire faults
    — a dying endpoint must be able to tell its peer even on a bad wire.
    """

    fault_exempt = True

    dst_qpn: int
    reason: str = ""

    def wire_bytes(self) -> int:
        return HEADER_BYTES
