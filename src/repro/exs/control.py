"""EXS control-plane messages and immediate-data encoding.

Control messages travel as small verbs ``SEND``\\ s (consuming one credit
each); data travels as ``RDMA WRITE WITH IMM``.  The 32-bit immediate value
distinguishes direct from indirect data transfers and carries the ADVERT
identifier for direct ones — mirroring how the real library must tag
transfers within the hardware's 32-bit immediate field.

Every control message piggybacks the receiver's cumulative recv-repost
counter, which is how send credits flow back (see
:mod:`repro.exs.credits`).
"""

from __future__ import annotations

from typing import Union

from ..core.advert import Advert
from ..records import record

__all__ = [
    "CTRL_WIRE_BYTES",
    "RECV_BUF_BYTES",
    "AdvertMsg",
    "DataNotifyMsg",
    "RingAckMsg",
    "CreditMsg",
    "FinMsg",
    "EagerDataMsg",
    "RtsMsg",
    "CtsMsg",
    "ControlMsg",
    "POST_TRACE",
    "IMM_DIRECT",
    "IMM_INDIRECT",
    "IMM_RENDEZVOUS",
    "encode_direct_imm",
    "encode_indirect_imm",
    "encode_rendezvous_imm",
    "decode_imm",
]

#: payload size charged on the wire for any control message
CTRL_WIRE_BYTES = 48
#: size of each pre-posted control receive buffer (fits any control message)
RECV_BUF_BYTES = 256

# --- immediate-data encoding (32 bits, as on real hardware) ---------------
IMM_DIRECT = 0x1
IMM_INDIRECT = 0x2
IMM_RENDEZVOUS = 0x3
_TYPE_SHIFT = 28
_ID_MASK = (1 << _TYPE_SHIFT) - 1


def encode_direct_imm(advert_id: int) -> int:
    """Immediate value for a direct transfer matching *advert_id*."""
    return (IMM_DIRECT << _TYPE_SHIFT) | (advert_id & _ID_MASK)


def encode_indirect_imm() -> int:
    """Immediate value for an indirect (intermediate-buffer) transfer."""
    return IMM_INDIRECT << _TYPE_SHIFT


def encode_rendezvous_imm() -> int:
    """Immediate value for a rendezvous WRITE into a CTS-granted buffer."""
    return IMM_RENDEZVOUS << _TYPE_SHIFT


def decode_imm(imm: int) -> tuple[int, int]:
    """Return ``(type, advert_id)`` from an immediate value."""
    return imm >> _TYPE_SHIFT, imm & _ID_MASK


# --- control messages ------------------------------------------------------
@record
class AdvertMsg:
    """Receiver -> sender: one user-buffer advertisement (paper §II-C)."""

    advert: Advert
    credit_cum: int = 0


@record
class RingAckMsg:
    """Receiver -> sender: cumulative bytes copied out of the ring."""

    copied_cum: int
    credit_cum: int = 0


@record
class CreditMsg:
    """Receiver -> sender: standalone credit grant (no other traffic)."""

    credit_cum: int


@record
class DataNotifyMsg:
    """Sender -> receiver: iWARP-emulation notification following an RDMA
    WRITE (paper §II-B: WWI "can be simulated on older iWARP hardware by
    following an RDMA WRITE with a small SEND").  Carries what the
    immediate value would have."""

    imm_data: int
    nbytes: int
    stream_offset: int
    remote_addr: int
    credit_cum: int = 0


@record
class FinMsg:
    """Sender -> receiver: graceful end of stream after *final_seq* bytes."""

    final_seq: int
    credit_cum: int = 0


# --- eager/rendezvous transport (MPICH2-over-IB style, PAPERS.md) ----------
@record
class EagerDataMsg:
    """Sender -> receiver: a small message's payload riding a SEND.

    The payload itself travels as the SEND's chunk and is DMA-placed into
    the receiver's pre-posted bounce slot; this record (the chunk's ``obj``)
    tags the arrival so the connection can dispatch it to the eager
    receive path instead of the control plane.
    """

    nbytes: int
    stream_offset: int
    credit_cum: int = 0


@record
class RtsMsg:
    """Sender -> receiver: request-to-send for a large (rendezvous) message."""

    nbytes: int
    stream_offset: int
    credit_cum: int = 0


@record
class CtsMsg:
    """Receiver -> sender: clear-to-send — a grant of registered user memory.

    One CTS authorises exactly one RDMA WRITE of ``nbytes`` into
    ``(addr, rkey)``; a single RTS may be answered by several partial CTS
    grants as the application posts receive buffers.
    """

    addr: int
    rkey: int
    nbytes: int
    credit_cum: int = 0


ControlMsg = Union[
    AdvertMsg, RingAckMsg, CreditMsg, FinMsg, DataNotifyMsg,
    EagerDataMsg, RtsMsg, CtsMsg,
]

#: the protocol trace event a connection emits when it posts a control
#: message, by message type: ``msg -> (kind, fields)``
POST_TRACE = {
    AdvertMsg: lambda m: ("advert_tx", {"seq": m.advert.seq, "phase": m.advert.phase,
                                        "nbytes": m.advert.length}),
    RingAckMsg: lambda m: ("ring_ack", {"copied": m.copied_cum}),
    FinMsg: lambda m: ("fin", {"seq": m.final_seq}),
}
