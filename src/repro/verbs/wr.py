"""Work requests and scatter/gather entries."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from ..hosts.memory import Chunk
from ..records import record
from .enums import Opcode
from .errors import BadWorkRequest

__all__ = ["SGE", "SendWR", "RecvWR"]


@record
class SGE:
    """Scatter/gather entry: (address, length, lkey)."""

    addr: int
    length: int
    lkey: int

    def __post_init__(self) -> None:
        if self.length < 0:
            raise BadWorkRequest("negative SGE length")


@dataclass(slots=True)
class SendWR:
    """A send-queue work request.

    For ``RDMA_WRITE`` / ``RDMA_WRITE_WITH_IMM`` the remote target is given
    by ``(remote_addr, rkey)``.  ``WRITE_WITH_IMM`` additionally consumes a
    RECV at the responder and delivers ``imm_data`` in that completion.

    ``payload`` optionally carries the actual byte-stream chunk being moved
    (see :class:`~repro.hosts.memory.Chunk`); the verbs layer treats it as
    opaque and simply materialises it at the destination.
    """

    opcode: Opcode
    wr_id: int = 0
    sge: Optional[SGE] = None
    remote_addr: int = 0
    rkey: int = 0
    imm_data: int = 0
    payload: Optional[Chunk] = None
    context: Any = None

    def validate(self) -> None:
        if self.opcode is not Opcode.SEND and self.rkey == 0:
            raise BadWorkRequest(f"{self.opcode.value} requires an rkey")
        if self.sge is None:
            raise BadWorkRequest("send WR requires an SGE")
        if self.payload is not None and self.payload.nbytes != self.sge.length:
            raise BadWorkRequest("payload length does not match SGE length")

    @property
    def length(self) -> int:
        return self.sge.length if self.sge else 0


@dataclass(slots=True)
class RecvWR:
    """A receive-queue work request.

    A zero-length RECV (``sge=None``) is legal and is exactly what UNH EXS
    posts to absorb WRITE-WITH-IMM notifications: the data lands via RDMA,
    the RECV only conveys the immediate value.

    ``slots=True`` matters here: SRQ pools post tens of thousands of these
    during stack bring-up (one per slot at 10k-connection depths), and the
    per-instance dict is the dominant allocation cost.
    """

    wr_id: int = 0
    sge: Optional[SGE] = None
    context: Any = None

    @property
    def length(self) -> int:
        return self.sge.length if self.sge else 0
