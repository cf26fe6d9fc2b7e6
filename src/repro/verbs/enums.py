"""Enumerations mirroring the OFA verbs API surface used by UNH EXS."""

from __future__ import annotations

import enum

__all__ = ["Opcode", "WCOpcode", "WCStatus", "QPState", "Access"]


class Opcode(enum.Enum):
    """Send-queue work-request opcodes (subset of ``ibv_wr_opcode``)."""

    SEND = "send"
    RDMA_WRITE = "rdma_write"
    RDMA_WRITE_WITH_IMM = "rdma_write_with_imm"


class WCOpcode(enum.Enum):
    """Completion opcodes (subset of ``ibv_wc_opcode``)."""

    SEND = "send"
    RDMA_WRITE = "rdma_write"
    RECV = "recv"
    #: receive completion consumed by an RDMA WRITE WITH IMM
    RECV_RDMA_WITH_IMM = "recv_rdma_with_imm"


class WCStatus(enum.Enum):
    """Completion status (subset of ``ibv_wc_status``)."""

    SUCCESS = "success"
    RETRY_EXC_ERR = "retry_exceeded"
    RNR_RETRY_EXC_ERR = "rnr_retry_exceeded"
    WR_FLUSH_ERR = "flushed"


class QPState(enum.Enum):
    """Queue-pair state machine (collapsed INIT/RTR/RTS of real verbs)."""

    RESET = "reset"
    READY = "ready"
    ERROR = "error"


class Access(enum.Flag):
    """Memory-region access flags (subset of ``ibv_access_flags``)."""

    LOCAL_READ = enum.auto()  # implicit in real verbs; explicit here for symmetry
    LOCAL_WRITE = enum.auto()
    REMOTE_READ = enum.auto()
    REMOTE_WRITE = enum.auto()

    @classmethod
    def local(cls) -> "Access":
        return cls.LOCAL_READ | cls.LOCAL_WRITE

    @classmethod
    def remote(cls) -> "Access":
        return cls.local() | cls.REMOTE_READ | cls.REMOTE_WRITE

