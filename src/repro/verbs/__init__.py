"""Simulated RDMA verbs layer.

A software model of the OFA verbs API surface UNH EXS is built on:
protection domains, memory regions with lkeys/rkeys, RC queue pairs,
completion queues with event channels, and the SEND / RDMA WRITE /
RDMA WRITE WITH IMM / RDMA READ transfer operations, with faithful
semantics (pre-posted RECV requirement, in-order reliable delivery,
ACK-driven send completions) and an explicit timing model.
"""

from .cm import CmListener, ConnectionManager, ConnectionRequest
from .comp_channel import CompletionChannel, fixed_wakeup, uniform_wakeup
from .cq import CompletionQueue, WorkCompletion
from .device import DeviceConfig, RdmaDevice, connect_devices
from .enums import Access, Opcode, QPState, SendFlags, WCOpcode, WCStatus
from .errors import (
    BadWorkRequest,
    QPStateError,
    ReceiverNotReady,
    RemoteAccessError,
    VerbsError,
)
from .mr import MemoryRegion, ProtectionDomain
from .qp import QueuePair
from .reliability import ReliabilityConfig, ReliabilityEngine, ReliabilityStats
from .rq import ReceiveQueue
from .srq import SharedReceiveQueue
from .wire import HEADER_BYTES, AckMessage, CmMessage, DataMessage, TermMessage
from .wr import SGE, RecvWR, SendWR

__all__ = [
    "Access",
    "AckMessage",
    "BadWorkRequest",
    "CmListener",
    "CmMessage",
    "CompletionChannel",
    "CompletionQueue",
    "ConnectionManager",
    "ConnectionRequest",
    "DataMessage",
    "DeviceConfig",
    "HEADER_BYTES",
    "MemoryRegion",
    "Opcode",
    "ProtectionDomain",
    "QPState",
    "QPStateError",
    "QueuePair",
    "RdmaDevice",
    "ReceiveQueue",
    "ReceiverNotReady",
    "RecvWR",
    "ReliabilityConfig",
    "ReliabilityEngine",
    "ReliabilityStats",
    "RemoteAccessError",
    "SGE",
    "SharedReceiveQueue",
    "TermMessage",
    "SendFlags",
    "SendWR",
    "VerbsError",
    "WCOpcode",
    "WCStatus",
    "WorkCompletion",
    "connect_devices",
    "fixed_wakeup",
    "uniform_wakeup",
]
