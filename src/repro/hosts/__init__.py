"""Host machine models: CPU cost accounting and simulated memory."""

from .cpu import Cpu, CpuCostModel
from .host import Host
from .memory import (
    Buffer,
    Chunk,
    CopyMeter,
    MemoryArena,
    MemoryError_,
    ViewPin,
)

__all__ = [
    "Buffer",
    "Chunk",
    "CopyMeter",
    "Cpu",
    "CpuCostModel",
    "Host",
    "MemoryArena",
    "MemoryError_",
    "ViewPin",
]
