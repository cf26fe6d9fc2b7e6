"""Memory regions and protection domains.

RDMA requires user memory to be *registered* before the HCA may touch it.
Registration yields a local key (``lkey``) used in scatter/gather entries
and a remote key (``rkey``) that, together with a virtual address, lets the
peer target the region with RDMA WRITE.  The simulation enforces the
same discipline: every transfer is bounds- and access-checked against a
registered region, so the EXS layer cannot cheat.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional

from ..hosts.memory import Buffer
from .enums import Access
from .errors import RemoteAccessError, VerbsError

__all__ = ["MemoryRegion", "ProtectionDomain"]


class MemoryRegion:
    """A registered window over a :class:`~repro.hosts.memory.Buffer`."""

    def __init__(self, buffer: Buffer, access: Access, lkey: int, rkey: int) -> None:
        self.buffer = buffer
        self.access = access
        self.lkey = lkey
        self.rkey = rkey
        self.valid = True
        #: starting virtual address and length of the registered range (a
        #: buffer's placement never changes, so they are copied once here)
        self.addr = buffer.addr
        self.length = buffer.nbytes

    def contains(self, addr: int, nbytes: int) -> bool:
        return self.addr <= addr and addr + nbytes <= self.addr + self.length

    def offset_of(self, addr: int) -> int:
        """Translate a virtual address within the region to a buffer offset."""
        if not (self.addr <= addr <= self.addr + self.length):
            raise RemoteAccessError(f"address 0x{addr:x} outside region")
        return addr - self.addr

    def view(self, addr: int, nbytes: int) -> Optional[memoryview]:
        """Zero-copy view of ``[addr, addr+nbytes)`` of the registered buffer.

        The simulated HCA's DMA engine reads registered memory through
        this (``None`` for synthetic buffers); bounds are checked via
        :meth:`offset_of`, access rights by the caller's :meth:`require`.
        """
        return self.buffer.view(self.offset_of(addr), nbytes)

    def require(self, addr: int, nbytes: int, access: Access) -> None:
        """Raise unless [addr, addr+nbytes) is inside and *access* is allowed."""
        if not self.valid:
            raise RemoteAccessError("memory region has been deregistered")
        if not self.contains(addr, nbytes):
            raise RemoteAccessError(
                f"range [0x{addr:x}, +{nbytes}) outside region [0x{self.addr:x}, +{self.length})"
            )
        # integer bits, not enum.Flag arithmetic: this runs three times per
        # message and a Flag `&` costs more than the rest of the check
        need = access._value_
        if need & self.access._value_ != need:
            raise RemoteAccessError(f"region lacks access {access!r} (has {self.access!r})")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<MR lkey={self.lkey} rkey={self.rkey} addr=0x{self.addr:x} len={self.length}>"


class ProtectionDomain:
    """Registry of memory regions belonging to one device context; lkeys
    and rkeys come from *keys*, the counter its fabric shares."""

    def __init__(self, keys: Iterator[int]) -> None:
        self._keys = keys
        self._by_lkey: Dict[int, MemoryRegion] = {}
        self._by_rkey: Dict[int, MemoryRegion] = {}

    def register(self, buffer: Buffer, access: Access = Access.remote()) -> MemoryRegion:
        """Register *buffer* and return the new region."""
        lkey = next(self._keys)
        rkey = next(self._keys)
        mr = MemoryRegion(buffer, access, lkey, rkey)
        self._by_lkey[lkey] = mr
        self._by_rkey[rkey] = mr
        return mr

    def deregister(self, mr: MemoryRegion) -> None:
        """Invalidate a region; later wire accesses to it fail."""
        if not mr.valid:
            raise VerbsError("region already deregistered")
        mr.valid = False
        del self._by_lkey[mr.lkey]
        del self._by_rkey[mr.rkey]

    def close(self) -> None:
        """Deregister every region still registered (a finished run's
        teardown): each is invalidated and leaves both key tables."""
        for mr in self._by_lkey.values():
            mr.valid = False
        self._by_lkey.clear()
        self._by_rkey.clear()

    def lookup_lkey(self, lkey: int) -> MemoryRegion:
        mr = self._by_lkey.get(lkey)
        if mr is None:
            raise RemoteAccessError(f"unknown lkey {lkey}")
        return mr

    def lookup_rkey(self, rkey: int) -> Optional[MemoryRegion]:
        return self._by_rkey.get(rkey)

    @property
    def region_count(self) -> int:
        return len(self._by_lkey)
