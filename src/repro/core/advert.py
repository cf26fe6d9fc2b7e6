"""ADVERT records (paper §II-C, §III).

An ADVERT is the receiver's announcement of one ``exs_recv()`` user memory
area: virtual address, length, rkey — plus, for the stream protocol, the
receiver's **expected sequence number** (an estimate for all but the first
ADVERT of a sequence) and **phase number**, and the ``MSG_WAITALL`` flag.
"""

from __future__ import annotations

from ..records import record
from .phase import is_direct

__all__ = ["Advert"]


@record
class Advert:
    """One receiver memory advertisement.

    ``advert_id`` is a connection-unique identifier used by the simulation
    to *verify* (not to implement) the paper's safety theorem: a direct
    transfer records which ADVERT the sender matched, and the receiver
    asserts it is the ADVERT of the receive at the head of its queue.
    """

    advert_id: int
    #: expected stream sequence number of the corresponding exs_recv (S_A)
    seq: int
    #: advertised user-buffer length in bytes
    length: int
    #: receiver phase at advertisement time (P_A; always direct, Lemma 1)
    phase: int
    #: MSG_WAITALL — sender must deliver exactly `length` bytes to this buffer
    waitall: bool = False
    #: remote placement info (opaque to the core algorithm)
    remote_addr: int = 0
    rkey: int = 0
    #: bytes of the underlying receive already filled when this ADVERT was
    #: issued (non-zero when a partially-filled MSG_WAITALL receive is
    #: re-advertised after an indirect phase drained; the ADVERT then covers
    #: only the remaining window)
    base_offset: int = 0

    def __post_init__(self) -> None:
        if self.length <= 0:
            raise ValueError("ADVERT length must be positive")
        if self.seq < 0:
            raise ValueError("ADVERT sequence number must be >= 0")
        if not is_direct(self.phase):
            # Lemma 1: every ADVERT carries a direct phase number.  The
            # receiver algorithm guarantees this; constructing one that
            # violates it is a programming error.
            raise ValueError(f"ADVERT phase {self.phase} is not direct (Lemma 1)")
