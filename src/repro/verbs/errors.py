"""Error types for the simulated verbs layer."""

from __future__ import annotations

__all__ = [
    "VerbsError",
    "BadWorkRequest",
    "RemoteAccessError",
    "ReceiverNotReady",
    "QPStateError",
]


class VerbsError(RuntimeError):
    """Base class for verbs-layer failures."""


class BadWorkRequest(VerbsError):
    """A malformed work request was posted (bad SGE, missing rkey, ...)."""


class RemoteAccessError(VerbsError):
    """An RDMA operation referenced memory outside a registered region or
    without the required access rights."""


class ReceiverNotReady(VerbsError):
    """A SEND / WRITE-WITH-IMM arrived with no RECV posted (RNR).

    Real RC hardware would NAK and retry; the simulation treats it as a hard
    error because the EXS credit protocol is supposed to make it impossible —
    hitting this exception in a test means the credit accounting is wrong
    (or, on an SRQ-attached QP, that the shared pool ran dry: a sizing
    condition the message spells out, recoverable with a reliability layer).
    """


class QPStateError(VerbsError):
    """Operation attempted on a queue pair in the wrong state."""
