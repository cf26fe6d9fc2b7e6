"""Protocol operating modes.

The paper's performance study compares three protocols (§IV-B):

* **dynamic** — the contribution: switch between direct and indirect
  transfers based on which side is ahead.
* **direct-only** — baseline: "forces the sender to always wait for an
  ADVERT from the receiver before sending, so that it will never send to
  the intermediate buffer".
* **indirect-only** — baseline: "the receiver does not send ADVERTs at
  all, forcing the sender to send all messages indirectly".

Both baselines still transfer all data correctly; they exist to pin the two
ends of the design space.  The real UNH EXS activates them via flags passed
by the blast tool, which is mirrored by
:class:`repro.exs.flags.ExsSocketOptions`.
"""

from __future__ import annotations

import enum

__all__ = ["ProtocolMode"]


class ProtocolMode(enum.Enum):
    """Which transfer strategies the stream protocol may use."""

    DYNAMIC = "dynamic"
    DIRECT_ONLY = "direct"
    INDIRECT_ONLY = "indirect"

    @property
    def allows_indirect(self) -> bool:
        return self is not ProtocolMode.DIRECT_ONLY
