"""Protocol statistics.

Mirrors the counters the real UNH EXS keeps ("UNH EXS itself keeps
statistics on the number of indirect vs. direct transfers", §IV-B) plus the
mode-switch count reported in the paper's Table III.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple, Union

__all__ = ["ProtocolStats", "PHASE_TRACE_CAP"]

#: maximum retained phase transitions; adversarial workloads can switch
#: modes once per message forever, so the trace must be bounded
PHASE_TRACE_CAP = 4096


@dataclass
class ProtocolStats:
    """Counters for one direction of one stream connection."""

    # sender side
    direct_transfers: int = 0
    indirect_transfers: int = 0
    direct_bytes: int = 0
    indirect_bytes: int = 0
    #: number of direct<->indirect transitions of the sender's phase
    mode_switches: int = 0
    adverts_received: int = 0
    adverts_discarded: int = 0
    #: times the sender had data but neither an ADVERT nor buffer space
    sender_blocked: int = 0

    # receiver side
    adverts_sent: int = 0
    adverts_suppressed: int = 0
    copies: int = 0
    copied_bytes: int = 0
    ring_acks_sent: int = 0

    #: (time_ns, new_phase) phase transitions, for diagnostics/plots.
    #: Capped at PHASE_TRACE_CAP entries (oldest dropped first); append via
    #: :meth:`note_phase` so drops are counted.  Only traced runs record
    #: them, so it is an empty tuple until the first one.
    phase_trace: Union[List[Tuple[int, int]], Tuple[()]] = ()
    #: transitions evicted from :attr:`phase_trace` at the cap
    phase_trace_dropped: int = 0

    def note_phase(self, time_ns: int, phase: int) -> None:
        """Record a phase transition, evicting the oldest at the cap."""
        trace = self.phase_trace
        if type(trace) is tuple:
            trace = self.phase_trace = []
        elif len(trace) >= PHASE_TRACE_CAP:
            del trace[0]
            self.phase_trace_dropped += 1
        trace.append((time_ns, phase))

    @property
    def total_transfers(self) -> int:
        return self.direct_transfers + self.indirect_transfers

    @property
    def total_bytes(self) -> int:
        return self.direct_bytes + self.indirect_bytes

    @property
    def direct_ratio(self) -> float:
        """Ratio of direct transfers to total transfers (Table III / Figs. 11b, 12b)."""
        total = self.total_transfers
        return self.direct_transfers / total if total else 0.0
