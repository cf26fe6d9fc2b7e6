"""Point-to-point full-duplex link model.

A :class:`Link` joins two endpoints (``0`` and ``1``).  Each direction is an
independent serialized pipe: a message occupies the transmitter for its
*transmission delay* (``wire_bytes * 8 / bandwidth`` plus a fixed per-message
overhead), then travels for the *propagation delay* (possibly inflated by a
:class:`~repro.simnet.emulator.DelayEmulator`), and is finally delivered to
the receiving endpoint's handler.

Delivery is strictly in order per direction — the model stands in for a
*reliable connected* RDMA transport (InfiniBand RC / RoCE), which guarantees
ordered, lossless delivery; with jitter enabled arrivals are clamped so that
ordering still holds, exactly as a reliability layer would enforce.

An optional :class:`~repro.simnet.faults.ImpairmentModel` makes the wire
lossy: messages may be dropped, duplicated, corrupted (delivered wrapped in
:class:`~repro.simnet.faults.Corrupted`), or lost to a scheduled outage.
Payloads with a truthy ``fault_exempt`` attribute bypass impairment.

The wire is **zero-copy**: it forwards the payload object itself, never a
copy of its bytes.  A duplicated frame delivers the *same* payload object
twice and a corrupted frame wraps it unmodified, so a payload carrying a
``memoryview`` of sender memory (see :mod:`repro.hosts.memory`) relies on
the view-pinning aliasing rule — the sender keeps the range intact until
the transport ack, and receivers discard duplicate sequence numbers before
dereferencing payload bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from .emulator import DelayEmulator
from .faults import Corrupted, Fate, ImpairmentModel
from .kernel import SimulationError, Simulator

__all__ = ["Link", "LinkDirection", "LinkStats"]

Handler = Callable[[Any], None]


@dataclass
class LinkStats:
    """Per-direction transmission counters (a point-in-time snapshot)."""

    messages: int = 0
    wire_bytes: int = 0
    busy_ns: int = 0


class LinkDirection:
    """One direction of a full-duplex link (serialized transmitter).

    Counters are kept as plain integer attributes and materialised into a
    :class:`LinkStats` on demand, so the per-message path touches no
    dataclass instance.
    """

    __slots__ = ("link", "index", "handler", "_busy_until",
                 "_last_arrival", "_messages", "_wire_bytes", "_busy_ns")

    def __init__(self, link: "Link", index: int) -> None:
        self.link = link
        self.index = index
        self.handler: Optional[Handler] = None
        self._busy_until = 0
        self._last_arrival = 0
        self._messages = 0
        self._wire_bytes = 0
        self._busy_ns = 0

    @property
    def stats(self) -> LinkStats:
        """Snapshot of the transmission counters."""
        return LinkStats(self._messages, self._wire_bytes, self._busy_ns)

    def transmit(self, payload: Any, wire_bytes: int, extra_tx_ns: int = 0) -> int:
        """Queue *payload* for transmission; returns the arrival time (ns).

        The caller is responsible for any pre-wire latency (HCA processing);
        this method models only the wire.  ``extra_tx_ns`` adds serialization
        time beyond the byte-rate cost (e.g. an HCA large-message penalty)
        and occupies the transmitter like real wire time.
        """
        link = self.link
        sim = link.sim
        if wire_bytes < 0 or extra_tx_ns < 0:
            raise SimulationError("wire_bytes and extra_tx_ns must be >= 0")
        handler = self.handler
        if handler is None:
            raise SimulationError("link direction has no attached handler")
        tx_ns = link.transmission_ns(wire_bytes) + extra_tx_ns
        now = sim._now
        start = self._busy_until
        if now > start:
            start = now
        end_tx = start + tx_ns
        self._busy_until = end_tx
        emulator = link.emulator
        prop = link.propagation_delay_ns
        if emulator is not None:
            prop += emulator.sample_ns(self.index)
        arrival = end_tx + prop
        # Reliable transport: never deliver out of order even under jitter.
        if arrival < self._last_arrival:
            arrival = self._last_arrival
        self._last_arrival = arrival

        self._messages += 1
        self._wire_bytes += wire_bytes
        self._busy_ns += tx_ns

        impairment = link.impairment
        fate = Fate.DELIVER
        if impairment is not None and not getattr(payload, "fault_exempt", False):
            fate = impairment.classify(self.index, now)

        # The transmitter is occupied and the arrival time is computed
        # regardless of fate — a lost frame still burns wire time; only the
        # delivery changes.  DROP / DOWN deliver nothing (the impairment
        # model counts them).
        ncalls = 0
        if fate is Fate.DELIVER:
            # Deliver via a lightweight calendar entry (no Event, no closure).
            sim.call_in(arrival - now, handler, payload)
            ncalls = 1
        elif fate is Fate.DUPLICATE:
            sim.call_in(arrival - now, handler, payload)
            sim.call_in(arrival - now, handler, payload)
            ncalls = 2
        elif fate is Fate.CORRUPT:
            sim.call_in(arrival - now, handler, Corrupted(payload))
            ncalls = 1
        if ncalls and sim._recorder is not None:
            # The transmit site is the only place that knows the timing
            # decomposition of a delivery edge; stash it on the causal node
            # so the critical-path walker can split queueing/serialization/
            # propagation (see repro.obs.causal).
            sim._recorder.annotate_last(
                ncalls,
                queue_ns=start - now,
                tx_ns=tx_ns,
                prop_ns=arrival - end_tx,
                wire_bytes=wire_bytes,
            )
        return arrival

    @property
    def busy_until(self) -> int:
        return self._busy_until


class Link:
    """Full-duplex point-to-point link.

    Parameters
    ----------
    sim:
        The simulator.
    bandwidth_bps:
        Data rate of the wire in bits per second.
    propagation_delay_ns:
        One-way propagation delay of the physical medium.
    per_message_overhead_ns:
        Fixed serialization overhead charged per message (framing, switch
        forwarding, etc.).
    emulator:
        Optional :class:`DelayEmulator` adding WAN-style delay/jitter on top
        of the base propagation delay (models the Anue hardware emulator
        used in the paper).
    impairment:
        Optional :class:`~repro.simnet.faults.ImpairmentModel` making the
        wire lossy (drop/duplicate/corrupt/outage).  ``None`` keeps the
        historical lossless behaviour, bit for bit.
    """

    def __init__(
        self,
        sim: Simulator,
        *,
        bandwidth_bps: float,
        propagation_delay_ns: int,
        per_message_overhead_ns: int = 0,
        emulator: Optional[DelayEmulator] = None,
        impairment: Optional[ImpairmentModel] = None,
    ) -> None:
        if bandwidth_bps <= 0:
            raise SimulationError("bandwidth must be positive")
        if propagation_delay_ns < 0:
            raise SimulationError("propagation delay must be >= 0")
        self.sim = sim
        self.bandwidth_bps = float(bandwidth_bps)
        self.propagation_delay_ns = int(propagation_delay_ns)
        self.per_message_overhead_ns = int(per_message_overhead_ns)
        self.emulator = emulator
        self.impairment = impairment
        #: precomputed byte-rate factor: ns of wire time per payload byte
        self.ns_per_byte = 8 * 1e9 / self.bandwidth_bps
        # Serialization delays are memoized per wire_bytes value.  The cache
        # (not `wire_bytes * ns_per_byte`) is what the hot path uses because
        # reassociating the arithmetic would double-round and could shift a
        # delay by 1 ns — simulated results must stay bit-identical.
        self._tx_ns_cache: dict[int, int] = {}
        self.directions = (LinkDirection(self, 0), LinkDirection(self, 1))

    # ------------------------------------------------------------------
    def attach(self, endpoint: int, handler: Handler) -> LinkDirection:
        """Attach *handler* to receive messages sent **toward** *endpoint*.

        Returns the direction object used to **send from** that endpoint.
        """
        if endpoint not in (0, 1):
            raise SimulationError("endpoint must be 0 or 1")
        # Messages sent from endpoint e travel on direction e and are handled
        # by the opposite endpoint's handler.
        self.directions[1 - endpoint].handler = handler
        return self.directions[endpoint]

    def close(self) -> None:
        """Detach both ends: each direction drops its arrival handler (a
        bound method of the device or switch behind it) and its pointer
        back to this link; the counters stay readable."""
        for d in self.directions:
            d.handler = None
            d.link = None

    def transmission_ns(self, wire_bytes: int) -> int:
        """Serialization delay for a message of *wire_bytes* bytes."""
        ns = self._tx_ns_cache.get(wire_bytes)
        if ns is None:
            ns = self.per_message_overhead_ns + int(round(wire_bytes * 8 * 1e9 / self.bandwidth_bps))
            self._tx_ns_cache[wire_bytes] = ns
        return ns

    def propagation_ns(self) -> int:
        """Jitter-free propagation delay estimate (base + emulator base).

        This is a *query*: it never draws from the jitter RNG, so callers
        may estimate latency mid-run without perturbing subsequent
        transmissions.  Use :meth:`sample_propagation_ns` to model an
        actual traversal of the wire.
        """
        extra = self.emulator.base_delay_ns if self.emulator is not None else 0
        return self.propagation_delay_ns + extra

    def sample_propagation_ns(self, direction: int = 0) -> int:
        """Propagation delay for one actual message (draws jitter, if any)."""
        extra = (
            self.emulator.sample_ns(direction) if self.emulator is not None else 0
        )
        return self.propagation_delay_ns + extra

    def one_way_latency_ns(self, wire_bytes: int) -> int:
        """Unloaded one-way latency estimate for a message (no emulator jitter)."""
        base = self.propagation_delay_ns
        if self.emulator is not None:
            base += self.emulator.base_delay_ns
        return self.transmission_ns(wire_bytes) + base
