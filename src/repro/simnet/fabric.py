"""Switched multi-host fabric: topology descriptions and the switch model.

The point-to-point :class:`~repro.simnet.link.Link` models one dedicated
wire.  This module composes many of them into a *fabric*: hosts and
store-and-forward switches joined by links, described by a frozen,
serializable :class:`Topology` that slots into
:class:`repro.config.ScenarioConfig`.

The switch model
----------------

A :class:`Switch` is a store-and-forward crossbar with *output queueing*:

* every attached link is one port; the egress side of a port is a bounded
  FIFO (:class:`SwitchPort`) that drains onto the link at line rate (the
  link's own serialized transmitter provides the drain clock);
* a frame is switched only after it has fully arrived on the ingress link
  (store-and-forward — the ingress :class:`~repro.simnet.link.Link`
  delivers at full-arrival time), then pays the switch's ``forward_ns``
  lookup/crossbar latency before joining the egress queue;
* when an egress queue is full the switch either **drops** the frame
  (``policy="drop"``, counted per port) or **backpressures**
  (``policy="backpressure"``): the frame waits in an unbounded pending
  staging area, modelling PFC-style lossless pause toward the upstream
  sender.  An empty queue always admits one frame regardless of size so
  a frame larger than the configured capacity cannot wedge the port.
* frames whose payload is fault-exempt (CM datagrams, TERM notifications
  — the separately-protected management path) bypass the capacity check
  entirely, so connection management cannot deadlock behind a congested
  data queue;
* a frame that arrives corrupted (wrapped in
  :class:`~repro.simnet.faults.Corrupted`) is discarded at the ingress
  port, exactly as a real switch drops frames failing their FCS.

Transport ACKs never traverse switches: the device model delivers them
out of band (see :meth:`repro.verbs.device.RdmaDevice._send_ack_message`),
charged with the summed propagation delay of the path.

Determinism: the switch adds no randomness.  Queue admission, drain
completion, and forwarding are all scheduled through ``sim.call_in`` with
delays derived from link arithmetic, so two runs of the same scenario are
bit-identical.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Mapping, Optional, Sequence, Tuple

from .kernel import SimulationError, Simulator
from .faults import Corrupted
from .link import Link, LinkDirection

__all__ = [
    "FabricFrame",
    "NicPort",
    "Switch",
    "SwitchConfig",
    "SwitchPort",
    "Topology",
]


# ----------------------------------------------------------------------
# frames
# ----------------------------------------------------------------------
class FabricFrame:
    """A wire message in transit across the fabric.

    Wraps the device-level payload with the routing destination (a host
    name) and the wire size, so intermediate switches can re-serialize the
    frame on their egress links without understanding the payload.  The
    wrapper is removed at the destination host's NIC.
    """

    __slots__ = ("payload", "wire_bytes", "dst")

    def __init__(self, payload: Any, wire_bytes: int, dst: str) -> None:
        self.payload = payload
        self.wire_bytes = wire_bytes
        self.dst = dst

    @property
    def fault_exempt(self) -> bool:
        """Management-path frames stay exempt across every hop."""
        return bool(getattr(self.payload, "fault_exempt", False))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FabricFrame({self.payload!r} -> {self.dst})"


class NicPort:
    """The device-facing side of a host's access link on a fabric.

    Looks like a :class:`~repro.simnet.link.LinkDirection` to the device
    (``transmit``/``busy_until``) but wraps every payload in a
    :class:`FabricFrame` addressed by the *resolve* callable (payload →
    destination host name), provided by the assembling fabric.
    """

    __slots__ = ("direction", "resolve")

    def __init__(self, direction: LinkDirection, resolve: Callable[[Any], str]) -> None:
        self.direction = direction
        self.resolve = resolve

    def transmit(self, payload: Any, wire_bytes: int, extra_tx_ns: int = 0) -> int:
        frame = FabricFrame(payload, wire_bytes, self.resolve(payload))
        return self.direction.transmit(frame, wire_bytes, extra_tx_ns)

    @property
    def busy_until(self) -> int:
        return self.direction.busy_until


def host_delivery(handler: Callable[[Any], None]) -> Callable[[Any], None]:
    """Wrap a device arrival handler to strip :class:`FabricFrame` wrappers.

    Corrupted frames keep their :class:`Corrupted` envelope (the device
    discards them) but the fabric wrapper inside is removed so the device
    never sees fabric-internal types.
    """

    def _deliver(frame: Any) -> None:
        if isinstance(frame, FabricFrame):
            handler(frame.payload)
        elif isinstance(frame, Corrupted) and isinstance(frame.payload, FabricFrame):
            handler(Corrupted(frame.payload.payload))
        else:
            handler(frame)

    return _deliver


# ----------------------------------------------------------------------
# switch
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SwitchConfig:
    """Timing and queueing discipline of a store-and-forward switch."""

    #: lookup + crossbar latency charged per forwarded frame
    forward_ns: int = 300
    #: bound on each egress port's output queue, in wire bytes (counts the
    #: frame currently serializing onto the link)
    port_queue_bytes: int = 256 * 1024
    #: what happens when an egress queue is full: ``"drop"`` loses the
    #: frame (counted), ``"backpressure"`` holds it losslessly until the
    #: queue drains (PFC-style pause)
    policy: str = "drop"

    def __post_init__(self) -> None:
        if self.policy not in ("drop", "backpressure"):
            raise ValueError(f"unknown switch policy {self.policy!r}")
        if self.forward_ns < 0 or self.port_queue_bytes <= 0:
            raise ValueError("forward_ns must be >= 0 and port_queue_bytes > 0")


class SwitchPort:
    """One egress port: a bounded FIFO draining onto a link direction.

    ``queued_bytes`` counts every admitted frame until its serialization
    onto the link finishes (the drain callback), so the bound covers both
    waiting frames and the one on the wire — standard output-queue
    accounting.
    """

    __slots__ = ("switch", "neighbor", "direction", "queued_bytes",
                 "queued_frames", "pending", "pending_bytes", "forwarded",
                 "forwarded_bytes", "drops", "dropped_bytes",
                 "backpressured", "peak_queue_bytes")

    def __init__(self, switch: "Switch", neighbor: str, direction: LinkDirection) -> None:
        self.switch = switch
        self.neighbor = neighbor
        self.direction = direction
        self.queued_bytes = 0
        self.queued_frames = 0
        #: frames held under backpressure, FIFO
        self.pending: Deque[FabricFrame] = deque()
        self.pending_bytes = 0
        self.forwarded = 0
        self.forwarded_bytes = 0
        self.drops = 0
        self.dropped_bytes = 0
        self.backpressured = 0
        self.peak_queue_bytes = 0

    @property
    def name(self) -> str:
        """Port label: the neighbor node the port faces."""
        return self.neighbor

    def enqueue(self, frame: FabricFrame) -> None:
        """Admit *frame* to the egress queue (or drop / hold it)."""
        cfg = self.switch.config
        fits = (
            self.queued_frames == 0
            or self.queued_bytes + frame.wire_bytes <= cfg.port_queue_bytes
        )
        if not fits and not frame.fault_exempt:
            if cfg.policy == "drop":
                self.drops += 1
                self.dropped_bytes += frame.wire_bytes
                return
            self.backpressured += 1
            self.pending.append(frame)
            self.pending_bytes += frame.wire_bytes
            return
        self._admit(frame)

    def _admit(self, frame: FabricFrame) -> None:
        self.queued_bytes += frame.wire_bytes
        self.queued_frames += 1
        if self.queued_bytes > self.peak_queue_bytes:
            self.peak_queue_bytes = self.queued_bytes
        self.forwarded += 1
        self.forwarded_bytes += frame.wire_bytes
        sim = self.switch.sim
        self.direction.transmit(frame, frame.wire_bytes)
        # The link direction serializes frames back to back; its busy_until
        # after the transmit is exactly when this frame leaves the queue.
        self._schedule_drain(frame.wire_bytes, sim)

    def _schedule_drain(self, wire_bytes: int, sim: Simulator) -> None:
        sim.call_in(self.direction.busy_until - sim.now, self._drained, wire_bytes)

    def _drained(self, wire_bytes: int) -> None:
        self.queued_bytes -= wire_bytes
        self.queued_frames -= 1
        cfg = self.switch.config
        while self.pending:
            head = self.pending[0]
            if (self.queued_frames > 0
                    and self.queued_bytes + head.wire_bytes > cfg.port_queue_bytes):
                break
            self.pending.popleft()
            self.pending_bytes -= head.wire_bytes
            self._admit(head)


class Switch:
    """A store-and-forward switch instance inside a running fabric.

    Built by the fabric assembler (:class:`repro.fabric.Fabric`), not
    directly by users: ports are added as topology edges are wired, and
    the route table (destination host → egress port) comes from the
    topology's deterministic shortest-path computation.
    """

    def __init__(self, sim: Simulator, name: str, config: Optional[SwitchConfig] = None) -> None:
        self.sim = sim
        self.name = name
        self.config = config or SwitchConfig()
        #: neighbor node name → egress port toward it
        self.ports: Dict[str, SwitchPort] = {}
        #: destination host name → egress port (next hop)
        self.routes: Dict[str, SwitchPort] = {}
        self.received = 0
        self.corrupt_dropped = 0

    def add_port(self, neighbor: str, link: Link, endpoint: int) -> SwitchPort:
        """Attach this switch to *link* at *endpoint*, facing *neighbor*."""
        if neighbor in self.ports:
            raise SimulationError(f"switch {self.name} already has a port to {neighbor}")
        direction = link.attach(endpoint, self._ingress)
        port = SwitchPort(self, neighbor, direction)
        self.ports[neighbor] = port
        return port

    def build_routes(self, next_hops: Mapping[str, str]) -> None:
        """Install the route table (*destination host → neighbor name*)."""
        for dst, neighbor in next_hops.items():
            port = self.ports.get(neighbor)
            if port is None:
                raise SimulationError(
                    f"switch {self.name}: route to {dst} via unknown port {neighbor}"
                )
            self.routes[dst] = port

    def close(self) -> None:
        """Cut each port's pointer back to this switch (its link ends drop
        their handlers in :meth:`Link.close`); port counters stay readable."""
        for port in self.ports.values():
            port.switch = None

    def _ingress(self, frame: Any) -> None:
        self.received += 1
        if isinstance(frame, Corrupted):
            # FCS failure: a real switch validates the frame check sequence
            # before forwarding and discards on mismatch.
            self.corrupt_dropped += 1
            return
        if not isinstance(frame, FabricFrame):  # pragma: no cover - defensive
            raise SimulationError(
                f"switch {self.name} received a non-fabric payload {frame!r}"
            )
        port = self.routes.get(frame.dst)
        if port is None:
            raise SimulationError(f"switch {self.name} has no route to {frame.dst!r}")
        if self.config.forward_ns:
            self.sim.call_in(self.config.forward_ns, port.enqueue, frame)
        else:
            port.enqueue(frame)


# ----------------------------------------------------------------------
# topology
# ----------------------------------------------------------------------
def _edge_name(a: str, b: str) -> str:
    return f"{a}-{b}"


@dataclass(frozen=True)
class Topology:
    """A frozen, serializable description of a multi-host fabric.

    ``hosts`` and ``switches`` name the nodes; ``edges`` are undirected
    ``(a, b)`` links between them.  Every host must be single-homed (one
    edge), all hosts must be mutually reachable, and names must be unique.
    Per-edge link-speed overrides go in ``bandwidth_scale`` as
    ``(edge_name, factor)`` pairs — e.g. slow the shared uplink of a star
    to create an incast bottleneck.

    The canonical edge name is ``"a-b"`` in declaration order; lookups
    accept either order.
    """

    hosts: Tuple[str, ...]
    switches: Tuple[str, ...] = ()
    edges: Tuple[Tuple[str, str], ...] = ()
    switch: SwitchConfig = field(default_factory=SwitchConfig)
    #: per-edge bandwidth multipliers: ``(("leaf0-spine0", 0.25), ...)``
    bandwidth_scale: Tuple[Tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        hosts = tuple(self.hosts)
        switches = tuple(self.switches)
        edges = tuple((str(a), str(b)) for a, b in self.edges)
        object.__setattr__(self, "hosts", hosts)
        object.__setattr__(self, "switches", switches)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(
            self, "bandwidth_scale",
            tuple((str(name), float(f)) for name, f in self.bandwidth_scale),
        )
        if len(hosts) < 2:
            raise ValueError("a topology needs at least two hosts")
        names = hosts + switches
        if len(set(names)) != len(names):
            raise ValueError("host/switch names must be unique")
        known = set(names)
        seen = set()
        degree: Dict[str, int] = {}
        for a, b in edges:
            if a not in known or b not in known:
                raise ValueError(f"edge {_edge_name(a, b)!r} references an unknown node")
            if a == b:
                raise ValueError(f"self-edge {_edge_name(a, b)!r}")
            key = frozenset((a, b))
            if key in seen:
                raise ValueError(f"duplicate edge {_edge_name(a, b)!r}")
            seen.add(key)
            degree[a] = degree.get(a, 0) + 1
            degree[b] = degree.get(b, 0) + 1
        for host in hosts:
            if degree.get(host, 0) != 1:
                raise ValueError(
                    f"host {host!r} must be single-homed (exactly one edge, "
                    f"has {degree.get(host, 0)})"
                )
        # connectivity: every host reachable from the first
        reach = self._reachable(hosts[0])
        missing = [h for h in hosts if h not in reach]
        if missing:
            raise ValueError(f"hosts not reachable from {hosts[0]!r}: {missing}")
        for name, factor in self.bandwidth_scale:
            self.resolve_edge(name)  # raises on unknown names
            if factor <= 0:
                raise ValueError(f"bandwidth_scale for {name!r} must be > 0")

    # -- constructors ---------------------------------------------------
    @classmethod
    def point_to_point(cls, a: str = "client", b: str = "server") -> "Topology":
        """The classic two-host wire (what :class:`repro.Testbed` builds)."""
        return cls(hosts=(a, b), edges=((a, b),))

    @classmethod
    def star(cls, hosts: Sequence[str], hub: str = "switch0",
             switch: Optional[SwitchConfig] = None,
             bandwidth_scale: Tuple[Tuple[str, float], ...] = ()) -> "Topology":
        """All hosts on one switch.

        A two-host star collapses to the direct wire: a 2-port switch adds
        no contention (each output queue has exactly one feeder), and
        eliding it keeps the timing model — and therefore every event
        sequence — bit-identical to the classic point-to-point testbed.
        """
        hosts = tuple(hosts)
        if len(hosts) == 2 and not bandwidth_scale:
            return cls.point_to_point(*hosts)
        return cls(
            hosts=hosts,
            switches=(hub,),
            edges=tuple((h, hub) for h in hosts),
            switch=switch or SwitchConfig(),
            bandwidth_scale=bandwidth_scale,
        )

    @classmethod
    def leaf_spine(cls, leaf_hosts: Sequence[Sequence[str]], spines: int = 1,
                   switch: Optional[SwitchConfig] = None,
                   bandwidth_scale: Tuple[Tuple[str, float], ...] = ()) -> "Topology":
        """Two-tier leaf/spine: ``leaf_hosts[i]`` hangs off ``leaf{i}``,
        every leaf uplinks to every ``spine{j}``."""
        if spines < 1:
            raise ValueError("need at least one spine")
        hosts: List[str] = []
        switches: List[str] = []
        edges: List[Tuple[str, str]] = []
        spine_names = [f"spine{j}" for j in range(spines)]
        for i, group in enumerate(leaf_hosts):
            leaf = f"leaf{i}"
            switches.append(leaf)
            for h in group:
                hosts.append(h)
                edges.append((h, leaf))
            for spine in spine_names:
                edges.append((leaf, spine))
        switches.extend(spine_names)
        return cls(
            hosts=tuple(hosts),
            switches=tuple(switches),
            edges=tuple(edges),
            switch=switch or SwitchConfig(),
            bandwidth_scale=bandwidth_scale,
        )

    # -- queries --------------------------------------------------------
    @property
    def direct(self) -> bool:
        """True for the switchless two-host wire (the legacy testbed shape)."""
        return not self.switches and len(self.hosts) == 2 and len(self.edges) == 1

    @property
    def edge_names(self) -> Tuple[str, ...]:
        return tuple(_edge_name(a, b) for a, b in self.edges)

    def resolve_edge(self, name: str) -> int:
        """Index of the edge called *name* (either endpoint order).

        Raises ``ValueError`` naming the known edges on a miss — a fault
        profile addressed at a typo must fail loudly, not silently no-op.
        """
        for i, (a, b) in enumerate(self.edges):
            if name in (_edge_name(a, b), _edge_name(b, a)):
                return i
        raise ValueError(
            f"unknown edge {name!r} (known edges: {', '.join(self.edge_names)})"
        )

    def _adjacency(self) -> Dict[str, List[str]]:
        adj: Dict[str, List[str]] = {n: [] for n in self.hosts + self.switches}
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        for neighbors in adj.values():
            neighbors.sort()  # deterministic BFS order
        return adj

    def _reachable(self, start: str) -> set:
        adj = self._adjacency()
        seen = {start}
        frontier = deque([start])
        while frontier:
            node = frontier.popleft()
            for nxt in adj[node]:
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return seen

    def path(self, a: str, b: str) -> List[str]:
        """Deterministic shortest node path from host/switch *a* to *b*."""
        adj = self._adjacency()
        if a not in adj or b not in adj:
            raise ValueError(f"unknown node in path({a!r}, {b!r})")
        prev: Dict[str, str] = {a: a}
        frontier = deque([a])
        while frontier:
            node = frontier.popleft()
            if node == b:
                break
            for nxt in adj[node]:
                if nxt not in prev:
                    prev[nxt] = node
                    frontier.append(nxt)
        if b not in prev:
            raise ValueError(f"no path from {a!r} to {b!r}")
        out = [b]
        while out[-1] != a:
            out.append(prev[out[-1]])
        out.reverse()
        return out

    def next_hops(self, switch: str) -> Dict[str, str]:
        """Route table for *switch*: destination host → neighbor name."""
        if switch not in self.switches:
            raise ValueError(f"{switch!r} is not a switch in this topology")
        out: Dict[str, str] = {}
        for host in self.hosts:
            p = self.path(switch, host)
            if len(p) >= 2:
                out[host] = p[1]
        return out

    def scale_for(self, edge_index: int) -> float:
        """Bandwidth multiplier for edge *edge_index* (1.0 by default)."""
        a, b = self.edges[edge_index]
        for name, factor in self.bandwidth_scale:
            if name in (_edge_name(a, b), _edge_name(b, a)):
                return factor
        return 1.0

    # -- serialization --------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "hosts": list(self.hosts),
            "switches": list(self.switches),
            "edges": [list(e) for e in self.edges],
            "switch": {
                "forward_ns": self.switch.forward_ns,
                "port_queue_bytes": self.switch.port_queue_bytes,
                "policy": self.switch.policy,
            },
            "bandwidth_scale": [list(s) for s in self.bandwidth_scale],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Topology":
        sw = data.get("switch") or {}
        return cls(
            hosts=tuple(data["hosts"]),
            switches=tuple(data.get("switches", ())),
            edges=tuple(tuple(e) for e in data.get("edges", ())),
            switch=SwitchConfig(**sw),
            bandwidth_scale=tuple(tuple(s) for s in data.get("bandwidth_scale", ())),
        )
