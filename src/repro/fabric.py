"""N-host fabric assembly: the multi-host generalisation of the testbed.

:class:`Fabric` wires a :class:`~repro.simnet.fabric.Topology` — hosts and
store-and-forward switches joined by links — into a runnable simulation:
one host / RDMA device / EXS stack per topology host, one
:class:`~repro.simnet.link.Link` per edge, one
:class:`~repro.simnet.fabric.Switch` per switch node, plus the routing
registry (QPN → device) that lets any wire message find its destination
across the fabric::

    topo = Topology.star([f"h{i}" for i in range(8)] + ["sink"])
    fabric = Fabric.from_scenario(ScenarioConfig(seed=1, topology=topo))
    pair = fabric.connect("h0", "sink")
    ... run ...

The two-host :class:`repro.testbed.Testbed` is re-implemented on top of
this class (the trivial point-to-point topology); its event sequences are
bit-identical to the historical standalone implementation because the
direct two-host wire takes exactly the legacy assembly path: devices are
cross-wired as peers on one link with no switch, no frame wrapping, and no
routing lookups.

Seed derivation is positional so the classic seeds are unchanged: host
``i`` gets stack seed ``seed*2+1+i`` (client/server = ``seed*2+1`` /
``seed*2+2``), edge ``i`` gets emulator seed ``seed+7+17*i`` and
impairment seed ``seed+13+29*i`` (edge 0 = the legacy ``seed+7`` /
``seed+13``).
"""

from __future__ import annotations

import itertools
from dataclasses import replace
from typing import Callable, Dict, List, Optional

from .config import ScenarioConfig
from .exs import ExsSocketOptions, ExsStack
from .exs.eventqueue import ExsEventType
from .hosts import Host
from .simnet import (
    DelayEmulator,
    Event,
    FaultProfile,
    ImpairmentModel,
    Link,
    NicPort,
    SimulationError,
    Simulator,
    Switch,
    Topology,
)
from .simnet.fabric import host_delivery
from .verbs import ConnectionManager, RdmaDevice, VerbsError
from .verbs.comp_channel import uniform_wakeup

__all__ = ["Fabric", "FabricConnection"]


class FabricConnection:
    """A connected EXS socket pair created by :meth:`Fabric.connect`.

    The handshake is asynchronous (it needs the simulation to run);
    :attr:`established` is an event that succeeds once both endpoint
    sockets exist (with no value: one naming this handle would make the
    pair a reference cycle).  ``a_socket``/``b_socket`` are the connected
    :class:`~repro.exs.socket.ExsSocket` ends, ``a_eq``/``b_eq`` dedicated
    event queues usable for subsequent data-path completions.
    """

    def __init__(self, fabric: "Fabric", a: str, b: str, port: int) -> None:
        self.fabric = fabric
        self.a = a
        self.b = b
        self.port = port
        self.a_socket = None
        self.b_socket = None
        self.a_eq = None
        self.b_eq = None
        self.established: Event = Event(fabric.sim)
        self.error: Optional[str] = None
        self._pending_sides = 2

    def wait(self) -> Event:
        """The event to ``yield`` on until both sides are connected."""
        return self.established

    def _side_done(self, side: str, event) -> None:
        if event.kind is ExsEventType.ERROR:
            self.error = event.error or "handshake failed"
            if not self.established.triggered:
                self.established.fail(RuntimeError(
                    f"fabric connect {self.a}->{self.b}: {self.error}"
                ))
            return
        if side == "a":
            self.a_socket = event.socket
        else:
            self.b_socket = event.socket
        self._pending_sides -= 1
        if self._pending_sides == 0 and not self.established.triggered:
            self.established.succeed()


class Fabric:
    """Hosts, switches, links, devices, and EXS stacks for one topology."""

    #: not a pytest test class, despite the importable name
    __test__ = False

    def __init__(
        self,
        scenario: Optional[ScenarioConfig] = None,
        *,
        topology: Optional[Topology] = None,
        jitter: Optional[Callable] = None,
    ) -> None:
        """*scenario* describes the run (default: ``ScenarioConfig()``);
        *topology* is shorthand for ``scenario.with_(topology=...)``.
        ``jitter`` is a callable — not serializable, so not a scenario
        field — and composes on top.
        """
        scenario = scenario or ScenarioConfig()
        if topology is not None:
            if scenario.topology is not None:
                raise ValueError("topology given both directly and in the scenario")
            scenario = scenario.with_(topology=topology)
        #: the run as executed: *scenario* with its kernel and reliability
        #: defaults resolved (``REPRO_KERNEL`` included).
        #: Nothing below consults anything else, so rebuilding from this
        #: value replays the run anywhere (flight dumps embed it).
        self.scenario = scenario = scenario.resolved()
        self.topology = scenario.topology or Topology.point_to_point()
        self.profile = profile = scenario.resolve_profile()
        self.seed = seed = scenario.seed
        schedule_policy = scenario.schedule_policy()
        capture = bool(scenario.causal_capture or scenario.flight_recorder)

        self.sim = Simulator(schedule_policy=schedule_policy, calendar=scenario.kernel)
        #: the calendar that runs this fabric: ``"wheel"`` or ``"heap"`` —
        #: the resolved scenario's kernel, except that the heap runs when
        #: the wheel's C accelerator could not be built or loaded
        self.kernel = self.sim.calendar_stats()["backend"]

        #: the run's :class:`~repro.simnet.causality.CausalRecorder` when the
        #: scenario asked for capture (``causal_capture``/``flight_recorder``)
        self.causal = None
        if capture:
            from .simnet.causality import CausalRecorder, enable_capture

            try:
                scenario_dict = scenario.to_dict()
            except ValueError:  # unregistered profile / pre-built model: dump without it
                scenario_dict = None
            self.causal = enable_capture(self.sim, CausalRecorder(
                capacity=None if scenario.causal_capture else scenario.flight_recorder,
                dump_dir=scenario.telemetry_dir,
                scenario=scenario_dict,
            ))

        topo = self.topology
        self._hosts: Dict[str, Host] = {}
        for name in topo.hosts:
            self._hosts[name] = Host(
                self.sim, name,
                copy_bandwidth_bps=profile.copy_bandwidth_bps,
                cpu_costs=profile.cpu_costs,
            )
        # Completion-channel wake-up latency distribution (per host; the
        # per-channel RNG seed comes from the stack so runs are reproducible).
        sampler = uniform_wakeup(profile.wakeup_lo_ns, profile.wakeup_hi_ns)
        for host in self._hosts.values():
            host.wakeup_sampler = sampler

        #: per-edge impairment models, keyed by canonical edge name
        self.impairments: Dict[str, ImpairmentModel] = {}
        #: per-edge links, keyed by canonical edge name (topology order)
        self.links: Dict[str, Link] = {}
        edge_faults = self._resolve_faults(scenario.faults)
        for i, (a, b) in enumerate(topo.edges):
            name = topo.edge_names[i]
            emulator = None
            if profile.emulator_delay_ns or jitter is not None:
                emulator = DelayEmulator(
                    profile.emulator_delay_ns, jitter=jitter, seed=seed + 7 + 17 * i
                )
            impairment = edge_faults.get(i)
            if impairment is not None:
                self.impairments[name] = impairment
            self.links[name] = Link(
                self.sim,
                bandwidth_bps=profile.link_bandwidth_bps * topo.scale_for(i),
                propagation_delay_ns=profile.propagation_delay_ns,
                per_message_overhead_ns=profile.per_message_overhead_ns,
                emulator=emulator,
                impairment=impairment,
            )

        self.reliability = reliability = scenario.reliability
        device_config = profile.device
        if reliability is not None:
            device_config = replace(device_config, reliability=reliability)

        self._devices: Dict[str, RdmaDevice] = {}
        keys = itertools.count(0x1000)  # devices, QPNs and keys are numbered per fabric
        for i, name in enumerate(topo.hosts, 1):
            self._devices[name] = RdmaDevice(self.sim, self._hosts[name], device_config,
                                             device_id=i, keys=keys)

        #: QPN → owning device, for fabric-wide routing
        self._qpn_home: Dict[int, RdmaDevice] = {}
        #: per-switch runtime instances, keyed by switch name
        self.switches: Dict[str, Switch] = {}
        for name in topo.switches:
            self.switches[name] = Switch(self.sim, name, topo.switch)

        for i, (a, b) in enumerate(topo.edges):
            link = self.links[topo.edge_names[i]]
            a_is_host = a in self._devices
            b_is_host = b in self._devices
            if a_is_host and b_is_host:
                # the direct two-host wire: the classic peer-to-peer path,
                # bit-identical to the standalone Testbed assembly
                dev_a, dev_b = self._devices[a], self._devices[b]
                dev_a.attach_link(link, 0)
                dev_b.attach_link(link, 1)
                dev_a.peer = dev_b
                dev_b.peer = dev_a
                continue
            for endpoint, node, other in ((0, a, b), (1, b, a)):
                if node in self._devices:
                    device = self._devices[node]
                    direction = link.attach(endpoint, host_delivery(device._on_wire))
                    nic = NicPort(direction, self.destination_of)
                    device.attach_fabric(self, link, endpoint, nic)
                else:
                    self.switches[node].add_port(other, link, endpoint)
        for name, switch in self.switches.items():
            switch.build_routes(topo.next_hops(name))

        self._stacks: Dict[str, ExsStack] = {}
        conn_ids = itertools.count(1)  # connections are numbered per fabric
        for i, name in enumerate(topo.hosts):
            device = self._devices[name]
            stack = self._stacks[name] = ExsStack(
                self.sim, self._hosts[name], device,
                ConnectionManager(device), seed=seed * 2 + 1 + i,
                srq_depth=scenario.srq_depth, cq_shards=scenario.cq_shards,
                transport=scenario.transport,
            )
            stack.conn_ids = conn_ids

        #: set by :meth:`attach_telemetry`
        self.telemetry = None
        self._auto_ports = itertools.count(61000)
        self._ack_path_cache: Dict[tuple, int] = {}
        self.closed = False

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_scenario(
        cls,
        scenario: ScenarioConfig,
        *,
        jitter: Optional[Callable] = None,
    ):
        """Build the fabric (or, on :class:`~repro.testbed.Testbed`, the
        testbed) *scenario* describes — the constructor, spelled as a verb."""
        return cls(scenario, jitter=jitter)

    def _resolve_faults(self, faults) -> Dict[int, ImpairmentModel]:
        """Normalize the faults spec into per-edge-index impairment models."""
        topo = self.topology
        seed = self.seed
        out: Dict[int, ImpairmentModel] = {}
        if faults is None:
            return out
        if isinstance(faults, ImpairmentModel):
            if not topo.direct:
                raise ValueError(
                    "a pre-built ImpairmentModel only fits the two-host wire; "
                    "use a {edge_name: FaultProfile} mapping on a topology"
                )
            out[0] = faults
            return out
        if isinstance(faults, FaultProfile):
            # one profile = every wire is lossy (each edge gets its own
            # seeded model so fault streams stay independent)
            for i in range(len(topo.edges)):
                out[i] = ImpairmentModel(faults, seed=seed + 13 + 29 * i)
            return out
        if isinstance(faults, dict):
            for name, spec in faults.items():
                i = topo.resolve_edge(name)  # raises on unknown edge names
                if isinstance(spec, ImpairmentModel):
                    out[i] = spec
                elif isinstance(spec, FaultProfile):
                    out[i] = ImpairmentModel(spec, seed=seed + 13 + 29 * i)
                else:
                    raise TypeError(
                        f"faults[{name!r}] must be a FaultProfile or "
                        f"ImpairmentModel, not {type(spec).__name__}"
                    )
            return out
        raise TypeError(
            f"faults must be a FaultProfile, ImpairmentModel, or per-edge "
            f"mapping, not {type(faults).__name__}"
        )

    # ------------------------------------------------------------------
    # routing registry (used by devices and NIC ports)
    # ------------------------------------------------------------------
    def register_qpn(self, qpn: int, device: RdmaDevice) -> None:
        self._qpn_home[qpn] = device

    def device_of_qpn(self, qpn: int) -> RdmaDevice:
        device = self._qpn_home.get(qpn)
        if device is None:
            raise VerbsError(f"fabric has no device owning QP {qpn}")
        return device

    def destination_of(self, payload) -> str:
        """Destination host name for a wire payload (routing resolver)."""
        dst_qpn = getattr(payload, "dst_qpn", 0)
        if dst_qpn:
            return self.device_of_qpn(dst_qpn).host.name
        dst_lid = getattr(payload, "dst_lid", "")
        if dst_lid:
            if dst_lid not in self._hosts:
                raise SimulationError(f"unknown destination host {dst_lid!r}")
            return dst_lid
        raise SimulationError(
            f"unroutable payload {payload!r}: no destination QPN, and a CM "
            "REQ on a multi-host fabric needs an explicit destination host "
            "(connect(..., to=host))"
        )

    def ack_path_ns(self, src: RdmaDevice, dst: RdmaDevice) -> int:
        """Propagation estimate for an out-of-band ACK between two devices.

        The summed jitter-free propagation of every link on the routed path
        (ACKs model coalesced link-level packets: they bypass switch queues
        and serialization, like the point-to-point model's out-of-band
        delivery).
        """
        key = (src.host.name, dst.host.name)
        cached = self._ack_path_cache.get(key)
        if cached is not None:
            return cached
        path = self.topology.path(*key)
        total = 0
        for a, b in zip(path, path[1:]):
            i = self.topology.resolve_edge(f"{a}-{b}")
            total += self.links[self.topology.edge_names[i]].propagation_ns()
        self._ack_path_cache[key] = total
        return total

    # ------------------------------------------------------------------
    # public surface
    # ------------------------------------------------------------------
    def host(self, name: str) -> Host:
        """The :class:`~repro.hosts.Host` called *name*."""
        try:
            return self._hosts[name]
        except KeyError:
            raise KeyError(
                f"unknown host {name!r} (hosts: {', '.join(self.topology.hosts)})"
            ) from None

    def stack(self, name: str) -> ExsStack:
        """The EXS stack on host *name*."""
        self.host(name)  # raise the helpful error on typos
        return self._stacks[name]

    def device(self, name: str) -> RdmaDevice:
        """The RDMA device on host *name*."""
        self.host(name)
        return self._devices[name]

    @property
    def all_hosts(self) -> List[Host]:
        """Hosts in topology order."""
        return [self._hosts[n] for n in self.topology.hosts]

    @property
    def host_names(self) -> tuple:
        return self.topology.hosts

    def connect(self, a: str, b: str, *, options: Optional[ExsSocketOptions] = None,
                port: Optional[int] = None) -> FabricConnection:
        """Create a connected EXS socket pair from host *a* to host *b*.

        Spawns the listener/connector handshake processes; the returned
        :class:`FabricConnection` populates once the simulation runs the
        handshake (``yield pair.wait()`` inside a process, or just call
        :meth:`run` and read ``pair.a_socket``/``pair.b_socket``).  The
        listening socket on *b* closes once its one accept completes, so
        no listener outlives the handshake and *port* can be connected
        again.
        """
        self._require_open("connect")
        options = options or ExsSocketOptions()
        if a == b:
            raise ValueError("cannot connect a host to itself")
        stack_a, stack_b = self.stack(a), self.stack(b)
        if port is None:
            port = next(self._auto_ports)
        handle = FabricConnection(self, a, b, port)
        listener = stack_b.socket(options=options)
        listener.bind_listen(port)
        handle.b_eq = stack_b.qcreate()
        handle.a_eq = stack_a.qcreate()
        listener.accept(handle.b_eq, context=handle, options=options)
        sock = stack_a.socket(options=options)
        sock.connect(port, handle.a_eq, context=handle, to=b)
        self.sim.process(self._watch_side(handle, "b", handle.b_eq, listener),
                         name=f"fabric-accept-{b}:{port}")
        self.sim.process(self._watch_side(handle, "a", handle.a_eq),
                         name=f"fabric-connect-{a}:{port}")
        return handle

    @staticmethod
    def _watch_side(handle: FabricConnection, side: str, eq, listener=None):
        event = yield eq.dequeue()
        if listener is not None:
            listener.close()  # its one accept is done: the port is free again
        handle._side_done(side, event)

    def attach_telemetry(self, **kwargs):
        """Attach a :class:`repro.obs.Telemetry` session to this fabric.

        Keyword arguments are forwarded to
        :meth:`repro.obs.Telemetry.attach` (``sample_interval_ns``).
        Returns the session.
        """
        from .obs import Telemetry

        self.telemetry = Telemetry.attach(self, **kwargs)
        return self.telemetry

    def run(self, until=None, *, max_events: Optional[int] = None):
        """Run the simulation (see :meth:`repro.simnet.Simulator.run`)."""
        self._require_open("run")
        if self.telemetry is not None:
            # the sampler stops when a run drains the calendar; resume it
            self.telemetry.sampler.start()
        try:
            return self.sim.run(until, max_events=max_events)
        finally:
            if self.telemetry is not None:
                # flush the tail interval the periodic tick never reaches
                self.telemetry.sampler.finish()

    @property
    def now(self) -> int:
        return self.sim.now

    # ------------------------------------------------------------------
    # teardown
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release what the run registered, as a verbs application tears
        down, and cut every reference that points back up the layers, so
        that reference counting frees the fabric once its last holder
        drops it instead of leaving it to the cyclic collector.

        Connections leave their stack's, shard's and CM's tables (private
        pollers stop); QPs leave their device and memory regions their
        protection domain; devices, links and switches drop their back
        pointers, and the simulator its freelists (and, on a captured run,
        its capture closures).  What the run counted
        stays readable: links, switch ports, reliability and SRQ counters,
        shard ``rounds``, host CPUs, each socket's statistics,
        ``sim.calendar_stats()`` and the telemetry registry.  Running or
        connecting afterwards raises; a second call does nothing.  The
        entry points (``run_blast``, ``run_echo``, ``run_file_transfer``,
        ``run_incast``) close the fabric they build, never a ``testbed=``.
        """
        if self.closed:
            return
        self.closed = True
        for stack in self._stacks.values():
            stack.close()
        for device in self._devices.values():
            device.close()
        for link in self.links.values():
            link.close()
        for switch in self.switches.values():
            switch.close()
        for host in self._hosts.values():
            host.telemetry = None  # the session holds the host's connections
        self._qpn_home.clear()
        self.sim.drop_freelists()
        if self.causal is not None:
            from .simnet.causality import disable_capture

            disable_capture(self.sim)

    def __enter__(self) -> "Fabric":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _require_open(self, what: str) -> None:
        if self.closed:
            raise SimulationError(f"cannot {what}: the fabric is closed")

    # -- legacy two-host conveniences ----------------------------------
    @property
    def link(self) -> Link:
        """The single link of a direct two-host fabric."""
        if not self.topology.direct:
            raise AttributeError(
                "this fabric has multiple links; use fabric.links[edge_name]"
            )
        return self.links[self.topology.edge_names[0]]

    @property
    def impairment(self) -> Optional[ImpairmentModel]:
        """The single-edge impairment model (two-host wire), if any."""
        if self.topology.direct:
            return self.impairments.get(self.topology.edge_names[0])
        return None
