"""Unified, serializable scenario configuration.

Everything that shapes *how a run is executed* — as opposed to what the
application sends — is one frozen, picklable, JSON-round-trippable
:class:`ScenarioConfig`; ``Fabric``/``Testbed`` and the four ``run_*``
apps take nothing else:

* **profile** — which :class:`~repro.bench.profiles.HardwareProfile`
  (by name, so scenarios serialize)
* **topology** — optional :class:`~repro.simnet.fabric.Topology` for
  multi-host fabrics (``None`` = the classic two-host wire)
* **seed** — the testbed seed (wake-up latencies, fault streams, ...)
* **faults** — optional :class:`~repro.simnet.faults.FaultProfile`, or a
  per-edge ``{edge_name: FaultProfile}`` mapping on a topology
* **reliability** — optional :class:`~repro.verbs.reliability.ReliabilityConfig`
* **transport** — the EXS data plane (``"wwi"`` or ``"eager_rendezvous"``)
* **kernel** — the event kernel
* **schedule** — optional same-instant tie-break policy spec
  (``("fifo", 0)`` or ``("random", seed)``; see :mod:`repro.simnet.schedule`)
* **telemetry** / **telemetry_dir** — :mod:`repro.obs` session and artifact
  placement
* **max_events** — runaway-simulation guard

The scenario alone picks a run's variant (data plane, reliability
discipline).  The environment enters in exactly one place:
:meth:`ScenarioConfig.resolved` folds ``REPRO_KERNEL`` (the no-compiler
platform, which never changes a simulated result) into ``kernel``;
``Fabric`` calls it first and keeps the result as ``fabric.scenario`` — so
the scenario a run reports replays that run bit for bit with the variable
unset.

Because a scenario serializes, every :mod:`repro.check` counterexample is a
scenario: the fuzzer writes the exact resolved ``ScenarioConfig`` that
produced a violation, and ``python -m repro.check replay`` re-runs it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

from .bench.profiles import PROFILES, HardwareProfile
from .exs.flags import TRANSPORT_WWI, TRANSPORTS
from .simnet.fabric import Topology
from .simnet.faults import FaultProfile, ImpairmentModel
from .simnet.kernel import env_kernel
from .simnet.schedule import SchedulePolicy, policy_from_spec
from .verbs.reliability import MODE_GO_BACK_N, ReliabilityConfig

__all__ = ["ScenarioConfig", "KERNELS"]

#: every event kernel a scenario (or ``REPRO_KERNEL``, or a CLI) may name
KERNELS = ("wheel", "heap")


def _fault_dict(fault: Union[FaultProfile, ImpairmentModel]) -> dict:
    if isinstance(fault, ImpairmentModel):
        raise ValueError(
            "a pre-built ImpairmentModel does not JSON-serialize; "
            "serializable scenarios describe faults as FaultProfiles"
        )
    return dataclasses.asdict(fault)


@dataclass(frozen=True)
class ScenarioConfig:
    """One reproducible run environment, as a value.

    ``profile`` may be a profile *name* (a key of
    :data:`repro.bench.profiles.PROFILES` — the serializable spelling) or a
    :class:`HardwareProfile` instance (for ad-hoc profiles; such scenarios
    pickle but do not JSON-serialize unless the profile is registered).
    """

    profile: Union[str, HardwareProfile] = "fdr"
    seed: int = 0
    #: multi-host fabric layout; ``None`` means the classic two-host wire
    #: (equivalent to :meth:`Topology.point_to_point`)
    topology: Optional[Topology] = None
    #: wire impairment: one :class:`FaultProfile` applied to every edge, or
    #: a ``{edge_name: FaultProfile}`` mapping addressing individual edges
    #: of the topology (e.g. ``{"client0-spine0": LIGHT_LOSS}``); unknown
    #: edge names raise eagerly.  A pre-built
    #: :class:`~repro.simnet.faults.ImpairmentModel` (link-down windows,
    #: asymmetry) may stand where a profile does; such scenarios pickle but
    #: do not JSON-serialize.
    faults: Optional[Union[FaultProfile, ImpairmentModel,
                           Dict[str, Union[FaultProfile, ImpairmentModel]]]] = None
    #: RC reliability layer; ``None`` = off, unless the wire is lossy
    #: (see :meth:`resolved`)
    reliability: Optional[ReliabilityConfig] = None
    #: EXS data-plane transport of the run's stream sockets: ``"wwi"`` or
    #: ``"eager_rendezvous"``.  A socket whose own options name a transport
    #: keeps it.
    transport: str = TRANSPORT_WWI
    #: same-instant schedule policy spec: ``None`` (kernel FIFO),
    #: ``("fifo", 0)``, or ``("random", seed)``
    schedule: Optional[Tuple[str, int]] = None
    #: attach a :mod:`repro.obs` telemetry session to the run
    telemetry: bool = False
    #: write per-run telemetry JSONL artifacts into this directory
    telemetry_dir: Optional[str] = None
    #: record the full causal DAG (kernel capture; enables critical-path
    #: attribution via :mod:`repro.obs.causal`).  Simulated results are
    #: unchanged; every calendar placement is wrapped, so the run takes the
    #: drains' generic dispatch branch (C accelerator included).
    causal_capture: bool = False
    #: >0 keeps a bounded flight ring of that many fired events, dumped as
    #: JSON when a QP/connection fails (cheap always-on blackbox mode);
    #: implied by ``causal_capture`` (which retains everything)
    flight_recorder: int = 0
    #: hard cap on simulation events (``None`` = caller's default)
    max_events: Optional[int] = None
    #: >0 makes every host's receive-pool connections share one SRQ-backed
    #: buffer pool of that many slots (RNR-NAK on exhaustion) instead of
    #: posting ``credits`` buffers per connection; ``None`` keeps the
    #: historical per-QP receive queues
    srq_depth: Optional[int] = None
    #: >0 shards completion handling: connections share ``cq_shards``
    #: completion queues per host and one poller drains each shard, so
    #: devices poll O(shards), not O(connections); 0 gives every
    #: connection a private poller around its own completion queue
    cq_shards: int = 0
    #: event-kernel selection: ``None`` (the ``REPRO_KERNEL`` environment
    #: variable, defaulting to the timing wheel), ``"wheel"`` or ``"heap"``
    #: (the flat-heap calendar schedule policies run on).
    kernel: Optional[str] = None

    def __post_init__(self) -> None:
        if isinstance(self.profile, str) and self.profile not in PROFILES:
            raise ValueError(
                f"unknown profile {self.profile!r} (known: {', '.join(sorted(PROFILES))})"
            )
        if self.transport not in TRANSPORTS:
            raise ValueError(f"unknown transport {self.transport!r}")
        if isinstance(self.faults, dict):
            if self.topology is None:
                raise ValueError(
                    "per-edge faults ({edge_name: FaultProfile}) require a topology"
                )
            for name in self.faults:
                self.topology.resolve_edge(name)  # raises on unknown edges
        if self.srq_depth is not None and self.srq_depth <= 0:
            raise ValueError("srq_depth must be positive (or None)")
        if self.cq_shards < 0:
            raise ValueError("cq_shards must be >= 0")
        if self.kernel not in (None, *KERNELS):
            raise ValueError(
                f"unknown kernel {self.kernel!r} (expected one of {', '.join(KERNELS)})"
            )
        if self.schedule is not None:
            # normalize to a plain (kind, seed) tuple and validate eagerly
            if isinstance(self.schedule, SchedulePolicy):
                spec = self.schedule.spec()
            else:
                spec = (str(self.schedule[0]), int(self.schedule[1]))
                policy_from_spec(spec)
            object.__setattr__(self, "schedule", spec)

    # ------------------------------------------------------------------
    # resolution
    # ------------------------------------------------------------------
    def resolve_profile(self) -> HardwareProfile:
        return PROFILES[self.profile] if isinstance(self.profile, str) else self.profile

    def schedule_policy(self) -> Optional[SchedulePolicy]:
        return policy_from_spec(self.schedule)

    def with_(self, **changes) -> "ScenarioConfig":
        """A copy with *changes* applied (``dataclasses.replace`` spelling)."""
        return dataclasses.replace(self, **changes)

    def resolved(self) -> "ScenarioConfig":
        """This scenario with every default the environment or the wire
        decides filled in: the one place ``REPRO_KERNEL`` is consulted.

        * ``kernel`` — the scenario's, else ``REPRO_KERNEL``, else
          ``"wheel"``; a *defaulted* wheel under a schedule policy becomes
          ``"heap"``, the calendar policies run on (an explicit ``"wheel"``
          is kept, and refused by the simulator).
        * ``reliability`` — a lossy wire without a config gets one scaled
          to the worst host-to-host path (an impaired wire without
          retransmission loses data by design); an explicit config is kept
          as it is.

        Pure apart from that read, and idempotent: the result resolves to
        itself under any environment, which is what makes
        ``fabric.scenario`` an environment-free replay recipe.
        """
        kernel = self.kernel
        if kernel is None:
            kernel = env_kernel() or "wheel"
            if kernel not in KERNELS:
                raise ValueError(f"unknown REPRO_KERNEL {kernel!r} "
                                 f"(expected one of {', '.join(KERNELS)})")
            if kernel == "wheel" and self.schedule is not None:
                kernel = "heap"
        reliability = self.reliability
        if reliability is None and self.faults:
            reliability = self.path_reliability()
        return dataclasses.replace(self, kernel=kernel, reliability=reliability)

    def path_reliability(self, mode: str = MODE_GO_BACK_N) -> ReliabilityConfig:
        """A reliability config with timers scaled to this scenario's
        worst host-to-host path."""
        return ReliabilityConfig.for_path(self._worst_path_one_way_ns(), mode=mode)

    def _worst_path_one_way_ns(self) -> int:
        """Largest host-to-host one-way latency estimate (for reliability
        timer scaling): per-link propagation + emulator delay, plus the
        switch forwarding latency of every intermediate hop."""
        profile = self.resolve_profile()
        per_edge = profile.propagation_delay_ns + profile.emulator_delay_ns
        worst = per_edge
        topology = self.topology or Topology.point_to_point()
        hosts = topology.hosts
        for i, a in enumerate(hosts):
            for b in hosts[i + 1:]:
                path = topology.path(a, b)
                n_edges = len(path) - 1
                n_switches = max(0, len(path) - 2)
                est = n_edges * per_edge + n_switches * topology.switch.forward_ns
                if est > worst:
                    worst = est
        return worst

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-ready dict; inverse of :meth:`from_dict`."""
        profile = self.profile
        if isinstance(profile, HardwareProfile):
            if PROFILES.get(profile.name) is not profile:
                raise ValueError(
                    f"profile {profile.name!r} is not registered in PROFILES; "
                    "serializable scenarios must name a registered profile"
                )
            profile = profile.name
        if isinstance(self.faults, dict):
            faults = {"per_edge": {
                name: _fault_dict(fp) for name, fp in self.faults.items()
            }}
        else:
            faults = _fault_dict(self.faults) if self.faults else None
        return {
            "profile": profile,
            "seed": self.seed,
            "topology": self.topology.to_dict() if self.topology else None,
            "faults": faults,
            "reliability": dataclasses.asdict(self.reliability) if self.reliability else None,
            "transport": self.transport,
            "schedule": list(self.schedule) if self.schedule else None,
            "telemetry": self.telemetry,
            "telemetry_dir": self.telemetry_dir,
            "causal_capture": self.causal_capture,
            "flight_recorder": self.flight_recorder,
            "max_events": self.max_events,
            "srq_depth": self.srq_depth,
            "cq_shards": self.cq_shards,
            "kernel": self.kernel,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        unknown = sorted(set(data) - {f.name for f in dataclasses.fields(cls)})
        if unknown:
            # a typo in a replay JSON must not silently run the default
            raise ValueError(f"unknown scenario keys: {', '.join(unknown)}")
        faults = data.get("faults")
        if faults and "per_edge" in faults:
            faults = {name: FaultProfile(**fp) for name, fp in faults["per_edge"].items()}
        elif faults:
            faults = FaultProfile(**faults)
        else:
            faults = None
        topology = data.get("topology")
        reliability = data.get("reliability")
        schedule = data.get("schedule")
        return cls(
            profile=data.get("profile", "fdr"),
            seed=int(data.get("seed", 0)),
            topology=Topology.from_dict(topology) if topology else None,
            faults=faults,
            reliability=ReliabilityConfig(**reliability) if reliability else None,
            transport=data.get("transport", TRANSPORT_WWI),
            schedule=tuple(schedule) if schedule else None,
            telemetry=bool(data.get("telemetry", False)),
            telemetry_dir=data.get("telemetry_dir"),
            causal_capture=bool(data.get("causal_capture", False)),
            flight_recorder=int(data.get("flight_recorder", 0)),
            max_events=data.get("max_events"),
            srq_depth=data.get("srq_depth"),
            cq_shards=int(data.get("cq_shards", 0)),
            kernel=data.get("kernel"),
        )
