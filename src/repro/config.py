"""Unified, serializable scenario configuration.

Everything that shapes *how a run is executed* — as opposed to what the
application sends — historically lived in scattered knobs: ``Testbed(...)``
keyword arguments, ``run_blast(telemetry=)``, ``run_grid(telemetry_dir=)``,
and the ``REPRO_TELEMETRY_DIR`` environment variable.
:class:`ScenarioConfig` gathers them into one frozen, picklable,
JSON-round-trippable object:

* **profile** — which :class:`~repro.bench.profiles.HardwareProfile`
  (by name, so scenarios serialize)
* **topology** — optional :class:`~repro.simnet.fabric.Topology` for
  multi-host fabrics (``None`` = the classic two-host wire)
* **seed** — the testbed seed (wake-up latencies, fault streams, ...)
* **faults** — optional :class:`~repro.simnet.faults.FaultProfile`, or a
  per-edge ``{edge_name: FaultProfile}`` mapping on a topology
* **reliability** — optional :class:`~repro.verbs.reliability.ReliabilityConfig`
* **schedule** — optional same-instant tie-break policy spec
  (``("fifo", 0)`` or ``("random", seed)``; see :mod:`repro.simnet.schedule`)
* **telemetry** / **telemetry_dir** — :mod:`repro.obs` session and artifact
  placement
* **max_events** — runaway-simulation guard

Because a scenario serializes, every :mod:`repro.check` counterexample is a
scenario: the fuzzer writes the exact ``ScenarioConfig`` that produced a
violation, and ``python -m repro.check replay`` re-runs it bit for bit.

The pre-existing spellings keep working as thin deprecation shims that
assemble a ``ScenarioConfig`` internally and emit a ``DeprecationWarning``
(see docs/API.md for the migration table).
"""

from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

from .bench.profiles import PROFILES, HardwareProfile
from .simnet.fabric import Topology
from .simnet.faults import FaultProfile
from .simnet.schedule import SchedulePolicy, policy_from_spec
from .verbs.reliability import ReliabilityConfig

__all__ = ["ScenarioConfig", "deprecated_signature"]


def deprecated_signature(what: str, instead: str) -> None:
    """Emit the standard shim warning pointing at :class:`ScenarioConfig`."""
    warnings.warn(
        f"{what} is deprecated; {instead} (see docs/API.md)",
        DeprecationWarning,
        stacklevel=3,
    )


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
    #: edge names raise eagerly
    faults: Optional[Union[FaultProfile, Dict[str, FaultProfile]]] = None
    reliability: Optional[ReliabilityConfig] = None
    #: EXS data-plane transport forced on the run's sockets: ``"wwi"``,
    #: ``"eager_rendezvous"``, or ``None`` (socket options / environment
    #: decide; see :meth:`repro.exs.ExsSocketOptions.effective_transport`)
    transport: Optional[str] = None
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
    #: completion queues per host and one poller process drains each shard,
    #: so devices poll O(shards), not O(connections); 0 keeps the
    #: historical per-connection engine loop (bit-identical)
    cq_shards: int = 0
    #: event-kernel selection: ``None`` (the ``REPRO_KERNEL`` environment
    #: variable, defaulting to the monolithic timing wheel), ``"wheel"``,
    #: ``"heap"``, ``"cells"`` (per-host calendars executed in conservative
    #: lookahead windows; see :mod:`repro.simnet.cells`),
    #: or ``"cells-lockstep"`` (the cells calendar in strict global order —
    #: the bit-identical reference the determinism suite compares against).
    #: Cells kernels need a switched topology and fall back to the
    #: monolithic wheel otherwise (see docs/SIMULATION.md for the matrix).
    kernel: Optional[str] = None

    def __post_init__(self) -> None:
        if isinstance(self.profile, str) and self.profile not in PROFILES:
            raise ValueError(
                f"unknown profile {self.profile!r} (known: {', '.join(sorted(PROFILES))})"
            )
        if self.transport not in (None, "wwi", "eager_rendezvous"):
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
        if self.kernel not in (None, "wheel", "heap", "cells", "cells-lockstep"):
            raise ValueError(
                f"unknown kernel {self.kernel!r} (expected 'wheel', 'heap', "
                "'cells', or 'cells-lockstep')"
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

    def build_testbed(self, *, jitter=None, trace=None):
        """Assemble the two-node :class:`~repro.testbed.Testbed` this
        scenario describes.  ``jitter``/``trace`` are callables (therefore
        not part of the serializable scenario) and compose on top.
        """
        from .testbed import Testbed

        return Testbed.from_scenario(self, jitter=jitter, trace=trace)

    def build_fabric(self, *, jitter=None, trace=None):
        """Assemble the N-host :class:`~repro.fabric.Fabric` this scenario
        describes (its :attr:`topology`, or the two-host wire when unset).
        """
        from .fabric import Fabric

        return Fabric.from_scenario(self, jitter=jitter, trace=trace)

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
                name: dataclasses.asdict(fp) for name, fp in self.faults.items()
            }}
        else:
            faults = dataclasses.asdict(self.faults) if self.faults else None
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
            transport=data.get("transport"),
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
