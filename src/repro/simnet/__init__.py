"""Discrete-event simulation kernel and network substrate.

This subpackage is self-contained (no dependency on the RDMA layers above
it) and provides:

* :class:`~repro.simnet.kernel.Simulator` — the event calendar / clock.
* :class:`~repro.simnet.events.Event`, :class:`~repro.simnet.events.Timeout`
  — synchronisation primitives.
* :class:`~repro.simnet.process.Process` — generator-based processes.
* :class:`~repro.simnet.resources.Store` — a FIFO mailbox with blocking ``get``.
* :class:`~repro.simnet.link.Link` — serialized full-duplex link model.
* :class:`~repro.simnet.fabric.Topology` / :class:`~repro.simnet.fabric.Switch`
  — switched multi-host fabrics (store-and-forward, output-queued).
* :class:`~repro.simnet.emulator.DelayEmulator` — Anue-style WAN delay/jitter.
* :class:`~repro.simnet.faults.ImpairmentModel` — seeded lossy-wire faults.
* :class:`~repro.simnet.schedule.SchedulePolicy` — same-instant tie-break
  policies (FIFO / seeded-random) for the conformance fuzzer.
"""

from .causality import FLIGHT_SCHEMA, CausalNode, CausalRecorder, enable_capture
from .emulator import DelayEmulator, gaussian_jitter, uniform_jitter
from .events import Event, Timeout
from .fabric import FabricFrame, NicPort, Switch, SwitchConfig, SwitchPort, Topology
from .faults import (
    DUP_AND_CORRUPT,
    HEAVY_LOSS,
    LIGHT_LOSS,
    Corrupted,
    Fate,
    FaultProfile,
    FaultStats,
    ImpairmentModel,
)
from .kernel import SimulationError, Simulator
from .link import Link, LinkDirection, LinkStats
from .process import Process
from .resources import Store
from .schedule import FifoPolicy, RandomTiebreakPolicy, SchedulePolicy, policy_from_spec

__all__ = [
    "CausalNode",
    "CausalRecorder",
    "Corrupted",
    "DUP_AND_CORRUPT",
    "DelayEmulator",
    "Event",
    "FLIGHT_SCHEMA",
    "FabricFrame",
    "Fate",
    "FaultProfile",
    "FaultStats",
    "FifoPolicy",
    "HEAVY_LOSS",
    "ImpairmentModel",
    "LIGHT_LOSS",
    "Link",
    "LinkDirection",
    "LinkStats",
    "NicPort",
    "Process",
    "RandomTiebreakPolicy",
    "SchedulePolicy",
    "SimulationError",
    "Simulator",
    "Store",
    "Switch",
    "SwitchConfig",
    "SwitchPort",
    "Timeout",
    "Topology",
    "enable_capture",
    "gaussian_jitter",
    "policy_from_spec",
    "uniform_jitter",
]
