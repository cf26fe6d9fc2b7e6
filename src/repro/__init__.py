"""repro — reproduction of "An Efficient Method for Stream Semantics over RDMA".

MacArthur & Russell, IEEE IPDPS 2014: the UNH EXS dynamic direct/indirect
stream-transfer protocol, rebuilt end to end as a deterministic
discrete-event simulation:

* :mod:`repro.simnet` — event kernel, links, delay emulator
* :mod:`repro.hosts` — CPU/memcpy cost models, simulated memory
* :mod:`repro.verbs` — software RDMA verbs (QPs, CQs, MRs, WWI, RC acks)
* :mod:`repro.core` — the paper's algorithm (Figs. 2-5) as pure logic
* :mod:`repro.exs` — the UNH EXS library (ES-API sockets) over verbs
* :mod:`repro.apps` — the blast tool, workloads, metrics
* :mod:`repro.bench` — hardware profiles and per-figure experiment runners
* :mod:`repro.analysis` — analytic throughput bounds
* :mod:`repro.obs` — unified telemetry (metrics, sampler, spans, reports)
* :mod:`repro.check` — correctness tooling (model checker, schedule
  fuzzer, trace auditor; ``python -m repro.check``)

Quick start::

    from repro import Testbed, BlastConfig, run_blast, ProtocolMode

    cfg = BlastConfig(total_messages=500, outstanding_sends=4,
                      outstanding_recvs=8, mode=ProtocolMode.DYNAMIC)
    result = run_blast(cfg)
    print(result.throughput_gbps, result.direct_ratio)
"""

from .apps import (
    BlastConfig,
    BlastResult,
    ExponentialSizes,
    FixedSizes,
    run_blast,
)
from .bench.profiles import (
    FDR_INFINIBAND,
    PROFILES,
    QDR_INFINIBAND,
    ROCE_10G_LAN,
    ROCE_10G_WAN,
    HardwareProfile,
)
from .config import ScenarioConfig
from .core import ProtocolMode, ProtocolStats, SafetyViolation
from .exs import (
    BlockingSocket,
    ExsEventType,
    ExsSocketOptions,
    ExsStack,
    MsgFlags,
    SocketType,
)
from .fabric import Fabric, FabricConnection
from .simnet import SwitchConfig, Topology
from .testbed import Testbed
from .trace import EventIndex, ProtocolTracer, render_timeline

__version__ = "1.0.0"

__all__ = [
    "BlastConfig",
    "BlastResult",
    "BlockingSocket",
    "EventIndex",
    "ExponentialSizes",
    "ExsEventType",
    "ExsSocketOptions",
    "ExsStack",
    "FDR_INFINIBAND",
    "Fabric",
    "FabricConnection",
    "FixedSizes",
    "HardwareProfile",
    "MsgFlags",
    "PROFILES",
    "ProtocolMode",
    "ProtocolStats",
    "QDR_INFINIBAND",
    "ROCE_10G_LAN",
    "ROCE_10G_WAN",
    "ProtocolTracer",
    "SafetyViolation",
    "ScenarioConfig",
    "SocketType",
    "SwitchConfig",
    "Testbed",
    "Topology",
    "render_timeline",
    "__version__",
    "run_blast",
]
