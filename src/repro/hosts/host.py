"""Host machine model: CPU + memory + attachment point for an RDMA device.

A :class:`Host` bundles the per-node hardware characteristics used by the
simulation:

* a :class:`~repro.hosts.cpu.Cpu` for the EXS library thread (``cpu``) and
  a second core for the application thread (``app_cpu``) — the testbed
  nodes are multi-core Xeons, so library and application work proceed in
  parallel; the paper's receiver "CPU usage" corresponds to the library
  core,
* a :class:`~repro.hosts.memory.MemoryArena` for buffers,
* a memory-copy bandwidth (the single most important constant in the model:
  it sets the indirect-mode throughput ceiling, paper §IV-B1), and
* the HCA attached by :class:`repro.verbs.device.RdmaDevice`.
"""

from __future__ import annotations

from typing import Optional

from ..simnet import Simulator
from .cpu import Cpu, CpuCostModel
from .memory import Buffer, MemoryArena

__all__ = ["Host"]


class Host:
    """A simulated machine.

    Parameters
    ----------
    sim:
        The simulator this host lives in.
    name:
        Human-readable identifier used in traces and errors.
    copy_bandwidth_bps:
        Sustained single-thread memcpy bandwidth in **bits** per second.
        The paper's nodes copied at roughly 3 GB/s, which is what caps the
        indirect protocol at 20–27 Gb/s on FDR InfiniBand.
    cpu_costs:
        Per-operation software-path costs; see :class:`CpuCostModel`.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        *,
        copy_bandwidth_bps: float = 3.0e9 * 8,
        cpu_costs: Optional[CpuCostModel] = None,
    ) -> None:
        if copy_bandwidth_bps <= 0:
            raise ValueError("copy bandwidth must be positive")
        self.sim = sim
        self.name = name
        self.copy_bandwidth_bps = float(copy_bandwidth_bps)
        #: the EXS library/progress-thread core
        self.cpu = Cpu(sim, cpu_costs)
        #: the application-thread core (same cost model)
        self.app_cpu = Cpu(sim, cpu_costs)
        self.memory = MemoryArena()
        #: set by RdmaDevice when attached
        self.device = None  # type: ignore[assignment]
        #: the protocol event sink (:class:`~repro.trace.ProtocolTracer`),
        #: set by ``ProtocolTracer.attach`` or telemetry
        self.tracer = None
        #: the :class:`~repro.obs.telemetry.Telemetry` observing this host
        self.telemetry = None
        #: completion-channel wake-up latency sampler, set by the fabric
        #: (``None``: wake-ups are immediate)
        self.wakeup_sampler = None

    # ------------------------------------------------------------------
    def alloc(self, nbytes: int, *, real: bool = True, label: str = "") -> Buffer:
        """Allocate a buffer in this host's memory."""
        return self.memory.alloc(nbytes, real=real, label=label or f"{self.name}:buf")

    def copy_ns(self, nbytes: int) -> int:
        """Duration of a library memcpy of *nbytes* on this host."""
        return self.cpu.costs.copy_ns(nbytes, self.copy_bandwidth_bps)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Host {self.name!r}>"
