"""Two-node testbed assembly.

:class:`Testbed` wires together everything below the application: the
simulator, two hosts (client / server), the link (optionally through a
delay emulator), the RDMA devices, and an EXS stack on each host.  It is
the starting point of every example, test, and benchmark::

    tb = Testbed.from_scenario(ScenarioConfig(seed=1))
    tb.sim.process(server_app(tb.server), name="server")
    tb.sim.process(client_app(tb.client), name="client")
    tb.run()

Since the fabric API redesign, ``Testbed`` is the trivial two-host case of
:class:`repro.fabric.Fabric` — a :meth:`~repro.simnet.fabric.Topology.point_to_point`
topology with hosts named ``client`` and ``server`` — kept as the
convenient front door for point-to-point experiments.  Its assembly takes
exactly the same code path the standalone implementation did (one link,
cross-wired peer devices, no switch), so event sequences are bit-identical
to historical builds.
"""

from __future__ import annotations

from typing import Callable, Optional

from .config import ScenarioConfig
from .exs import ExsStack
from .fabric import Fabric
from .verbs import RdmaDevice

__all__ = ["Testbed"]


class Testbed(Fabric):
    """A client host and a server host joined by one RDMA-capable link."""

    def __init__(
        self,
        scenario: Optional[ScenarioConfig] = None,
        *,
        jitter: Optional[Callable] = None,
    ) -> None:
        """*scenario* describes the run (default: ``ScenarioConfig()``):
        profile, seed, faults, reliability, schedule policy, kernel.  A
        lossy wire (``scenario.faults``) without a reliability config gets
        one scaled to the path's one-way latency — an impaired wire without
        retransmission machinery loses data by design.  For topologies
        beyond the two-host wire, use :class:`repro.fabric.Fabric`.
        """
        topology = scenario.topology if scenario is not None else None
        if topology is not None and not topology.direct:
            raise ValueError(
                "Testbed is the two-host wire; build multi-host "
                "topologies with repro.fabric.Fabric"
            )
        super().__init__(scenario, jitter=jitter)

    # -- two-host accessors --------------------------------------------
    # client/server are conveniences over the Fabric spelling
    # (host("client"), stack("client"), device("client")).
    @property
    def client(self) -> ExsStack:
        """The EXS stack on the client host."""
        return self.stack("client")

    @property
    def server(self) -> ExsStack:
        """The EXS stack on the server host."""
        return self.stack("server")

    @property
    def client_device(self) -> RdmaDevice:
        return self.device("client")

    @property
    def server_device(self) -> RdmaDevice:
        return self.device("server")
