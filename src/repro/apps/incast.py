"""Incast (fan-in) scenario: M senders blast one receiver through a switch.

The canonical stress test of the multi-host fabric: every sender host has
its own access link, but all of their traffic converges on the single
link from the switch to the sink host, so the switch's sink-facing output
queue is the bottleneck.  Under the default ``backpressure`` policy the
fabric is lossless (queue-full frames wait at the switch); under ``drop``
the queue tail-drops and the senders' RC reliability layer must recover,
so a reliability config is derived automatically in that mode.

Also the scale vehicle: ``connections_per_sender`` > 1 multiplies the
socket count without adding hosts, which is how the 256- and 1024-
connection benchmarks drive the SRQ pool and CQ sharding
(``ScenarioConfig(srq_depth=..., cq_shards=...)``).

Run it from the command line::

    python -m repro.apps.incast --senders 16 --bytes 262144 --audit
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..config import KERNELS, ScenarioConfig
from ..exs import ExsEventType, ExsSocketOptions, MsgFlags
from ..fabric import Fabric
from ..simnet import SwitchConfig, Topology
from ..trace import ProtocolTracer

__all__ = ["IncastConfig", "IncastResult", "incast_topology", "run_incast", "main"]


@dataclass(frozen=True)
class IncastConfig:
    """Shape of one incast run."""

    #: number of sender hosts (each on its own switch port)
    senders: int = 16
    #: bytes each connection streams to the sink
    bytes_per_sender: int = 256 * 1024
    #: application send/recv granularity
    message_bytes: int = 64 * 1024
    #: EXS socket pairs per sender host (scale knob: total connections =
    #: ``senders * connections_per_sender``)
    connections_per_sender: int = 1
    #: name of the receiving host
    sink: str = "sink"
    #: queue-full policy of the switch: "backpressure" (lossless) or "drop"
    policy: str = "backpressure"
    #: bounded depth of each switch output queue
    port_queue_bytes: int = 256 * 1024
    #: socket options for every connection (None = defaults); the user
    #: send and receive buffers follow its ``real_data``, so a synthetic
    #: run materialises, pins and copies no payload bytes
    options: Optional[ExsSocketOptions] = None

    def __post_init__(self) -> None:
        if self.senders < 1:
            raise ValueError("need at least one sender")
        if self.bytes_per_sender <= 0 or self.message_bytes <= 0:
            raise ValueError("bytes_per_sender and message_bytes must be positive")
        if self.connections_per_sender < 1:
            raise ValueError("connections_per_sender must be >= 1")

    @property
    def total_connections(self) -> int:
        return self.senders * self.connections_per_sender

    @property
    def sender_names(self) -> Tuple[str, ...]:
        return tuple(f"s{i}" for i in range(self.senders))


@dataclass
class IncastResult:
    """Outcome and fabric-level accounting of one incast run."""

    senders: int
    connections: int
    total_bytes: int
    #: simulated time of the last byte delivered at the sink
    end_ns: int
    #: aggregate goodput at the sink over [0, end_ns]
    throughput_gbps: float
    #: per-connection delivery completion times (ns, connection order)
    finish_ns: Tuple[int, ...]
    #: per-port forwarded/dropped byte counts at the hub switch
    switch_forwarded_bytes: int
    switch_dropped_bytes: int
    switch_drops: int
    switch_backpressured: int
    #: peak occupancy of the sink-facing output queue
    sink_port_peak_queue_bytes: int
    #: SRQ pool low-water mark at the sink (None when not pooled)
    srq_min_free: Optional[int]
    #: trace-audit and span-audit violations (0 when auditing was off or
    #: clean)
    audit_violations: int = 0

    def to_dict(self) -> dict:
        return {
            "senders": self.senders,
            "connections": self.connections,
            "total_bytes": self.total_bytes,
            "end_ns": self.end_ns,
            "throughput_gbps": round(self.throughput_gbps, 4),
            "switch_forwarded_bytes": self.switch_forwarded_bytes,
            "switch_dropped_bytes": self.switch_dropped_bytes,
            "switch_drops": self.switch_drops,
            "switch_backpressured": self.switch_backpressured,
            "sink_port_peak_queue_bytes": self.sink_port_peak_queue_bytes,
            "srq_min_free": self.srq_min_free,
            "audit_violations": self.audit_violations,
        }


def incast_topology(config: IncastConfig) -> Topology:
    """The star topology an :class:`IncastConfig` implies."""
    return Topology.star(
        config.sender_names + (config.sink,),
        switch=SwitchConfig(
            policy=config.policy, port_queue_bytes=config.port_queue_bytes
        ),
    )


def _sender_proc(handle, config: IncastConfig):
    yield handle.established
    stack = handle.fabric.stack(handle.a)
    sock, eq = handle.a_socket, handle.a_eq
    buf = stack.alloc(config.message_bytes, real=sock.options.real_data,
                      label=f"incast:{handle.a}:snd")
    mr = yield from stack.mregister(buf)
    remaining = config.bytes_per_sender
    while remaining > 0:
        n = min(config.message_bytes, remaining)
        sock.send(buf, mr, n, eq)
        ev = yield eq.dequeue()
        ev.expect(ExsEventType.SEND)
        remaining -= n


def _receiver_proc(handle, config: IncastConfig, finish: Dict[int, int], index: int):
    yield handle.established
    stack = handle.fabric.stack(handle.b)
    sock, eq = handle.b_socket, handle.b_eq
    buf = stack.alloc(config.message_bytes, real=sock.options.real_data,
                      label=f"incast:{handle.a}:rcv")
    mr = yield from stack.mregister(buf)
    remaining = config.bytes_per_sender
    while remaining > 0:
        n = min(config.message_bytes, remaining)
        sock.recv(buf, mr, n, eq, flags=MsgFlags.MSG_WAITALL)
        ev = yield eq.dequeue()
        ev.expect(ExsEventType.RECV)
        remaining -= ev.nbytes
    finish[index] = stack.sim.now


def run_incast(
    config: IncastConfig,
    scenario: Optional[ScenarioConfig] = None,
    *,
    testbed: Optional[Fabric] = None,
    max_events: Optional[int] = None,
    audit: bool = False,
) -> IncastResult:
    """Run one incast and return its :class:`IncastResult`.

    *scenario* carries seed/profile/SRQ/CQ-shard/kernel settings; its
    topology must be unset (the incast shape is derived from *config*).
    *testbed* is a :class:`~repro.fabric.Fabric` the caller already built
    on :func:`incast_topology`.  With *audit* the run records a protocol
    trace and re-verifies the stream invariants and the message spans over
    it (:func:`repro.check.audit.audit_events` and
    :func:`~repro.check.audit.audit_spans`).  A fabric the run builds
    itself is closed before it returns (:meth:`~repro.fabric.Fabric.close`).
    """
    if testbed is not None:
        return _incast(config, testbed, max_events, audit)
    scenario = scenario or ScenarioConfig()
    if scenario.topology is not None:
        raise ValueError("run_incast derives its topology from IncastConfig")
    if config.policy == "drop" and scenario.reliability is None:
        # tail-dropping switch: data loss is expected, so the run needs
        # the RC recovery machinery (as a lossy wire would)
        from ..verbs import ReliabilityConfig

        profile = scenario.resolve_profile()
        scenario = scenario.with_(reliability=ReliabilityConfig.for_path(
            2 * (profile.propagation_delay_ns + profile.emulator_delay_ns)
        ))
    with Fabric.from_scenario(scenario.with_(topology=incast_topology(config))) as fabric:
        return _incast(config, fabric, max_events, audit)


def _incast(config: IncastConfig, fabric: Fabric, max_events: Optional[int],
            audit: bool) -> IncastResult:
    tracer = ProtocolTracer.attach(fabric) if audit else None

    options = config.options or ExsSocketOptions()
    # every receiver records its finish time, or the run raises
    finish: Dict[int, int] = {}
    sources = [name for name in config.sender_names for _ in range(config.connections_per_sender)]
    for index, name in enumerate(sources):
        handle = fabric.connect(name, config.sink, options=options)
        fabric.sim.process(_sender_proc(handle, config), name=f"incast-snd-{index}")
        fabric.sim.process(_receiver_proc(handle, config, finish, index),
                           name=f"incast-rcv-{index}")
    fabric.run(max_events=max_events)

    switch = fabric.switches[next(iter(fabric.topology.switches))]
    forwarded = sum(p.forwarded_bytes for p in switch.ports.values())
    dropped = sum(p.dropped_bytes for p in switch.ports.values())
    drops = sum(p.drops for p in switch.ports.values())
    backpressured = sum(p.backpressured for p in switch.ports.values())
    sink_port = switch.ports[config.sink]

    violations = 0
    if tracer is not None:
        from ..check.audit import audit_events, audit_spans

        violations = (len(audit_events(tracer.events).violations)
                      + len(audit_spans(tracer.events)))

    total = config.bytes_per_sender * len(sources)
    end_ns = max(finish.values())
    sink_pool = fabric.stack(config.sink).srq_pool
    return IncastResult(
        senders=config.senders,
        connections=len(sources),
        total_bytes=total,
        end_ns=end_ns,
        throughput_gbps=(total * 8 / end_ns) if end_ns else 0.0,
        finish_ns=tuple(finish[i] for i in range(len(sources))),
        switch_forwarded_bytes=forwarded,
        switch_dropped_bytes=dropped,
        switch_drops=drops,
        switch_backpressured=backpressured,
        sink_port_peak_queue_bytes=sink_port.peak_queue_bytes,
        srq_min_free=sink_pool.min_free if sink_pool is not None else None,
        audit_violations=violations,
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.apps.incast",
        description="M-sender fan-in through one switch uplink",
    )
    parser.add_argument("--senders", type=int, default=16)
    parser.add_argument("--bytes", type=int, default=256 * 1024,
                        help="bytes per connection (default 256 KiB)")
    parser.add_argument("--message-bytes", type=int, default=64 * 1024)
    parser.add_argument("--connections-per-sender", type=int, default=1)
    parser.add_argument("--policy", choices=("backpressure", "drop"),
                        default="backpressure")
    parser.add_argument("--port-queue-bytes", type=int, default=256 * 1024)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--srq-depth", type=int, default=None)
    parser.add_argument("--cq-shards", type=int, default=0)
    parser.add_argument("--audit", action="store_true",
                        help="record a protocol trace and re-verify invariants")
    parser.add_argument("--kernel", default=None, choices=KERNELS,
                        help="event kernel (default: REPRO_KERNEL env, else wheel)")
    args = parser.parse_args(argv)

    config = IncastConfig(
        senders=args.senders,
        bytes_per_sender=args.bytes,
        message_bytes=args.message_bytes,
        connections_per_sender=args.connections_per_sender,
        policy=args.policy,
        port_queue_bytes=args.port_queue_bytes,
    )
    scenario = ScenarioConfig(
        seed=args.seed, srq_depth=args.srq_depth, cq_shards=args.cq_shards,
        kernel=args.kernel,
    )
    result = run_incast(config, scenario, audit=args.audit)
    print(json.dumps(result.to_dict(), indent=2))
    if result.audit_violations:
        print(f"AUDIT FAILED: {result.audit_violations} violations", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main())
