"""The four benchmark workloads, built from a seed, run through the public
entry points only (``run_blast`` / ``run_echo`` / ``run_incast``).

Every workload is closed loop (the app processes post the next message only
on a completion), single process, single thread, and pins neither
``kernel=`` nor ``transport=``: whatever a default ``ScenarioConfig``
resolves to is what is measured.  Why each one exists is recorded in
``WORKLOADS[name].why`` and in perf/README.md.

A workload runs at three sizes, all the same scenario and connection count:
*full* (the simulated metrics and the traced run; enough messages for a
tail percentile), *timed* (the repetition whose host time is measured; as
short as the scenario allows, so that every one is bracketed closely by the
reference computation and hundreds fit one run) and *bring-up* (one message
per connection; its host time is ``setup_s``).  The timed repetitions cycle
through ``variants`` seeds derived from ``--seed``, so that the host metric
is taken over that many draws of the scenario's random inputs rather than
over one.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro import (
    PROFILES,
    BlastConfig,
    ExponentialSizes,
    ExsSocketOptions,
    Fabric,
    FixedSizes,
    ProtocolMode,
    ScenarioConfig,
    Testbed,
    run_blast,
)
from repro.apps import EchoConfig, IncastConfig, run_echo, run_incast
from repro.simnet import HEAVY_LOSS
from repro.verbs import ReliabilityConfig

KIB = 1024

#: called with the run's Fabric/Testbed before the simulation starts
Observer = Callable[[Fabric], None]


@dataclass
class Outcome:
    """What one run of a workload produced, all of it simulated (exact)."""

    #: application messages moved end to end
    messages: int
    payload_bytes: int
    end_ns: int
    goodput_gbps: float
    #: simulated latency samples (what they are is the workload's
    #: ``latency_of``)
    latencies_ns: List[int]
    #: result-level simulated counters; identical with or without observers
    result: Dict[str, object]
    #: counters of the fabric the workload built itself (empty when the
    #: entry point hides its fabric); telemetry perturbs ``events_executed``
    handle: Dict[str, object]
    #: the run's fabric when reachable (own build, or tapped by an observer)
    fabric: Optional[Fabric] = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: what one latency sample is
    latency_of: str
    #: host whose library core is "the receiver" in hosts.receiver_cpu_busy
    receiver: str
    #: messages of the full, the timed and the bring-up run
    full: int
    timed: int
    bringup: int
    #: seeds the timed repetitions cycle through (the first is ``--seed``)
    variants: int
    run: Callable[..., Outcome]

    def __call__(self, seed: int, messages: int, *,
                 observe: Optional[Observer] = None,
                 max_events: Optional[int] = None) -> Outcome:
        return self.run(seed, messages, observe, max_events)

    def timed_seeds(self, seed: int) -> List[int]:
        return [seed] + [seed * 1000 + k for k in range(1, self.variants)]


def fabric_counters(fabric: Fabric) -> Dict[str, object]:
    """Simulated counters read from a fabric's public objects after a run."""
    stats = fabric.sim.calendar_stats()
    out: Dict[str, object] = {
        "now_ns": fabric.now,
        "events_executed": fabric.sim.events_executed,
        "max_batch": stats["max_batch"],
        "overflow_inserts": stats["overflow_inserts"],
    }
    for name, link in fabric.links.items():
        for d in link.directions:
            s = d.stats
            out[f"link.{name}.{d.index}"] = (s.messages, s.wire_bytes, s.busy_ns)
    for name, model in fabric.impairments.items():
        out[f"faults.{name}"] = (
            model.dropped_total, model.duplicated_total, model.corrupted_total,
            model.acks_dropped_total,
        )
    for sname, switch in fabric.switches.items():
        for pname, port in switch.ports.items():
            out[f"port.{sname}.{pname}"] = (
                port.forwarded, port.forwarded_bytes, port.drops,
                port.backpressured, port.peak_queue_bytes,
            )
    for host in fabric.host_names:
        engine = fabric.device(host).reliability
        if engine is not None:
            out[f"rel.{host}"] = tuple(sorted(vars(engine.stats).items()))
    return out


def _protocol_stats(stats) -> Dict[str, int]:
    return {k: v for k, v in vars(stats).items() if isinstance(v, int)}


def _blast(scenario: ScenarioConfig, config: BlastConfig, observe, max_events) -> Outcome:
    tb = Testbed.from_scenario(scenario)
    if observe is not None:
        observe(tb)
    r = run_blast(config, scenario=scenario, testbed=tb, max_events=max_events)
    return Outcome(
        messages=config.total_messages,
        payload_bytes=r.total_bytes,
        end_ns=r.end_ns,
        goodput_gbps=r.throughput_gbps,
        latencies_ns=r.send_latencies_ns,
        result={
            "total_bytes": r.total_bytes, "start_ns": r.start_ns, "end_ns": r.end_ns,
            "tx": _protocol_stats(r.tx_stats), "rx": _protocol_stats(r.rx_stats),
            "sender_cpu": r.sender_cpu, "receiver_cpu": r.receiver_cpu,
        },
        handle=fabric_counters(tb),
        fabric=tb,
    )


def _blast_stream(seed, messages, observe, max_events) -> Outcome:
    scenario = ScenarioConfig(profile="fdr", seed=seed)
    config = BlastConfig(
        total_messages=messages,
        sizes=ExponentialSizes(seed=seed),
        outstanding_sends=4,
        outstanding_recvs=8,
        mode=ProtocolMode.DYNAMIC,
    )
    return _blast(scenario, config, observe, max_events)


def _blast_lossy(seed, messages, observe, max_events) -> Outcome:
    profile = PROFILES["roce-lan"]
    # go-back-N, not selective repeat: at this commit a selective-repeat
    # sender whose whole window is SACKed when the last cumulative ACK is
    # lost re-arms its timer forever (seed 14 of this scenario never ends)
    reliability = ReliabilityConfig.for_path(
        profile.propagation_delay_ns + profile.emulator_delay_ns, mode="gobackn"
    )
    scenario = ScenarioConfig(
        profile="roce-lan", seed=seed, faults=HEAVY_LOSS, reliability=reliability
    )
    config = BlastConfig(
        total_messages=messages,
        sizes=FixedSizes(256 * KIB),
        outstanding_sends=4,
        outstanding_recvs=8,
        mode=ProtocolMode.DYNAMIC,
    )
    return _blast(scenario, config, observe, max_events)


def _echo_small(seed, messages, observe, max_events) -> Outcome:
    scenario = ScenarioConfig(profile="fdr", seed=seed)
    iterations = messages // 2  # a round trip is two messages
    config = EchoConfig(iterations=iterations, message_bytes=64, warmup=0)
    tb = Testbed.from_scenario(scenario)
    if observe is not None:
        observe(tb)
    # run_echo's own max_events default selects the gated drain; keep it
    cap = {} if max_events is None else {"max_events": max_events}
    r = run_echo(config, testbed=tb, **cap)
    if len(r.rtts_ns) != iterations:
        raise RuntimeError(f"echo: {len(r.rtts_ns)} of {iterations} round trips")
    payload = 2 * iterations * config.message_bytes
    return Outcome(
        messages=2 * iterations,
        payload_bytes=payload,
        end_ns=tb.now,
        goodput_gbps=payload * 8 / sum(r.rtts_ns),
        latencies_ns=r.rtts_ns,
        result={"rtt_sum_ns": sum(r.rtts_ns), "iterations": iterations},
        handle=fabric_counters(tb),
        fabric=tb,
    )


@contextmanager
def _tap_fabric(observe: Optional[Observer], seen: List[Fabric]):
    """``run_incast`` returns no handle on its Fabric, so observed (traced)
    runs — and only those — wrap ``Fabric.from_scenario`` to keep one."""
    if observe is None:
        yield
        return
    saved = Fabric.__dict__["from_scenario"]
    build = Fabric.from_scenario

    def tapped(*args, **kwargs):
        fabric = build(*args, **kwargs)
        seen.append(fabric)
        observe(fabric)
        return fabric

    Fabric.from_scenario = staticmethod(tapped)
    try:
        yield
    finally:
        Fabric.from_scenario = saved


def _incast_fanin(seed, messages, observe, max_events) -> Outcome:
    senders, per_sender, message = 16, 16, 16 * KIB
    connections = senders * per_sender
    per_conn = messages // connections
    scenario = ScenarioConfig(profile="fdr", seed=seed, srq_depth=4096, cq_shards=8)
    config = IncastConfig(
        senders=senders,
        connections_per_sender=per_sender,
        bytes_per_sender=per_conn * message,
        message_bytes=message,
        policy="backpressure",
        options=ExsSocketOptions(real_data=False),
    )
    seen: List[Fabric] = []
    with _tap_fabric(observe, seen):
        r = run_incast(config, scenario, max_events=max_events)
    if r.connections != connections or len(r.finish_ns) != connections:
        raise RuntimeError(f"incast: {len(r.finish_ns)} of {connections} connections")
    return Outcome(
        messages=connections * per_conn,
        payload_bytes=r.total_bytes,
        end_ns=r.end_ns,
        goodput_gbps=r.throughput_gbps,
        latencies_ns=list(r.finish_ns),
        result={k: v for k, v in vars(r).items() if k != "throughput_gbps"},
        handle={},
        fabric=seen[0] if seen else None,
    )


BLAST_STREAM = Workload(
    name="blast_stream",
    why="paper IV-B blast on FDR with 2x receive headroom: every message takes "
        "the zero-copy direct path; no switch, loss, shards or copies",
    latency_of="exs_send post to completion",
    receiver="server",
    full=2000,
    timed=150,
    bringup=1,
    variants=8,
    run=_blast_stream,
)
ECHO_SMALL = Workload(
    name="echo_small",
    why="64 B ping-pong: per-message fixed cost with nothing pipelined, and the "
        "only workload with live direct/indirect mode switching",
    latency_of="round trip",
    receiver="server",
    full=3000,
    timed=200,
    bringup=2,
    variants=8,
    run=_echo_small,
)
BLAST_LOSSY = Workload(
    name="blast_lossy",
    why="256 KiB blast on a 5% loss wire with go-back-N recovery: retransmit timers, "
        "NAKs, duplicate and corrupt discard, which are idle in the other three",
    latency_of="exs_send post to completion",
    receiver="server",
    full=2000,
    timed=100,
    bringup=1,
    # which frames a 5 % loss wire drops decides how much recovery work a
    # repetition holds: events per 100 messages spread 15 % from seed to seed
    variants=48,
    run=_blast_lossy,
)
INCAST_FANIN = Workload(
    name="incast_fanin",
    why="256 connections from 16 senders through one switch port: switch queues, "
        "SRQ pool and CQ shards, bypassed on the 2-host workloads",
    latency_of="per-connection finish time",
    receiver="sink",
    full=4096,
    timed=4096,
    bringup=256,
    variants=1,  # the seed moves this run by under 0.1 %, and one repetition lasts a second
    run=_incast_fanin,
)

WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (BLAST_STREAM, ECHO_SMALL, BLAST_LOSSY, INCAST_FANIN)
}
