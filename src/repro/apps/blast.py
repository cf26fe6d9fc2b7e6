"""The blast tool (paper §IV-B).

"This study uses a blast tool, written to utilize UNH EXS, which sends
messages as quickly as possible from the client to the server.  This is
meant to model the traffic generated by a large file transfer.  The tool
outputs the average throughput, time per message, and CPU usage on each
side.  Additionally, UNH EXS itself keeps statistics on the number of
indirect vs. direct transfers."

:func:`run_blast` assembles a testbed, runs the client/server pair, and
returns a :class:`BlastResult` with exactly those outputs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Iterator, List, Optional

from ..config import ScenarioConfig
from ..core import ProtocolMode, ProtocolStats
from ..exs import ExsEventType, ExsSocketOptions, MsgFlags, SocketType
from ..testbed import Testbed
from .metrics import throughput_bps
from .workloads import MIB, ExponentialSizes, SizeGenerator

__all__ = ["BlastConfig", "BlastResult", "run_blast"]


@dataclass(frozen=True)
class BlastConfig:
    """One blast run."""

    #: messages the client sends
    total_messages: int = 1000
    #: message-size generator
    sizes: SizeGenerator = field(default_factory=ExponentialSizes)
    #: simultaneously outstanding exs_send() operations at the client
    outstanding_sends: int = 4
    #: simultaneously outstanding exs_recv() operations at the server
    outstanding_recvs: int = 4
    #: size of each receive buffer (the paper sizes them for the largest message)
    recv_buffer_bytes: int = 4 * MIB
    #: pass MSG_WAITALL on receives
    waitall: bool = False
    #: protocol: DYNAMIC or one of the forced baselines
    mode: ProtocolMode = ProtocolMode.DYNAMIC
    #: EXS socket tunables (ring size, credits, ...); mode is overridden
    options: Optional[ExsSocketOptions] = None
    #: move real bytes (tests) or synthetic lengths (benchmarks)
    real_data: bool = False
    #: client application work between connect-completion and the first
    #: exs_send (first-touch faulting of the send buffers, tool startup).
    #: Gives the server's initial ADVERT burst a structural head start, so
    #: the connection "starts out in a direct phase" as the paper observes.
    client_warmup_ns: int = 50_000
    port: int = 7000

    def socket_options(self) -> ExsSocketOptions:
        base = self.options or ExsSocketOptions()
        from dataclasses import replace

        return replace(base, mode=self.mode, real_data=self.real_data)


@dataclass
class BlastResult:
    """Outputs of one blast run (paper §IV-B measurement set)."""

    config: BlastConfig
    total_bytes: int
    #: start of the first transfer (ns, simulated)
    start_ns: int
    #: end of the last transfer (ns, simulated)
    end_ns: int
    throughput_bps: float
    #: average time per message (ns)
    time_per_message_ns: float
    #: CPU busy fraction over the transfer window, each side (0.0-1.0)
    sender_cpu: float
    receiver_cpu: float
    #: sender-direction protocol statistics (direct/indirect/mode switches)
    tx_stats: ProtocolStats = None
    #: receiver-direction statistics (adverts, copies, acks)
    rx_stats: ProtocolStats = None
    #: per-message exs_send post-to-completion latency samples (ns) — the
    #: "send response" the paper's problem statement trades against copies
    send_latencies_ns: List[int] = None

    @property
    def throughput_gbps(self) -> float:
        return self.throughput_bps / 1e9

    @property
    def direct_ratio(self) -> float:
        return self.tx_stats.direct_ratio

    @property
    def mode_switches(self) -> int:
        return self.tx_stats.mode_switches

    def send_latency_percentile_ns(self, q: float) -> float:
        """Percentile of the sender's post-to-completion latency."""
        from .metrics import percentile

        return percentile(self.send_latencies_ns, q)


def _client_proc(tb: Testbed, cfg: BlastConfig, out: dict):
    stack = tb.client
    opts = cfg.socket_options()
    sock = stack.socket(SocketType.SOCK_STREAM, opts)
    eq = stack.qcreate(depth=1 << 20)
    # Per-slot send buffers sized for the largest message, registered
    # before connecting (registration is expensive; the real tool fronts it).
    slots = min(cfg.outstanding_sends, cfg.total_messages)
    max_size = max(cfg.sizes.sizes(cfg.total_messages)) if cfg.total_messages else 0
    bufs = []
    for i in range(slots):
        buf = stack.alloc(max_size, real=cfg.real_data, label=f"blast:tx{i}")
        mr = yield from stack.mregister(buf)
        bufs.append((buf, mr))

    sock.connect(cfg.port, eq)
    ev = (yield eq.dequeue()).expect(ExsEventType.CONNECT)
    if cfg.client_warmup_ns:
        yield from tb.host("client").app_cpu.work(cfg.client_warmup_ns)

    sizes: List[int] = cfg.sizes.sizes(cfg.total_messages)
    out["total_bytes"] = sum(sizes)
    next_msg = 0

    post_times = {}
    send_latencies: List[int] = []

    def post(slot: int) -> None:
        nonlocal next_msg
        buf, mr = bufs[slot]
        post_times[slot] = tb.now
        sock.send(buf, mr, sizes[next_msg], eq, context=slot)
        next_msg += 1

    for slot in range(slots):
        post(slot)

    completed = 0
    cpu = tb.host("client").app_cpu
    costs = cpu.costs
    while completed < cfg.total_messages:
        ev = (yield eq.dequeue()).expect(ExsEventType.SEND)
        send_latencies.append(tb.now - post_times[ev.context])
        yield from cpu.work(costs.app_repost_ns)
        completed += 1
        if next_msg < cfg.total_messages:
            post(ev.context)

    sock.close(eq)
    (yield eq.dequeue()).expect(ExsEventType.CLOSE)
    out["sock"] = sock
    out["send_latencies"] = send_latencies


def _server_proc(tb: Testbed, cfg: BlastConfig, out: dict):
    stack = tb.server
    opts = cfg.socket_options()
    lsock = stack.socket(SocketType.SOCK_STREAM, opts)
    lsock.bind_listen(cfg.port)
    eq = stack.qcreate(depth=1 << 20)

    # Receive buffers are allocated and registered while waiting for the
    # client, so the initial ADVERT burst follows the accept immediately.
    flags = MsgFlags.MSG_WAITALL if cfg.waitall else MsgFlags.NONE
    bufs = []
    for i in range(cfg.outstanding_recvs):
        buf = stack.alloc(cfg.recv_buffer_bytes, real=cfg.real_data, label=f"blast:rx{i}")
        mr = yield from stack.mregister(buf)
        bufs.append((buf, mr))

    lsock.accept(eq)
    ev = (yield eq.dequeue()).expect(ExsEventType.ACCEPT)
    sock = ev.socket
    for i, (buf, mr) in enumerate(bufs):
        sock.recv(buf, mr, cfg.recv_buffer_bytes, eq, flags=flags, context=i)

    received = 0
    open_recvs = cfg.outstanding_recvs
    cpu = tb.host("server").app_cpu
    costs = cpu.costs
    while open_recvs > 0:
        ev = (yield eq.dequeue()).expect(ExsEventType.RECV)
        yield from cpu.work(costs.app_repost_ns)
        if ev.eof:
            open_recvs -= 1
            continue
        received += ev.nbytes
        buf, mr = bufs[ev.context]
        sock.recv(buf, mr, cfg.recv_buffer_bytes, eq, flags=flags, context=ev.context)
    out["received"] = received
    out["sock"] = sock


def _telemetry_artifact_path(config: BlastConfig, seed: int) -> str:
    """Deterministic artifact filename for one (config, seed) unit."""
    import hashlib

    digest = hashlib.sha1(
        f"{config.total_messages}|{config.mode.value}|{config.outstanding_sends}|"
        f"{config.outstanding_recvs}|{type(config.sizes).__name__}|"
        f"{getattr(config.sizes, 'seed', 0)}|{config.waitall}".encode()
    ).hexdigest()[:10]
    return f"blast-{digest}-seed{seed}.jsonl"


def run_blast(
    config: BlastConfig,
    scenario: Optional[ScenarioConfig] = None,
    *,
    testbed: Optional[Testbed] = None,
    max_events: Optional[int] = None,
) -> BlastResult:
    """Run one blast and return its measurements.

    The run environment is *scenario* (a
    :class:`~repro.config.ScenarioConfig`, default ``ScenarioConfig()``):
    profile, seed, faults, reliability, transport, schedule policy, kernel
    and telemetry.  *testbed* is a :class:`Testbed` the caller already
    built from that scenario (to attach a tracer or telemetry first); the
    run then follows ``testbed.scenario``.  When ``scenario.telemetry`` is
    set a fresh :mod:`repro.obs` session is attached (reachable afterwards
    as ``testbed.telemetry``); when ``scenario.telemetry_dir`` is set the
    run — including :func:`repro.sweep.run_sweep` workers in other
    processes — also writes a per-run JSONL telemetry artifact into that
    directory.  *max_events* defaults to ``scenario.max_events``.
    """
    tb = testbed or Testbed.from_scenario(scenario or ScenarioConfig())
    scenario = tb.scenario
    if max_events is None:
        max_events = scenario.max_events
    telemetry_dir = scenario.telemetry_dir
    telemetry = tb.attach_telemetry() if scenario.telemetry or telemetry_dir else None
    client_out: dict = {}
    server_out: dict = {}
    tb.sim.process(_client_proc(tb, config, client_out), name="blast-client")
    tb.sim.process(_server_proc(tb, config, server_out), name="blast-server")
    tb.run(max_events=max_events)

    client_conn = client_out["sock"].conn
    server_conn = server_out["sock"].conn
    total_bytes = client_out["total_bytes"]
    if server_out["received"] != total_bytes:
        raise AssertionError(
            f"stream integrity: sent {total_bytes} but delivered {server_out['received']}"
        )
    start = client_conn.tx.first_post_ns
    end = server_conn.rx.last_delivery_ns
    bps = throughput_bps(total_bytes, start, end)
    result = BlastResult(
        config=config,
        total_bytes=total_bytes,
        start_ns=start,
        end_ns=end,
        throughput_bps=bps,
        time_per_message_ns=(end - start) / max(1, config.total_messages),
        sender_cpu=tb.host("client").cpu.utilization_between(start, end),
        receiver_cpu=tb.host("server").cpu.utilization_between(start, end),
        tx_stats=client_conn.tx_stats,
        rx_stats=server_conn.rx_stats,
        send_latencies_ns=client_out["send_latencies"],
    )
    if telemetry is not None:
        telemetry.finish(
            scenario="blast",
            messages=config.total_messages,
            mode=config.mode.name,
            total_bytes=total_bytes,
            throughput_gbps=round(result.throughput_gbps, 4),
            direct_ratio=round(result.direct_ratio, 4),
        )
        if telemetry_dir:
            from ..obs.export import write_jsonl

            os.makedirs(telemetry_dir, exist_ok=True)
            path = os.path.join(
                telemetry_dir, _telemetry_artifact_path(config, scenario.seed)
            )
            with open(path, "w") as fh:
                write_jsonl(fh, telemetry)
    return result
