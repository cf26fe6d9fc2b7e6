"""Ping-pong echo tool: round-trip latency measurement.

The paper's future work calls for "performing latency studies" and more
test applications; ``run_echo`` is the classic ``ib_write_lat``-style tool
rebuilt on the EXS API: the client sends a fixed-size message, the server
echoes it back, and the round-trip time of every iteration is recorded.

Unlike the blast tool (one-directional saturation), echo exercises both
directions of a connection with strictly alternating traffic — the
pathological case for the dynamic protocol's ADVERT pipeline, since no
operation can ever be pre-posted more than one message ahead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..config import ScenarioConfig
from ..core import ProtocolMode
from ..exs import ExsEventType, ExsSocketOptions, MsgFlags, SocketType
from ..testbed import Testbed
from .metrics import percentile

__all__ = ["EchoConfig", "EchoResult", "run_echo"]


@dataclass(frozen=True)
class EchoConfig:
    """One echo (ping-pong) run."""

    iterations: int = 100
    message_bytes: int = 64
    #: initial iterations excluded from the statistics
    warmup: int = 5
    mode: ProtocolMode = ProtocolMode.DYNAMIC
    options: Optional[ExsSocketOptions] = None
    real_data: bool = False
    port: int = 7100

    def socket_options(self) -> ExsSocketOptions:
        from dataclasses import replace

        base = self.options or ExsSocketOptions()
        return replace(base, mode=self.mode, real_data=self.real_data)


@dataclass
class EchoResult:
    """Round-trip latencies (ns) of the measured iterations."""

    config: EchoConfig
    rtts_ns: List[int]

    @property
    def min_ns(self) -> int:
        return min(self.rtts_ns)

    @property
    def mean_ns(self) -> float:
        return sum(self.rtts_ns) / len(self.rtts_ns)

    @property
    def median_ns(self) -> float:
        return percentile(self.rtts_ns, 50)

    @property
    def p99_ns(self) -> float:
        return percentile(self.rtts_ns, 99)

    @property
    def half_rtt_us(self) -> float:
        """Median one-way latency estimate in microseconds (ib_*_lat style)."""
        return self.median_ns / 2 / 1000


def _server_proc(tb: Testbed, cfg: EchoConfig):
    stack = tb.server
    opts = cfg.socket_options()
    lsock = stack.socket(SocketType.SOCK_STREAM, opts)
    lsock.bind_listen(cfg.port)
    eq = stack.qcreate()
    buf = stack.alloc(cfg.message_bytes, real=cfg.real_data, label="echo:srv")
    mr = yield from stack.mregister(buf)
    lsock.accept(eq)
    ev = (yield eq.dequeue()).expect(ExsEventType.ACCEPT)
    sock = ev.socket
    total = cfg.iterations + cfg.warmup
    for _ in range(total):
        sock.recv(buf, mr, cfg.message_bytes, eq, flags=MsgFlags.MSG_WAITALL)
        ev = (yield eq.dequeue()).expect(ExsEventType.RECV)
        if ev.nbytes != cfg.message_bytes:
            raise RuntimeError(f"echo server: bad recv {ev}")
        sock.send(buf, mr, cfg.message_bytes, eq)
        (yield eq.dequeue()).expect(ExsEventType.SEND)


def _client_proc(tb: Testbed, cfg: EchoConfig, out: dict):
    stack = tb.client
    opts = cfg.socket_options()
    sock = stack.socket(SocketType.SOCK_STREAM, opts)
    eq = stack.qcreate()
    buf = stack.alloc(cfg.message_bytes, real=cfg.real_data, label="echo:cli")
    mr = yield from stack.mregister(buf)
    sock.connect(cfg.port, eq)
    (yield eq.dequeue()).expect(ExsEventType.CONNECT)
    rtts: List[int] = []
    total = cfg.iterations + cfg.warmup
    for i in range(total):
        t0 = tb.now
        sock.send(buf, mr, cfg.message_bytes, eq)
        # wait for both the send completion and the echoed reply
        pending = {"send": False, "recv": False}
        sock.recv(buf, mr, cfg.message_bytes, eq, flags=MsgFlags.MSG_WAITALL)
        while not (pending["send"] and pending["recv"]):
            ev = yield eq.dequeue()
            if ev.kind is ExsEventType.SEND:
                pending["send"] = True
            elif ev.kind is ExsEventType.RECV:
                if ev.nbytes != cfg.message_bytes:
                    raise RuntimeError(f"echo client: short reply {ev.nbytes}")
                pending["recv"] = True
            else:
                raise RuntimeError(f"echo client: unexpected event {ev.kind}")
        if i >= cfg.warmup:
            rtts.append(tb.now - t0)
    out["rtts"] = rtts


def run_echo(
    config: EchoConfig,
    scenario: Optional[ScenarioConfig] = None,
    *,
    testbed: Optional[Testbed] = None,
    max_events: Optional[int] = 100_000_000,
) -> EchoResult:
    """Run one ping-pong session under *scenario* (or on a *testbed*
    already built from it) and return its latency distribution."""
    tb = testbed or Testbed.from_scenario(scenario or ScenarioConfig())
    out: dict = {}
    tb.sim.process(_server_proc(tb, config), name="echo-server")
    tb.sim.process(_client_proc(tb, config, out), name="echo-client")
    tb.run(max_events=max_events)
    return EchoResult(config=config, rtts_ns=out["rtts"])
