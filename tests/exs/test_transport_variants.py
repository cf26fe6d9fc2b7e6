"""iWARP emulation (WRITE + notify SEND) and busy-poll variants."""

import os

import pytest

from helpers import run_procs
from repro.apps import BlastConfig, FixedSizes, run_blast
from repro.core import ProtocolMode
from repro.exs import BlockingSocket, ExsSocketOptions, SocketType
from repro.testbed import Testbed
from repro.config import ScenarioConfig


def stream_roundtrip(options, *, payload_bytes=150_000, seed=2, socket_type=SocketType.SOCK_STREAM):
    tb = Testbed(ScenarioConfig(seed=seed))
    payload = os.urandom(payload_bytes)
    out = {}

    def server():
        conn = yield from BlockingSocket.accept_one(tb.server, 4600, socket_type, options)
        got = b""
        while len(got) < len(payload):
            data = yield from conn.recv_bytes(len(payload))
            assert data
            got += data
        out["got"] = got
        out["rx"] = conn.sock.rx_stats

    def client():
        conn = yield from BlockingSocket.connect(tb.client, 4600, socket_type, options)
        yield from conn.send_bytes(payload)
        out["tx"] = conn.sock.tx_stats
        out["messages_sent"] = conn.sock.conn.qp.messages_sent

    run_procs(tb.sim, server(), client(), max_events=50_000_000)
    assert out["got"] == payload
    return out


def test_iwarp_emulation_stream_integrity():
    out = stream_roundtrip(ExsSocketOptions(native_write_with_imm=False, transport="wwi"))
    assert out["tx"].total_transfers > 0


def test_iwarp_emulation_doubles_wire_messages():
    """Every data transfer becomes WRITE + SEND: roughly twice the QP
    messages of the native path for the same data."""
    native = stream_roundtrip(ExsSocketOptions(native_write_with_imm=True))
    emulated = stream_roundtrip(ExsSocketOptions(native_write_with_imm=False, transport="wwi"))
    assert emulated["messages_sent"] >= 2 * native["tx"].total_transfers


def test_iwarp_emulation_seqpacket():
    tb = Testbed(ScenarioConfig(seed=4))
    options = ExsSocketOptions(native_write_with_imm=False, transport="wwi")
    messages = [b"alpha", b"beta" * 100, b"g"]
    out = {}

    def server():
        conn = yield from BlockingSocket.accept_one(
            tb.server, 4601, SocketType.SOCK_SEQPACKET, options
        )
        out["got"] = []
        for _ in messages:
            out["got"].append((yield from conn.recv_bytes(4096)))

    def client():
        conn = yield from BlockingSocket.connect(
            tb.client, 4601, SocketType.SOCK_SEQPACKET, options
        )
        for m in messages:
            yield from conn.send_bytes(m)

    run_procs(tb.sim, server(), client(), max_events=50_000_000)
    assert out["got"] == messages


def test_iwarp_emulation_blast_direct_mode():
    cfg = BlastConfig(
        total_messages=30,
        sizes=FixedSizes(1 << 16),
        recv_buffer_bytes=1 << 16,
        outstanding_sends=4,
        outstanding_recvs=8,
        mode=ProtocolMode.DIRECT_ONLY,
        real_data=True,
        options=ExsSocketOptions(native_write_with_imm=False, transport="wwi"),
    )
    r = run_blast(cfg, ScenarioConfig(seed=1), max_events=50_000_000)
    assert r.total_bytes == 30 * (1 << 16)
    assert r.direct_ratio == 1.0


def test_busy_poll_stream_integrity():
    out = stream_roundtrip(ExsSocketOptions(busy_poll=True))
    assert out["got"]


def test_busy_poll_burns_receiver_cpu_even_when_direct():
    """Polling removes wake-up latency but pins the library core near 100%
    — the trade-off the paper's prior study quantified."""
    def run(busy_poll):
        cfg = BlastConfig(
            total_messages=60,
            sizes=FixedSizes(1 << 18),
            recv_buffer_bytes=1 << 18,
            outstanding_sends=2,
            outstanding_recvs=8,
            mode=ProtocolMode.DIRECT_ONLY,
            options=ExsSocketOptions(busy_poll=busy_poll),
        )
        return run_blast(cfg, ScenarioConfig(seed=1), max_events=50_000_000)

    polled = run(True)
    event = run(False)
    assert polled.receiver_cpu > 0.9
    assert event.receiver_cpu < 0.2
    # both moved everything; polling is at least as fast
    assert polled.total_bytes == event.total_bytes
    assert polled.throughput_bps >= event.throughput_bps * 0.98


def _connect(scenario, options):
    tb = Testbed(scenario)
    return tb.client.socket(options=options).connect(4700, tb.client.qcreate())


def test_busy_poll_on_a_sharded_stack_is_rejected():
    """The CQ-shard poller sleeps on its completion channel: busy_poll
    would silently change nothing."""
    with pytest.raises(ValueError, match=r"busy_poll=True .*cq_shards=2"):
        _connect(ScenarioConfig(seed=1, cq_shards=2), ExsSocketOptions(busy_poll=True))


def test_iwarp_emulation_on_eager_rendezvous_is_rejected():
    """Rendezvous data is always a WRITE WITH IMM: the emulation switch
    would silently change nothing."""
    with pytest.raises(ValueError, match=r"native_write_with_imm=False .*'eager_rendezvous'"):
        _connect(ScenarioConfig(seed=1),
                 ExsSocketOptions(native_write_with_imm=False, transport="eager_rendezvous"))
