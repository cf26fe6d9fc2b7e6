"""Eager/rendezvous SEND-RECV transport: semantics and copy accounting.

The alternative data plane (``transport="eager_rendezvous"``) replaces the
paper's WRITE-WITH-IMM + ADVERT machinery with the MPICH2-over-IB shape:
messages at or below ``eager_threshold`` are SENT into receiver bounce
slots (two copies per byte: slot placement + slot→user copy-out), larger
messages do an RTS/CTS handshake and a single RDMA WRITE into the granted
user buffer (one placement copy per byte).  These tests pin the stream
semantics (ordering, WAITALL, EOF) and the per-byte copy accounting that
the crossover benchmarks rely on.
"""

import random

import pytest

from helpers import run_procs
from repro.config import ScenarioConfig
from repro.core import SafetyViolation
from repro.exs import (
    TRANSPORT_EAGER_RENDEZVOUS,
    TRANSPORT_WWI,
    BlockingSocket,
    ExsSocketOptions,
)
from repro.testbed import Testbed

RDV = ExsSocketOptions(transport=TRANSPORT_EAGER_RENDEZVOUS)


def transfer(tb, pieces, *, options=RDV, recv=8_192, waitall=False, port=4600):
    """Send *pieces* client→server; returns delivered bytes + both conns."""
    out = {}

    def server():
        conn = yield from BlockingSocket.accept_one(tb.server, port, options=options)
        chunks = []
        while True:
            data = yield from conn.recv_bytes(recv, waitall=waitall)
            if data == b"":
                break
            chunks.append(data)
        out["data"] = b"".join(chunks)
        out["rx_conn"] = conn.sock.conn

    def client():
        conn = yield from BlockingSocket.connect(tb.client, port, options=options)
        for piece in pieces:
            yield from conn.send_bytes(piece)
        out["tx_conn"] = conn.sock.conn
        yield from conn.close()

    run_procs(tb.sim, server(), client(), max_events=200_000_000)
    return out


def test_eager_path_copies_each_byte_exactly_twice():
    """All messages below the threshold: every byte goes slot → user, so
    the receiver meters exactly two copies per payload byte and the sender
    accounts the traffic as indirect (staged) transfers."""
    tb = Testbed(ScenarioConfig(seed=21))
    pieces = [random.Random(21).randbytes(4_000) for _ in range(8)]
    total = sum(len(p) for p in pieces)
    out = transfer(tb, pieces)
    assert out["data"] == b"".join(pieces)
    tx, rx = out["tx_conn"].tx_stats, out["rx_conn"].rx_stats
    assert tx.indirect_transfers == len(pieces)
    assert tx.indirect_bytes == total
    assert tx.direct_transfers == 0
    assert rx.copied_bytes == total  # one explicit copy-out per eager byte
    assert out["rx_conn"].copy_meter.payload_bytes_copied == 2 * total


def test_rendezvous_path_places_each_byte_exactly_once():
    """All messages above the threshold: RTS/CTS then one WRITE into the
    granted user buffer — a single placement copy per byte, no copy-outs."""
    tb = Testbed(ScenarioConfig(seed=22))
    pieces = [random.Random(22).randbytes(40_000) for _ in range(4)]
    total = sum(len(p) for p in pieces)
    out = transfer(tb, pieces, recv=40_000, waitall=True)
    assert out["data"] == b"".join(pieces)
    tx, rx = out["tx_conn"].tx_stats, out["rx_conn"].rx_stats
    assert tx.direct_transfers == len(pieces)
    assert tx.direct_bytes == total
    assert tx.indirect_transfers == 0
    assert rx.copies == 0
    assert out["rx_conn"].copy_meter.payload_bytes_copied == total


def test_mixed_sizes_preserve_stream_order_and_accounting():
    """Eager and rendezvous messages interleaved in one stream must still
    deliver in submission order, and the two copy classes must sum exactly."""
    tb = Testbed(ScenarioConfig(seed=23))
    rng = random.Random(23)
    sizes = [300, 50_000, 4_096, 17_000, 64, 90_000, 8_000, 16 * 1024]
    pieces = [rng.randbytes(n) for n in sizes]
    out = transfer(tb, pieces, recv=12_288)
    assert out["data"] == b"".join(pieces)
    tx = out["tx_conn"].tx_stats
    eager_bytes = sum(n for n in sizes if n <= RDV.eager_threshold)
    rdv_bytes = sum(n for n in sizes if n > RDV.eager_threshold)
    assert tx.indirect_bytes == eager_bytes
    assert tx.direct_bytes == rdv_bytes
    meter = out["rx_conn"].copy_meter
    assert meter.payload_bytes_copied == 2 * eager_bytes + rdv_bytes
    assert meter.pin_violations == 0
    assert meter.pins_outstanding == 0


def test_waitall_spans_eager_and_rendezvous_boundaries():
    """MSG_WAITALL must fill across transport-class boundaries: a recv that
    needs bytes from both an eager tail and a rendezvous message completes
    only when full."""
    tb = Testbed(ScenarioConfig(seed=24))
    pieces = [b"a" * 5_000, b"b" * 30_000, b"c" * 5_000]
    out = transfer(tb, pieces, recv=10_000, waitall=True)
    assert out["data"] == b"".join(pieces)
    assert len(out["data"]) == 40_000


def test_transport_mismatch_is_rejected_at_handshake():
    """The hello message carries the transport; mixing planes on one
    connection is a configuration error, not silent corruption."""
    from repro.exs import ExsError

    tb = Testbed(ScenarioConfig(seed=25))
    wwi = ExsSocketOptions(transport=TRANSPORT_WWI)

    def server():
        yield from BlockingSocket.accept_one(tb.server, 4601, options=wwi)

    def client():
        yield from BlockingSocket.connect(tb.client, 4601, options=RDV)

    with pytest.raises(ExsError, match="transport mismatch"):
        run_procs(tb.sim, server(), client(), max_events=50_000_000)


def test_scenario_config_forces_transport_through_blast():
    """ScenarioConfig.transport overrides the blast config's socket options
    so a committed benchmark scenario replays the same data plane anywhere."""
    from repro.apps.blast import BlastConfig, run_blast
    from repro.apps.workloads import FixedSizes
    scenario = ScenarioConfig(seed=3, transport=TRANSPORT_EAGER_RENDEZVOUS)
    cfg = BlastConfig(total_messages=20, sizes=FixedSizes(2_048))
    result = run_blast(cfg, scenario=scenario)
    assert result.total_bytes == 2_048 * 20
    # eager-only traffic shows up as staged (indirect) transfers
    assert result.tx_stats.indirect_transfers == 20
    assert result.tx_stats.direct_transfers == 0


def test_rdv_fin_is_idempotent_but_conflicts_are_fatal():
    tb = Testbed(ScenarioConfig(seed=26))
    out = transfer(tb, [b"x" * 2_000])
    rx = out["rx_conn"].rx
    fin_seq = rx.eof_seq
    assert fin_seq == 2_000
    rx.on_fin(fin_seq)  # replay: no-op
    assert rx.eof_seq == fin_seq
    with pytest.raises(SafetyViolation):
        rx.on_fin(fin_seq + 1)


def test_recv_after_eof_completes_immediately_empty():
    tb = Testbed(ScenarioConfig(seed=27))
    out = {}

    def server():
        conn = yield from BlockingSocket.accept_one(tb.server, 4602, options=RDV)
        first = yield from conn.recv_bytes(8_192)
        assert (yield from conn.recv_bytes(8_192)) == b""
        assert (yield from conn.recv_bytes(8_192)) == b""  # EOF is sticky
        out["data"] = first

    def client():
        conn = yield from BlockingSocket.connect(tb.client, 4602, options=RDV)
        yield from conn.send_bytes(b"m" * 1_000)
        yield from conn.close()

    run_procs(tb.sim, server(), client(), max_events=50_000_000)
    assert out["data"] == b"m" * 1_000


def test_rdv_transfer_is_deterministic():
    """Same seed → identical bytes and identical copy accounting."""

    def run_once():
        tb = Testbed(ScenarioConfig(seed=28))
        rng = random.Random(28)
        pieces = [rng.randbytes(n) for n in (700, 25_000, 3_000, 60_000)]
        out = transfer(tb, pieces, recv=9_000)
        return (out["data"], out["rx_conn"].copy_meter.snapshot())

    assert run_once() == run_once()
