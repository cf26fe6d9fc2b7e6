"""Chaos suite for the eager/rendezvous SEND-RECV transport.

The alternative data plane stages small messages through receiver bounce
slots and rendezvous-places large ones into user memory, all over the same
lossy RC substrate as the WWI plane.  Drops replay eager SENDs and
rendezvous WRITEs (both carrying pinned views), duplicates re-deliver
them, and the RTS/CTS handshake itself rides the control path — so every
failure mode of the reliability layer hits the transport's bookkeeping.

As in :mod:`tests.chaos.test_zero_copy_integrity`, every run arms the
view-pinning debug assertions and checks exact per-byte copy accounting:
two copies per eager byte (slot placement + copy-out), one per rendezvous
byte (placement into the granted buffer).

The transport is pinned, so every test runs under each reliability mode.
"""

import random

import pytest

from helpers import VARIANTS, run_procs
from repro.exs import TRANSPORT_EAGER_RENDEZVOUS, BlockingSocket, ExsSocketOptions
from repro.simnet import FaultProfile
from repro.testbed import Testbed

SEEDS = (1, 2, 3)

CHAOS = FaultProfile(drop_prob=0.03, duplicate_prob=0.03)
RDV = ExsSocketOptions(transport=TRANSPORT_EAGER_RENDEZVOUS)

pytestmark = pytest.mark.parametrize(
    "variant", [v for v in VARIANTS if v.transport == TRANSPORT_EAGER_RENDEZVOUS], ids=str)


def run_transfer(tb, pieces, *, recv=8_192, waitall=False, port=4700):
    out = {}

    def server():
        conn = yield from BlockingSocket.accept_one(tb.server, port, options=RDV)
        chunks = []
        while True:
            data = yield from conn.recv_bytes(recv, waitall=waitall)
            if data == b"":
                break
            chunks.append(data)
        out["data"] = b"".join(chunks)
        out["rx_conn"] = conn.sock.conn

    def client():
        conn = yield from BlockingSocket.connect(tb.client, port, options=RDV)
        for piece in pieces:
            yield from conn.send_bytes(piece)
        out["tx_conn"] = conn.sock.conn
        yield from conn.close()

    run_procs(tb.sim, server(), client(), max_events=200_000_000)
    return out


def assert_accounting(out, pieces):
    """Bit-identical stream + exact per-class copy counts + clean pins."""
    assert out["data"] == b"".join(pieces)
    eager = sum(len(p) for p in pieces if len(p) <= RDV.eager_threshold)
    rdv = sum(len(p) for p in pieces if len(p) > RDV.eager_threshold)
    tx = out["tx_conn"].tx_stats
    assert tx.indirect_bytes == eager
    assert tx.direct_bytes == rdv
    meter = out["rx_conn"].copy_meter
    assert meter.payload_bytes_copied == 2 * eager + rdv
    for conn in (out["tx_conn"], out["rx_conn"]):
        assert conn.copy_meter.pin_violations == 0
        assert conn.copy_meter.pins_outstanding == 0


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("waitall", (False, True))
def test_eager_chaos_stream_is_bit_identical(variant, seed, waitall):
    """Eager-only traffic under drops + duplicates: retransmitted SENDs
    replay bounce-slot placements, yet delivery order, copy counts, and
    pins all stay exact."""
    tb = Testbed(variant.scenario(seed=seed, faults=CHAOS))
    rng = random.Random(seed * 7919 + 1)
    pieces = [rng.randbytes(rng.randrange(64, RDV.eager_threshold)) for _ in range(12)]
    out = run_transfer(tb, pieces, waitall=waitall)
    assert_accounting(out, pieces)
    assert tb.impairment.dropped_total + tb.impairment.duplicated_total > 0


@pytest.mark.parametrize("seed", SEEDS)
def test_mixed_transport_chaos_preserves_accounting(variant, seed):
    """Interleaved eager and rendezvous messages under chaos: the RTS/CTS
    handshake and the data plane recover independently, and each byte is
    still copied exactly its class's count."""
    tb = Testbed(variant.scenario(seed=seed + 100, faults=CHAOS))
    rng = random.Random(seed * 104729 + 3)
    pieces = []
    for _ in range(8):
        pieces.append(rng.randbytes(rng.randrange(64, 8_000)))
        pieces.append(rng.randbytes(rng.randrange(20_000, 80_000)))
    out = run_transfer(tb, pieces, recv=16_384)
    assert_accounting(out, pieces)
    assert tb.impairment.dropped_total + tb.impairment.duplicated_total > 0
    if tb.impairment.dropped_total:
        assert tb.client_device.reliability.stats.retransmits > 0


def test_mixed_transport_chaos_is_deterministic(variant):
    """Same seed → same bytes and same copy accounting under chaos."""

    def run_once():
        tb = Testbed(variant.scenario(seed=9, faults=CHAOS))
        rng = random.Random(424243)
        pieces = [rng.randbytes(n) for n in (500, 30_000, 7_000, 55_000, 1_200)]
        out = run_transfer(tb, pieces, recv=10_000)
        return (out["data"],
                out["tx_conn"].copy_meter.snapshot(),
                out["rx_conn"].copy_meter.snapshot())

    assert run_once() == run_once()
