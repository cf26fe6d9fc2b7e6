"""Regression: re-advertising a partially-filled MSG_WAITALL receive.

Found by the hypothesis model suite: when a WAITALL receive is partially
satisfied from the intermediate buffer and the connection resynchronises,
the new ADVERT must cover only the *remaining* window (placed past the
bytes already delivered).  This exercises that path end to end over the
full simulated stack with real bytes.
"""

import os

from helpers import run_procs
from repro.exs import (
    BlockingSocket,
    ExsEventType,
    ExsSocketOptions,
    MsgFlags,
)
from repro.testbed import Testbed
from repro.config import ScenarioConfig


def test_waitall_partial_fill_then_resync_direct():
    tb = Testbed(ScenarioConfig(seed=8))
    # Tiny ring so the first (indirect) piece cannot carry the whole recv.
    options = ExsSocketOptions(ring_capacity=4096)
    payload = os.urandom(64 * 1024)
    out = {}

    def server():
        stack = tb.server
        lsock = stack.socket(options=options)
        lsock.bind_listen(4500)
        eq = stack.qcreate()
        buf = stack.alloc(len(payload))
        mr = yield from stack.mregister(buf)
        lsock.accept(eq)
        ev = yield eq.dequeue()
        sock = ev.socket
        # Post the receive late: the sender's data is already flowing into
        # the (tiny) intermediate buffer by then, so this WAITALL receive is
        # first partially satisfied by copies; once the ring drains, the
        # remaining window is re-advertised and filled directly.
        yield tb.sim.timeout(100_000)
        sock.recv(buf, mr, len(payload), eq, flags=MsgFlags.MSG_WAITALL)
        ev = yield eq.dequeue()
        assert ev.kind is ExsEventType.RECV
        out["nbytes"] = ev.nbytes
        out["data"] = buf.read(0, len(payload))
        out["stats"] = sock.rx_stats

    def client():
        stack = tb.client
        sock = stack.socket(options=options)
        eq = stack.qcreate()
        buf = stack.alloc(len(payload))
        buf.fill(payload)
        mr = yield from stack.mregister(buf)
        sock.connect(4500, eq)
        ev = yield eq.dequeue()
        assert ev.kind is ExsEventType.CONNECT
        # Fire immediately: beats the ADVERT, so the stream starts indirect.
        sock.send(buf, mr, len(payload), eq)
        ev = yield eq.dequeue()
        assert ev.kind is ExsEventType.SEND
        out["tx_stats"] = sock.tx_stats

    run_procs(tb.sim, server(), client(), max_events=50_000_000)
    assert out["nbytes"] == len(payload)
    assert out["data"] == payload
    tx = out["tx_stats"]
    # the scenario really did mix both paths
    assert tx.indirect_transfers > 0, "expected the stream to start indirect"
    assert tx.direct_transfers > 0, "expected a direct resync for the remainder"
    # the original advert was suppressed (ring non-empty) and the remaining
    # window was advertised after the drain
    rx = out["stats"]
    assert rx.adverts_suppressed >= 1
    assert rx.adverts_sent >= 1
    assert rx.copies >= 1
