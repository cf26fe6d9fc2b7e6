"""Connection shutdown semantics and error paths."""

import os

import pytest

from helpers import run_procs
from repro.exs import BlockingSocket, ExsError, ExsEventType, ExsSocketOptions, SocketType
from repro.testbed import Testbed
from repro.config import ScenarioConfig


def test_close_flushes_pending_sends_first():
    """exs_close is graceful: everything submitted before it arrives."""
    tb = Testbed(ScenarioConfig(seed=11))
    payload = os.urandom(250_000)
    out = {}

    def server():
        conn = yield from BlockingSocket.accept_one(tb.server, 5100)
        got = b""
        while True:
            d = yield from conn.recv_bytes(40_000)
            if d == b"":
                break
            got += d
        out["got"] = got

    def client():
        stack = tb.client
        sock = stack.socket()
        eq = stack.qcreate()
        buf = stack.alloc(len(payload))
        buf.fill(payload)
        mr = yield from stack.mregister(buf)
        sock.connect(5100, eq)
        ev = yield eq.dequeue()
        assert ev.kind is ExsEventType.CONNECT
        # submit everything and close IMMEDIATELY, before any completion
        for off in range(0, len(payload), 50_000):
            sock.send(buf, mr, 50_000, eq, offset=off)
        sock.close(eq)
        kinds = []
        for _ in range(len(payload) // 50_000 + 1):
            ev = yield eq.dequeue()
            kinds.append(ev.kind)
        assert kinds.count(ExsEventType.SEND) == 5
        assert kinds[-1] is ExsEventType.CLOSE  # close completes last

    run_procs(tb.sim, server(), client(), max_events=50_000_000)
    assert out["got"] == payload


def test_simultaneous_close_both_directions():
    tb = Testbed(ScenarioConfig(seed=12))
    out = {}

    def side(role, stack, port):
        if role == "server":
            conn = yield from BlockingSocket.accept_one(stack, port)
        else:
            conn = yield from BlockingSocket.connect(stack, port)
        yield from conn.send_bytes(role.encode())
        peer = yield from conn.recv_bytes(64)
        yield from conn.close()
        eof = yield from conn.recv_bytes(64)
        out[role] = (peer, eof)

    run_procs(
        tb.sim,
        side("server", tb.server, 5101),
        side("client", tb.client, 5101),
        max_events=50_000_000,
    )
    assert out["server"] == (b"client", b"")
    assert out["client"] == (b"server", b"")


def test_send_after_close_rejected():
    tb = Testbed(ScenarioConfig(seed=13))

    def client():
        conn = yield from BlockingSocket.connect(tb.client, 5102)
        yield from conn.close()
        with pytest.raises(RuntimeError, match="after close"):
            yield from conn.send_bytes(b"too late")
        return True

    def server():
        conn = yield from BlockingSocket.accept_one(tb.server, 5102)
        eof = yield from conn.recv_bytes(10)
        assert eof == b""

    run_procs(tb.sim, server(), client(), max_events=20_000_000)


def test_receiver_keeps_draining_after_peer_close():
    """Data queued behind the FIN is all delivered before EOF is seen."""
    tb = Testbed(ScenarioConfig(seed=14))
    options = ExsSocketOptions(ring_capacity=8 * 1024)  # force buffering
    payload = os.urandom(60_000)
    out = {}

    def server():
        conn = yield from BlockingSocket.accept_one(tb.server, 5103, options=options)
        # sleep long enough for the sender to finish and close before the
        # receiver posts its first receive
        yield tb.sim.timeout(3_000_000)
        got = b""
        while True:
            d = yield from conn.recv_bytes(7_000)
            if d == b"":
                break
            got += d
        out["got"] = got

    def client():
        conn = yield from BlockingSocket.connect(tb.client, 5103, options=options)
        yield from conn.send_bytes(payload)
        yield from conn.close()

    run_procs(tb.sim, server(), client(), max_events=100_000_000)
    assert out["got"] == payload


def test_engine_failure_surfaces_loudly():
    """A corrupted protocol state must crash the run, not hang it."""
    tb = Testbed(ScenarioConfig(seed=15))

    def server():
        conn = yield from BlockingSocket.accept_one(tb.server, 5104)
        # sabotage: violate ring accounting from the outside
        conn.sock.conn.rx.algo.ring.stored = -5
        out = yield from conn.recv_bytes(100)

    def client():
        conn = yield from BlockingSocket.connect(tb.client, 5104)
        yield from conn.send_bytes(b"x" * 100_000)

    tb.sim.process(server())
    tb.sim.process(client())
    with pytest.raises(Exception):
        tb.run(max_events=20_000_000)


def test_fin_is_idempotent_but_conflicts_are_fatal():
    """A FIN replayed by the reliability layer (or the dup fault) after the
    stream finished is a no-op; a FIN with a *different* final sequence is a
    protocol bug and must trip the safety layer."""
    from repro.core import SafetyViolation

    tb = Testbed(ScenarioConfig(seed=31))
    out = {}

    def server():
        conn = yield from BlockingSocket.accept_one(tb.server, 5140)
        while (yield from conn.recv_bytes(4096)) != b"":
            pass
        out["rx"] = conn.sock.conn.rx

    def client():
        conn = yield from BlockingSocket.connect(tb.client, 5140)
        yield from conn.send_bytes(b"q" * 10_000)
        yield from conn.close()

    run_procs(tb.sim, server(), client(), max_events=50_000_000)
    rx = out["rx"]
    fin_seq = rx.eof_seq
    assert fin_seq == 10_000
    rx.on_fin(fin_seq)  # replayed FIN: silently ignored
    assert rx.eof_seq == fin_seq
    with pytest.raises(SafetyViolation):
        rx.on_fin(fin_seq + 1)  # conflicting FIN: impossible state


@pytest.mark.parametrize("socket_type", [SocketType.SOCK_STREAM, SocketType.SOCK_SEQPACKET])
def test_close_completes_after_the_send_it_flushes(socket_type):
    """A 1 MiB send then exs_close on one event queue: SEND completes
    first, on both socket types (SEQPACKET once posted CLOSE long before)."""
    tb = Testbed(ScenarioConfig(seed=1))
    nbytes = 1 << 20
    out = {}

    def server():
        stack = tb.server
        conn = yield from BlockingSocket.accept_one(stack, 5150, socket_type)
        buf = stack.alloc(nbytes)
        mr = yield from stack.mregister(buf)
        eq = stack.qcreate()
        conn.sock.recv(buf, mr, nbytes, eq)
        ev = yield eq.dequeue()
        out["recv"] = (ev.kind, ev.nbytes, tb.now)

    def client():
        stack = tb.client
        conn = yield from BlockingSocket.connect(stack, 5150, socket_type)
        buf = stack.alloc(nbytes)
        mr = yield from stack.mregister(buf)
        eq = stack.qcreate()
        conn.sock.send(buf, mr, nbytes, eq)
        conn.sock.close(eq)
        out["client"] = []
        for _ in range(2):
            ev = yield eq.dequeue()
            out["client"].append((ev.kind, tb.now))

    run_procs(tb.sim, server(), client(), max_events=20_000_000)
    (first, send_ns), (second, close_ns) = out["client"]
    assert (first, second) == (ExsEventType.SEND, ExsEventType.CLOSE)
    assert send_ns <= close_ns
    assert out["recv"][:2] == (ExsEventType.RECV, nbytes)


def test_seqpacket_send_after_close_rejected():
    """The SEQPACKET sender used to accept the send and spend an ADVERT the
    receiver had already completed with EOF, killing the peer's engine."""
    tb = Testbed(ScenarioConfig(seed=1))
    out = {}

    def server():
        conn = yield from BlockingSocket.accept_one(tb.server, 5151, SocketType.SOCK_SEQPACKET)
        out["first"] = yield from conn.recv_bytes(64)
        out["second"] = yield from conn.recv_bytes(64)

    def client():
        conn = yield from BlockingSocket.connect(tb.client, 5151, SocketType.SOCK_SEQPACKET)
        yield from conn.send_bytes(b"x" * 10)
        yield from conn.close()
        with pytest.raises(ExsError, match="exs_send after close"):
            yield from conn.send_bytes(b"too late")

    run_procs(tb.sim, server(), client(), max_events=20_000_000)
    assert out == {"first": b"x" * 10, "second": b""}


def test_closing_a_listener_frees_its_port_and_refuses_its_backlog():
    tb = Testbed(ScenarioConfig(seed=13))
    server, client = tb.server, tb.client
    out = {}

    def serve():
        lsock = server.socket()
        lsock.bind_listen(5200)
        eq = server.qcreate()
        lsock.accept(eq)
        with pytest.raises(ExsError, match="accept pending"):
            lsock.close(eq)
        (yield eq.dequeue()).expect(ExsEventType.ACCEPT)
        yield tb.sim.timeout(200_000)  # the second request waits in the backlog
        out["backlog"] = lsock._listener.backlog
        lsock.close(eq, context="bye")
        out["closed"] = (yield eq.dequeue()).expect(ExsEventType.CLOSE).context
        server.socket().bind_listen(5200)  # the port is free again

    def connect(delay):
        yield tb.sim.timeout(delay)
        eq = client.qcreate()
        client.socket().connect(5200, eq)
        ev = yield eq.dequeue()
        return ev.kind, ev.error

    _, accepted, refused = run_procs(tb.sim, serve(), connect(10), connect(100_000))
    assert out == {"backlog": 1, "closed": "bye"}
    assert accepted == (ExsEventType.CONNECT, None)
    assert refused == (ExsEventType.ERROR, "connection refused")
