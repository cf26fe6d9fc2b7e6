"""End-to-end stream socket behaviour with real bytes."""

import os

import pytest

from helpers import run_procs
from repro.config import KERNELS, ScenarioConfig
from repro.core import ProtocolMode
from repro.exs import BlockingSocket, ExsError, ExsSocketOptions, MsgFlags, SocketType
from repro.simnet import SimulationError
from repro.testbed import Testbed


def small_ring_options(**kw):
    return ExsSocketOptions(ring_capacity=64 * 1024, **kw)


def pipe(testbed, server_fn, client_fn, port=4000, options=None):
    """Run a server/client pair of generator factories taking a BlockingSocket."""
    out = {}

    def server():
        conn = yield from BlockingSocket.accept_one(
            testbed.server, port, options=options
        )
        out["server"] = yield from server_fn(conn)

    def client():
        conn = yield from BlockingSocket.connect(testbed.client, port, options=options)
        out["client"] = yield from client_fn(conn)

    run_procs(testbed.sim, server(), client(), max_events=50_000_000)
    return out


def test_bytes_survive_roundtrip(testbed):
    payload = os.urandom(100_000)

    def server_fn(conn):
        chunks = []
        while True:
            data = yield from conn.recv_bytes(8192)
            if data == b"":
                break
            chunks.append(data)
        return b"".join(chunks)

    def client_fn(conn):
        for off in range(0, len(payload), 10_000):
            yield from conn.send_bytes(payload[off : off + 10_000])
        yield from conn.close()
        return True

    out = pipe(testbed, server_fn, client_fn)
    assert out["server"] == payload


def test_stream_rechunks_across_recv_sizes(testbed):
    """Stream semantics: send sizes and recv sizes are independent."""
    payload = bytes(range(256)) * 64  # 16384 bytes

    def server_fn(conn):
        got = b""
        sizes = []
        while True:
            data = yield from conn.recv_bytes(1000)
            if data == b"":
                break
            sizes.append(len(data))
            got += data
        assert all(s <= 1000 for s in sizes)
        return got

    def client_fn(conn):
        yield from conn.send_bytes(payload)  # one big send
        yield from conn.close()

    out = pipe(testbed, server_fn, client_fn)
    assert out["server"] == payload


def test_large_send_through_small_ring(testbed):
    """A send far larger than the intermediate buffer flows through it in
    pieces without loss (sender blocks on buffer-space ACKs)."""
    payload = os.urandom(300_000)  # ring is 64 KiB

    def server_fn(conn):
        got = b""
        while len(got) < len(payload):
            data = yield from conn.recv_bytes(50_000)
            assert data != b""
            got += data
        return got

    def client_fn(conn):
        yield from conn.send_bytes(payload)
        return True

    out = pipe(testbed, server_fn, client_fn, options=small_ring_options())
    assert out["server"] == payload


def test_waitall_fills_buffer_exactly(testbed):
    payload = os.urandom(50_000)

    def server_fn(conn):
        data = yield from conn.recv_bytes(50_000, waitall=True)
        assert len(data) == 50_000
        return data

    def client_fn(conn):
        # many small sends must accumulate into the single WAITALL recv
        for off in range(0, 50_000, 1250):
            yield from conn.send_bytes(payload[off : off + 1250])
        return True

    out = pipe(testbed, server_fn, client_fn)
    assert out["server"] == payload


def test_eof_semantics(testbed):
    def server_fn(conn):
        first = yield from conn.recv_bytes(100)
        eof1 = yield from conn.recv_bytes(100)
        eof2 = yield from conn.recv_bytes(100)  # recv after EOF: immediate EOF
        return (first, eof1, eof2)

    def client_fn(conn):
        yield from conn.send_bytes(b"bye")
        yield from conn.close()
        return True

    out = pipe(testbed, server_fn, client_fn)
    assert out["server"] == (b"bye", b"", b"")


def test_bidirectional_streams(testbed):
    """Both directions of one connection carry independent streams."""

    def server_fn(conn):
        data = yield from conn.recv_bytes(1000)
        yield from conn.send_bytes(data[::-1])
        return data

    def client_fn(conn):
        yield from conn.send_bytes(b"forward")
        back = yield from conn.recv_bytes(1000)
        return back

    out = pipe(testbed, server_fn, client_fn)
    assert out["server"] == b"forward"
    assert out["client"] == b"drawrof"


def test_offsets_respected(testbed):
    """exs_send/exs_recv honour buffer offsets."""
    out = {}

    def server():
        stack = testbed.server
        lsock = stack.socket()
        lsock.bind_listen(4001)
        eq = stack.qcreate()
        lsock.accept(eq)
        ev = yield eq.dequeue()
        sock = ev.socket
        buf = stack.alloc(100)
        mr = yield from stack.mregister(buf)
        sock.recv(buf, mr, 10, eq, offset=37)
        ev = yield eq.dequeue()
        out["n"] = ev.nbytes
        out["data"] = buf.read(37, ev.nbytes)
        out["guard"] = buf.read(30, 7)

    def client():
        stack = testbed.client
        sock = stack.socket()
        eq = stack.qcreate()
        sock.connect(4001, eq)
        yield eq.dequeue()
        buf = stack.alloc(100)
        buf.write(60, b"PAYLOAD")
        mr = yield from stack.mregister(buf)
        sock.send(buf, mr, 7, eq, offset=60)
        yield eq.dequeue()

    run_procs(testbed.sim, server(), client(), max_events=10_000_000)
    assert out["n"] == 7
    assert out["data"] == b"PAYLOAD"
    assert out["guard"] == b"\x00" * 7  # bytes before the offset untouched


def test_api_validation(testbed):
    stack = testbed.client
    sock = stack.socket()
    eq = stack.qcreate()
    buf = stack.alloc(10)
    with pytest.raises(ExsError, match="not connected"):
        sock.send(buf, None, 5, eq)
    sock2 = stack.socket()
    with pytest.raises(ExsError, match="non-listening"):
        sock2.accept(eq)


def test_mode_mismatch_detected(testbed):
    """Peers configured with different protocol modes refuse to connect."""

    def server():
        try:
            yield from BlockingSocket.accept_one(
                testbed.server, 4002,
                options=ExsSocketOptions(mode=ProtocolMode.DIRECT_ONLY),
            )
        except ExsError as exc:
            return str(exc)
        return None

    def client():
        try:
            yield from BlockingSocket.connect(
                testbed.client, 4002,
                options=ExsSocketOptions(mode=ProtocolMode.INDIRECT_ONLY),
            )
        except ExsError as exc:
            return str(exc)
        return None

    results = run_procs(testbed.sim, server(), client(), max_events=10_000_000)
    assert results[0] is not None and "mode mismatch" in results[0]
    assert results[1] is not None  # rejected


@pytest.mark.parametrize("calendar", KERNELS)
def test_failing_client_ends_the_run(calendar):
    """A zero-byte send raises ExsError in the client while the server
    blocks in recv_bytes: the run ends on the client's exception instead
    of returning at quiescence with the server stranded."""
    tb = Testbed.from_scenario(ScenarioConfig(seed=1, kernel=calendar))

    def server():
        conn = yield from BlockingSocket.accept_one(tb.server, 4003)
        yield from conn.recv_bytes(10)

    def client():
        conn = yield from BlockingSocket.connect(tb.client, 4003)
        yield from conn.send_bytes(b"")

    tb.sim.process(server(), name="zero-server")
    tb.sim.process(client(), name="zero-client")
    with pytest.raises(SimulationError, match=r"process 'zero-client' failed at t=") as info:
        tb.run()
    assert isinstance(info.value.__cause__, ExsError)
    assert "exs_send of <= 0 bytes" in str(info.value.__cause__)
