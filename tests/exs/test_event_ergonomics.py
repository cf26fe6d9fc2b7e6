"""ExsEvent.expect() and the BlockingSocket context manager."""

from __future__ import annotations

import pytest
from helpers import run_procs

from repro.config import ScenarioConfig
from repro.exs import BlockingSocket, ExsError, ExsEventType
from repro.exs.eventqueue import ExsEvent
from repro.testbed import Testbed

PORT = 4600


@pytest.fixture
def tb() -> Testbed:
    return Testbed.from_scenario(ScenarioConfig(seed=2))


# ---------------------------------------------------------------------------
# ExsEvent.expect
# ---------------------------------------------------------------------------
def test_expect_returns_self_on_match():
    ev = ExsEvent(kind=ExsEventType.SEND, socket=None, nbytes=10)
    assert ev.expect(ExsEventType.SEND) is ev


def test_expect_raises_on_kind_mismatch():
    ev = ExsEvent(kind=ExsEventType.CLOSE, socket=None)
    with pytest.raises(ExsError, match="expected send completion, got close"):
        ev.expect(ExsEventType.SEND)


def test_expect_raises_on_error_event():
    ev = ExsEvent(kind=ExsEventType.RECV, socket=None, error="boom")
    with pytest.raises(ExsError, match="boom"):
        ev.expect(ExsEventType.RECV)


# ---------------------------------------------------------------------------
# BlockingSocket as a context manager
# ---------------------------------------------------------------------------
def test_with_block_closes_and_server_sees_eof(tb):
    out = {}

    def server():
        conn = yield from BlockingSocket.accept_one(tb.server, PORT)
        out["data"] = yield from conn.recv_bytes(64)
        out["eof"] = (yield from conn.recv_bytes(64)) == b""

    def client():
        conn = yield from BlockingSocket.connect(tb.client, PORT)
        with conn:
            yield from conn.send_bytes(b"payload")
        assert conn._closed

    run_procs(tb.sim, server(), client())
    assert out["data"] == b"payload"
    assert out["eof"], "with-block exit must close the stream (server EOF)"
    # accept_one closed its listening socket once its accept completed
    assert tb.server.cm._listeners == {} and tb.client.cm._listeners == {}


def test_close_is_idempotent_after_with(tb):
    out = {}

    def server():
        conn = yield from BlockingSocket.accept_one(tb.server, PORT)
        out["eof"] = (yield from conn.recv_bytes(64)) == b""

    def client():
        conn = yield from BlockingSocket.connect(tb.client, PORT)
        with conn:
            pass
        # explicit close after the with-block must be a clean no-op
        yield from conn.close()

    run_procs(tb.sim, server(), client())
    assert out["eof"]


def test_explicit_close_still_waits_for_completion(tb):
    def server():
        conn = yield from BlockingSocket.accept_one(tb.server, PORT)
        yield from conn.recv_bytes(64)

    def client():
        conn = yield from BlockingSocket.connect(tb.client, PORT)
        yield from conn.close()
        assert conn._closed

    run_procs(tb.sim, server(), client())
