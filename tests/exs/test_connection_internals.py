"""Connection internals: credit flow, receive-pool recycling, hello."""

import os

import pytest

from helpers import idle_wakeups, run_procs
from repro.core import ProtocolMode
from repro.exs import BlockingSocket, CreditMsg, ExsSocketOptions, SocketType
from repro.testbed import Testbed
from repro.config import ScenarioConfig


def run_exchange(options, nbytes=100_000, seed=21):
    tb = Testbed(ScenarioConfig(seed=seed))
    out = {}

    def server():
        conn = yield from BlockingSocket.accept_one(tb.server, 5200, options=options)
        got = b""
        while len(got) < nbytes:
            d = yield from conn.recv_bytes(20_000)
            assert d
            got += d
        out["server_conn"] = conn.sock.conn
        out["got"] = got

    def client():
        conn = yield from BlockingSocket.connect(tb.client, 5200, options=options)
        yield from conn.send_bytes(b"k" * nbytes)
        out["client_conn"] = conn.sock.conn

    run_procs(tb.sim, server(), client(), max_events=50_000_000)
    return out


def test_recv_pool_is_recycled_not_drained():
    """Every consumed RECV is reposted: the pool never shrinks."""
    opts = ExsSocketOptions(credits=32, ring_capacity=16 * 1024)
    out = run_exchange(opts)
    for side in ("server_conn", "client_conn"):
        conn = out[side]
        assert conn.qp.recv_queue_depth == opts.credits


def _recv_wrs_built_at_bringup(monkeypatch, credits):
    """(RecvWRs constructed, the connections) once a 2-host connection is
    established, before any message moves."""
    from repro.fabric import Fabric
    from repro.verbs import RecvWR

    built = []
    init = RecvWR.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(RecvWR, "__init__", counting_init)
    fab = Fabric(ScenarioConfig(seed=23))
    pair = fab.connect("client", "server",
                       options=ExsSocketOptions(credits=credits))
    fab.run()
    assert pair.established.triggered
    conns = [s.conn for s in (pair.a_socket, pair.b_socket)]
    monkeypatch.setattr(RecvWR, "__init__", init)
    return len(built), conns


def test_bringup_builds_no_recv_per_credit(monkeypatch):
    """Pre-posting the receive pool is one lazy chain: the RecvWRs built
    during bring-up do not grow with ``credits``."""
    small, small_conns = _recv_wrs_built_at_bringup(monkeypatch, 128)
    large, large_conns = _recv_wrs_built_at_bringup(monkeypatch, 4096)
    assert large == small
    for credits, conns in ((128, small_conns), (4096, large_conns)):
        for conn in conns:
            assert conn.qp.recv_queue_depth == credits
            assert conn.qp.recvs_posted == credits
            # the pool took wr_ids 1..credits; the counter carries on after it
            assert conn._wr_id == credits


def test_credit_conservation_end_to_end():
    """consumed == messages that consumed a peer RECV; grants cover them."""
    opts = ExsSocketOptions(credits=16, ring_capacity=8 * 1024)
    out = run_exchange(opts)
    for side in ("server_conn", "client_conn"):
        cm = out[side].credits
        assert cm.available >= 0
        assert cm.consumed_total <= cm.initial_remote + cm.peer_repost_cum
        # the peer's grant can never exceed what we actually sent
        assert cm.peer_repost_cum <= cm.consumed_total


def test_hello_carries_ring_and_credits():
    tb = Testbed(ScenarioConfig(seed=22))
    opts = ExsSocketOptions(credits=48, ring_capacity=123_456)
    out = {}

    def server():
        conn = yield from BlockingSocket.accept_one(tb.server, 5201, options=opts)
        out["hello"] = conn.sock.conn.hello()
        out["peer"] = conn.sock.peer_hello

    def client():
        conn = yield from BlockingSocket.connect(tb.client, 5201, options=opts)
        out["client_peer"] = conn.sock.peer_hello

    run_procs(tb.sim, server(), client(), max_events=10_000_000)
    hello = out["hello"]
    assert hello["credits"] == 48
    assert hello["ring_capacity"] == 123_456
    assert hello["mode"] == "dynamic"
    assert hello["socket_type"] == "stream"
    # what the client learned matches what the server advertises
    assert out["client_peer"]["ring_capacity"] == 123_456
    # and the server learned the client's hello via the REQ
    assert out["peer"]["credits"] == 48


def test_seqpacket_rejects_sender_copy():
    """sender_copy is a stream-semantics option; SOCK_SEQPACKET keeps its
    one-message-one-transfer behaviour, so the combination is rejected at
    connection setup instead of being silently ignored."""
    tb = Testbed(ScenarioConfig(seed=23))
    sock = tb.client.socket(SocketType.SOCK_SEQPACKET, ExsSocketOptions(sender_copy=True))
    with pytest.raises(ValueError, match=r"sender_copy=True .*SOCK_SEQPACKET"):
        sock.connect(5202, tb.client.qcreate())


def test_stats_are_per_direction():
    opts = ExsSocketOptions()
    out = run_exchange(opts)
    client_conn, server_conn = out["client_conn"], out["server_conn"]
    # the client only sent: its rx stats are empty, tx stats busy
    assert client_conn.tx_stats.total_transfers > 0
    assert client_conn.rx_stats.total_transfers == 0
    # the server only received: adverts/copies live on its rx side
    assert server_conn.rx_stats.adverts_sent + server_conn.rx_stats.adverts_suppressed > 0
    assert server_conn.tx_stats.total_transfers == 0


def test_engine_sleep_leaves_nothing_behind_per_wakeup():
    """Regression: every channel-side wake-up used to strand one kick
    waiter (fired later as a no-op event), and every kick-side wake-up one
    more callback on the pending channel waiter — both grew without bound
    over a connection's life.  Now each wake-up of an idle engine is one
    calendar event and leaves the engine exactly as it found it: asleep,
    kick armed, channel registered, nothing latched or queued."""
    out = run_exchange(ExsSocketOptions(credits=16, ring_capacity=8 * 1024),
                       nbytes=20_000)
    conn = out["client_conn"]
    sim = conn.sim
    sim.run()  # quiesce: the engine is asleep on channel-or-kick
    assert idle_wakeups(conn._engine, sim) == (80, {(True, True, False, 0, True, 0)})


@pytest.mark.parametrize("cq_shards", [0, 1])
def test_queued_control_goes_out_on_the_next_wake(cq_shards):
    """Control work queued with no kick is sent on the next wake-up of the
    connection's poller, a private one or a stack shard's, however it was
    woken; a private poller finishes once its connection fails."""
    tb = Testbed(ScenarioConfig(seed=21, cq_shards=cq_shards))
    out = {}

    def server():
        conn = yield from BlockingSocket.accept_one(tb.server, 5210)
        out["got"] = yield from conn.recv_bytes(4096, waitall=True)

    def client():
        conn = yield from BlockingSocket.connect(tb.client, 5210)
        out["conn"] = conn.sock.conn
        yield from conn.send_bytes(b"q" * 4096)

    run_procs(tb.sim, server(), client())
    sim, conn = tb.sim, out["conn"]
    sim.run()  # quiesce: the poller is asleep on channel-or-kick
    consumed = conn.credits.consumed_total
    conn.queue_control(CreditMsg(credit_cum=0))
    conn.channel.notify()  # a bare wake: no completion, no kick
    sim.run()
    assert not conn._ctrl_queue
    assert conn.credits.consumed_total == consumed + 1

    if cq_shards:
        return
    engine = conn._engine
    conn.fail_connection("injected")
    sim.run()
    assert (engine._sleep, engine._kick_armed, engine._kick_latched) == (None, False, False)
    arms = []
    conn.cq.req_notify = lambda: arms.append(sim.now)
    conn.channel.notify()
    sim.run()
    assert not arms  # the poller returned: nothing re-arms its CQ


def test_completion_dispatch_rejects_an_unexpected_opcode():
    """A successful completion EXS never posts for raises at dispatch; a
    failed one breaks the connection and runs no handler."""
    from repro.verbs import WCOpcode, WCStatus, WorkCompletion

    conn = run_exchange(ExsSocketOptions(), nbytes=1_000)["client_conn"]
    foreign = WorkCompletion(1, "atomic_fetch_add", WCStatus.SUCCESS, 0, 0, conn.qp.qpn)
    with pytest.raises(RuntimeError, match="unexpected completion opcode atomic_fetch_add"):
        conn._dispatch(foreign)
    assert not conn.broken
    flushed = WorkCompletion(2, WCOpcode.SEND, WCStatus.WR_FLUSH_ERR, 0, 0, conn.qp.qpn)
    assert conn._dispatch(flushed) is None
    assert conn.broken and conn.error == "transport error: flushed"
