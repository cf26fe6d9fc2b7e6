"""Send-credit accounting: unit tests and low-credit flow control."""

import os
import random

import pytest

from helpers import run_procs
from repro.apps import BlastConfig, FixedSizes, run_blast
from repro.exs import BlockingSocket, CreditError, CreditManager, ExsSocketOptions, SocketType
from repro.simnet import SimulationError
from repro.testbed import Testbed
from repro.config import ScenarioConfig


# -- unit ---------------------------------------------------------------
def test_initial_credits_and_reserve():
    cm = CreditManager(initial_remote=10, control_reserve=2)
    assert cm.available == 10
    assert cm.can_send_data(8)
    assert not cm.can_send_data(9)  # would dip into the control reserve


def test_consume_and_grant_cycle():
    cm = CreditManager(initial_remote=4, control_reserve=1)
    cm.consume(3)
    assert cm.available == 1
    assert not cm.can_send_data(1)
    assert cm.on_peer_grant(2)  # peer reposted 2
    assert cm.available == 3
    assert not cm.on_peer_grant(1)  # stale cumulative grant: ignored
    assert cm.available == 3



def test_peer_grant_noop_on_regressing_or_equal_cumulative():
    """`on_peer_grant` is a pure cumulative-max: a replayed or reordered
    grant at or below the recorded high-water mark changes nothing (the
    grant counter piggybacks on every control message, so duplicates under
    chaos are routine, not errors)."""
    cm = CreditManager(initial_remote=8, control_reserve=2)
    assert cm.on_peer_grant(3)
    avail = cm.available
    assert not cm.on_peer_grant(3)  # exact duplicate
    assert not cm.on_peer_grant(2)  # regression (reordered older grant)
    assert not cm.on_peer_grant(0)
    assert cm.peer_repost_cum == 3
    assert cm.available == avail
    assert cm.on_peer_grant(5)      # progress resumes normally
    assert cm.peer_repost_cum == 5
    assert cm.available == avail + 2


def test_over_consume_rejected():
    cm = CreditManager(initial_remote=3, control_reserve=1)
    with pytest.raises(CreditError):
        cm.consume(4)


def test_reserve_must_be_below_initial():
    with pytest.raises(CreditError):
        CreditManager(initial_remote=2, control_reserve=2)


def test_local_grant_bookkeeping():
    cm = CreditManager(initial_remote=8)
    cm.local_repost_cum += 5  # five reposts
    assert cm.grant_now() == 5
    assert cm.granted_cum == cm.local_repost_cum


def test_stale_grants_reordered_on_a_lossy_wire():
    """Cumulative grants are idempotent under any delivery order: a late or
    duplicated (retransmitted) grant can never roll availability back."""
    cm = CreditManager(initial_remote=6, control_reserve=1)
    cm.consume(4)
    assert cm.on_peer_grant(5)
    avail = cm.available
    # replays and reorderings of older grants, as go-back-N produces
    for stale in (5, 3, 1, 5, 0):
        assert not cm.on_peer_grant(stale)
        assert cm.available == avail
    assert cm.on_peer_grant(6)
    assert cm.available == avail + 1


def test_available_is_kept_current():
    """``available`` is a field that consume() and grants keep equal to
    what it stands for, whatever the order of the two."""
    rng = random.Random(7)
    cm = CreditManager(initial_remote=16, control_reserve=2)
    for _ in range(500):
        if rng.random() < 0.5 and cm.available:
            cm.consume(rng.randint(1, cm.available))
        else:
            cm.on_peer_grant(cm.peer_repost_cum + rng.randint(-2, 3))
        assert cm.available == cm.initial_remote + cm.peer_repost_cum - cm.consumed_total


def test_consume_beyond_available_after_grants():
    """The over-consume guard holds against the granted total, not just the
    initial pool."""
    cm = CreditManager(initial_remote=4, control_reserve=1)
    cm.on_peer_grant(2)
    cm.consume(6)
    assert cm.available == 0
    with pytest.raises(CreditError, match="consuming 1"):
        cm.consume(1)


def test_ungranted_tracks_interleaved_repost_and_grant():
    cm = CreditManager(initial_remote=8)
    cm.local_repost_cum += 3
    assert cm.grant_now() == 3
    cm.local_repost_cum += 2
    assert cm.local_repost_cum - cm.granted_cum == 2
    cm.local_repost_cum += 1
    assert cm.local_repost_cum - cm.granted_cum == 3
    assert cm.grant_now() == 6
    assert cm.local_repost_cum == cm.granted_cum
    # grant_now with nothing new keeps the cumulative value stable
    assert cm.grant_now() == 6


# -- integration: tiny credit pool must not deadlock -------------------------
@pytest.mark.parametrize("credits", [8, 16])
def test_stream_completes_with_tiny_credit_pool(credits):
    tb = Testbed(ScenarioConfig(seed=4))
    payload = os.urandom(200_000)
    options = ExsSocketOptions(credits=credits, ring_capacity=32 * 1024)
    out = {}

    def server():
        conn = yield from BlockingSocket.accept_one(tb.server, 4400, options=options)
        got = b""
        while len(got) < len(payload):
            data = yield from conn.recv_bytes(16_384)
            assert data != b""
            got += data
        out["got"] = got

    def client():
        conn = yield from BlockingSocket.connect(tb.client, 4400, options=options)
        for off in range(0, len(payload), 20_000):
            yield from conn.send_bytes(payload[off : off + 20_000])

    run_procs(tb.sim, server(), client(), max_events=100_000_000)
    assert out["got"] == payload


def test_credit_starvation_recovers_via_explicit_update():
    """With a minimal pool and one-way traffic, the receiver must push
    explicit credit updates to keep the sender moving."""
    tb = Testbed(ScenarioConfig(seed=5))
    options = ExsSocketOptions(credits=6, ring_capacity=16 * 1024)
    out = {}

    def server():
        conn = yield from BlockingSocket.accept_one(tb.server, 4401, options=options)
        got = b""
        while len(got) < 60_000:
            got += yield from conn.recv_bytes(4096)
        out["got_len"] = len(got)
        out["conn"] = conn

    def client():
        conn = yield from BlockingSocket.connect(tb.client, 4401, options=options)
        yield from conn.send_bytes(b"z" * 60_000)
        out["blocked"] = conn.sock.tx_stats.sender_blocked

    run_procs(tb.sim, server(), client(), max_events=100_000_000)
    assert out["got_len"] == 60_000


# -- the fewest credits each sender half makes progress with ---------------
def _blast(transport, credits):
    """16 x 512 B with 4 sends outstanding: the run that hung (3 credits)
    or deadlocked (4 on WWI) before connection setup refused them."""
    cfg = BlastConfig(total_messages=16, sizes=FixedSizes(512), outstanding_sends=4,
                      options=ExsSocketOptions(credits=credits))
    return run_blast(cfg, ScenarioConfig(transport=transport), max_events=300_000)


@pytest.mark.parametrize("transport, credits, minimum, half", [
    ("wwi", 3, 5, "StreamSenderHalf"),
    ("wwi", 4, 5, "StreamSenderHalf"),
    ("eager_rendezvous", 3, 4, "RdvSenderHalf"),
])
def test_too_few_credits_are_refused_at_setup(transport, credits, minimum, half):
    message = f"credits={credits} is below {minimum}, the fewest a {half} makes progress with"
    tb = Testbed(ScenarioConfig(seed=1, transport=transport))
    with pytest.raises(ValueError) as info:
        tb.client.socket(options=ExsSocketOptions(credits=credits)).connect(
            4700, tb.client.qcreate())
    assert str(info.value) == message
    with pytest.raises(SimulationError) as info:
        _blast(transport, credits)
    assert type(info.value.__cause__) is ValueError and str(info.value.__cause__) == message


#: the credit gate at the fewest credits each sender takes: how often it
#: blocks the sender, and when the run ends
GATE = {("wwi", 5): (25, 448_775), ("eager_rendezvous", 4): (13, 425_480)}


@pytest.mark.parametrize("transport, credits", [("wwi", 5), ("eager_rendezvous", 4)])
def test_the_fewest_credits_complete(transport, credits):
    result = _blast(transport, credits)
    assert result.total_bytes == 16 * 512
    assert (result.tx_stats.sender_blocked, result.end_ns) == GATE[transport, credits]


def test_seqpacket_refuses_three_credits_and_completes_with_four():
    tb = Testbed(ScenarioConfig(seed=1))
    with pytest.raises(ValueError, match=r"^credits=3 is below 4, the fewest a "
                                         r"SeqPacketSenderHalf makes progress with$"):
        tb.client.socket(SocketType.SOCK_SEQPACKET, ExsSocketOptions(credits=3)).connect(
            4700, tb.client.qcreate())

    tb = Testbed(ScenarioConfig(seed=1))
    options = ExsSocketOptions(credits=4)
    messages = [b"m%d" % i for i in range(24)]
    out = {}

    def server():
        conn = yield from BlockingSocket.accept_one(tb.server, 4402, SocketType.SOCK_SEQPACKET,
                                                    options)
        out["got"] = got = []
        for _ in messages:
            got.append((yield from conn.recv_bytes(64)))

    def client():
        conn = yield from BlockingSocket.connect(tb.client, 4402, SocketType.SOCK_SEQPACKET,
                                                 options)
        for m in messages:
            yield from conn.send_bytes(m)

    run_procs(tb.sim, server(), client(), max_events=300_000)
    assert out["got"] == messages
