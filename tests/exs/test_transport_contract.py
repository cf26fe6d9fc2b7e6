"""The transport contract: every registered half pair satisfies the
SenderHalf / ReceiverHalf Protocols, dispatches exactly the messages in its
tables (anything else is one named error), and reports the same telemetry
keys it always did."""

import functools
from types import SimpleNamespace

import pytest

from helpers import run_procs
from repro.config import ScenarioConfig
from repro.core.advert import Advert
from repro.exs import BlockingSocket, ExsSocketOptions, SocketType
from repro.exs.control import (
    IMM_DIRECT,
    IMM_INDIRECT,
    IMM_RENDEZVOUS,
    AdvertMsg,
    CreditMsg,
    CtsMsg,
    DataNotifyMsg,
    EagerDataMsg,
    FinMsg,
    RingAckMsg,
    RtsMsg,
)
from repro.exs.transport import PAIRS, ReceiverHalf, SenderHalf
from repro.hosts.memory import Chunk
from repro.obs.telemetry import Telemetry
from repro.testbed import Testbed
from repro.verbs import WCOpcode, WCStatus

ONE_OF_EACH = [
    AdvertMsg(advert=Advert(advert_id=1, seq=0, length=8, phase=0, waitall=False,
                            remote_addr=0, rkey=0)),
    RingAckMsg(copied_cum=0),
    CreditMsg(credit_cum=0),
    FinMsg(final_seq=0),
    DataNotifyMsg(imm_data=0, nbytes=1, stream_offset=0, remote_addr=0),
    EagerDataMsg(nbytes=1, stream_offset=0),
    RtsMsg(nbytes=1, stream_offset=0),
    CtsMsg(addr=0, rkey=0, nbytes=1),
]

#: per pair: (messages it takes, immediates it takes)
HANDLED = {
    (SocketType.SOCK_STREAM, "wwi"): (
        {CreditMsg, FinMsg, AdvertMsg, RingAckMsg, DataNotifyMsg}, {IMM_DIRECT, IMM_INDIRECT}),
    (SocketType.SOCK_STREAM, "eager_rendezvous"): (
        {CreditMsg, FinMsg, CtsMsg, RtsMsg, EagerDataMsg}, {IMM_RENDEZVOUS}),
    (SocketType.SOCK_SEQPACKET, "wwi"): (
        {CreditMsg, FinMsg, AdvertMsg, DataNotifyMsg}, {IMM_DIRECT}),
}

_COMMON_GAUGES = {
    "copy.payload_bytes_copied", "copy.payload_copies", "copy.pin_violations",
    "copy.pins_outstanding", "copy.view_bytes_forwarded", "copy.views_forwarded",
    "credits.available", "rx.copies", "tx.direct_bytes", "tx.direct_transfers",
    "tx.indirect_bytes", "tx.indirect_transfers", "tx.mode_switches", "tx.pending_sends",
}
#: the per-connection telemetry keys of each pair, pinned: a gauge that
#: moves between the connection and the halves keeps its name
GAUGES = {
    (SocketType.SOCK_STREAM, "wwi"): _COMMON_GAUGES | {"rx.ring_stored", "tx.ring_free"},
    (SocketType.SOCK_STREAM, "eager_rendezvous"): _COMMON_GAUGES | {
        "rx.eager_slots_free", "rx.eager_staged", "rx.rts_remaining", "tx.cts_grants_queued"},
    (SocketType.SOCK_SEQPACKET, "wwi"): _COMMON_GAUGES,
}


@functools.lru_cache(maxsize=None)
def finished(key):
    """Telemetry and both connections of a finished exchange (3 sends,
    close, EOF) on pair *key*."""
    socket_type, transport = key
    tb = Testbed(ScenarioConfig(seed=1))
    tel = Telemetry.attach(tb)
    options = ExsSocketOptions(transport=transport)
    out = {}

    def server():
        conn = yield from BlockingSocket.accept_one(tb.server, 7000, socket_type, options)
        while (yield from conn.recv_bytes(4096)) != b"":
            pass
        out["server"] = conn.sock.conn

    def client():
        conn = yield from BlockingSocket.connect(tb.client, 7000, socket_type, options)
        for _ in range(3):
            yield from conn.send_bytes(b"z" * 3000)
        yield from conn.close()
        out["client"] = conn.sock.conn

    run_procs(tb.sim, server(), client(), max_events=10_000_000)
    tel.finish()
    return tel, (out["client"], out["server"])


def _id(key):
    return f"{key[0].value}-{key[1]}"


KEYS = sorted(PAIRS, key=_id)
FOREIGN_MESSAGES = [(key, msg) for key in KEYS for msg in ONE_OF_EACH
                    if type(msg) not in HANDLED[key][0]]
FOREIGN_IMMS = [(key, imm_type) for key in KEYS
                for imm_type in (IMM_DIRECT, IMM_INDIRECT, IMM_RENDEZVOUS, 0x7)
                if imm_type not in HANDLED[key][1]]


def _named_error(key, what):
    return pytest.raises(RuntimeError, match=rf"{what}.*not handled by the "
                                             rf"{key[0].name} '{key[1]}' transport")


@pytest.mark.parametrize("key", KEYS, ids=_id)
def test_registered_pair_satisfies_the_protocols(key):
    tx_cls, rx_cls = PAIRS[key]
    for conn in finished(key)[1]:
        assert type(conn.tx) is tx_cls and type(conn.rx) is rx_cls
        assert isinstance(conn.tx, SenderHalf)
        assert isinstance(conn.rx, ReceiverHalf)
        assert conn.transport == key[1]


@pytest.mark.parametrize("key", KEYS, ids=_id)
def test_dispatch_tables_are_the_pairs(key):
    messages, imms = HANDLED[key]
    for conn in finished(key)[1]:
        assert set(conn._on_control) | set(conn._on_payload) == messages
        assert set(conn._on_imm) == imms


@pytest.mark.parametrize("key,msg", FOREIGN_MESSAGES,
                         ids=[f"{_id(k)}-{type(m).__name__}" for k, m in FOREIGN_MESSAGES])
def test_message_outside_the_tables_is_one_named_error(key, msg):
    wc = SimpleNamespace(status=WCStatus.SUCCESS, opcode=WCOpcode.RECV, context=None,
                         meta={"chunk": Chunk(0, 48, None, obj=msg)})
    for conn in finished(key)[1]:
        _charge, handler = conn._dispatch(wc)
        with _named_error(key, type(msg).__name__):
            handler(conn, wc)


@pytest.mark.parametrize("key,imm_type", FOREIGN_IMMS,
                         ids=[f"{_id(k)}-{t:#x}" for k, t in FOREIGN_IMMS])
def test_immediate_outside_the_table_is_one_named_error(key, imm_type):
    imm = imm_type << 28
    wc = SimpleNamespace(status=WCStatus.SUCCESS, opcode=WCOpcode.RECV_RDMA_WITH_IMM,
                         imm_data=imm, context=None, byte_len=1,
                         meta={"chunk": Chunk(0, 1, None), "remote_addr": 0})
    for conn in finished(key)[1]:
        _charge, handler = conn._dispatch(wc)
        with _named_error(key, f"immediate {imm:#x}"):
            handler(conn, wc)


@pytest.mark.parametrize("key", KEYS, ids=_id)
def test_telemetry_keys_are_unchanged(key):
    got = {}
    for name in finished(key)[0].registry.snapshot():
        if not name.startswith("conn") or name == "conns.opened":
            continue
        _conn, host, suffix = name.split(".", 2)
        got.setdefault(host, set()).add(suffix)
    assert got == {"client": GAUGES[key], "server": GAUGES[key]}
