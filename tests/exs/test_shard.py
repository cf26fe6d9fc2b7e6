"""CQ sharding: shared completion vectors servicing many connections."""

import itertools

import pytest

from helpers import idle_wakeups, run_procs
from repro.apps.incast import IncastConfig, run_incast
from repro.config import ScenarioConfig
from repro.exs import BlockingSocket, ExsSocketOptions
from repro.exs.connection import ExsConnection
from repro.exs.credits import CreditError
from repro.fabric import Fabric
from repro.simnet import FaultProfile, Topology
from repro.testbed import Testbed
from repro.verbs import ReliabilityConfig


def _pingpong(fab, port, nbytes, a="client", b="server", out=None, key=None):
    def server():
        conn = yield from BlockingSocket.accept_one(fab.stack(b), port)
        data = yield from conn.recv_bytes(nbytes, waitall=True)
        if out is not None:
            out[key] = data

    def client():
        conn = yield from BlockingSocket.connect(fab.stack(a), port, to=b)
        yield from conn.send_bytes(bytes([port % 251]) * nbytes)

    return server(), client()


def test_connections_are_assigned_round_robin():
    fab = Fabric(ScenarioConfig(seed=2, cq_shards=2))
    pairs = [fab.connect("client", "server") for _ in range(4)]
    fab.run()
    assert all(p.established.triggered for p in pairs)
    for name in ("client", "server"):
        shards = fab.stack(name).shards
        assert len(shards) == 2
        assert [len(s.conns) for s in shards] == [2, 2]
        # every registered connection shares its shard's channel and CQ
        for shard in shards:
            for conn in shard.conns.values():
                assert conn.cq is shard.cq
                assert conn.channel is shard.channel


def test_sharded_transfers_deliver_correct_data():
    fab = Fabric(ScenarioConfig(seed=5, cq_shards=3))
    out = {}
    procs = []
    for i in range(5):
        procs.extend(_pingpong(fab, 6000 + i, 10_000, out=out, key=i))
    run_procs(fab.sim, *procs)
    for i in range(5):
        assert out[i] == bytes([(6000 + i) % 251]) * 10_000
    shards = fab.stack("server").shards
    assert sum(s.wcs_dispatched for s in shards) > 0
    assert sum(s.rounds for s in shards) > 0


def test_srq_and_shards_compose():
    fab = Fabric(ScenarioConfig(seed=5, srq_depth=64, cq_shards=2))
    out = {}
    procs = []
    for i in range(4):
        procs.extend(_pingpong(fab, 6100 + i, 12_000, out=out, key=i))
    run_procs(fab.sim, *procs)
    for i in range(4):
        assert out[i] == bytes([(6100 + i) % 251]) * 12_000
    assert fab.stack("server").srq_pool.attached == 4


def test_sharded_runs_are_deterministic():
    def once():
        fab = Fabric(ScenarioConfig(seed=8, srq_depth=32, cq_shards=2))
        procs = []
        for i in range(3):
            procs.extend(_pingpong(fab, 6200 + i, 8_000))
        run_procs(fab.sim, *procs)
        return fab.now, fab.sim.calendar_stats()["events_executed"]

    assert once() == once()


def test_failing_connection_does_not_break_shard_siblings():
    """A dead wire kills its connection; the shard keeps serving others."""
    fab = Fabric(ScenarioConfig(
        seed=3, topology=Topology.star(["a", "b", "c"]), cq_shards=1,
        faults={"a-switch0": FaultProfile(drop_prob=1.0)},
        reliability=ReliabilityConfig(
            retry_timeout_ns=50_000, retry_cnt=1, rnr_retry=1),
    ))
    out = {}

    def recv_good():
        conn = yield from BlockingSocket.accept_one(fab.stack("c"), 7001)
        out["good"] = yield from conn.recv_bytes(20_000, waitall=True)

    def send_good():
        conn = yield from BlockingSocket.connect(fab.stack("b"), 7001, to="c")
        yield from conn.send_bytes(b"g" * 20_000)

    def recv_dead():
        try:
            conn = yield from BlockingSocket.accept_one(fab.stack("c"), 7002)
            out["dead"] = yield from conn.recv_bytes(20_000, waitall=True)
        except Exception as exc:
            out["dead_recv_err"] = exc

    def send_dead():
        try:
            conn = yield from BlockingSocket.connect(fab.stack("a"), 7002, to="c")
            yield from conn.send_bytes(b"x" * 20_000)
        except Exception as exc:
            out["dead_send_err"] = exc

    for i, gen in enumerate((recv_good(), send_good(), recv_dead(), send_dead())):
        fab.sim.process(gen, name=f"proc{i}")
    fab.run(max_events=20_000_000)

    # the healthy stream on the same sink shard completed untouched
    assert out.get("good") == b"g" * 20_000
    # the starved stream never delivered its payload
    assert "dead" not in out


@pytest.mark.parametrize("cq_shards, died", [
    (0, r"EXS engine for connection \d+ died"),
    (2, r"CQ shard \d poller on host sink died"),
])
def test_engine_death_surfaces_from_run(monkeypatch, cq_shards, died):
    """A completion handler failing with anything but a credit or QP-state
    error kills the engine that ran it; per-connection or sharded, the run
    says so, chained to the cause, instead of hanging the connections."""
    handle = ExsConnection._handle_data_arrival
    calls = itertools.count(1)

    def fail_third(self, wc):
        if next(calls) == 3:
            raise KeyError("injected")
        handle(self, wc)

    monkeypatch.setattr(ExsConnection, "_handle_data_arrival", fail_third)
    with pytest.raises(RuntimeError, match=died) as info:
        run_incast(IncastConfig(senders=4, bytes_per_sender=16384, message_bytes=4096),
                   ScenarioConfig(seed=1, cq_shards=cq_shards))
    assert isinstance(info.value.__cause__, KeyError)


def test_shard_sleep_leaves_nothing_behind_per_wakeup():
    """Same leak regression as the per-connection engine's, for the shard
    poller: one event per idle wake-up, nothing left behind."""
    fab = Fabric(ScenarioConfig(seed=3, cq_shards=1))
    run_procs(fab.sim, *_pingpong(fab, 6300, 4_000))
    fab.sim.run()
    shard = fab.stack("server").shards[0]
    assert idle_wakeups(shard.engine, fab.sim) == (80, {(True, True, False, 0, True, 0)})


def test_credit_error_mid_batch_breaks_only_its_connection(monkeypatch):
    """A handler raising CreditError breaks its own connection; the poller
    goes on with the rest of the same CQ batch, in arrival order, for the
    connections sharing its shard, and they finish their transfers."""
    fab = Fabric(ScenarioConfig(seed=5, cq_shards=1))
    cq = fab.stack("server").shards[0].cq
    batches, dispatched, victim = [], [], {}
    poll = cq.poll

    def recording_poll():
        batches.append(poll())
        return batches[-1]

    def inject(conn, wc):
        raise CreditError("injected")

    dispatch = ExsConnection._dispatch

    def recording_dispatch(self, wc):
        charge, handler = dispatch(self, wc)
        if self.cq is cq:
            batch = batches[-1]
            if not victim and wc is batch[0] and len({w.qp_num for w in batch}) > 2:
                victim.update(qpn=wc.qp_num, batch=batch)
                handler = inject
            dispatched.append(wc)
        return charge, handler

    cq.poll = recording_poll
    monkeypatch.setattr(ExsConnection, "_dispatch", recording_dispatch)
    out, errors = {}, {}

    def server(port):
        conn = yield from BlockingSocket.accept_one(fab.stack("server"), port)
        try:
            out[port] = yield from conn.recv_bytes(30_000, waitall=True)
        except Exception as exc:
            errors[port] = exc

    def client(port):
        conn = yield from BlockingSocket.connect(fab.stack("client"), port, to="server")
        try:
            yield from conn.send_bytes(bytes([port % 251]) * 30_000)
        except Exception:
            pass

    ports = range(6400, 6404)
    run_procs(fab.sim, *(server(p) for p in ports), *(client(p) for p in ports))

    batch = victim["batch"]
    rest = [wc for wc in batch if wc.qp_num != victim["qpn"]]
    start = dispatched.index(batch[0]) + 1
    assert rest and dispatched[start:start + len(rest)] == rest
    broken = [c for c in fab.stack("server").connections.values() if c.broken]
    assert [c.qp.qpn for c in broken] == [victim["qpn"]]
    assert broken[0].error == "CreditError: injected"
    assert len(errors) == 1 and len(out) == len(ports) - 1
    assert all(data == bytes([port % 251]) * 30_000 for port, data in out.items())


def test_a_receiver_with_nothing_to_send_still_returns_credits():
    """Credits owed past the update threshold are, alone, work for a
    progress round: a receiver that never posts another receive returns
    them with standalone updates, or the sender stalls for good once its
    credits run out (the run drains with both processes blocked)."""
    tb = Testbed(ScenarioConfig(seed=1))
    options = ExsSocketOptions(credits=8)
    out = {}

    def server():
        conn = yield from BlockingSocket.accept_one(tb.server, 5400, options=options)
        out["got"] = yield from conn.recv_bytes(64 * 1024, waitall=True)
        out["server"] = conn.sock.conn

    def client():
        conn = yield from BlockingSocket.connect(tb.client, 5400, options=options)
        yield tb.sim.timeout(200_000)  # the one ADVERT is in: every send goes direct
        for _ in range(32):
            yield from conn.send_bytes(b"c" * 2048)
        out["client"] = conn.sock.conn

    run_procs(tb.sim, server(), client())
    assert out["got"] == b"c" * 64 * 1024
    assert out["client"].tx_stats.direct_transfers == 32
    # every data WRITE consumed a receive the server gave back by itself
    assert out["server"].credits.granted_cum >= 32 - options.credits
