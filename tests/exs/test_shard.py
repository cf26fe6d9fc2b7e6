"""CQ sharding: shared completion vectors servicing many connections."""

import itertools

import pytest

from helpers import idle_wakeups, run_procs
from repro.apps.incast import IncastConfig, run_incast
from repro.config import ScenarioConfig
from repro.exs import BlockingSocket
from repro.exs.connection import ExsConnection
from repro.fabric import Fabric
from repro.simnet import FaultProfile, Topology
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
        return (yield from handle(self, wc))

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
