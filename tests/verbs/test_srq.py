"""Shared receive queues: pool accounting, QP attachment, RNR semantics."""

import pytest

from repro.apps.incast import (
    IncastConfig,
    _receiver_proc,
    _sender_proc,
    incast_topology,
)
from repro.config import ScenarioConfig
from repro.exs import ExsSocketOptions, TRANSPORT_EAGER_RENDEZVOUS
from repro.fabric import Fabric
from repro.simnet import Topology
from repro.verbs import ReliabilityConfig, SharedReceiveQueue, VerbsError
from repro.verbs.wr import SGE, RecvWR


def _wr(wr_id: int) -> RecvWR:
    return RecvWR(wr_id=wr_id, sge=SGE(0, 256, 0))


# ----------------------------------------------------------------------
# SharedReceiveQueue unit behavior
# ----------------------------------------------------------------------
def test_srq_is_a_fifo_pool():
    fab = Fabric(topology=Topology.point_to_point())
    srq = fab.device("client").create_srq(3)
    for i in range(3):
        srq.post_recv(_wr(i))
    assert len(srq) == 3 and srq.free == 0
    assert [srq.take().wr_id for _ in range(3)] == [0, 1, 2]
    assert len(srq) == 0 and srq.free == 3
    assert srq.posted_total == 3 and srq.consumed_total == 3


def test_srq_overflow_and_bad_depth_raise():
    fab = Fabric(topology=Topology.point_to_point())
    device = fab.device("client")
    with pytest.raises(VerbsError, match="positive"):
        device.create_srq(0)
    srq = device.create_srq(1)
    srq.post_recv(_wr(1))
    with pytest.raises(VerbsError, match="overflow"):
        srq.post_recv(_wr(2))


def test_srq_tracks_low_water_mark():
    fab = Fabric(topology=Topology.point_to_point())
    srq = fab.device("client").create_srq(4)
    for i in range(4):
        srq.post_recv(_wr(i))
    assert srq.min_free == 4  # untouched until the first take
    srq.take()
    srq.take()
    assert srq.min_free == 2
    srq.post_recv(_wr(9))
    assert srq.min_free == 2  # reposting never raises the low-water mark


def test_qp_attached_to_srq_draws_from_the_pool():
    fab = Fabric(topology=Topology.point_to_point())
    device = fab.device("client")
    srq = device.create_srq(2)
    cq = device.create_cq()
    qp_a = device.create_qp(cq, cq, srq=srq)
    qp_b = device.create_qp(cq, cq, srq=srq)
    assert qp_a.srq is srq and qp_b.srq is srq
    assert not qp_a.has_recv()
    srq.post_recv(_wr(1))
    assert qp_a.has_recv() and qp_b.has_recv()  # one buffer, visible to both
    assert qp_b.take_recv().wr_id == 1
    assert not qp_a.has_recv()


# ----------------------------------------------------------------------
# SrqPool on the EXS stack
# ----------------------------------------------------------------------
def test_stack_pool_prefills_to_depth():
    fab = Fabric(ScenarioConfig(srq_depth=16))
    pool = fab.stack("client").srq_pool
    assert pool is not None
    assert pool.depth == 16 and pool.occupancy == 16 and pool.free == 0
    assert pool.attached == 0  # no connections yet


def test_pool_is_shared_across_connections():
    fab = Fabric(ScenarioConfig(seed=2, srq_depth=32))
    pairs = [fab.connect("client", "server") for _ in range(3)]
    fab.run()
    assert all(p.established.triggered for p in pairs)
    assert fab.stack("client").srq_pool.attached == 3
    assert fab.stack("server").srq_pool.attached == 3
    # all six QPs share the two per-stack pools: occupancy stayed bounded
    # by the pool depth, not 3x per-connection credit counts
    assert fab.stack("server").srq_pool.occupancy <= 32


def test_eager_transport_connections_are_not_pooled():
    fab = Fabric(ScenarioConfig(seed=2, srq_depth=32))
    options = ExsSocketOptions(transport=TRANSPORT_EAGER_RENDEZVOUS)
    pair = fab.connect("client", "server", options=options)
    fab.run()
    assert pair.established.triggered
    # eager receives land in per-connection bounce slots, so the pool
    # gained no attachments
    assert fab.stack("server").srq_pool.attached == 0


def test_srq_depth_validation():
    # None means "no pool"; zero and negative depths fail loudly
    assert Fabric(ScenarioConfig(srq_depth=None)).stack("client").srq_pool is None
    with pytest.raises(ValueError):
        ScenarioConfig(srq_depth=-1)
    with pytest.raises(ValueError):
        ScenarioConfig(srq_depth=0)


# ----------------------------------------------------------------------
# RNR semantics under pool exhaustion
# ----------------------------------------------------------------------
def _run_starved_incast(reliability):
    """4-sender fan-in against a sink whose pool is far too small."""
    cfg = IncastConfig(senders=4, bytes_per_sender=64 * 1024,
                       message_bytes=8 * 1024)
    sc = ScenarioConfig(seed=1, srq_depth=2, topology=incast_topology(cfg),
                        reliability=reliability)
    fab = Fabric.from_scenario(sc)
    finish = {}
    for i, name in enumerate(cfg.sender_names):
        handle = fab.connect(name, cfg.sink, options=ExsSocketOptions())
        fab.sim.process(_sender_proc(handle, cfg), name=f"snd{i}")
        fab.sim.process(_receiver_proc(handle, cfg, finish, i), name=f"rcv{i}")
    fab.run()
    return cfg, fab, finish


def test_exhausted_pool_rnr_naks_and_recovers():
    cfg, fab, finish = _run_starved_incast(ReliabilityConfig.for_path(4_000))
    assert len(finish) == cfg.total_connections  # every stream completed
    pool = fab.stack(cfg.sink).srq_pool
    assert pool.min_free == 0  # the pool really did run dry
    assert pool.empty_hits > 0
    sink_stats = fab.device(cfg.sink).reliability.stats
    # every empty-pool arrival became an RNR NAK on the arriving QP,
    # and the senders saw them and backed off
    assert sink_stats.rnr_naks_sent == pool.empty_hits
    senders_rcvd = sum(
        fab.device(n).reliability.stats.rnr_naks_received
        for n in cfg.sender_names
    )
    assert senders_rcvd == sink_stats.rnr_naks_sent


def test_exhausted_pool_without_reliability_fails_loudly():
    with pytest.raises(Exception, match="empty receive queue") as err:
        _run_starved_incast(None)
    # an exhausted shared pool is a sizing condition, not a credit bug: the
    # message names the pool and both remedies
    text = str(err.value)
    assert "shared receive pool (srq_depth=2, 4 attached QPs) is exhausted" in text
    assert "raise srq_depth" in text and "ReliabilityConfig" in text
    assert "credit accounting" not in text
