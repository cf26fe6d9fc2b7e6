"""A finished run frees its fabric: :meth:`Fabric.close` and the entry points.

An entry point that builds its own fabric closes it before returning, and
a closed fabric holds no reference cycle that grows with the run: what the
cyclic collector still finds afterwards is the simulator and its
self-bound calendar methods, the same few objects at every scale.  A
fabric passed as ``testbed=`` stays open, and a closed one refuses to run.
"""

import gc
from collections import Counter

import pytest

from repro.apps import (
    BlastConfig,
    EchoConfig,
    FileTransferConfig,
    FixedSizes,
    IncastConfig,
    incast_topology,
    run_blast,
    run_echo,
    run_file_transfer,
    run_incast,
)
from repro.config import ScenarioConfig
from repro.exs import ExsSocketOptions
from repro.fabric import Fabric
from repro.simnet import FaultProfile, SimulationError
from repro.testbed import Testbed

#: what a closed fabric may leave for the collector: the simulator, its
#: bound calendar entry points and the lists it owns, whatever the scale
RESIDUE_MAX = 50
#: per-run objects none of which may be left on a cycle
PER_RUN = {"ExsConnection", "QueuePair", "MemoryRegion", "Host", "RdmaDevice"}


def _incast_config(senders, per_sender):
    return IncastConfig(senders=senders, connections_per_sender=per_sender,
                        bytes_per_sender=32 * 1024, message_bytes=8 * 1024,
                        options=ExsSocketOptions(real_data=False))


SCENARIO = ScenarioConfig(profile="fdr", seed=1, srq_depth=256, cq_shards=2)


def _uncollected(run):
    """Types of what the collector finds after *run* (warmed up once, so
    first-use caches do not count), with the collector paused meanwhile."""
    run()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run()
        gc.collect()
        return Counter(type(o).__name__ for o in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


def _assert_small(found):
    assert sum(found.values()) <= RESIDUE_MAX, found.most_common(10)
    assert not PER_RUN & set(found), found


def test_an_incast_leaves_the_same_small_residue_at_every_size():
    small = _uncollected(lambda: run_incast(_incast_config(4, 2), SCENARIO))
    large = _uncollected(lambda: run_incast(_incast_config(8, 4), SCENARIO))
    _assert_small(small)
    assert small == large


@pytest.mark.parametrize("run", [
    lambda: run_blast(BlastConfig(total_messages=16, sizes=FixedSizes(8192)),
                      ScenarioConfig(seed=1)),
    lambda: run_echo(EchoConfig(iterations=8, message_bytes=64, warmup=0),
                     ScenarioConfig(seed=1)),
    lambda: run_file_transfer(FileTransferConfig(file_bytes=256 * 1024, streams=2),
                              ScenarioConfig(seed=1)),
    lambda: run_incast(_incast_config(4, 2), ScenarioConfig(seed=1)),  # private pollers
    lambda: run_blast(BlastConfig(total_messages=16, sizes=FixedSizes(8192)),
                      ScenarioConfig(seed=1, telemetry=True)),
    lambda: run_blast(BlastConfig(total_messages=16, sizes=FixedSizes(8192)),
                      ScenarioConfig(seed=1, causal_capture=True)),
], ids=["blast", "echo", "file_transfer", "incast-unsharded", "blast-observed",
        "blast-captured"])
def test_every_entry_point_closes_the_fabric_it_builds(run):
    _assert_small(_uncollected(run))


def test_a_lossy_run_closes_clean_on_every_variant(variant):
    """Retransmit state, reliability engines and both data planes too."""
    scenario = variant.scenario(seed=1, faults=FaultProfile(drop_prob=0.05))
    _assert_small(_uncollected(lambda: run_blast(
        BlastConfig(total_messages=16, sizes=FixedSizes(32 * 1024)), scenario)))


def _caller_incast():
    config = _incast_config(4, 2)
    fabric = Fabric.from_scenario(SCENARIO.with_(topology=incast_topology(config)))
    run_incast(config, testbed=fabric)
    return fabric


def test_a_callers_fabric_is_freed_by_close_and_del():
    def run():
        fabric = _caller_incast()
        fabric.close()
        del fabric

    _assert_small(_uncollected(run))


def test_a_testbed_passed_in_stays_open():
    fabric = _caller_incast()
    assert not fabric.closed
    assert fabric.stack("sink").connections
    fabric.run()  # still runnable: the calendar is simply empty


def test_a_closed_fabric_refuses_to_run_or_connect():
    fabric = _caller_incast()
    fabric.close()
    with pytest.raises(SimulationError, match="fabric is closed"):
        fabric.run()
    with pytest.raises(SimulationError, match="fabric is closed"):
        fabric.connect("s0", "sink")


def test_a_second_close_is_a_no_op():
    fabric = _caller_incast()
    fabric.close()
    before = fabric.sim.calendar_stats()
    fabric.close()
    assert fabric.closed
    assert fabric.sim.calendar_stats() == before


def test_the_with_form_closes_on_exit():
    with Testbed.from_scenario(ScenarioConfig(seed=1)) as tb:
        run_blast(BlastConfig(total_messages=4, sizes=FixedSizes(4096)), testbed=tb)
        assert not tb.closed
    assert tb.closed


def test_what_a_run_counted_stays_readable_after_close():
    config = _incast_config(4, 2)
    fabric = Fabric.from_scenario(SCENARIO.with_(topology=incast_topology(config)))
    telemetry = fabric.attach_telemetry()
    run_incast(config, testbed=fabric)

    def counters():
        return (
            fabric.sim.calendar_stats()["events_executed"],
            [d.stats for link in fabric.links.values() for d in link.directions],
            [p.forwarded_bytes for sw in fabric.switches.values() for p in sw.ports.values()],
            [s.rounds for h in fabric.host_names for s in fabric.stack(h).shards],
            fabric.stack("sink").srq_pool.min_free,
            [h.cpu.utilization_between(0, fabric.now) for h in fabric.all_hosts],
            # the freelists are dropped on purpose: their size is all that moves
            {k: v for k, v in telemetry.registry.snapshot().items()
             if k != "kernel.timeout_pool"},
        )

    before = counters()
    fabric.close()
    assert counters() == before
