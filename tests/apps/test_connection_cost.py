"""What one connection costs: a synthetic run carries no payload bytes, and
the state every connection of a transport pair shares is built once.

Synthetic mode (``real_data=False``) is what the scale benchmarks run, so
each workload's user buffers, rings and bounce slots must stay length-only:
no memoryview forwarded, no range pinned, no byte copied.  The footprint
guards hold what a connection leaves behind after bring-up under a bound
per interpreter: its Python objects, counted as the garbage collector
tracks them (the collector's cost grows with that count), and its bytes,
counted by ``tracemalloc`` both after a collection and before one (the
cyclic garbage a fabric nobody closed leaves until the next full
collection: these bring-ups pass their own fabric as ``testbed=``, which
the entry point never closes).
"""

import gc
import sys
import tracemalloc
from dataclasses import replace

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
from repro.testbed import Testbed

_INCAST = IncastConfig(senders=4, connections_per_sender=2, bytes_per_sender=32 * 1024,
                       message_bytes=8 * 1024)


def _incast(options):
    config = replace(_INCAST, options=options)
    fabric = Fabric.from_scenario(ScenarioConfig(seed=1, topology=incast_topology(config)))
    return fabric, lambda: run_incast(config, testbed=fabric)


def _two_host(run, config):
    tb = Testbed.from_scenario(ScenarioConfig(seed=1))
    return tb, lambda: run(config, testbed=tb)


WORKLOADS = {
    "blast": lambda: _two_host(run_blast, BlastConfig(
        total_messages=32, sizes=FixedSizes(16 * 1024), recv_buffer_bytes=64 * 1024,
        real_data=False)),
    "echo": lambda: _two_host(run_echo, EchoConfig(
        message_bytes=64, iterations=16, real_data=False)),
    "file_transfer": lambda: _two_host(run_file_transfer, FileTransferConfig(
        file_bytes=256 * 1024, streams=2, chunk_bytes=64 * 1024, real_data=False)),
    "incast": lambda: _incast(ExsSocketOptions(real_data=False)),
}


def _connections(fabric, run):
    """Run on *fabric* and return every EXS connection it opened."""
    telemetry = fabric.attach_telemetry()
    run()
    return telemetry._conns


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_synthetic_run_carries_no_payload_bytes(name):
    conns = _connections(*WORKLOADS[name]())
    assert conns
    for conn in conns:
        meter = conn.copy_meter
        assert (meter.views_forwarded, meter.pins_total, meter.payload_copies) == (0, 0, 0), (
            conn.host.name, meter.snapshot())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_a_finished_run_holds_no_listener(name):
    fabric, run = WORKLOADS[name]()
    run()
    for host in fabric.host_names:
        assert fabric.stack(host).cm._listeners == {}, host


def test_real_incast_still_moves_bytes():
    """The same incast with default options forwards views and copies."""
    conns = _connections(*_incast(ExsSocketOptions()))
    assert sum(c.copy_meter.views_forwarded for c in conns) > 0
    assert sum(c.copy_meter.pins_total for c in conns) > 0
    assert sum(c.copy_meter.payload_copies for c in conns) > 0


#: GC-tracked objects one connection may leave after a synthetic incast
#: bring-up: with no listener left behind and a wake-up stream per event
#: queue and channel it measured 89.4 (3.10) and 68.6 (3.11 to 3.13);
#: keeping one listener per connection measured 98 and 75.2
TRACKED_PER_CONNECTION = 93 if sys.version_info < (3, 11) else 72

#: bytes one connection may hold after the same bring-up: with list FIFOs,
#: pool reposts on the SRQ's lazy run, no listener left behind and
#: drawn-ahead wake-up streams it measured 15.5 KiB (3.10) and 13.4 to
#: 13.7 KiB (3.11 to 3.13); with a deque per FIFO, a RecvWR per repost and
#: a listener per connection, 23.7 to 24.2 KiB
BYTES_PER_CONNECTION = (18 if sys.version_info < (3, 11) else 16) * 1024

#: bytes one connection's bring-up leaves before any collection, its
#: cyclic garbage included: what a fabric nobody closed holds until a full
#: collection (a closed one is freed as its last holder drops it).  With
#: drawn-ahead wake-up streams it measured 17.9 KiB (3.10) and 15.1 to
#: 15.5 KiB (3.11 to 3.13); with a ``random.Random`` per event queue and
#: channel, 23.9 and 21.8 to 22.1 KiB
UNCOLLECTED_BYTES_PER_CONNECTION = (20 if sys.version_info < (3, 11) else 18) * 1024


def _bringup(connections_per_sender):
    config = IncastConfig(senders=16, connections_per_sender=connections_per_sender,
                          bytes_per_sender=16 * 1024, message_bytes=16 * 1024,
                          options=ExsSocketOptions(real_data=False))
    scenario = ScenarioConfig(profile="fdr", seed=1, srq_depth=4096, cq_shards=8,
                              topology=incast_topology(config))
    fabric = Fabric.from_scenario(scenario)
    run_incast(config, testbed=fabric)
    return fabric, config.total_connections


def test_tracked_objects_per_connection_stay_bounded():
    _bringup(1)  # first-use caches and imports are not per-connection
    gc.collect()
    before = len(gc.get_objects())
    fabric, connections = _bringup(16)
    gc.collect()
    per_connection = (len(gc.get_objects()) - before) / connections
    assert fabric.sim.now > 0  # counted while the fabric is still held
    assert per_connection < TRACKED_PER_CONNECTION, per_connection


def test_bytes_per_connection_stay_bounded():
    _bringup(1)  # first-use caches and imports are not per-connection
    gc.collect()
    tracemalloc.start()
    try:
        fabric, connections = _bringup(16)
        gc.collect()
        per_connection = tracemalloc.get_traced_memory()[0] / connections
    finally:
        tracemalloc.stop()
    assert fabric.sim.now > 0  # counted while the fabric is still held
    assert per_connection < BYTES_PER_CONNECTION, per_connection


def test_bytes_before_collection_per_connection_stay_bounded():
    _bringup(1)  # first-use caches and imports are not per-connection
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        fabric, connections = _bringup(16)
        per_connection = tracemalloc.get_traced_memory()[0] / connections
    finally:
        tracemalloc.stop()
        gc.enable()
    assert fabric.sim.now > 0
    assert per_connection < UNCOLLECTED_BYTES_PER_CONNECTION, per_connection


def test_bringup_leaves_no_listener_and_no_receive_wr_behind():
    fabric, connections = _bringup(16)
    pool = fabric.stack("sink").srq_pool
    assert pool.attached == connections
    for name in fabric.host_names:
        assert fabric.stack(name).cm._listeners == {}, name
    # every posted receive of the pool is on its lazy run: the one-by-one
    # WR queue was never built, and the run is all there is
    srq = pool.srq
    assert srq._wrs == ()
    assert srq.consumed_total > 0 and len(srq) == srq._run > 0


def test_connections_of_one_pair_share_their_dispatch_tables():
    fabric, run = _incast(ExsSocketOptions(real_data=False))
    conns = _connections(fabric, run)
    first, *others = conns
    assert others and all(c.established for c in conns)
    for conn in others:
        assert conn._on_control is first._on_control
        assert conn._on_payload is first._on_payload
        assert conn._on_imm is first._on_imm
