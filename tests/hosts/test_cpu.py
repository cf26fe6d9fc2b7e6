"""CPU model: serialization, busy accounting, utilization windows."""

import pytest

from helpers import run_procs
from repro.hosts import Cpu, CpuCostModel, Host


def test_work_advances_time_and_accounts(sim):
    cpu = Cpu(sim)

    def proc():
        yield from cpu.work(500)
        return sim.now

    assert run_procs(sim, proc()) == [500]
    assert cpu.busy_ns_total == 500


def test_work_serializes_fifo(sim):
    cpu = Cpu(sim)
    done = []

    def proc(tag, ns):
        yield from cpu.work(ns)
        done.append((tag, sim.now))

    run_procs(sim, proc("a", 100), proc("b", 50))
    assert done == [("a", 100), ("b", 150)]
    assert cpu.busy_ns_total == 150


def test_zero_work_is_free(sim):
    cpu = Cpu(sim)

    def proc():
        yield from cpu.work(0)
        return sim.now

    assert run_procs(sim, proc()) == [0]
    assert cpu.busy_ns_total == 0


def test_negative_work_rejected(sim):
    cpu = Cpu(sim)
    with pytest.raises(ValueError):
        list(cpu.work(-1))


def test_utilization_window_exact_overlap(sim):
    cpu = Cpu(sim)

    def proc():
        yield sim.timeout(100)
        yield from cpu.work(100)  # busy [100, 200]
        yield sim.timeout(100)
        yield from cpu.work(100)  # busy [300, 400]

    run_procs(sim, proc())
    assert cpu.busy_ns_between(0, 400) == 200
    assert cpu.busy_ns_between(150, 350) == 100  # half of each interval
    assert cpu.utilization_between(100, 200) == 1.0
    assert cpu.utilization_between(200, 300) == 0.0
    assert cpu.utilization_between(0, 0) == 0.0


def test_cost_model_copy_time():
    costs = CpuCostModel(copy_setup_ns=100)
    # 8 Gb/s copy bandwidth = 1 byte/ns
    assert costs.copy_ns(1000, 8e9) == 100 + 1000
    assert costs.copy_ns(0, 8e9) == 100


def test_host_copy_ns_uses_profile(sim):
    host = Host(sim, "h", copy_bandwidth_bps=8e9)
    assert host.copy_ns(1000) == host.cpu.costs.copy_setup_ns + 1000


def test_host_validates_bandwidth(sim):
    with pytest.raises(ValueError):
        Host(sim, "h", copy_bandwidth_bps=0)


def test_host_alloc_labels(sim):
    host = Host(sim, "node1")
    buf = host.alloc(10)
    assert "node1" in buf.label


def test_record_busy_spin_accounting(sim):
    cpu = Cpu(sim)
    cpu.record_busy(100, 300)
    assert cpu.busy_ns_total == 200
    assert cpu.utilization_between(0, 400) == pytest.approx(0.5)
    cpu.record_busy(300, 300)  # empty interval ignored
    assert cpu.busy_ns_total == 200


def test_overlapping_busy_spans_count_once(sim):
    """Spinning engines sharing the core record overlapping spans; the
    core is busy over their union, and the intervals stay time-ordered."""
    cpu = Cpu(sim)

    def proc():
        yield sim.timeout(50)
        yield from cpu.work(100)  # busy [50, 150]

    run_procs(sim, proc())
    cpu.record_busy(0, 120)     # one engine spun over the work
    cpu.record_busy(100, 150)   # another, inside the union already
    cpu.record_busy(200, 300)
    cpu.record_busy(180, 250)   # reaches back before the last interval
    assert cpu._intervals == [(0, 150), (180, 300)]
    assert cpu.busy_ns_total == 270
    assert cpu.busy_ns_between(0, 300) == 270
    assert cpu.utilization_between(0, 300) == pytest.approx(0.9)


def test_busy_poll_incast_utilisation_is_at_most_one():
    """Every busy-polling connection engine on a host spins on the same
    library core; summing their spans once reported 2.58 for ``s0``."""
    from repro.apps.incast import IncastConfig, incast_topology, run_incast
    from repro.config import ScenarioConfig
    from repro.exs import ExsSocketOptions
    from repro.fabric import Fabric

    cfg = IncastConfig(senders=2, connections_per_sender=4,
                       bytes_per_sender=64 * 1024, message_bytes=16 * 1024,
                       options=ExsSocketOptions(busy_poll=True))
    sc = ScenarioConfig(seed=1, topology=incast_topology(cfg))
    fab = Fabric.from_scenario(sc)
    result = run_incast(cfg, sc, testbed=fab)
    for host in fab.all_hosts:
        util = host.cpu.utilization_between(0, result.end_ns)
        assert 0.0 < util <= 1.0, (host.name, util)
        spans = host.cpu._intervals
        assert all(a[1] < b[0] for a, b in zip(spans, spans[1:])), host.name


def test_host_has_independent_cores(sim):
    from helpers import run_procs

    host = Host(sim, "h")
    done = []

    def lib():
        yield from host.cpu.work(100)
        done.append(("lib", sim.now))

    def app():
        yield from host.app_cpu.work(100)
        done.append(("app", sim.now))

    run_procs(sim, lib(), app())
    # both finished at t=100: the cores do not contend with each other
    assert done == [("lib", 100), ("app", 100)]


# -- run(): the callback form engines use ------------------------------------
def test_run_charges_then_calls_back(sim):
    cpu = Cpu(sim)
    done = []
    assert cpu.run(500, done.append, "x") is True
    sim.run()
    assert done == ["x"] and sim.now == 500
    assert cpu.busy_ns_total == 500


def test_zero_run_on_a_free_core_is_inline(sim):
    """Nothing to wait for: run() says so and places nothing."""
    cpu = Cpu(sim)
    done = []
    assert cpu.run(0, done.append, "x") is False
    assert sim.peek() is None and done == []


def test_negative_run_rejected(sim):
    with pytest.raises(ValueError, match="negative CPU work"):
        Cpu(sim).run(-1, print)


def test_run_and_work_share_one_fifo_queue(sim):
    """work() processes and run() callbacks queue behind each other in
    arrival order, one calendar turn each, with one busy interval."""
    cpu = Cpu(sim)
    done = []

    def proc(tag, ns):
        yield from cpu.work(ns)
        done.append((tag, sim.now))

    sim.process(proc("a", 100))
    sim.call_in(0, lambda _: cpu.run(50, lambda tag: done.append((tag, sim.now)), "r"))
    sim.process(proc("b", 30))
    sim.call_in(0, lambda _: cpu.run(0, lambda tag: done.append((tag, sim.now)), "r0"))
    sim.run()
    assert done == [("a", 100), ("r", 150), ("b", 180), ("r0", 180)]
    assert cpu.busy_ns_total == 180
    assert cpu.busy_ns_between(0, 180) == 180 and cpu.queue_length == 0
