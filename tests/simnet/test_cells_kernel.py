"""Determinism and boundary tests for the decoupled cells kernel.

The contract under test (see docs/SIMULATION.md, "Temporal decoupling and
lookahead"):

* ``kernel="cells"`` (conservative windowed bursts) is **bit-identical**
  to ``kernel="cells-lockstep"`` (strict global time order under the same
  cell-key tie-break) — across seeds, topologies, transports, reliability
  modes, and fault profiles.  Temporal decoupling changes wall-clock
  behaviour only, never simulation results.
* The C drain and the pure-Python drain produce identical runs.
* Cross-cell posts into a cell's past raise the causality guard.
* Incompatible configurations (no switched topology, schedule policies,
  causal capture) fall back to the monolithic kernel instead of failing.
"""

import pytest

from repro.apps.incast import IncastConfig, run_incast
from repro.config import ScenarioConfig
from repro.exs import ExsSocketOptions, MsgFlags
from repro.exs.eventqueue import ExsEventType
from repro.fabric import Fabric
from repro.simnet import FaultProfile, Simulator, Topology
from repro.simnet.cells import CONTROL, CellMap, CellSimulator
from repro.simnet.kernel import SimulationError
from repro.verbs import ReliabilityConfig


# ---------------------------------------------------------------------------
# fingerprinting helpers
# ---------------------------------------------------------------------------
def _incast_fingerprint(kernel, *, seed, policy="backpressure",
                        transport=None, rel_mode=None, faults=None):
    """Run a small audited incast and return its full result fingerprint."""
    cfg = IncastConfig(
        senders=4, connections_per_sender=2,
        message_bytes=4096, bytes_per_sender=2 * 4096,
        policy=policy,
        options=ExsSocketOptions(real_data=False, transport=transport),
    )
    scenario = ScenarioConfig(seed=seed, srq_depth=256, cq_shards=2,
                              kernel=kernel, faults=faults)
    if rel_mode is not None or faults is not None:
        profile = scenario.resolve_profile()
        rel = ReliabilityConfig.for_path(
            2 * (profile.propagation_delay_ns + profile.emulator_delay_ns))
        if rel_mode is not None:
            from dataclasses import replace
            rel = replace(rel, mode=rel_mode)
        scenario = scenario.with_(reliability=rel)
    result = run_incast(cfg, scenario, audit=True)
    assert result.audit_violations == 0
    fp = result.to_dict()
    fp["finish_ns"] = list(result.finish_ns)
    return fp


MATRIX = [
    # transport, reliability mode, switch policy, seed, faults
    ("wwi", None, "backpressure", 1, None),
    ("wwi", "selective_repeat", "drop", 2, None),
    ("eager_rendezvous", "gobackn", "drop", 1, None),
    ("eager_rendezvous", "selective_repeat", "backpressure", 2, None),
    ("wwi", "gobackn", "backpressure", 3, FaultProfile(drop_prob=0.02)),
    ("eager_rendezvous", "gobackn", "backpressure", 1,
     FaultProfile(drop_prob=0.01, corrupt_prob=0.01)),
]


@pytest.mark.parametrize(
    "transport,rel_mode,policy,seed,faults", MATRIX,
    ids=[f"{t}-{m or 'default'}-{p}-s{s}{'-faults' if f else ''}"
         for t, m, p, s, f in MATRIX])
def test_decoupled_matches_lockstep_bit_identical(
        transport, rel_mode, policy, seed, faults):
    """Windowed bursts never change results, only wall-clock behaviour."""
    kwargs = dict(seed=seed, policy=policy, transport=transport,
                  rel_mode=rel_mode, faults=faults)
    decoupled = _incast_fingerprint("cells", **kwargs)
    lockstep = _incast_fingerprint("cells-lockstep", **kwargs)
    assert decoupled == lockstep


def test_cells_tracks_legacy_aggregates():
    """The cell-key tie-break may shift same-instant interleavings, but
    aggregate results stay with the monolithic kernel's (anchor row)."""
    cells = _incast_fingerprint("cells", seed=1)
    legacy = _incast_fingerprint(None, seed=1)
    assert cells["total_bytes"] == legacy["total_bytes"]
    assert cells["connections"] == legacy["connections"]
    # tie-break order shifts a handful of same-instant wake-ups; on a run
    # this short that moves completion by a few percent, never more
    assert cells["end_ns"] == pytest.approx(legacy["end_ns"], rel=0.10)


def test_c_and_pure_python_drains_are_bit_identical(monkeypatch):
    """The accelerated per-cell drain replays the pure engine exactly."""
    from repro.simnet import _accel

    accelerated = _incast_fingerprint("cells", seed=2)
    monkeypatch.setenv("REPRO_KERNEL_C", "0")
    monkeypatch.setattr(_accel, "_state", "unloaded")
    pure = _incast_fingerprint("cells", seed=2)
    assert accelerated == pure


# ---------------------------------------------------------------------------
# leaf-spine topology (cross-switch lookahead)
# ---------------------------------------------------------------------------
def _leaf_spine_run(kernel, seed, transport, rel_mode):
    topo = Topology.leaf_spine([["h0", "h1"], ["h2", "h3"]], spines=2)
    scenario = ScenarioConfig(seed=seed, topology=topo,
                              srq_depth=128, cq_shards=2, kernel=kernel)
    profile = scenario.resolve_profile()
    if rel_mode is not None:
        from dataclasses import replace
        rel = ReliabilityConfig.for_path(
            2 * (profile.propagation_delay_ns + profile.emulator_delay_ns))
        scenario = scenario.with_(reliability=replace(rel, mode=rel_mode))
    fabric = Fabric.from_scenario(scenario)
    if kernel in ("cells", "cells-lockstep"):
        assert fabric.kernel == kernel

    options = ExsSocketOptions(real_data=False, transport=transport)
    finish = {}
    nbytes = 4096

    def sender(handle):
        yield handle.wait_side("a")
        stack = handle.fabric.stack(handle.a)
        buf = stack.alloc(nbytes, label="ls:snd")
        mr = yield from stack.mregister(buf)
        for _ in range(3):
            handle.a_socket.send(buf, mr, nbytes, handle.a_eq)
            ev = yield handle.a_eq.dequeue()
            ev.expect(ExsEventType.SEND)

    def receiver(handle, idx):
        yield handle.wait_side("b")
        stack = handle.fabric.stack(handle.b)
        buf = stack.alloc(nbytes, label="ls:rcv")
        mr = yield from stack.mregister(buf)
        remaining = 3 * nbytes
        while remaining > 0:
            handle.b_socket.recv(buf, mr, nbytes, handle.b_eq,
                                 flags=MsgFlags.MSG_WAITALL)
            ev = yield handle.b_eq.dequeue()
            ev.expect(ExsEventType.RECV)
            remaining -= ev.nbytes
        finish[idx] = stack.sim.now

    pairs = [("h0", "h2"), ("h1", "h3"), ("h3", "h0"), ("h2", "h1")]
    for i, (a, b) in enumerate(pairs):
        handle = fabric.connect(a, b, options=options)
        fabric.sim.process(sender(handle), name=f"ls-snd-{i}")
        fabric.sim.process(receiver(handle, i), name=f"ls-rcv-{i}")
    fabric.run()
    assert sorted(finish) == list(range(len(pairs)))
    return {"finish": finish, "end": fabric.sim.now}


@pytest.mark.parametrize("transport,rel_mode,seed", [
    ("wwi", None, 1),
    ("eager_rendezvous", "selective_repeat", 2),
])
def test_leaf_spine_decoupled_matches_lockstep(transport, rel_mode, seed):
    decoupled = _leaf_spine_run("cells", seed, transport, rel_mode)
    lockstep = _leaf_spine_run("cells-lockstep", seed, transport, rel_mode)
    assert decoupled == lockstep


# ---------------------------------------------------------------------------
# kernel-level boundaries (no protocol stack)
# ---------------------------------------------------------------------------
def _ping_pong_trace(decouple: bool, lookahead_ns: int):
    """Two cells relaying a counter via cross-cell posts; returns the
    observed (time, cell, value) execution log."""
    cm = CellMap(("a", "b", CONTROL), (lookahead_ns, lookahead_ns, 0))
    sim = CellSimulator(cm, decouple=decouple)
    log = []

    def relay(arg):
        target, hops = arg
        log.append((sim.now, cm.names[target], hops))
        if hops < 20:
            nxt = cm.index["a"] if target == cm.index["b"] else cm.index["b"]
            sim.call_in_cell(nxt, max(1, lookahead_ns), relay, (nxt, hops + 1))

    with sim.cell("a"):
        sim.call_in(0, relay, (cm.index["a"], 0))
    sim.run()
    return log, sim.now


def test_zero_lookahead_degenerates_to_lockstep_and_stays_correct():
    """lookahead 0 forces single-instant windows; results are unchanged."""
    dec, dec_end = _ping_pong_trace(True, 0)
    lock, lock_end = _ping_pong_trace(False, 0)
    assert dec == lock
    assert dec_end == lock_end
    assert len(dec) == 21


def test_positive_lookahead_same_trace_as_lockstep():
    dec, dec_end = _ping_pong_trace(True, 100)
    lock, lock_end = _ping_pong_trace(False, 100)
    assert dec == lock
    assert dec_end == lock_end


def test_causality_guard_rejects_posts_into_a_cells_past():
    """An overstated lookahead table lets a burst outrun a neighbour's
    post; the kernel must refuse to deliver into the past."""
    cm = CellMap(("a", "b", CONTROL), (1000, 1000, 0))
    sim = CellSimulator(cm, decouple=True)

    def a_work(_):
        # local chain keeps cell a's clock advancing inside its window
        if sim.now < 400:
            sim.call_in(100, a_work, None)

    def b_post(_):
        # by now cell a has burst past t=10: this arrival is in its past
        sim.call_in_cell(cm.index["a"], 10, lambda _: None, None)

    with sim.cell("a"):
        sim.call_in(0, a_work, None)
    with sim.cell("b"):
        sim.call_in(50, b_post, None)
    with pytest.raises(SimulationError, match="causality violation"):
        sim.run()


# ---------------------------------------------------------------------------
# fallback matrix + config plumbing
# ---------------------------------------------------------------------------
def test_fabric_selects_cells_kernel_on_switched_topology():
    topo = Topology.star(["a", "b", "c"])
    fabric = Fabric.from_scenario(
        ScenarioConfig(topology=topo, kernel="cells"))
    assert fabric.kernel == "cells"
    assert isinstance(fabric.sim, CellSimulator)
    stats = fabric.sim.calendar_stats()
    assert stats["backend"] == "cells"
    assert stats["mode"] == "decoupled"
    assert set(stats["cells"]) == {"a", "b", "c", "switch0", CONTROL}


def test_fabric_decoupled_alias_and_lockstep_mode():
    topo = Topology.star(["a", "b", "c"])
    # "decoupled" was a second spelling of kernel="cells"; it is retired
    with pytest.raises(ValueError, match="unknown kernel"):
        ScenarioConfig(topology=topo, kernel="decoupled")
    lock = Fabric.from_scenario(
        ScenarioConfig(topology=topo, kernel="cells-lockstep"))
    assert lock.sim.calendar_stats()["mode"] == "lockstep"


def test_fabric_falls_back_to_legacy_without_a_switch():
    fabric = Fabric.from_scenario(ScenarioConfig(kernel="cells"))
    assert fabric.kernel == "legacy"
    assert not isinstance(fabric.sim, CellSimulator)


def test_fabric_falls_back_to_legacy_under_causal_capture():
    topo = Topology.star(["a", "b", "c"])
    fabric = Fabric.from_scenario(
        ScenarioConfig(topology=topo, kernel="cells", causal_capture=True))
    assert fabric.kernel == "legacy"


def test_env_kernel_selection_via_fabric(monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL", "cells")
    topo = Topology.star(["a", "b", "c"])
    fabric = Fabric.from_scenario(ScenarioConfig(topology=topo))
    assert fabric.kernel == "cells"
    # an explicit scenario kernel wins over the environment
    fabric = Fabric.from_scenario(ScenarioConfig(topology=topo, kernel="wheel"))
    assert fabric.kernel == "legacy"


def test_env_cells_on_plain_simulator_keeps_the_wheel(monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL", "cells")
    sim = Simulator()
    assert sim.calendar_stats()["backend"] != "cells"


def test_scenario_config_kernel_round_trip():
    cfg = ScenarioConfig(kernel="cells-lockstep")
    assert ScenarioConfig.from_dict(cfg.to_dict()).kernel == "cells-lockstep"
    assert ScenarioConfig.from_dict(ScenarioConfig().to_dict()).kernel is None
    with pytest.raises(ValueError, match="unknown kernel"):
        ScenarioConfig(kernel="warp")


def test_calendar_stats_per_cell_counters_accumulate():
    """Per-cell counters sum to the run totals and expose every gauge the
    observability layer publishes as ``kernel.cell.<name>.*``."""
    out = _leaf_spine_run("cells", 1, None, None)
    assert out["end"] > 0
    topo = Topology.leaf_spine([["h0", "h1"], ["h2", "h3"]], spines=2)
    fabric = Fabric.from_scenario(
        ScenarioConfig(seed=1, topology=topo, kernel="cells"))
    fabric.run(until=1_000_000)
    stats = fabric.sim.calendar_stats()
    per = stats["cells"]
    assert sum(c["events"] for c in per.values()) == stats["events_executed"]
    assert sum(c["instants"] for c in per.values()) == stats["batches"]
    for c in per.values():
        assert set(c) >= {"horizon_ns", "next_ns", "queued", "instants",
                          "events", "safe_window_ns", "inbox_merges",
                          "lookahead_ns"}
