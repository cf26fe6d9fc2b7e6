"""Simulation-neutrality golden test.

Host-speed work on the kernel and the progress engines (fewer calendar
events, fewer calls) must not move a single simulated nanosecond.  Each
case below is a short, fully pinned run; its record holds everything
simulated that the run exposes — end time, delivered bytes, every latency
sample (hashed), the protocol counters of every connection, and the link /
fault / switch-port / reliability counters of the fabric — and **not**
``events_executed`` or the calendar's batch counters, which are the
harness's own bookkeeping and are expected to shrink.

``tests/golden/sim_neutrality.json`` holds the records captured at the
commit whose simulation is the reference (PR 11, before the engine's
sleep–wake–recheck cycle was put on an event diet).  To bless an
intentional *model* change, re-capture and say why in CHANGES.md::

    PYTHONPATH=src python tests/test_sim_neutrality.py --capture

The matrix: seeds x {wwi, eager_rendezvous} x {lossless, go-back-N,
selective repeat} x {point-to-point, star} over blast, echo and
incast-shaped runs, per-connection engines and CQ shards, captured on the
timing wheel (the ``legacy`` in the star case names is historical) and
replayed on both calendars, the wheel and the heap.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro import (
    BlastConfig,
    ExponentialSizes,
    ExsSocketOptions,
    Fabric,
    FixedSizes,
    ScenarioConfig,
    Testbed,
    run_blast,
)
from repro.apps import EchoConfig, run_echo
from repro.exs import ExsEventType, MsgFlags
from repro.simnet import HEAVY_LOSS, LIGHT_LOSS, SwitchConfig, Topology
from repro.verbs import ReliabilityConfig

GOLDEN = Path(__file__).parent / "golden" / "sim_neutrality.json"
KIB = 1024
SEEDS = (1, 2)
TRANSPORTS = ("wwi", "eager_rendezvous")
#: (label, fault profile, reliability mode)
RECOVERY = (
    ("lossless", None, None),
    ("gobackn", HEAVY_LOSS, "gobackn"),
    ("selective_repeat", LIGHT_LOSS, "selective_repeat"),
)


def _ints(obj) -> dict:
    """The non-zero integer counters of a stats object."""
    return {k: v for k, v in sorted(vars(obj).items()) if isinstance(v, int) and v}


def _samples(values) -> dict:
    values = list(values)
    blob = ",".join(map(str, values)).encode()
    return {"n": len(values), "head": values[:4],
            "sha256": hashlib.sha256(blob).hexdigest()[:16]}


def _fabric_counters(fabric) -> dict:
    """Everything simulated a fabric's public objects count, except the
    calendar's own counters."""
    out = {"now_ns": fabric.now}
    for name, link in fabric.links.items():
        for d in link.directions:
            s = d.stats
            out[f"link.{name}.{d.index}"] = [s.messages, s.wire_bytes, s.busy_ns]
    for name, model in fabric.impairments.items():
        out[f"faults.{name}"] = [
            model.dropped_total, model.duplicated_total,
            model.corrupted_total, model.acks_dropped_total,
        ]
    for sname, switch in fabric.switches.items():
        for pname, port in switch.ports.items():
            out[f"port.{sname}.{pname}"] = [
                port.forwarded, port.forwarded_bytes, port.drops,
                port.backpressured, port.peak_queue_bytes,
            ]
    for host in fabric.host_names:
        engine = fabric.device(host).reliability
        if engine is not None:
            out[f"rel.{host}"] = _ints(engine.stats)
    return out


def _ran(fabric, kernel):
    """*fabric* names the calendar that ran: the *kernel* asked for, except
    the heap when the wheel's C accelerator could not be loaded."""
    stats = fabric.sim.calendar_stats()
    want = "heap" if stats["accelerator"] == "unavailable" else kernel
    assert fabric.kernel == stats["backend"] == want


def _scenario(seed, transport, faults, rel_mode, *, profile="fdr", hops=1, **kw):
    scenario = ScenarioConfig(profile=profile, seed=seed, transport=transport,
                              faults=faults, **kw)
    if rel_mode is not None:
        p = scenario.resolve_profile()
        rel = ReliabilityConfig.for_path(
            hops * (p.propagation_delay_ns + p.emulator_delay_ns), mode=rel_mode)
        scenario = scenario.with_(reliability=rel)
    return scenario


# ---------------------------------------------------------------------------
# the three run shapes
# ---------------------------------------------------------------------------
def _blast(seed, transport, faults, rel_mode, kernel="wheel"):
    lossy = faults is not None
    scenario = _scenario(seed, transport, faults, rel_mode,
                         profile="roce-lan" if lossy else "fdr", kernel=kernel)
    config = BlastConfig(
        total_messages=60 if lossy else 150,
        sizes=FixedSizes(64 * KIB) if lossy else ExponentialSizes(seed=seed),
        outstanding_sends=4,
        outstanding_recvs=8,
    )
    tb = Testbed.from_scenario(scenario)
    _ran(tb, kernel)
    r = run_blast(config, scenario=scenario, testbed=tb, max_events=5_000_000)
    return {
        "total_bytes": r.total_bytes, "start_ns": r.start_ns, "end_ns": r.end_ns,
        "send_latencies_ns": _samples(r.send_latencies_ns),
        "tx": _ints(r.tx_stats), "rx": _ints(r.rx_stats),
        "sender_cpu": r.sender_cpu, "receiver_cpu": r.receiver_cpu,
        "fabric": _fabric_counters(tb),
    }


def _echo(seed, transport, kernel="wheel"):
    scenario = _scenario(seed, transport, None, None, kernel=kernel)
    tb = Testbed.from_scenario(scenario)
    _ran(tb, kernel)
    r = run_echo(EchoConfig(iterations=150, message_bytes=64, warmup=0),
                 testbed=tb, max_events=5_000_000)
    return {"rtts_ns": _samples(r.rtts_ns), "fabric": _fabric_counters(tb)}


def _star(*args, **kwargs):
    return _run_star(*args, **kwargs)[0]


def _run_star(seed, transport, policy, rel_mode, shards, schedule=None, kernel="wheel"):
    """Incast-shaped run driven on the Fabric itself, so that every
    connection's protocol counters are in reach; returns the record and
    the fabric.  A *schedule* policy leaves the kernel to the scenario,
    which then runs on the heap."""
    senders, per_sender, messages, nbytes = 4, 2, 4, 4 * KIB
    names = tuple(f"s{i}" for i in range(senders))
    topology = Topology.star(
        names + ("sink",),
        switch=SwitchConfig(policy=policy, port_queue_bytes=16 * KIB),
    )
    sharing = {"srq_depth": 256, "cq_shards": 2} if shards else {}
    scenario = _scenario(seed, transport, None, rel_mode, hops=2, topology=topology,
                         kernel=None if schedule else kernel, schedule=schedule,
                         **sharing)
    fabric = Fabric.from_scenario(scenario)
    _ran(fabric, "heap" if schedule else kernel)
    options = ExsSocketOptions(real_data=False)
    latencies, finish, handles = [], {}, []

    def sender(handle):
        yield handle.established
        stack = fabric.stack(handle.a)
        buf = stack.alloc(nbytes, label="golden:snd")
        mr = yield from stack.mregister(buf)
        for _ in range(messages):
            posted = stack.sim.now
            handle.a_socket.send(buf, mr, nbytes, handle.a_eq)
            (yield handle.a_eq.dequeue()).expect(ExsEventType.SEND)
            latencies.append(stack.sim.now - posted)

    def receiver(handle, index):
        yield handle.established
        stack = fabric.stack(handle.b)
        buf = stack.alloc(nbytes, label="golden:rcv")
        mr = yield from stack.mregister(buf)
        for _ in range(messages):
            handle.b_socket.recv(buf, mr, nbytes, handle.b_eq,
                                 flags=MsgFlags.MSG_WAITALL)
            (yield handle.b_eq.dequeue()).expect(ExsEventType.RECV)
        finish[index] = stack.sim.now

    for name in names:
        for _ in range(per_sender):
            handle = fabric.connect(name, "sink", options=options)
            handles.append(handle)
            fabric.sim.process(sender(handle))
            fabric.sim.process(receiver(handle, len(handles) - 1))
    fabric.run(max_events=5_000_000)
    assert len(finish) == len(handles)
    return {
        "finish_ns": [finish[i] for i in range(len(handles))],
        "send_latencies_ns": _samples(latencies),
        "tx": [_ints(h.a_socket.conn.tx_stats) for h in handles],
        "rx": [_ints(h.b_socket.conn.rx_stats) for h in handles],
        "fabric": _fabric_counters(fabric),
    }, fabric


def _cases():
    for seed in SEEDS:
        for transport in TRANSPORTS:
            for label, faults, rel_mode in RECOVERY:
                yield (f"blast/p2p/{transport}/{label}/s{seed}",
                       lambda kernel="wheel", a=(seed, transport, faults, rel_mode):
                       _blast(*a, kernel=kernel))
            yield (f"echo/p2p/{transport}/s{seed}",
                   lambda kernel="wheel", a=(seed, transport): _echo(*a, kernel=kernel))
            for policy, rel_mode in (("backpressure", None),
                                     ("drop", "gobackn"),
                                     ("drop", "selective_repeat")):
                yield (f"incast/star/{transport}/{rel_mode or 'lossless'}/"
                       f"legacy/shards/s{seed}",
                       lambda kernel="wheel", a=(seed, transport, policy, rel_mode, True):
                       _star(*a, kernel=kernel))
        # per-connection engines (no SRQ pool, no CQ shards)
        yield (f"incast/star/wwi/lossless/legacy/per-conn/s{seed}",
               lambda kernel="wheel", a=(seed, "wwi", "backpressure", None, False):
               _star(*a, kernel=kernel))


CASES = dict(_cases())


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_file_matches_the_case_list(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_simulation_is_bit_identical_to_golden(case, golden):
    # round-trip through JSON so floats and tuples compare like the file's
    got = json.loads(json.dumps(CASES[case]()))
    want = golden[case]
    assert got == want, "\n".join(
        f"{case}: {key}: golden {want.get(key)!r} != now {got.get(key)!r}"
        for key in sorted(set(want) | set(got)) if want.get(key) != got.get(key))


@pytest.mark.parametrize("case", sorted(CASES))
def test_heap_calendar_is_bit_identical_to_golden(case, golden):
    # the golden rows are captured on the wheel; the heap calendar must
    # replay every one of them
    assert json.loads(json.dumps(CASES[case]("heap"))) == golden[case]


def test_schedule_policy_runs_on_the_heap_bit_identically(golden):
    # FIFO on the heap calendar keys ties exactly as the wheel orders them
    got = json.loads(json.dumps(_star(1, "wwi", "drop", "gobackn", True,
                                      schedule=("fifo", 0))))
    assert got == golden["incast/star/wwi/gobackn/legacy/shards/s1"]


def test_a_host_without_a_compiler_runs_the_heap_bit_identically(
        golden, monkeypatch, tmp_path, recwarn):
    """The wheel exists only in C: when it cannot be built, a run that asks
    for the wheel gets the heap — the same golden row, a fabric that names
    the heap, the failure recorded, and one warning that says so."""
    import shutil
    import subprocess
    import warnings

    from repro.simnet import _accel

    def failing_cc(cmd, **kwargs):
        return subprocess.CompletedProcess(cmd, 1, b"", b"cc: command not found\n")

    monkeypatch.setattr(shutil, "which", lambda name: f"/usr/bin/{name}")  # a compiler...
    monkeypatch.setattr(subprocess, "run", failing_cc)  # ...that fails
    monkeypatch.setenv("REPRO_ACCEL_CACHE", str(tmp_path))  # nothing cached
    monkeypatch.setattr(_accel, "_state", "unloaded")
    monkeypatch.setattr(_accel, "_reason", None)
    warnings.simplefilter("always")
    record, fabric = _run_star(1, "wwi", "drop", "gobackn", True, kernel="wheel")
    assert json.loads(json.dumps(record)) == golden["incast/star/wwi/gobackn/legacy/shards/s1"]
    stats = fabric.sim.calendar_stats()
    assert (fabric.scenario.kernel, fabric.kernel) == ("wheel", "heap")
    assert (stats["accelerator"], stats["accelerator_reason"]) == (
        "unavailable", "RuntimeError: accelerator compile failed: cc: command not found")
    warned = [str(w.message) for w in recwarn.list if w.category is RuntimeWarning]
    assert len(warned) == 1, warned
    assert "running the heap calendar" in warned[0] and "pure-Python" not in warned[0]


if __name__ == "__main__":
    if sys.argv[1:] != ["--capture"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_sim_neutrality.py --capture")
    GOLDEN.parent.mkdir(exist_ok=True)
    lines = [f"{json.dumps(name)}: {json.dumps(CASES[name](), sort_keys=True)}"
             for name in sorted(CASES)]  # one case per line: diffs stay readable
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"captured {len(CASES)} cases into {GOLDEN}")
