"""The neutrality ledger, ``tests/golden/ledger.json`` (docs/SIMULATION.md,
"Neutrality ledger"): one row per pinned run, split into what the run did
(``observable``, the same on both calendars) and how the calendar counted it
(``bookkeeping``, keyed by calendar).  Each row is checked on the calendar this
process runs; a mismatch leaves the recomputed ledger in the pytest basetemp as
``ledger-<calendar>.json``.  A model change re-captures both calendars, printing
what moved: ``PYTHONPATH=src python tests/test_ledger.py --capture``."""

from __future__ import annotations

import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from unittest import mock

import pytest

import repro
from repro import (BlastConfig, ExponentialSizes, ExsSocketOptions, Fabric, FixedSizes,
                   ScenarioConfig, Testbed, run_blast)
from repro.apps import EchoConfig, run_echo
from repro.exs import ExsEventType, MsgFlags
from repro.exs.engine import Engine
from repro.simnet import HEAVY_LOSS, LIGHT_LOSS, Simulator, SwitchConfig, Topology, _accel
from repro.verbs import ReliabilityConfig

LEDGER = Path(__file__).parent / "golden" / "ledger.json"
#: the ledger's row names, one test case each
ROWS = sorted(json.loads(LEDGER.read_text()))
PERF = Path(__file__).resolve().parent.parent / "perf"
SRC = str(Path(repro.__file__).resolve().parent.parent)
#: the calendar this process runs
CALENDAR = Simulator().calendar_stats()["backend"]
KIB = 1024
#: (label, fault profile, reliability mode)
RECOVERY = (("lossless", None, None), ("gobackn", HEAVY_LOSS, "gobackn"),
            ("selective_repeat", LIGHT_LOSS, "selective_repeat"))
#: Python source adding one no-op zero-delay entry per engine wake
EXTRA_ENTRY = """from repro.exs import engine
_step = engine.Engine._engine_step
def _engine_step(self, _arg=None):
    self.sim.call_in(0, engine._engine_exit)
    _step(self, _arg)
engine.Engine._engine_step = _engine_step
"""


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True, default=str).encode()).hexdigest()


def _ints(obj) -> dict:
    """The non-zero integer counters of a stats object."""
    return {k: v for k, v in sorted(vars(obj).items()) if isinstance(v, int) and v}


def _samples(values) -> dict:
    values = list(values)
    digest = hashlib.sha256(",".join(map(str, values)).encode()).hexdigest()[:16]
    return {"n": len(values), "head": values[:4], "sha256": digest}


def _fabric_counters(fabric) -> dict:
    """Everything simulated a fabric's public objects count."""
    out = {"now_ns": fabric.now}
    for name, link in fabric.links.items():
        for d in link.directions:
            s = d.stats
            out[f"link.{name}.{d.index}"] = [s.messages, s.wire_bytes, s.busy_ns]
    for name, m in fabric.impairments.items():
        out[f"faults.{name}"] = [
            m.dropped_total, m.duplicated_total, m.corrupted_total, m.acks_dropped_total]
    for sname, switch in fabric.switches.items():
        for pname, p in switch.ports.items():
            out[f"port.{sname}.{pname}"] = [
                p.forwarded, p.forwarded_bytes, p.drops, p.backpressured, p.peak_queue_bytes]
    for host in fabric.host_names:
        if (reliability := fabric.device(host).reliability) is not None:
            out[f"rel.{host}"] = _ints(reliability.stats)
    return out


def _scenario(seed, transport, faults, rel_mode, *, profile="fdr", hops=1, **kw):
    scenario = ScenarioConfig(profile=profile, seed=seed, transport=transport, faults=faults, **kw)
    if rel_mode is not None:
        p = scenario.resolve_profile()
        scenario = scenario.with_(reliability=ReliabilityConfig.for_path(
            hops * (p.propagation_delay_ns + p.emulator_delay_ns), mode=rel_mode))
    return scenario


# -- the pinned runs, each (observable half, fabric) on the calendar REPRO_KERNEL picks
def _blast(seed, transport, faults, rel_mode, *, observe=False):
    lossy = faults is not None
    scenario = _scenario(seed, transport, faults, rel_mode,
                         profile="roce-lan" if lossy else "fdr")
    config = BlastConfig(total_messages=60 if lossy else 150, outstanding_sends=4,
                         outstanding_recvs=8,
                         sizes=FixedSizes(64 * KIB) if lossy else ExponentialSizes(seed=seed))
    tb = Testbed.from_scenario(scenario)
    if observe:
        tb.attach_telemetry(sample_interval_ns=OBSERVE_INTERVAL_NS)
    r = run_blast(config, scenario=scenario, testbed=tb, max_events=5_000_000)
    return {"total_bytes": r.total_bytes, "start_ns": r.start_ns, "end_ns": r.end_ns,
            "send_latencies_ns": _samples(r.send_latencies_ns),
            "tx": _ints(r.tx_stats), "rx": _ints(r.rx_stats),
            "sender_cpu": r.sender_cpu, "receiver_cpu": r.receiver_cpu,
            "fabric": _fabric_counters(tb)}, tb


def _echo(seed, transport):
    tb = Testbed.from_scenario(_scenario(seed, transport, None, None))
    r = run_echo(EchoConfig(iterations=150, message_bytes=64, warmup=0),
                 testbed=tb, max_events=5_000_000)
    return {"rtts_ns": _samples(r.rtts_ns), "fabric": _fabric_counters(tb)}, tb


def _star(seed, transport, policy, rel_mode, shards, schedule=None, *, senders=4,
          messages=4, faults=None, observe=False):
    """Incast-shaped run driven on the Fabric itself, so that every connection's
    protocol counters are in reach.  A *schedule* policy runs on the heap."""
    per_sender, nbytes = 2, 4 * KIB
    names = tuple(f"s{i}" for i in range(senders))
    topology = Topology.star(
        names + ("sink",), switch=SwitchConfig(policy=policy, port_queue_bytes=16 * KIB))
    sharing = {"srq_depth": 256, "cq_shards": 2} if shards else {}
    scenario = _scenario(seed, transport, faults, rel_mode, hops=2, topology=topology,
                         schedule=schedule, **sharing)
    fabric = Fabric.from_scenario(scenario)
    if observe:
        fabric.attach_telemetry(sample_interval_ns=OBSERVE_INTERVAL_NS)
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
            handle.b_socket.recv(buf, mr, nbytes, handle.b_eq, flags=MsgFlags.MSG_WAITALL)
            (yield handle.b_eq.dequeue()).expect(ExsEventType.RECV)
        finish[index] = stack.sim.now

    for name in names:
        for _ in range(per_sender):
            handle = fabric.connect(name, "sink", options=ExsSocketOptions(real_data=False))
            handles.append(handle)
            fabric.sim.process(sender(handle))
            fabric.sim.process(receiver(handle, len(handles) - 1))
    fabric.run(max_events=5_000_000)
    assert len(finish) == len(handles)
    return {"finish_ns": [finish[i] for i in range(len(handles))],
            "send_latencies_ns": _samples(latencies),
            "tx": [_ints(h.a_socket.conn.tx_stats) for h in handles],
            "rx": [_ints(h.b_socket.conn.rx_stats) for h in handles],
            "fabric": _fabric_counters(fabric)}, fabric


def _pinned():
    for seed in (1, 2):
        for transport in ("wwi", "eager_rendezvous"):
            for label, faults, rel_mode in RECOVERY:
                yield (f"blast/p2p/{transport}/{label}/s{seed}",
                       lambda a=(seed, transport, faults, rel_mode): _blast(*a))
            yield f"echo/p2p/{transport}/s{seed}", lambda a=(seed, transport): _echo(*a)
            for policy, rel_mode in (("backpressure", None), ("drop", "gobackn"),
                                     ("drop", "selective_repeat")):
                yield (f"incast/star/{transport}/{rel_mode or 'lossless'}/shards/s{seed}",
                       lambda a=(seed, transport, policy, rel_mode, True): _star(*a))
        # per-connection engines (no SRQ pool, no CQ shards)
        yield (f"incast/star/wwi/lossless/per-conn/s{seed}",
               lambda a=(seed, "wwi", "backpressure", None, False): _star(*a))


PINNED = dict(_pinned())
#: the sample interval of the observed runs: tens of samples per run
OBSERVE_INTERVAL_NS = 10_000


def _observed(run, *args, **kwargs) -> dict:
    """The telemetry export of an observed pinned run, split like ``smoke/telemetry``."""
    _record, fabric = run(*args, observe=True, **kwargs)
    out = io.StringIO()
    fabric.telemetry.export(out)
    return _telemetry(out.getvalue())


#: observed runs that sample what the two-host quickstart never has: switch
#: ports, an SRQ pool, reliability engines, an impaired edge, rendezvous gauges
OBSERVED = {
    "observed/star/wwi/selective_repeat/light-edge/shards/s1": lambda: _observed(
        _star, 1, "wwi", "drop", "selective_repeat", True, senders=3, messages=32,
        faults={"s0-switch0": LIGHT_LOSS}),
    "observed/p2p/eager_rendezvous/gobackn/s1": lambda: _observed(
        _blast, 1, "eager_rendezvous", HEAVY_LOSS, "gobackn"),
}
#: the row the schedule-policy replays run
STAR = "incast/star/wwi/gobackn/shards/s1"


def _row(record, fabric) -> dict:
    # round-trip through JSON so floats and tuples compare like the file's
    return json.loads(json.dumps({
        "observable": record, "bookkeeping": {"events_executed": fabric.sim.events_executed}}))


# -- the smoke artefacts, each split into its two halves -----------------------
def _telemetry(text: str) -> dict:
    """``kernel.*`` gauges and the meta's kernel and accelerator are bookkeeping."""
    observable, bookkeeping = [], []
    for rec in map(json.loads, text.splitlines()):
        if rec["type"] == "series" and rec["name"].startswith("kernel."):
            bookkeeping.append(rec)
            continue
        if rec["type"] in ("snapshot", "meta"):
            fields = rec["values"] if rec["type"] == "snapshot" else rec["run"]
            bookkeeping.append({k: fields.pop(k) for k in sorted(fields)
                                if k.startswith(("kernel", "accelerator"))})
        observable.append(rec)
    return {"observable": _sha(observable), "bookkeeping": _sha(bookkeeping)}


def _perfetto(text: str) -> dict:
    """Causal-node numbers in ``args.cause`` are bookkeeping (flow ids,
    ``conn:send_id``, and a retransmit's ``"nak"``/``"timeout"`` are not)."""
    doc = json.loads(text)
    bookkeeping = [ev["args"].pop("cause") for ev in doc["traceEvents"]
                   if isinstance(ev.get("args", {}).get("cause"), int)]
    return {"observable": _sha(doc), "bookkeeping": _sha(bookkeeping)}


#: row -> (module and arguments, the file that holds the artefact, splitter)
SMOKE = {
    "smoke/telemetry": (["repro.obs", "smoke", "--out", "out"], "out", _telemetry),
    "smoke/perfetto": (["repro.obs", "trace", "--smoke", "--out", "out"], "out", _perfetto),
    "smoke/fuzz": (["repro.check", "fuzz", "--seeds", "50"], None, lambda text: {
        "observable": hashlib.sha256(text.encode()).hexdigest(), "bookkeeping": None}),
}


def _smoke(name: str, workdir: str, prelude: str) -> dict:
    """Make one smoke artefact in its own interpreter, *prelude* first."""
    (module, *args), artefact, split = SMOKE[name]
    code = f"{prelude}\nimport runpy\nrunpy.run_module({module!r}, run_name='__main__')"
    cwd = Path(tempfile.mkdtemp(dir=workdir))
    done = subprocess.run([sys.executable, "-c", code, *args], cwd=cwd, capture_output=True,
                          env={**os.environ, "PYTHONPATH": SRC}, timeout=300)
    assert done.returncode == 0, f"{name}: {done.stderr.decode()}"
    return split((cwd / artefact).read_text() if artefact else done.stdout.decode())


# -- the perf/ workloads -------------------------------------------------------
def _perf_rows() -> dict:
    """``measure.fingerprint``'s inputs minus the calendar's counters are
    observable; those counters and the fingerprint itself are bookkeeping."""
    with mock.patch.object(sys, "path", [str(PERF), *sys.path]):
        import measure
        import workloads
    rows = {}
    for name, workload in workloads.WORKLOADS.items():
        # a no-op observer taps the fabric run_incast keeps to itself
        out = workload(1, workload.full, observe=lambda fabric: None)
        stats = out.fabric.sim.calendar_stats()
        counters = {"events_executed": out.fabric.sim.events_executed,
                    **{k: stats[k] for k in ("max_batch", "overflow_inserts")}}
        handle = {k: v for k, v in out.handle.items() if k not in counters}
        rows[f"perf/{name}"] = {
            "observable": _sha([out.messages, out.payload_bytes, out.end_ns,
                                out.latencies_ns, out.result, handle]),
            "bookkeeping": {**counters, "fingerprint": measure.fingerprint(out)}}
    return rows


# -- the ledger ---------------------------------------------------------------
def compute(calendar: str, prelude: str = "") -> dict:
    """Every row as *calendar* computes it, *prelude* (Python source) run
    first, in this process and in each smoke artefact's."""
    exec(prelude, {})
    with mock.patch.dict(os.environ, REPRO_KERNEL=calendar), \
            tempfile.TemporaryDirectory() as tmp, ThreadPoolExecutor() as pool:
        smoke = {name: pool.submit(_smoke, name, tmp, prelude) for name in SMOKE}
        rows = {}
        for name, run in PINNED.items():
            record, fabric = run()
            assert fabric.kernel == calendar, (name, fabric.kernel)
            rows[name] = _row(record, fabric)
        rows.update((name, run()) for name, run in OBSERVED.items())
        rows.update(_perf_rows())
        rows.update((name, future.result()) for name, future in smoke.items())
    return rows


def view(calendar: str) -> dict:
    """The ledger as *calendar* computes it."""
    return {name: {"observable": row["observable"], "bookkeeping": row["bookkeeping"][calendar]}
            for name, row in json.loads(LEDGER.read_text()).items()}


def _moved(old: dict, new: dict) -> list:
    """``<row> <half>`` for every half that differs, or is in one only."""
    return [f"{name} {half}" for name in sorted(set(old) | set(new))
            for half in ("observable", "bookkeeping")
            if old.get(name, {}).get(half, "absent") != new.get(name, {}).get(half, "absent")]


def _dump(rows: dict, path: Path) -> None:
    lines = [f"{json.dumps(name)}: {json.dumps(rows[name], sort_keys=True)}"
             for name in sorted(rows)]  # one row per line: diffs stay readable
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n")


@pytest.fixture(scope="module")
def computed(tmp_path_factory):
    """Every row on this calendar, left in the basetemp if any half moved."""
    got = compute(CALENDAR)
    if _moved(view(CALENDAR), got):
        _dump(got, tmp_path_factory.getbasetemp() / f"ledger-{CALENDAR}.json")
    return got


@pytest.fixture(scope="module")
def perturbed():
    """Every row with one extra no-op calendar entry per engine wake."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Engine, "_engine_step", Engine._engine_step)  # undone on exit
        return compute(CALENDAR, EXTRA_ENTRY)


def test_the_ledger_has_a_row_for_every_run(computed):
    assert sorted(computed) == ROWS


@pytest.mark.parametrize("name", ROWS)
def test_row_matches_the_ledger(name, computed):
    moved = _moved({name: view(CALENDAR)[name]}, {name: computed.get(name, {})})
    assert not moved, f"moved on the {CALENDAR}: {moved}"


@pytest.mark.parametrize("name", ROWS)
def test_an_extra_calendar_entry_moves_only_bookkeeping(name, perturbed):
    want = view(CALENDAR)[name]
    assert _moved({name: want}, {name: perturbed.get(name, {})}) == (
        [f"{name} bookkeeping"] if want["bookkeeping"] else [])


def test_a_random_tie_order_moves_the_observable_half():
    record, fabric = _star(1, "wwi", "drop", "gobackn", True, schedule=("random", 1))
    assert _row(record, fabric)["observable"] != view(CALENDAR)[STAR]["observable"]


def test_schedule_policy_runs_on_the_heap_bit_identically():
    # FIFO on the heap calendar keys ties exactly as the wheel orders them
    record, fabric = _star(1, "wwi", "drop", "gobackn", True, schedule=("fifo", 0))
    assert fabric.kernel == "heap"
    assert _row(record, fabric) == view("heap")[STAR]


def test_a_host_without_a_compiler_runs_the_heap_bit_identically(
        monkeypatch, tmp_path, recwarn):
    """The wheel exists only in C: when it cannot be built, a run that asks
    for the wheel gets the heap — the same ledger row, a fabric that names
    the heap, the failure recorded, and one warning that says so."""
    monkeypatch.setattr(shutil, "which", lambda name: f"/usr/bin/{name}")  # a compiler...
    monkeypatch.setattr(subprocess, "run", lambda cmd, **kwargs: subprocess.CompletedProcess(
        cmd, 1, b"", b"cc: command not found\n"))  # ...that fails
    monkeypatch.setenv("REPRO_ACCEL_CACHE", str(tmp_path))  # nothing cached
    monkeypatch.setenv("REPRO_KERNEL", "wheel")
    monkeypatch.setattr(_accel, "_state", "unloaded")
    monkeypatch.setattr(_accel, "_reason", None)
    warnings.simplefilter("always")
    record, fabric = _star(1, "wwi", "drop", "gobackn", True)
    assert _row(record, fabric) == view("heap")[STAR]
    stats = fabric.sim.calendar_stats()
    assert (fabric.scenario.kernel, fabric.kernel) == ("wheel", "heap")
    assert (stats["accelerator"], stats["accelerator_reason"]) == (
        "unavailable", "RuntimeError: accelerator compile failed: cc: command not found")
    warned = [str(w.message) for w in recwarn.list if w.category is RuntimeWarning]
    assert len(warned) == 1, warned
    assert "running the heap calendar" in warned[0] and "pure-Python" not in warned[0]


def capture() -> None:
    """Recompute both calendars into the ledger and print what moved."""
    stats = Simulator(calendar="wheel").calendar_stats()
    if stats["accelerator"] != "live":
        sys.exit(f"refusing to capture: the C wheel is not live ({stats['accelerator_reason']})")
    heap, wheel = compute("heap"), compute("wheel")
    differ = [name for name in wheel if heap[name]["observable"] != wheel[name]["observable"]]
    if differ:
        sys.exit(f"refusing to capture: the calendars observe {differ} differently")
    rows = {name: {"observable": row["observable"], "bookkeeping": {
        "heap": heap[name]["bookkeeping"], "wheel": row["bookkeeping"]}}
        for name, row in wheel.items()}
    for half in _moved(json.loads(LEDGER.read_text()), rows):
        print(f"moved: {half}")
    _dump(rows, LEDGER)
    print(f"captured {len(rows)} rows on the heap and the wheel into {LEDGER}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--capture"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_ledger.py --capture")
    capture()
