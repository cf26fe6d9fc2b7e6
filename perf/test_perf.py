"""Self-tests of the benchmark harness (``pytest perf/``; not part of tier-1)."""

import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

import compare
import layers
import measure
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "repro")


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# -- prefix fold --------------------------------------------------------
def _stats():
    drain = (f"{SRC}/simnet/_core.py", 10, "drain")
    engine = (f"{SRC}/exs/connection.py", 20, "engine")
    novel = (f"{SRC}/newlayer/thing.py", 5, "novel")
    shim = (f"{SRC}/fabric.py", 7, "run")
    heappop = ("~", 0, "<built-in method _heapq.heappop>")
    stdlib = ("/usr/lib/python3/random.py", 1, "random")
    # func: (cc, nc, tt, ct, {caller: (nc, cc, tt, ct)})
    return {
        shim: (1, 1, 0.5, 10.0, {}),
        drain: (1, 1, 2.0, 9.0, {shim: (1, 1, 2.0, 9.0)}),
        engine: (100, 100, 3.0, 4.0, {drain: (100, 100, 3.0, 4.0)}),
        novel: (10, 10, 1.0, 1.0, {engine: (10, 10, 1.0, 1.0)}),
        heappop: (500, 500, 1.5, 1.5, {drain: (400, 400, 1.0, 1.0), engine: (100, 100, 0.5, 0.5)}),
        stdlib: (3, 3, 2.0, 2.0, {engine: (3, 3, 2.0, 2.0)}),
    }


def test_fold_shares_sum_to_one_and_unknown_lands_in_other():
    folded = layers.fold(_stats())
    total = sum(folded[layer]["self_s"] for layer in layers.LAYERS)
    assert total == pytest.approx(10.0)
    assert folded["other"]["self_s"] == pytest.approx(1.0)  # repro/newlayer/
    assert folded["fabric"]["self_s"] == pytest.approx(0.5)  # repro/fabric.py
    assert folded["python"]["self_s"] == pytest.approx(2.0)  # stdlib source file
    shares = [folded[layer]["self_s"] / total for layer in layers.LAYERS]
    assert sum(shares) == pytest.approx(1.0)


def test_fold_charges_builtins_to_the_calling_layer_and_counts_calls_in():
    folded = layers.fold(_stats())
    assert folded["simnet"]["self_s"] == pytest.approx(2.0 + 1.0)  # drain + its heappops
    assert folded["exs"]["self_s"] == pytest.approx(3.0 + 0.5)
    assert folded["simnet.calendar"]["self_s"] == pytest.approx(3.0)
    assert folded["exs.protocol"]["self_s"] == pytest.approx(3.5)
    assert folded["exs"]["calls"] == 100 and folded["exs"]["calls_in"] == 100
    assert folded["simnet"]["calls_in"] == 1  # from repro/fabric.py


def test_place_is_a_prefix_rule():
    assert layers.place(f"{SRC}/verbs/reliability.py") == ("verbs", "reliability")
    assert layers.place(f"{SRC}/verbs/sub/deeper.py") == ("verbs", "deeper")
    assert layers.place(f"{SRC}/testbed.py") == ("fabric", "testbed")
    assert layers.place("~") == ("", "") and layers.place("<string>") == ("", "")
    assert layers.place(os.path.join(layers.HERE, "workloads.py"))[0] == "other"


# -- percentile rule ----------------------------------------------------
@pytest.mark.parametrize("n", [12, 100, 256, 1500, 2000, 6000, 20000])
def test_tail_percentile_has_ten_samples_beyond_it(n):
    q = measure.tail_percentile(n)
    assert q == 50.0 or n * (100 - q) / 100 >= 10
    higher = [p for p in measure.TAIL_LADDER if p > q]
    assert all(n * (100 - p) / 100 < 10 for p in higher)


def test_tail_percentiles_of_the_workloads():
    assert measure.tail_percentile(2000) == 99.0
    assert measure.tail_percentile(256) == 95.0


# -- compare ------------------------------------------------------------
def _host(value, spread=0.02, **kw):
    return {"value": value, "q1": value * (1 - spread / 2), "q3": value * (1 + spread / 2),
            "n": 9, "unit": "1/s", "clock": "host", **kw}


@pytest.mark.parametrize("a,b,better,bound,expected", [
    (_host(1000), _host(1010), "higher", 0.15, "within bound"),
    (_host(1000), _host(900), "higher", 0.15, "within bound"),
    (_host(1000), _host(800), "higher", 0.15, "worse"),
    (_host(1000), _host(1100), "higher", 0.15, "better"),
    (_host(1000), _host(1040), "higher", 0.15, "within bound"),  # under a third of the bound
    (_host(1.0), _host(1.3), "lower", 0.25, "worse"),
    (_host(1.0), _host(0.9), "lower", 0.25, "better"),
    (_host(1000, spread=0.4), _host(900), "higher", 0.15, "unresolved"),
    (_host(1000, spread=0.2), _host(2000, spread=0.2), "higher", 0.15, "better"),
    (_host(1000, resolved=False), _host(1000), "higher", 0.15, "unresolved"),
    ({"value": 46.5, "unit": "Gb/s"}, {"value": 46.5, "unit": "Gb/s"}, "higher", 0.1, "within bound"),
    ({"value": 46.5, "unit": "Gb/s"}, {"value": 40.0, "unit": "Gb/s"}, "higher", 0.1, "worse"),
    ({"value": 46.5, "unit": "Gb/s"}, {"value": 46.6, "unit": "Gb/s"}, "higher", 0.1, "better"),
])
def test_compare_verdicts(a, b, better, bound, expected):
    assert compare.verdict(a, b, better, bound)[0] == expected


def test_compare_exits_nonzero_only_on_worse(tmp_path, capsys):
    def doc(rate):
        return {"workloads": {"blast_stream": {"fingerprint": "f", "end_to_end": {
            "msgs_per_host_s": _host(rate)}}}}
    paths = []
    for i, rate in enumerate((1000, 990, 700)):
        paths.append(tmp_path / f"{i}.json")
        paths[-1].write_text(json.dumps(doc(rate)))
    assert compare.main([str(paths[0]), str(paths[1])]) == 0
    assert compare.main([str(paths[0]), str(paths[2])]) == 1
    assert "of A=1000" in capsys.readouterr().out  # every ratio names its base


# -- exactness gate -----------------------------------------------------
def test_fingerprint_moves_with_every_input():
    w = WORKLOADS["blast_stream"]
    base = w(1, 20)
    assert measure.fingerprint(base) == measure.fingerprint(w(1, 20))
    assert measure.fingerprint(base) != measure.fingerprint(w(2, 20))
    for field, value in (("end_ns", base.end_ns + 1), ("payload_bytes", 0),
                         ("handle", {**base.handle, "events_executed": 1})):
        assert measure.fingerprint(dataclasses.replace(base, **{field: value})) \
            != measure.fingerprint(base)


def test_a_repetition_that_differs_fails_the_run():
    w = WORKLOADS["echo_small"]
    calls = []

    def drifting(seed, messages, observe, max_events):
        calls.append(messages)
        return w.run(seed + (len(calls) > 6), messages, observe, max_events)

    small = dataclasses.replace(w, run=drifting, full=40, timed=20, variants=2)
    m = measure.measure(small, 1, 0.0, measure.Calibration())
    assert not m.correct and m.failed > 0
    assert "fingerprint differs" in m.failures[0]


def test_a_truncated_run_raises():
    w = WORKLOADS["blast_stream"]
    with pytest.raises(RuntimeError, match="max_events"):
        w(1, w.full, max_events=500)


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perf"), tmp_path / "perf",
                    ignore=shutil.ignore_patterns("__pycache__", ".run-*"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "blast_stream", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert "{" not in done.stdout


# -- BENCHMARK.json agrees with the code --------------------------------
def test_benchmark_json_matches_the_harness():
    spec = _spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert spec["paths"] == ["perf"] and spec["command"] == ["python3", "perf/run.py"]
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == \
        [(w.name, w.why) for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == \
        [tuple(m) for m in measure.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [m[:3] for m in layers.per_layer_spec()]


def test_benchmark_json_is_inside_the_contracts_limits():
    spec = _spec()
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"] + spec["workloads"]]
    assert len(names) == len(set(names)) and all(name.match(n) for n in names)
    assert all(unit.match(m["unit"]) for m in spec["end_to_end"] + spec["per_layer"])
    assert 2 <= len(spec["workloads"]) <= 8 and all(len(w["why"]) <= 200 for w in spec["workloads"])
    assert 1 <= len(spec["end_to_end"]) <= 16 and 1 <= len(spec["per_layer"]) <= 128
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= \
        next(m for m in spec["end_to_end"] if m["name"] == "setup_s").items()
    assert 1 <= spec["run_seconds"] <= 60
