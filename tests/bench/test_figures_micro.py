"""Micro-scale end-to-end runs of the figure runners and the CLI."""

import pytest

from repro.bench.experiment import RunQuality
from repro.bench.figures import FigureData, fig9a, fig12, replace_id, table3
from repro.bench.__main__ import main as bench_main

MICRO = RunQuality("micro", messages=25, seeds=(1,), bytes_budget=2 * 1024 * 1024)


def test_fig9a_micro_structure():
    fd = fig9a(MICRO)
    assert isinstance(fd, FigureData)
    assert fd.xs == [1, 2, 4, 8, 16, 32]
    assert set(fd.series) == {"direct", "dynamic", "indirect"}
    assert all(len(aggs) == len(fd.xs) for aggs in fd.series.values())
    text = fd.text("throughput")
    assert "fig9a" in text and "Gb/s" in text
    # metric accessors
    thr = fd.throughputs_gbps("direct")
    assert len(thr) == 6 and all(t > 0 for t in thr)


def test_fig12_micro_and_metrics():
    fd = fig12(MICRO, sizes=(4096, 65536))
    assert fd.xs == ["4KiB", "64KiB"]
    ratios = fd.metric("dynamic", lambda a: a.direct_ratio.mean)
    assert all(0.0 <= r <= 1.0 for r in ratios)
    assert "ratio" in fd.text("ratio") or "±" in fd.text("ratio")


def test_table3_micro():
    rows, text = table3(MICRO)
    assert len(rows) == 11
    assert "Table III" in text


def test_replace_id():
    fd = fig12(MICRO, sizes=(4096,))
    fd2 = replace_id(fd, "figX", "renamed")
    assert fd2.figure_id == "figX" and fd2.series is fd.series


def test_cli_list(capsys):
    assert bench_main(["--list"]) == 0
    out = capsys.readouterr().out
    assert "fig9a" in out and "table3" in out


def test_cli_unknown_artifact():
    with pytest.raises(SystemExit):
        bench_main(["not-a-figure"])


def test_cli_runs_one_artifact(capsys, monkeypatch):
    # shrink the built-in qualities so the CLI test is fast
    import repro.bench.__main__ as cli

    monkeypatch.setitem(cli.QUALITIES, "smoke", MICRO)
    assert bench_main(["table3", "--quality", "smoke"]) == 0
    out = capsys.readouterr().out
    assert "Table III" in out and "done in" in out


def test_cli_processes_do_not_change_the_table(capsys, monkeypatch):
    """``-j 2`` spreads the grid over worker processes and prints the same
    table as the serial run (only the timing footer may differ)."""
    import repro.bench.__main__ as cli

    monkeypatch.setitem(cli.QUALITIES, "smoke", MICRO)
    outputs = []
    for processes in ("1", "2"):
        assert bench_main(["table3", "--quality", "smoke", "-j", processes]) == 0
        out = capsys.readouterr().out
        outputs.append([line for line in out.splitlines() if "done in" not in line])
    assert "Table III" in "\n".join(outputs[0])
    assert outputs[0] == outputs[1]
