"""Metrics registry: sources and histograms."""

import pytest

from repro.obs import Histogram, MetricsRegistry


def test_source_reads_live_state():
    state = {"depth": 1, "sends": 5}
    reg = MetricsRegistry()
    reg.source(("depth", "sends"), lambda: (state["depth"], state["sends"]))
    assert reg.snapshot() == {"depth": 1, "sends": 5}
    state["depth"] = 42
    assert reg.snapshot()["depth"] == 42


def test_source_registered_later_joins_the_snapshot():
    reg = MetricsRegistry()
    reg.source(("a",), lambda: (1,))
    assert "conn0.depth" not in reg.snapshot()
    reg.source(("conn0.depth",), lambda: (7,))  # object appears mid-run
    assert reg.snapshot() == {"a": 1, "conn0.depth": 7}
    assert len(reg) == 2


def test_none_value_is_left_out_of_the_snapshot():
    reg = MetricsRegistry()
    reg.source(("next_time", "pending"), lambda: (None, 0))
    assert reg.snapshot() == {"pending": 0}


def test_snapshot_calls_each_reader_once():
    calls = []
    reg = MetricsRegistry()
    reg.source(("x", "y", "z"), lambda: calls.append(1) or (1, 2, 3))
    reg.snapshot()
    assert calls == [1]


def test_name_collision_rejected():
    reg = MetricsRegistry()
    reg.source(("m", "n"), lambda: (0, 0))
    with pytest.raises(ValueError, match="'n'"):
        reg.source(("n",), lambda: (0,))
    with pytest.raises(ValueError, match="'k'"):
        reg.source(("k", "k"), lambda: (0, 0))
    with pytest.raises(ValueError, match="'m'"):
        reg.histogram("m")
    reg.histogram("h")
    with pytest.raises(ValueError, match="'h'"):
        reg.source(("h",), lambda: (0,))
    # a rejected source registers none of its names
    reg.source(("k",), lambda: (0,))


def test_histogram_registration_is_idempotent():
    reg = MetricsRegistry()
    assert reg.histogram("x") is reg.histogram("x")
    assert len(reg) == 1


def test_histogram_log2_bucketing():
    h = Histogram("lat")
    for v in (0, 1, 2, 3, 4, 1000):
        h.observe(v)
    assert h.count == 6
    assert h.sum == 1010
    buckets = dict(h.nonzero_buckets())
    assert buckets[0] == 1        # the exact zero
    assert buckets[1] == 1        # value 1
    assert buckets[3] == 2        # values 2, 3
    assert buckets[7] == 1        # value 4
    assert buckets[1023] == 1     # value 1000
    assert h.mean == pytest.approx(1010 / 6)


def test_histogram_rejects_negative():
    h = Histogram("lat")
    with pytest.raises(ValueError):
        h.observe(-1)


def test_histogram_quantile_upper_bounds():
    h = Histogram("lat")
    for _ in range(99):
        h.observe(10)        # bucket ub 15
    h.observe(100_000)       # bucket ub 131071
    assert h.quantile(0.5) == 15
    assert h.quantile(1.0) == 131071
    assert Histogram("empty").quantile(0.5) == 0
    with pytest.raises(ValueError):
        h.quantile(1.5)


def test_snapshot_excludes_histograms():
    reg = MetricsRegistry()
    reg.histogram("h").observe(3)
    assert "h" not in reg.snapshot()
    assert reg.get_histogram("h").count == 1
