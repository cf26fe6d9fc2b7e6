"""Sampler: periodic source reads on the simulated clock, bounded, terminating."""

import pytest

from repro.obs import MetricsRegistry, Sampler, TimeSeries
from repro.simnet import Timeout


def ticking_sim(sim, until_ns, step_ns=100):
    """Keep the calendar non-empty until `until_ns` with no-op timeouts."""
    for t in range(step_ns, until_ns + 1, step_ns):
        Timeout(sim, t)


def test_samples_at_interval(sim):
    reg = MetricsRegistry()
    reg.source(("clock",), lambda: (sim.now,))
    sampler = Sampler(sim, reg, interval_ns=1000)
    sampler.start()
    ticking_sim(sim, 5000)
    sim.run()
    ts = sampler.get("clock")
    assert ts.times() == [1000, 2000, 3000, 4000, 5000]
    assert ts.values() == [1000.0, 2000.0, 3000.0, 4000.0, 5000.0]


def test_sampler_stops_when_calendar_drains(sim):
    """A standing tick must not keep run(until=None) alive forever."""
    reg = MetricsRegistry()
    sampler = Sampler(sim, reg, interval_ns=10)
    sampler.start()
    Timeout(sim, 35)
    sim.run()  # would hang (or hit max_events) if the sampler kept rescheduling
    assert sim.now <= 45
    assert sampler.samples_taken >= 3


def test_max_samples_truncates_and_reports(sim):
    reg = MetricsRegistry()
    reg.source(("g",), lambda: (0,))
    sampler = Sampler(sim, reg, interval_ns=10, max_samples=3)
    sampler.start()
    ticking_sim(sim, 1000, step_ns=10)
    sim.run()
    assert sampler.samples_taken == 3
    assert sampler.truncated is True
    assert len(sampler.get("g")) == 3


def test_start_is_idempotent(sim):
    reg = MetricsRegistry()
    reg.source(("g",), lambda: (1,))
    sampler = Sampler(sim, reg, interval_ns=100)
    ticking_sim(sim, 100)
    sampler.start()
    sampler.start()
    sim.run()
    # one tick, not two
    assert len(sampler.get("g")) == 1


def test_a_truncated_sampler_stays_stopped(sim):
    reg = MetricsRegistry()
    reg.source(("g",), lambda: (0,))
    sampler = Sampler(sim, reg, interval_ns=10, max_samples=2)
    sampler.start()
    ticking_sim(sim, 100, step_ns=10)
    sim.run()
    sampler.start()  # what every Fabric.run does
    ticking_sim(sim, 200, step_ns=10)
    sim.run()
    assert (sampler.samples_taken, sampler.truncated) == (2, True)


def test_a_source_registered_mid_run_starts_at_the_next_sample(sim):
    reg = MetricsRegistry()
    reg.source(("clock",), lambda: (sim.now,))
    sampler = Sampler(sim, reg, interval_ns=100)
    sampler.start()
    ticking_sim(sim, 500)
    sim.call_in(250, lambda _arg: reg.source(("late",), lambda: (sim.now,)), None)
    sim.run()
    assert sampler.get("clock").times() == [100, 200, 300, 400, 500]
    assert sampler.get("late").times() == [300, 400, 500]
    assert sampler.get("late").values() == [300, 400, 500]


def test_a_none_value_leaves_a_gap(sim):
    """As ``kernel.next_time`` does once the calendar has drained."""
    reg = MetricsRegistry()
    reg.source(("odd", "never"), lambda: (sim.now if sim.now % 200 else None, None))
    sampler = Sampler(sim, reg, interval_ns=100)
    sampler.start()
    ticking_sim(sim, 500)
    sim.run()
    assert sampler.get("odd").points == [(100, 100), (300, 300), (500, 500)]
    assert "never" not in sampler.series


def test_a_tick_calls_each_reader_exactly_once(sim):
    calls = {"a": 0, "b": 0}

    def reader(key):
        def read():
            calls[key] += 1
            return (calls[key], -calls[key])
        return read

    reg = MetricsRegistry()
    reg.source(("a.n", "a.neg"), reader("a"))
    reg.source(("b.n", "b.neg"), reader("b"))
    sampler = Sampler(sim, reg, interval_ns=100)
    sampler.start()
    ticking_sim(sim, 300)
    sim.run()
    assert calls == {"a": 3, "b": 3}
    assert sampler.get("b.neg").values() == [-1, -2, -3]


def test_a_second_fabric_run_keeps_sampling():
    """The sampler stops when a run drains the calendar; the next run
    resumes it, so every run is sampled at the interval."""
    from repro.apps import BlastConfig, FixedSizes, run_blast
    from repro.config import ScenarioConfig
    from repro.testbed import Testbed

    scenario = ScenarioConfig(seed=1)
    tb = Testbed.from_scenario(scenario)
    tel = tb.attach_telemetry(sample_interval_ns=10_000)
    for port in (7000, 7001):
        start, before = tb.sim.now, tel.sampler.samples_taken
        run_blast(BlastConfig(total_messages=20, sizes=FixedSizes(64_000), port=port),
                  testbed=tb, scenario=scenario)
        due = (tb.sim.now - start) // 10_000
        assert tel.sampler.samples_taken - before >= due > 50


def test_interval_must_be_positive(sim):
    with pytest.raises(ValueError):
        Sampler(sim, MetricsRegistry(), interval_ns=0)


def test_series_deltas():
    ts = TimeSeries("t", [10, 20, 30], [2.0, 5.0, 5.0])
    assert ts.deltas() == [(10, 2.0), (20, 3.0), (30, 0.0)]
    assert ts.last() == 5.0
    assert TimeSeries("empty").last() is None


def test_series_deltas_clamps_counter_resets():
    """A mid-run counter reset (reconnect, re-registered gauge) must not
    produce a huge negative rate spike."""
    ts = TimeSeries("t", [10, 20, 30, 40], [5.0, 8.0, 2.0, 6.0])
    assert ts.deltas() == [(10, 5.0), (20, 3.0), (30, 0.0), (40, 4.0)]
    # genuinely signed series can opt out
    assert ts.deltas(allow_negative=True) == [
        (10, 5.0), (20, 3.0), (30, -6.0), (40, 4.0)]


def test_finish_flushes_final_sample(sim):
    """The tick stream stops at the last interval multiple; finish() must
    extend every series to the actual end-of-run time."""
    reg = MetricsRegistry()
    reg.source(("clock",), lambda: (sim.now,))
    sampler = Sampler(sim, reg, interval_ns=1000)
    sampler.start()
    ticking_sim(sim, 5000)
    sim.run(3500)  # run ends at 3500, between ticks
    assert sampler.get("clock").times()[-1] == 3000
    sampler.finish()
    assert sampler.get("clock").times()[-1] == sim.now == 3500
    assert sampler.last_sample_ns == 3500


def test_finish_is_idempotent_at_an_instant(sim):
    reg = MetricsRegistry()
    reg.source(("g",), lambda: (1,))
    sampler = Sampler(sim, reg, interval_ns=1000)
    sampler.start()
    ticking_sim(sim, 1000)
    sim.run()
    n = len(sampler.get("g"))
    sampler.finish()
    sampler.finish()
    # the tick already sampled at t=1000; finish adds nothing new
    assert len(sampler.get("g")) == n


def test_telemetry_finish_reaches_end_of_run():
    """Via the Testbed/run_blast teardown: the last sample time must equal
    the end-of-run time even when the run ends between ticks."""
    from repro.apps import BlastConfig, FixedSizes, run_blast
    from repro.config import ScenarioConfig
    from repro.testbed import Testbed

    scenario = ScenarioConfig(seed=2)
    tb = Testbed.from_scenario(scenario)
    tel = tb.attach_telemetry(sample_interval_ns=1_000_000)
    run_blast(BlastConfig(total_messages=5, sizes=FixedSizes(64_000)),
              testbed=tb, scenario=scenario)
    tel.finish()
    for name in tel.sampler.names():
        assert tel.sampler.series[name].times()[-1] == tb.sim.now
