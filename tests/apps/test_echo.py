"""The echo (ping-pong latency) tool."""

import pytest

from repro.apps import EchoConfig, EchoResult, run_echo
from repro.apps.metrics import percentile
from repro.core import ProtocolMode
from repro.config import ScenarioConfig


def test_echo_basic_run():
    r = run_echo(EchoConfig(iterations=20, message_bytes=64), ScenarioConfig(seed=1))
    assert len(r.rtts_ns) == 20
    assert all(t > 0 for t in r.rtts_ns)
    assert r.min_ns <= r.median_ns <= r.p99_ns
    assert r.half_rtt_us == pytest.approx(r.median_ns / 2000)


def test_echo_warmup_excluded():
    r = run_echo(EchoConfig(iterations=10, warmup=7, message_bytes=64), ScenarioConfig(seed=1))
    assert len(r.rtts_ns) == 10


def test_echo_rtt_grows_with_message_size():
    small = run_echo(EchoConfig(iterations=20, message_bytes=64), ScenarioConfig(seed=1))
    big = run_echo(EchoConfig(iterations=20, message_bytes=1 << 20), ScenarioConfig(seed=1))
    assert big.median_ns > 3 * small.median_ns


def test_echo_small_messages_favor_buffering():
    """Ping-pong posts each receive only after the previous reply, so the
    sender is always ahead — for tiny messages the direct protocol's
    ADVERT wait dominates and buffering is faster."""
    direct = run_echo(EchoConfig(iterations=40, message_bytes=64,
                                 mode=ProtocolMode.DIRECT_ONLY), ScenarioConfig(seed=1))
    indirect = run_echo(EchoConfig(iterations=40, message_bytes=64,
                                   mode=ProtocolMode.INDIRECT_ONLY), ScenarioConfig(seed=1))
    assert indirect.median_ns < direct.median_ns


def test_echo_large_messages_favor_zero_copy():
    direct = run_echo(EchoConfig(iterations=30, message_bytes=1 << 20,
                                 mode=ProtocolMode.DIRECT_ONLY), ScenarioConfig(seed=1))
    indirect = run_echo(EchoConfig(iterations=30, message_bytes=1 << 20,
                                   mode=ProtocolMode.INDIRECT_ONLY), ScenarioConfig(seed=1))
    assert direct.median_ns < indirect.median_ns


def test_echo_dynamic_stays_inside_the_baseline_envelope():
    """Ping-pong never lets the receiver pre-post ahead, so each message is
    a fresh ADVERT race; the dynamic protocol lands between the two forced
    baselines and never meaningfully below the better one's behaviour:
    ~indirect for tiny messages, bounded by the baselines for large."""
    for size, tolerance in ((64, 1.10), (1 << 20, 1.0)):
        results = {
            mode: run_echo(EchoConfig(iterations=30, message_bytes=size, mode=mode),
                           ScenarioConfig(seed=2))
            for mode in ProtocolMode
        }
        dyn = results[ProtocolMode.DYNAMIC].median_ns
        lo = min(results[ProtocolMode.DIRECT_ONLY].median_ns,
                 results[ProtocolMode.INDIRECT_ONLY].median_ns)
        hi = max(results[ProtocolMode.DIRECT_ONLY].median_ns,
                 results[ProtocolMode.INDIRECT_ONLY].median_ns)
        assert 0.9 * lo <= dyn <= tolerance * hi, (size, lo, dyn, hi)


def test_echo_with_real_data_roundtrips():
    r = run_echo(EchoConfig(iterations=5, message_bytes=512, real_data=True),
                 ScenarioConfig(seed=3))
    assert len(r.rtts_ns) == 5


# -- percentile helper --------------------------------------------------
def test_percentile_basics():
    vals = [10, 20, 30, 40]
    assert percentile(vals, 0) == 10
    assert percentile(vals, 100) == 40
    assert percentile(vals, 50) == 25.0
    assert percentile([7], 99) == 7.0


def test_percentile_validation():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1], 101)
