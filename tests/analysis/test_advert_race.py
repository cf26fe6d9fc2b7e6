"""The advert-race model, validated against full simulations."""

import pytest

from repro.analysis import ModePrediction, predict_mode
from repro.analysis.advert_race import jitter_spread_ns, structural_lag_ns
from repro.apps import BlastConfig, FixedSizes, run_blast
from repro.bench.profiles import FDR_INFINIBAND
from repro.core import ProtocolMode
from repro.config import ScenarioConfig

KIB = 1024
MIB = 1 << 20


def test_model_quantities_sane():
    lag = structural_lag_ns(FDR_INFINIBAND)
    spread = jitter_spread_ns(FDR_INFINIBAND)
    assert -5_000 < lag < 5_000       # sub-microsecond structural difference
    assert spread == 2 * (FDR_INFINIBAND.wakeup_hi_ns - FDR_INFINIBAND.wakeup_lo_ns)


def test_equal_outstanding_predicts_indirect():
    m = predict_mode(FDR_INFINIBAND, 4, 4, 1 * MIB)
    assert m.prediction is ModePrediction.INDIRECT
    assert m.slack_ns == 0


def test_large_messages_with_headroom_predict_direct():
    for size in (128 * KIB, 512 * KIB, 2 * MIB):
        m = predict_mode(FDR_INFINIBAND, 2, 4, size)
        assert m.prediction is ModePrediction.DIRECT, size


def test_mid_band_predicts_unstable():
    m = predict_mode(FDR_INFINIBAND, 2, 4, 32 * KIB)
    assert m.prediction is ModePrediction.UNSTABLE
    assert m.lag_lo_ns < m.slack_ns < m.lag_hi_ns


def test_tiny_messages_predict_batched():
    for size in (64, 512, 8 * KIB):
        m = predict_mode(FDR_INFINIBAND, 2, 4, size)
        assert m.prediction is ModePrediction.BATCHED, size


def test_validation_against_simulation():
    """The model's DIRECT/INDIRECT/UNSTABLE calls match measured ratios."""

    def measured_ratios(sends, recvs, size, seeds=(1, 2, 3)):
        out = []
        for seed in seeds:
            cfg = BlastConfig(
                total_messages=max(60, (32 * MIB) // size),
                sizes=FixedSizes(size),
                recv_buffer_bytes=size,
                outstanding_sends=sends,
                outstanding_recvs=recvs,
                mode=ProtocolMode.DYNAMIC,
            )
            r = run_blast(cfg, ScenarioConfig(seed=seed), max_events=100_000_000)
            out.append(r.direct_ratio)
        return out

    cases = [
        (4, 4, 1 * MIB),      # INDIRECT
        (2, 4, 512 * KIB),    # DIRECT
        (2, 4, 32 * KIB),     # UNSTABLE
    ]
    for sends, recvs, size in cases:
        prediction = predict_mode(FDR_INFINIBAND, sends, recvs, size).prediction
        ratios = measured_ratios(sends, recvs, size)
        if prediction is ModePrediction.DIRECT:
            assert min(ratios) > 0.95, (size, ratios)
        elif prediction is ModePrediction.INDIRECT:
            assert max(ratios) < 0.25, (size, ratios)
        elif prediction is ModePrediction.UNSTABLE:
            assert (max(ratios) - min(ratios) > 0.1) or (0.2 < sum(ratios) / 3 < 0.98), (
                size, ratios,
            )


def test_validation_counts_are_inputs_checked():
    with pytest.raises(ValueError):
        predict_mode(FDR_INFINIBAND, 0, 4, 1024)
