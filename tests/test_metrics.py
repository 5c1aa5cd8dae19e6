import numpy as np
import pytest

from jsspt.errors import MetricError
from jsspt.instances import GenerationConfig, generate_instance
from jsspt.metrics import (
    Regime,
    bottleneck_features,
    classify_regime,
    make_record,
    rho,
    rpi,
    temporal_dominance,
    win,
)
from jsspt.rules import solve


def test_rpi_direct():
    assert rpi(95, 100) == pytest.approx(5.0)
    assert rpi(100, 100) == 0.0
    assert rpi(105, 100) == pytest.approx(-5.0)


def test_rpi_bad_baseline():
    with pytest.raises(MetricError):
        rpi(10, 0)
    with pytest.raises(MetricError):
        rpi(10, -5)


def test_rpi_sign_opposition():
    rng = np.random.default_rng(1)
    for _ in range(100):
        a, b = rng.integers(1, 1000, size=2)
        if a == b:
            continue
        assert rpi(a, b) * rpi(b, a) < 0


def test_win_is_strict():
    assert win(99, 100) == 1
    assert win(100, 100) == 0
    assert win(101, 100) == 0


def test_rho_values():
    assert rho(18, 15) == pytest.approx(1.2)
    assert rho(7, 7) == 1.0
    assert rho(3, 15) == pytest.approx(0.2)
    with pytest.raises(MetricError):
        rho(0, 5)
    with pytest.raises(MetricError):
        rho(5, 0)


def test_temporal_dominance_symmetry_and_bounds():
    assert temporal_dominance(42, 42).index == 0.0
    top = temporal_dominance(100, 1)
    assert (top.p_norm, top.t_norm, top.processing_share, top.index) == (1.0, 0.0, 1.0, 1.0)
    bottom = temporal_dominance(1, 100)
    assert bottom.index == -1.0


def test_both_means_at_the_lower_bound_dominate_neither():
    # The limit of 2p/(p+t) - 1 along p = t, as p and t go to 0.
    assert temporal_dominance(1, 1) == (0.0, 0.0, 0.5, 0.0)
    assert temporal_dominance(1 + 1e-12, 1 + 1e-12).index == 0.0


def test_temporal_dominance_worked_values():
    d = temporal_dominance(55, 15.5)
    assert d.p_norm == pytest.approx(0.545455, abs=1e-6)
    assert d.t_norm == pytest.approx(0.146465, abs=1e-6)
    assert d.processing_share == pytest.approx(0.788321, abs=1e-6)
    assert d.index == pytest.approx(0.576642, abs=1e-6)


def test_temporal_dominance_errors():
    with pytest.raises(MetricError):
        temporal_dominance(0.5, 50)
    with pytest.raises(MetricError):
        temporal_dominance(50, 101)


def test_temporal_dominance_antisymmetric():
    rng = np.random.default_rng(2)
    for _ in range(100):
        p, t = rng.uniform(1.01, 100, size=2)
        d1 = temporal_dominance(p, t)
        d2 = temporal_dominance(t, p)
        assert d1.index == pytest.approx(-d2.index, abs=1e-12)
        assert -1.0 <= d1.index <= 1.0
        assert 0.0 <= d1.processing_share <= 1.0


def test_classify_regime_quadrants():
    assert classify_regime(0.2, 0.5) is Regime.UNDERUTILIZED_TRANSPORT
    assert classify_regime(0.8, 0.5) is Regime.PROCESS_CONSTRAINED
    assert classify_regime(0.2, -0.5) is Regime.TRANSPORT_CONSTRAINED
    assert classify_regime(0.8, -0.5) is Regime.RESOURCE_SATURATED


def test_classify_regime_boundaries():
    assert classify_regime(0.5, 0.0) is Regime.RESOURCE_SATURATED
    assert classify_regime(0.5, 0.1) is Regime.PROCESS_CONSTRAINED
    assert classify_regime(0.49, 0.0) is Regime.TRANSPORT_CONSTRAINED


def test_bottleneck_features_examples():
    assert bottleneck_features(1.0, 1.0) == pytest.approx((1.0, 0.0, 1.0, 0.0))
    assert bottleneck_features(0.2, -1.0) == pytest.approx((0.8, 0.04, -0.2, 0.8))
    assert bottleneck_features(1.0, 0.0) == pytest.approx((0.0, 1.0, 0.0, 0.0))


def test_bottleneck_sign_structure():
    # JBN positive in the process-constrained quadrant, negative when
    # transport dominates; ABN positive under transport constraint.
    assert bottleneck_features(0.8, 0.5).jbn > 0
    assert bottleneck_features(0.8, -0.5).jbn < 0
    assert bottleneck_features(0.2, -0.5).abn > 0
    assert bottleneck_features(0.2, 0.5).abn < 0


def test_make_record_consistency():
    inst = generate_instance(GenerationConfig(n=5, m=4, k=3, seed=17))
    result = solve(inst, "SPT", "SCTA")
    record = make_record(inst, result.solver_id, result.makespan)
    assert record.instance_id == inst.id
    assert record.solver_id == "SPT+SCTA"
    assert record.rho == pytest.approx(3 / 5)
    recomputed = temporal_dominance(record.p_raw, record.t_raw).index
    assert record.tau == pytest.approx(recomputed, abs=1e-12)
    assert record.regime == classify_regime(record.rho, record.tau).value
