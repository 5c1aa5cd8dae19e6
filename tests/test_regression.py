import subprocess
import sys

import numpy as np
import pytest

from jsspt.errors import MetricError
from jsspt.metrics import bottleneck_features
from jsspt.regression import aggregate_ci, ols_fit, vif, z_normalize

RHO_AXIS = (0.2, 0.4, 0.6, 0.8, 1.0, 1.2)
TAU_AXIS = tuple(round(-1.0 + 0.1 * i, 1) for i in range(21))


def axis_grid_features():
    """z-normalized (BM, JBN, ABN) on the 126-point (rho, tau*) axis grid."""
    rows = [
        bottleneck_features(r, t)
        for t in TAU_AXIS
        for r in RHO_AXIS
    ]
    feats = np.array([[f.bm, f.jbn, f.abn] for f in rows])
    return z_normalize(feats, names=["BM", "JBN", "ABN"])


def test_z_normalize_hand_values():
    out = z_normalize(np.array([[1.0], [2.0], [3.0]]))
    assert out[:, 0] == pytest.approx([-1.224745, 0.0, 1.224745], abs=1e-6)


def test_z_normalize_idempotent():
    col = np.array([[1.0], [5.0], [2.0], [9.0]])
    once = z_normalize(col)
    twice = z_normalize(once)
    assert np.allclose(once, twice, atol=1e-12)
    assert abs(once.mean()) < 1e-12
    assert once.std() == pytest.approx(1.0, abs=1e-12)


def test_z_normalize_constant_column_errors():
    with pytest.raises(MetricError, match="BM"):
        z_normalize(np.array([[1.0, 2.0], [1.0, 3.0]]), names=["BM", "JBN"])


def test_ols_exact_line():
    x = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    design = np.column_stack([np.ones(5), x])
    report = ols_fit(design, 1.0 + 2.0 * x)
    assert report.coefficients == pytest.approx((1.0, 2.0), abs=1e-12)
    assert report.r_squared == pytest.approx(1.0, abs=1e-12)
    assert report.observations == 5


def test_ols_intercept_only():
    y = np.array([3.0, 5.0, 7.0, 9.0])
    report = ols_fit(np.ones((4, 1)), y)
    assert report.coefficients[0] == pytest.approx(y.mean())


def test_ols_singular_design():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    design = np.column_stack([np.ones(4), x, 2 * x])
    with pytest.raises(MetricError, match="singular"):
        ols_fit(design, x)


def test_ols_needs_more_rows_than_columns():
    with pytest.raises(MetricError):
        ols_fit(np.ones((2, 2)), np.array([1.0, 2.0]))


def test_ols_se_and_pvalues_against_known_fit():
    # Cross-checked closed-form simple regression: se(b1) = s / sqrt(Sxx).
    x = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    y = np.array([2.1, 3.9, 6.2, 7.8, 10.1, 11.9])
    design = np.column_stack([np.ones(6), x])
    report = ols_fit(design, y)
    b1 = ((x - x.mean()) * (y - y.mean())).sum() / ((x - x.mean()) ** 2).sum()
    b0 = y.mean() - b1 * x.mean()
    resid = y - (b0 + b1 * x)
    s2 = (resid**2).sum() / 4
    se1 = np.sqrt(s2 / ((x - x.mean()) ** 2).sum())
    assert report.coefficients == pytest.approx((b0, b1), abs=1e-12)
    assert report.std_errors[1] == pytest.approx(se1, abs=1e-12)
    assert report.p_values[1] < 1e-6  # clearly significant slope


def test_axis_grid_recovery_and_diagnostics():
    z = axis_grid_features()
    y = 2.55 + 0.54 * z[:, 0] - 0.95 * z[:, 1] - 0.80 * z[:, 2]
    design = np.column_stack([np.ones(len(z)), z])
    report = ols_fit(design, y, names=["const", "BM", "JBN", "ABN"])
    assert report.coefficients == pytest.approx((2.55, 0.54, -0.95, -0.80), abs=1e-9)
    assert report.r_squared == pytest.approx(1.0, abs=1e-9)
    assert report.observations == 126
    assert report.condition_number == pytest.approx(2.43, abs=0.005)
    assert all(v < 5 for v in report.vif)


def test_axis_grid_feature_correlation_signs():
    z = axis_grid_features()
    corr = np.corrcoef(z, rowvar=False)
    bm_jbn, bm_abn, jbn_abn = corr[0, 1], corr[0, 2], corr[1, 2]
    assert bm_jbn < 0
    assert jbn_abn < 0
    assert bm_abn < 0


def test_vif_orthogonal_columns():
    x = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
    assert vif(x) == pytest.approx([1.0, 1.0])


def test_vif_known_correlation():
    # Construct two columns with sample correlation exactly 0.5.
    a = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
    b = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0, -1.0, 1.0])
    x = np.column_stack([a, b])
    assert np.corrcoef(a, b)[0, 1] == pytest.approx(0.5)
    assert vif(x) == pytest.approx([4 / 3, 4 / 3], abs=1e-9)


def test_vif_duplicated_column_errors():
    a = np.array([1.0, 2.0, 3.0, 4.0])
    with pytest.raises(MetricError, match="collinearity"):
        vif(np.column_stack([a, a]))


def test_vif_needs_two_columns():
    with pytest.raises(MetricError):
        vif(np.array([[1.0], [2.0]]))


def test_aggregate_ci_constant_series():
    mean, half = aggregate_ci([4.0, 4.0, 4.0])
    assert mean == 4.0
    assert half == 0.0


def test_aggregate_ci_two_points():
    mean, half = aggregate_ci([-1.0, 1.0])
    assert mean == 0.0
    assert half == pytest.approx(12.7062, abs=1e-4)


def test_aggregate_ci_shrinks_with_sample_size():
    rng = np.random.default_rng(0)
    small = rng.normal(size=50)
    large = np.concatenate([small, rng.normal(size=50)])
    assert aggregate_ci(large)[1] < aggregate_ci(small)[1]


def test_aggregate_ci_needs_two_values():
    with pytest.raises(MetricError):
        aggregate_ci([1.0])


@pytest.mark.parametrize("level", [0.0, 1.0, -0.5, 1.5, float("nan")])
def test_aggregate_ci_rejects_level_outside_open_unit_interval(level):
    with pytest.raises(MetricError, match="confidence level"):
        aggregate_ci([1.0, 2.0, 3.0], level=level)


def test_import_leaves_scipy_stats_out():
    # A fresh interpreter: this test process may have scipy.stats loaded.
    code = "import sys, jsspt; print('scipy.stats' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "False"


def test_special_tails_equal_scipy_stats():
    from scipy import special, stats

    dofs = [1, 2, 3, 7, 30, 121, 1000]
    xs = np.array([0.0, 1e-9, 0.3, 1.0, 1.96, 4.5, 40.0, 1e6, np.inf, np.nan])
    qs = np.array([1e-12, 0.025, 0.3, 0.5, 0.5125, 0.95, 0.975, 0.995, 1 - 1e-12])
    for dof in dofs:
        for x in xs:
            np.testing.assert_array_equal(special.stdtr(dof, -abs(x)), stats.t.sf(abs(x), dof))
        np.testing.assert_array_equal(special.stdtr(dof, -np.abs(xs)), stats.t.sf(np.abs(xs), dof))
        np.testing.assert_array_equal(special.stdtrit(dof, qs), stats.t.ppf(qs, dof))
        for d1 in (1, 2, 3, 9):
            np.testing.assert_array_equal(
                special.fdtrc(d1, dof, np.abs(xs)), stats.f.sf(np.abs(xs), d1, dof)
            )


def test_noisy_recovery_within_three_se():
    # Every coefficient within 3 estimated SEs of truth in >= 99% of 1000
    # seeded trials (990 exactly on this seed stream).
    z = axis_grid_features()
    design = np.column_stack([np.ones(len(z)), z])
    truth = np.array([2.55, 0.54, -0.95, -0.80])
    clean = design @ truth
    hits = 0
    trials = 1000
    for seed in range(trials):
        rng = np.random.default_rng(seed)
        report = ols_fit(design, clean + rng.normal(0.0, 0.5, size=len(z)))
        coef = np.array(report.coefficients)
        se = np.array(report.std_errors)
        if np.all(np.abs(coef - truth) <= 3 * se):
            hits += 1
    assert hits >= trials * 0.99
