import decimal
import json
import math
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from helpers import reference_vif
from jsspt.errors import MetricError
from jsspt.metrics import bottleneck_features
from jsspt.regression import _fdtrc, _stdtr, _stdtrit, aggregate_ci, ols_fit, z_normalize

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
    # A 1-D array is one column.
    assert np.array_equal(z_normalize(np.array([1.0, 2.0, 3.0])), out)


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


def test_ols_r_squared_of_a_constant_response():
    # With no variation to explain, R2 is 1 for an exact fit and 0 otherwise.
    x = np.array([1.0, 2.0, 3.0, 4.0])
    y = np.full(4, 5.0)
    exact = ols_fit(np.column_stack([np.ones(4), x]), y)
    assert (exact.r_squared, exact.f_statistic, exact.f_pvalue) == (1.0, float("inf"), 0.0)
    assert ols_fit(np.column_stack([x, x * x]), y).r_squared == 0.0


def test_ols_singular_design():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    design = np.column_stack([np.ones(4), x, 2 * x])
    with pytest.raises(MetricError, match="singular"):
        ols_fit(design, x)


def test_ols_design_whose_normal_matrix_is_singular():
    # lstsq reports full rank, but inverting X'X meets a zero pivot: numpy's
    # LinAlgError escaped as a traceback.
    a = np.arange(20.0)
    design = np.column_stack([np.ones(20), a, a + 1e-8 * np.random.default_rng(0).normal(size=20)])
    assert np.linalg.matrix_rank(design) == 3
    with pytest.raises(MetricError, match="^singular design: X'X cannot be inverted$"):
        ols_fit(design, np.sin(np.arange(1.0, 21.0)))


def test_ols_needs_more_rows_than_columns():
    with pytest.raises(MetricError):
        ols_fit(np.ones((2, 2)), np.array([1.0, 2.0]))
    with pytest.raises(MetricError, match="^design matrix must be 2-dimensional$"):
        ols_fit(np.ones(4), np.array([1.0, 2.0, 3.0, 4.0]))
    with pytest.raises(MetricError, match="^response length does not match the design$"):
        ols_fit(np.ones((4, 1)), np.array([1.0, 2.0, 3.0]))


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


def _fit_vif(regressors, names=None):
    """ols_fit's VIFs for the regressors plus an intercept, on a response
    that no column fits exactly."""
    x = np.asarray(regressors, dtype=float)
    y = np.sin(np.arange(1.0, len(x) + 1.0))
    return ols_fit(np.column_stack([np.ones(len(x)), x]), y, names=names).vif


def test_vif_orthogonal_columns():
    x = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
    assert _fit_vif(x) == pytest.approx((1.0, 1.0), abs=1e-12)


def test_vif_known_correlation():
    # Construct two columns with sample correlation exactly 0.5.
    a = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
    b = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0, -1.0, 1.0])
    assert np.corrcoef(a, b)[0, 1] == pytest.approx(0.5)
    assert _fit_vif(np.column_stack([a, b])) == pytest.approx((4 / 3, 4 / 3), abs=1e-9)


def test_vif_duplicated_column_errors():
    # A duplicated regressor, or a constant one beside the intercept, leaves
    # the design rank-deficient, and the fit refuses it before any VIF.
    a = np.array([1.0, 2.0, 3.0, 4.0, 6.0])
    b = np.array([1.0, -1.0, 2.0, 0.5, 0.0])
    for columns in ([a, a], [a, b, b], [np.ones(5), a]):
        with pytest.raises(MetricError, match="^singular design: rank"):
            _fit_vif(np.column_stack(columns))


def test_vif_needs_two_columns():
    x = np.array([1.0, 2.0, 4.0, 8.0])
    report = ols_fit(np.column_stack([np.ones(4), x]), np.array([1.0, 3.0, 2.0, 5.0]))
    assert report.vif == ()
    assert [row.rsplit(",", 1)[1] for row in report.format_text().splitlines()[-2:]] == ["-", "-"]


def test_vif_matches_the_auxiliary_regressions():
    # 200 full-rank designs with 2 to 4 regressors, correlated by a random
    # mixing and shifted and scaled per column: each VIF read off the fit
    # equals 1 / (1 - R2) of that column's own regression on the others.
    rng = np.random.default_rng(26)
    worst = 0.0
    for _ in range(200):
        cols = int(rng.integers(2, 5))
        rows = int(rng.integers(cols + 3, 60))
        mixing = np.eye(cols) + rng.uniform(-0.8, 0.8, size=(cols, cols))
        x = rng.normal(size=(rows, cols)) @ mixing
        x = x * rng.uniform(0.1, 10.0, size=cols) + rng.uniform(-10.0, 10.0, size=cols)
        expected = reference_vif(x)
        got = _fit_vif(x)
        assert len(got) == cols
        worst = max(worst, max(abs(g - e) / e for g, e in zip(got, expected)))
    assert worst <= 1e-9


def test_vif_of_a_near_collinear_design_is_infinite(monkeypatch):
    # b differs from a by noise 3e-6 across: a VIF near 2.5e12, past the 1e12
    # (auxiliary R2 of 1 - 1e-12) at which a VIF counts as infinite, though
    # the design still has full rank.
    a = np.arange(20.0)
    b = a + 3e-6 * np.random.default_rng(3).normal(size=20)
    assert reference_vif(np.column_stack([a, b]))[1] >= 1e12
    with pytest.raises(MetricError, match="^perfect collinearity: VIF of a is infinite$"):
        _fit_vif(np.column_stack([a, b]), names=["const", "a", "b"])
    # Ten times the noise brings the VIF below the bound, and the fit reports it.
    c = a + 3e-5 * np.random.default_rng(3).normal(size=20)
    ac = np.column_stack([a, c])
    assert _fit_vif(ac) == pytest.approx(reference_vif(ac), rel=1e-3)
    # With narrower noise lstsq can still find full rank where X'X is too near
    # singular to invert in floats, and the inverse's diagonal can come out
    # negative (as for noise 1e-7 here, depending on the LAPACK build). That
    # is no VIF either; a negated inverse stands in for it.
    inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda m: -inv(m))
    with pytest.raises(MetricError, match="^perfect collinearity: VIF of a is infinite$"):
        with np.errstate(invalid="ignore"):  # the standard errors' sqrt of a negative
            _fit_vif(ac, names=["const", "a", "c"])


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


# One fresh interpreter against this checkout's src/: the imports every
# command makes and an in-process `jsspt solve --all-combos` load no scipy and
# no process pool, and bench and grid, then regress, load no scipy either.
COLD_START = """
import json, sys
from pathlib import Path
import jsspt, jsspt.cli, jsspt.harness, jsspt.rule_server
from jsspt.instances import GenerationConfig, generate_instance, save_instance

def loaded():
    return sorted(m for m in sys.modules
                  if m.startswith("scipy") or m == "concurrent.futures.process")

root = Path(sys.argv[1])
path = save_instance(generate_instance(GenerationConfig(n=4, m=3, k=2, seed=1)), root)
code = jsspt.cli.main(["solve", "--instance", str(path), "--all-combos"])
report = {"code": code, "after_solve": loaded()}
report["codes"] = [jsspt.cli.main(argv) for argv in (
    ["bench", "--sizes", "3x2", "--rhos", "0.5", "--instances", "3", "--out", str(root / "b")],
    ["grid", "--sizes", "3x2", "--rhos", "0.4,0.8", "--instances-per-cell", "1",
     "--seed", "4", "--out", str(root / "g")],
    ["regress", "--results", str(root / "g" / "grid_results.csv"), "--solver", "SPT+SCTA",
     "--baseline", "MOR+SCTA", "--out", str(root / "regress.txt")],
)]
values = [3.0, 1.5, 4.25, 2.0, 7.5]
report["ci"] = jsspt.aggregate_ci(values)
report["after_regress"] = loaded()
from scipy import stats
import numpy as np
half = stats.t.ppf(0.975, len(values) - 1) * np.std(values, ddof=1) / np.sqrt(len(values))
report["expected_ci"] = [float(np.mean(values)), float(half)]
print(json.dumps(report))
"""


@pytest.fixture(scope="module")
def cold_start(tmp_path_factory):
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [sys.executable, "-c", COLD_START, str(tmp_path_factory.mktemp("cold"))],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, check=True,
    ).stdout
    return json.loads(out.splitlines()[-1])


def test_cold_start_loads_no_scipy_and_no_process_pool(cold_start):
    assert cold_start["code"] == 0
    assert cold_start["after_solve"] == []


def test_bench_and_regress_load_no_scipy(cold_start):
    assert cold_start["codes"] == [0, 0, 0]
    assert cold_start["after_regress"] == []
    # scipy's t quantile may differ from the package's in the last bits.
    assert cold_start["ci"] == pytest.approx(cold_start["expected_ci"], rel=1e-14)


def _printed(value: float, spec: str) -> str:
    """`value` as the tables print it; a quantile too large for `.6f` to stay
    within a double's 17 digits is compared at 12 significant digits."""
    return format(value, ".12e" if spec == ".6f" and abs(value) >= 1e6 else spec)


def test_tails_equal_scipy_special_at_printed_precision():
    # The t tails as ols_fit prints them (.6f, also two-sided and complemented),
    # the quantiles behind every interval (.6f) and the F tails (.6e), against
    # scipy.special, for up to 200,000 degrees of freedom and with |t| < 0.01,
    # where the tail's logarithm cancels at large df. Below about 1e-280
    # scipy's F tails lose digits or flush to 0, as its routines underflow
    # inside; test_f_tail_underflow_equals_the_exact_sum covers that range.
    from scipy import special

    dofs = [1, 2, 3, 4, 7, 30, 121, 1000, 12_345, 96_000, 100_000, 150_000, 200_000]
    ts = np.concatenate([[0.0, 1e-9, 1e-4, 3e-3, 9.9e-3], np.geomspace(0.01, 500, 40)])
    ps = [1e-12, 0.025, 0.3, 0.5, 0.5125, 0.95, 0.975, 0.995, 1 - 1e-12]
    fs = np.concatenate([[0.0], np.geomspace(1e-4, 1e4, 40)])
    compared = 0
    for dof in dofs:
        for t in ts:
            mine, theirs = _stdtr(dof, -t), float(special.stdtr(dof, -t))
            for a, b in ((mine, theirs), (2 * mine, 2 * theirs), (1 - mine, 1 - theirs)):
                assert _printed(a, ".6f") == _printed(b, ".6f"), (dof, t)
        for p in ps:
            assert _printed(_stdtrit(dof, p), ".6f") == _printed(float(special.stdtrit(dof, p)), ".6f")
        for d1 in (1, 2, 3, 9, 40):
            for f in fs:
                theirs = float(special.fdtrc(d1, dof, f))
                if theirs >= 1e-280:
                    assert _printed(_fdtrc(d1, dof, f), ".6e") == _printed(theirs, ".6e"), (d1, dof, f)
                    compared += 1
    assert compared > 2000
    for dof in (1, 96_000):
        assert _stdtr(dof, -np.inf) == 0.0 and _stdtr(dof, np.inf) == 1.0
        assert np.isnan(_stdtr(dof, np.nan)) and np.isnan(_fdtrc(3, dof, np.nan))
        assert _fdtrc(3, dof, np.inf) == 0.0 == float(special.fdtrc(3, dof, np.inf))


def _exact_f_tail(d1: int, d2: int, f: float) -> Fraction:
    """P(F > f) exactly, for even d1 and d2: I_x(a, b) with integers a = d2/2
    and b = d1/2 is x**a times the first b terms of the negative binomial
    series in y = 1 - x, at the exact x = d2 / (d2 + d1 f)."""
    a, b = d2 // 2, d1 // 2
    x = Fraction(d2) / (d2 + d1 * Fraction(f))
    return x**a * sum(math.comb(a + j - 1, j) * (1 - x) ** j for j in range(b))


@pytest.mark.parametrize("d2", [40, 96_000])
def test_f_tails_are_within_1e_12_of_the_exact_sum(d2):
    # The paper-scale regression has about 96,000 residual degrees of freedom,
    # where a log-beta from lgamma alone is off by about 3e-11.
    for d1 in (2, 4, 6):
        for f in (0.25, 0.5, 1.0, 1.5, 2.0, 5.0, 20.0):
            exact = float(_exact_f_tail(d1, d2, f))
            assert _fdtrc(d1, d2, f) == pytest.approx(exact, rel=1e-12, abs=0)


def _f_tail_50_digits(d1: int, d2: int, f: float) -> float:
    """_exact_f_tail's sum in 50-digit decimals, for even d1 and d2 whose
    exact rationals would grow too long."""
    a, b = d2 // 2, d1 // 2
    with decimal.localcontext(prec=50):
        x = Decimal(d2) / (d2 + d1 * Decimal(f))
        y, term, total = 1 - x, Decimal(1), Decimal(0)
        for j in range(b):
            total += term
            term *= (a + j) * y / (j + 1)
        return float(x**a * total)


@pytest.mark.parametrize(("d1", "d2"), [(2000, 96_000), (4000, 200_000)])
def test_f_tails_with_both_parameters_large_are_within_1e_12(d1, d2):
    # Both halves of the degrees of freedom are at least 10, so the power term
    # is centred on the mean; through lgamma alone these tails are off by
    # up to about 4e-12.
    sd = math.sqrt(2.0 / d1 + 2.0 / d2)
    for z in (-2.0, -1.0, 0.0, 0.5, 1.0, 2.0, 3.0, 5.0):
        f = 1.0 + z * sd
        assert _fdtrc(d1, d2, f) == pytest.approx(_f_tail_50_digits(d1, d2, f), rel=1e-12, abs=0)


def test_t_tails_are_within_1e_13_of_the_closed_forms():
    # df = 1 is Cauchy's; for df = 2, P(T < -t) = 1 / ((s + t) s) with s = sqrt(2 + t*t).
    for t in np.concatenate([[1e-12, 1e-9, 1e-4], np.geomspace(0.01, 1e6, 30)]):
        s = math.sqrt(2.0 + t * t)
        assert _stdtr(1, -t) == pytest.approx(math.atan2(1.0, t) / math.pi, rel=1e-13)
        assert _stdtr(2, -t) == pytest.approx(1.0 / ((s + t) * s), rel=1e-13)


def _log10(value: Fraction) -> float:
    return math.log10(value.numerator) - math.log10(value.denominator)


@pytest.mark.parametrize(("d1", "d2"), [(2, 4), (2, 40), (4, 10), (6, 300), (20, 94), (40, 200)])
def test_f_tail_underflow_equals_the_exact_sum(d1, d2):
    # Tails from 1e-250 down through the subnormals to 0 are one rounding of
    # the exact value (float() of a Fraction rounds correctly).
    def f_at(log10_tail):  # bisection on log f
        lo, hi = 0.0, 300.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if _log10(_exact_f_tail(d1, d2, 10.0**mid)) > log10_tail else (lo, mid)
        return 10.0**lo

    for f in np.geomspace(f_at(-250), f_at(-326), 40):
        exact = float(_exact_f_tail(d1, d2, float(f)))
        assert format(_fdtrc(d1, d2, float(f)), ".6e") == format(exact, ".6e"), f
    assert exact == 0.0


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
