"""Least-squares fitting with the usual diagnostics.

Plain OLS on a design matrix that already contains its intercept column,
solved through an orthogonal decomposition (SVD). Reports classical standard
errors, two-sided t p-values, the overall F test, the design's condition
number, and variance inflation factors, which is everything the experiment
tables need.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MetricError


def z_normalize(columns: np.ndarray, names: list[str] | None = None) -> np.ndarray:
    """Standardize each column to mean 0 and population standard deviation 1.
    A zero-variance column is an error naming the column."""
    x = np.asarray(columns, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    means = x.mean(axis=0)
    sds = x.std(axis=0)  # population sd
    for idx, sd in enumerate(sds):
        if sd == 0:
            label = names[idx] if names else f"column {idx}"
            raise MetricError(f"cannot z-normalize constant {label}")
    return (x - means) / sds


@dataclass(frozen=True)
class RegressionReport:
    """Fitted coefficients with diagnostics; `names` aligns with the design
    columns (the intercept is conventionally named 'const')."""

    names: tuple[str, ...]
    coefficients: tuple[float, ...]
    std_errors: tuple[float, ...]
    t_values: tuple[float, ...]
    p_values: tuple[float, ...]
    conf_low: tuple[float, ...]
    conf_high: tuple[float, ...]
    r_squared: float
    adj_r_squared: float
    f_statistic: float
    f_pvalue: float
    condition_number: float
    vif: tuple[float, ...]
    observations: int

    def format_text(self) -> str:
        lines = [
            "parameter,value",
            f"R2,{self.r_squared:.6f}",
            f"adj. R2,{self.adj_r_squared:.6f}",
            f"F-statistic,{self.f_statistic:.6f}",
            f"Prob (F-statistic),{self.f_pvalue:.6e}",
            f"observations,{self.observations}",
            f"cond. no.,{self.condition_number:.6f}",
            "",
            "variable,coef,std error,t,P>|t|,ci low,ci high,VIF",
        ]
        vif_by_name = dict(zip(self.names[1:], self.vif)) if self.vif else {}
        for idx, name in enumerate(self.names):
            vif_text = f"{vif_by_name[name]:.6f}" if name in vif_by_name else "-"
            lines.append(
                f"{name},{self.coefficients[idx]:.6f},{self.std_errors[idx]:.6f},"
                f"{self.t_values[idx]:.6f},{self.p_values[idx]:.6f},"
                f"{self.conf_low[idx]:.6f},{self.conf_high[idx]:.6f},{vif_text}"
            )
        return "\n".join(lines) + "\n"


def ols_fit(
    design: np.ndarray, response: np.ndarray, names: list[str] | None = None
) -> RegressionReport:
    """Fit response = design @ beta + error. The design includes its intercept
    column; rows must exceed columns and the columns must be independent."""
    x = np.asarray(design, dtype=float)
    y = np.asarray(response, dtype=float)
    if x.ndim != 2:
        raise MetricError("design matrix must be 2-dimensional")
    rows, cols = x.shape
    if rows <= cols:
        raise MetricError(f"need more observations than columns, got {rows}x{cols}")
    if y.shape != (rows,):
        raise MetricError("response length does not match the design")

    coef, _, rank, singular = np.linalg.lstsq(x, y, rcond=None)
    if rank < cols:
        raise MetricError(f"singular design: rank {rank} < {cols} columns")
    condition_number = float(singular[0] / singular[-1])

    resid = y - x @ coef
    rss = float(resid @ resid)
    dof = rows - cols
    sigma2 = rss / dof
    cov = sigma2 * np.linalg.inv(x.T @ x)
    std_errors = np.sqrt(np.diag(cov))

    with np.errstate(divide="ignore", invalid="ignore"):
        t_values = np.where(std_errors > 0, coef / std_errors, np.inf * np.sign(coef))
    # The t and F tails that scipy.stats.t.sf/.ppf and f.sf evaluate, taken
    # from scipy.special directly, and only here, so that a process that
    # evaluates no tail (the rule server, solve, gen) never loads scipy. On a
    # 2-vCPU Xeon (Python 3.11, numpy 2.4, scipy 1.17) `import scipy.stats`
    # takes 1.2-1.6 s, and `import scipy.special` 0.25 s beyond numpy's 0.13 s.
    from scipy.special import fdtrc, stdtr, stdtrit

    p_values = 2.0 * stdtr(dof, -np.abs(t_values))
    t_crit = float(stdtrit(dof, 0.975))
    conf_low = coef - t_crit * std_errors
    conf_high = coef + t_crit * std_errors

    tss = float(((y - y.mean()) ** 2).sum())
    if tss > 0:
        r_squared = 1.0 - rss / tss
    else:
        r_squared = 1.0 if rss <= 1e-12 else 0.0
    adj_r_squared = 1.0 - (1.0 - r_squared) * (rows - 1) / dof

    df_model = cols - 1
    if df_model >= 1 and r_squared < 1.0:
        f_statistic = (r_squared / df_model) / ((1.0 - r_squared) / dof)
        f_pvalue = float(fdtrc(df_model, dof, f_statistic))
    elif df_model >= 1:
        f_statistic = float("inf")
        f_pvalue = 0.0
    else:
        f_statistic = float("nan")
        f_pvalue = float("nan")

    if names is None:
        names = ["const"] + [f"x{i}" for i in range(1, cols)]
    vif_values: tuple[float, ...] = ()
    if cols >= 3:
        vif_values = tuple(vif(x[:, 1:], names=list(names[1:])))

    return RegressionReport(
        names=tuple(names),
        coefficients=tuple(float(c) for c in coef),
        std_errors=tuple(float(s) for s in std_errors),
        t_values=tuple(float(t) for t in t_values),
        p_values=tuple(float(p) for p in p_values),
        conf_low=tuple(float(c) for c in conf_low),
        conf_high=tuple(float(c) for c in conf_high),
        r_squared=float(r_squared),
        adj_r_squared=float(adj_r_squared),
        f_statistic=float(f_statistic),
        f_pvalue=float(f_pvalue),
        condition_number=condition_number,
        vif=vif_values,
        observations=rows,
    )


def vif(regressors: np.ndarray, names: list[str] | None = None) -> list[float]:
    """Variance inflation factor of each regressor: 1 / (1 - R2) from the
    auxiliary regression of that column on all others plus an intercept.
    The intercept column must NOT be part of `regressors`."""
    x = np.asarray(regressors, dtype=float)
    if x.ndim != 2 or x.shape[1] < 2:
        raise MetricError("VIF needs at least two regressor columns")
    rows = x.shape[0]
    out = []
    for idx in range(x.shape[1]):
        label = names[idx] if names else f"column {idx}"
        target = x[:, idx]
        others = np.column_stack([np.ones(rows), np.delete(x, idx, axis=1)])
        coef, _, rank, _ = np.linalg.lstsq(others, target, rcond=None)
        if rank < others.shape[1]:
            raise MetricError(f"VIF undefined: auxiliary design for {label} is singular")
        resid = target - others @ coef
        tss = float(((target - target.mean()) ** 2).sum())
        if tss == 0:
            raise MetricError(f"VIF undefined: {label} is constant")
        r2_aux = 1.0 - float(resid @ resid) / tss
        if r2_aux >= 1.0 - 1e-12:
            raise MetricError(f"perfect collinearity: VIF of {label} is infinite")
        out.append(1.0 / (1.0 - r2_aux))
    return out


def aggregate_ci(values, level: float = 0.95) -> tuple[float, float]:
    """Mean and Student-t half-width of a `level` confidence interval."""
    if not 0.0 < level < 1.0:
        raise MetricError(f"confidence level must lie in (0, 1), got {level}")
    vals = np.asarray(list(values), dtype=float)
    if vals.size < 2:
        raise MetricError(f"confidence interval needs >= 2 values, got {vals.size}")
    mean = float(vals.mean())
    sd = float(vals.std(ddof=1))
    from scipy.special import stdtrit  # see ols_fit

    t_crit = float(stdtrit(vals.size - 1, (1.0 + level) / 2.0))
    return mean, t_crit * sd / float(np.sqrt(vals.size))
