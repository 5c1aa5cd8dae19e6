"""Scalar evaluation metrics and the per-run result record.

Covers relative improvement and win-rate comparisons between solvers, the two
coupling factors (resource scarcity and temporal dominance), the four
operational regimes, and the bottleneck regressors derived from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .errors import MetricError
from .instances import Instance, TIME_MAX, TIME_MIN


def rpi(makespan: float, baseline: float) -> float:
    """Relative percentage improvement of `makespan` over `baseline`;
    positive means better (shorter) than the baseline."""
    if baseline <= 0:
        raise MetricError(f"baseline makespan must be > 0, got {baseline}")
    return -(makespan - baseline) / baseline * 100.0


def win(makespan: float, baseline: float) -> int:
    """1 iff strictly better than the baseline; ties count as 0."""
    return 1 if makespan < baseline else 0


def rho(k: int, n: int) -> float:
    """Resource scarcity: vehicles per job. 1.0 is the unconstrained limit."""
    if k < 1 or n < 1:
        raise MetricError(f"need k >= 1 and n >= 1, got k={k} n={n}")
    return k / n


class Dominance(NamedTuple):
    p_norm: float
    t_norm: float
    processing_share: float
    index: float


def temporal_dominance(p_raw: float, t_raw: float) -> Dominance:
    """Balance of processing vs transport durations on the symmetric scale
    [-1, 1] (positive: processing dominates). Both averages are first mapped
    from the global time bounds [1, 100] onto [0, 1]. Both at the lower bound
    give share 0.5 and index 0, the limit along p_norm = t_norm: neither
    duration dominates."""
    for name, v in (("p_raw", p_raw), ("t_raw", t_raw)):
        if not TIME_MIN <= v <= TIME_MAX:
            raise MetricError(
                f"{name}={v} outside the global time bounds [{TIME_MIN}, {TIME_MAX}]"
            )
    span = TIME_MAX - TIME_MIN
    p_norm = (p_raw - TIME_MIN) / span
    t_norm = (t_raw - TIME_MIN) / span
    total = p_norm + t_norm
    share = p_norm / total if total else 0.5
    return Dominance(p_norm, t_norm, share, 2.0 * share - 1.0)


class Regime(str, Enum):
    UNDERUTILIZED_TRANSPORT = "underutilized-transport"
    PROCESS_CONSTRAINED = "process-constrained"
    TRANSPORT_CONSTRAINED = "transport-constrained"
    RESOURCE_SATURATED = "resource-saturated"


def classify_regime(rho_value: float, tau: float) -> Regime:
    """Quadrant of the (rho, tau*) plane. Boundaries go to the high-resource
    side (rho = 0.5) and the transport-dominant side (tau* = 0)."""
    high_resource = rho_value >= 0.5
    processing_dominant = tau > 0.0
    if processing_dominant:
        return Regime.PROCESS_CONSTRAINED if high_resource else Regime.UNDERUTILIZED_TRANSPORT
    return Regime.RESOURCE_SATURATED if high_resource else Regime.TRANSPORT_CONSTRAINED


class BottleneckFeatures(NamedTuple):
    """Regression features derived from (rho, tau*): bottleneck dominance BD,
    balance metric BM = (BD-1)^2, and the two signed bottleneck terms JBN
    (process-constrained positive) and ABN (transport-constrained positive)."""

    bd: float
    bm: float
    jbn: float
    abn: float


def bottleneck_features(rho_value: float, tau: float) -> BottleneckFeatures:
    bd = abs(-max(0.0, tau) + (-rho_value + 1.0))
    bm = (bd - 1.0) ** 2
    jbn = tau * rho_value
    abn = (rho_value - 1.0) * tau
    return BottleneckFeatures(bd, bm, jbn, abn)


@dataclass(frozen=True)
class ResultRecord:
    """One (instance, solver) outcome row of a results table."""

    instance_id: str
    solver_id: str
    makespan: int
    n: int
    m: int
    k: int
    p_raw: float
    t_raw: float
    rho: float
    tau: float
    regime: str
    cell_id: str
    seed: int


def make_record(
    instance: Instance, solver_id: str, makespan: int, cell_id: str = ""
) -> ResultRecord:
    """Derive the coupling factors for a finished run and pack a record."""
    p_raw = instance.mean_proc_time
    t_raw = instance.mean_transport_time
    rho_value = rho(instance.k, instance.n)
    tau = temporal_dominance(p_raw, t_raw).index
    return ResultRecord(
        instance_id=instance.id,
        solver_id=solver_id,
        makespan=makespan,
        n=instance.n,
        m=instance.m,
        k=instance.k,
        p_raw=p_raw,
        t_raw=t_raw,
        rho=rho_value,
        tau=tau,
        regime=classify_regime(rho_value, tau).value,
        cell_id=cell_id,
        seed=instance.seed,
    )
