"""Acceptance criteria, one test per criterion.

Each test enforces the stated tolerance and runtime budget and prints a
PASS line (visible with pytest -s or in the captured output on failure).
"""

import sys
import time

import numpy as np
import pytest

from helpers import micro_instance, random_episode, random_small_instance
from jsspt.bridge import ExternalPolicyClient, run_episode
from jsspt.cli import main as cli_main
from jsspt.engine import (
    ScheduleState,
    lower_bound,
    terminal_reward,
    validate_schedule,
)
from jsspt.harness import RHO_LADDER, fleet_size
from jsspt.instances import GenerationConfig, generate_instance, save_instance
from jsspt.metrics import bottleneck_features, make_record, rho, temporal_dominance
from jsspt.oracle import brute_force_oracle
from jsspt.regression import ols_fit, z_normalize
from jsspt.rules import solve, sweep


def _report(criterion: int, text: str) -> None:
    print(f"PASS criterion {criterion}: {text}")


def test_criterion_1_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 50:
        config = GenerationConfig(
            n=int(rng.integers(1, 3)),
            m=int(rng.integers(1, 3)),
            k=int(rng.integers(1, 3)),
            proc_range=(1, 5),
            transport_range=(1, 5),
            seed=int(rng.integers(2**31 - 1)),
        )
        instance = generate_instance(config)
        oracle = brute_force_oracle(instance)
        assert min(sweep(instance, seed=checked)) >= oracle.makespan
        state = ScheduleState(instance)
        for job, agv in oracle.decisions:
            state = state.apply(job, agv)
        assert state.makespan() == oracle.makespan  # tolerance 0
        checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _report(1, f"{checked} instances, oracle <= all 40 combos, witness replay exact ({elapsed:.1f}s)")


def test_criterion_2_schedule_validity():
    started = time.perf_counter()
    rng = np.random.default_rng(99)
    for _ in range(1000):
        instance = random_small_instance(rng)
        result = random_episode(instance, rng)
        assert validate_schedule(result, instance) == []
        assert result.makespan >= lower_bound(instance)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _report(2, f"1000 random episodes valid, makespan >= bound ({elapsed:.1f}s)")


def test_criterion_3_worked_micro_instance():
    instance = micro_instance()
    state = ScheduleState(instance)
    state = state.apply(0, 0)
    state = state.apply(0, 0)
    first, second = state.entries[0]
    assert (first.transport_start, first.transport_end, first.start, first.end) == (0, 2, 2, 7)
    assert (second.transport_start, second.transport_end, second.start, second.end) == (7, 10, 10, 10)
    assert state.makespan() == 10
    assert lower_bound(instance) == 10
    assert abs(terminal_reward(state) - (-0.2)) <= 1e-12
    _report(3, "schedule (0,2,2,7)/(7,10,10,10), makespan 10, bound 10, reward -0.2")


def test_criterion_4_metric_identities():
    assert rho(18, 15) == pytest.approx(1.2, abs=0)
    ladders = {
        15: (3, 6, 9, 12, 15, 18),
        10: (2, 4, 6, 8, 10, 12),
        12: (2, 5, 7, 10, 12, 14),
        14: (3, 6, 8, 11, 14, 17),
        20: (4, 8, 12, 16, 20, 24),
        5: (1, 2, 3, 4, 5, 6),
        30: (6, 12, 18, 24, 30, 36),
    }
    for n, expected in ladders.items():
        assert tuple(fleet_size(r, n) for r in RHO_LADDER) == expected
    assert temporal_dominance(100, 1).index == 1.0
    assert temporal_dominance(1, 100).index == -1.0
    assert temporal_dominance(37, 37).index == 0.0
    assert bottleneck_features(1.0, 1.0) == (1.0, 0.0, 1.0, 0.0)
    _report(4, "scarcity ladders, dominance endpoints, bottleneck features exact")


def test_criterion_5_regression_recovery():
    started = time.perf_counter()
    rhos = (0.2, 0.4, 0.6, 0.8, 1.0, 1.2)
    taus = tuple(round(-1.0 + 0.1 * i, 1) for i in range(21))
    feats = np.array(
        [
            [f.bm, f.jbn, f.abn]
            for f in (bottleneck_features(r, t) for t in taus for r in rhos)
        ]
    )
    z = z_normalize(feats, names=["BM", "JBN", "ABN"])
    design = np.column_stack([np.ones(len(z)), z])
    truth = np.array([2.55, 0.54, -0.95, -0.80])

    clean = ols_fit(design, design @ truth, names=["const", "BM", "JBN", "ABN"])
    assert clean.observations == 126
    assert np.allclose(clean.coefficients, truth, atol=1e-9)
    assert abs(clean.r_squared - 1.0) <= 1e-9
    assert all(v < 5 for v in clean.vif)

    hits = 0
    for seed in range(100):
        noise = np.random.default_rng(seed).normal(0.0, 0.5, size=len(z))
        noisy = ols_fit(design, design @ truth + noise)
        coef = np.array(noisy.coefficients)
        se = np.array(noisy.std_errors)
        if np.all(np.abs(coef - truth) <= 3 * se):
            hits += 1
    assert hits >= 99
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    _report(5, f"exact recovery at 1e-9, {hits}/100 noisy fits within 3 SE, VIF < 5 ({elapsed:.1f}s)")


def test_criterion_6_protocol_transparency(tmp_path):
    instances = [
        generate_instance(GenerationConfig(n=3, m=3, k=2, seed=1000 + i))
        for i in range(20)
    ]
    for instance in instances:
        save_instance(instance, tmp_path)

    builtin_records = []
    for instance in instances:
        result = solve(instance, "SPT", "SCTA")
        builtin_records.append(make_record(instance, result.solver_id, result.makespan))

    command = [
        sys.executable, "-m", "jsspt.rule_server",
        "--op-rule", "SPT", "--agv-rule", "SCTA", "--instances-dir", str(tmp_path),
    ]
    external_records = []
    with ExternalPolicyClient(command, timeout=30) as client:
        for instance in instances:
            state, _ = run_episode(instance, client, client)
            external_records.append(make_record(instance, "SPT+SCTA", state.makespan()))

    from jsspt.harness import records_to_csv

    assert records_to_csv(external_records) == records_to_csv(builtin_records)
    _report(6, "external SPT+SCTA rows byte-identical to in-process rows on 20 instances")


def test_criterion_7_bench_determinism(tmp_path):
    args = [
        "bench", "--sizes", "6x5,5x3", "--rhos", "0.4,1.0", "--instances", "3",
        "--solvers", "all", "--seed", "17",
    ]
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert cli_main(args + ["--out", str(out_a)]) == 0
    assert cli_main(args + ["--out", str(out_b)]) == 0
    for name in ("results.csv", "summary.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    _report(7, "repeated bench runs emit byte-identical results and summary tables")


def test_criterion_8_throughput():
    started = time.perf_counter()
    seed_rng = np.random.default_rng(4242)
    count = 0
    for _ in range(100):
        config = GenerationConfig(n=15, m=10, k=9, seed=int(seed_rng.integers(2**31 - 1)))
        instance = generate_instance(config)
        assert len(sweep(instance, seed=count)) == 40
        count += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    _report(8, f"40-combo benchmark over 100 instances of 15x10x9 in {elapsed:.1f}s")
