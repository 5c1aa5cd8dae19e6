import numpy as np
import pytest

from helpers import all_decision_sequences, micro_instance
from jsspt.engine import JointAction, ScheduleState
from jsspt.errors import OracleLimitError
from jsspt.instances import GenerationConfig, generate_instance
from jsspt.oracle import brute_force_oracle
from jsspt.rules import sweep


def tiny_instance(seed):
    rng = np.random.default_rng(seed)
    config = GenerationConfig(
        n=int(rng.integers(1, 3)),
        m=int(rng.integers(1, 3)),
        k=int(rng.integers(1, 3)),
        proc_range=(1, 5),
        transport_range=(1, 5),
        seed=int(rng.integers(2**31 - 1)),
    )
    return generate_instance(config)


def test_micro_instance_optimum(i1):
    result = brute_force_oracle(i1)
    assert result.makespan == 10
    assert result.decisions == ((0, 0), (0, 0))


def test_oracle_matches_full_enumeration():
    for seed in range(10):
        inst = tiny_instance(seed)
        oracle = brute_force_oracle(inst)
        naive_best = min(
            state.makespan() for _, state in all_decision_sequences(inst)
        )
        assert oracle.makespan == naive_best


def test_witness_replays_to_the_optimum():
    for seed in range(10):
        inst = tiny_instance(100 + seed)
        oracle = brute_force_oracle(inst)
        state = ScheduleState(inst)
        for job, agv in oracle.decisions:
            state = state.apply(JointAction(job, agv))
        assert state.makespan() == oracle.makespan


def test_oracle_bounds_every_combo():
    for seed in range(5):
        inst = tiny_instance(200 + seed)
        oracle = brute_force_oracle(inst)
        assert min(sweep(inst, seed=seed)) >= oracle.makespan


def test_oracle_refuses_large_instances():
    inst = generate_instance(GenerationConfig(n=3, m=3, k=2, seed=1))
    with pytest.raises(OracleLimitError, match="sequences"):
        brute_force_oracle(inst)  # 12 decisions > default limit 8
    inst2 = generate_instance(GenerationConfig(n=1, m=1, k=9, seed=1))
    with pytest.raises(OracleLimitError):
        brute_force_oracle(inst2)


def test_oracle_deterministic(i1):
    a = brute_force_oracle(i1)
    b = brute_force_oracle(i1)
    assert a == b
