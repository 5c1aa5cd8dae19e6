import hashlib
import json
import math

import numpy as np
import pytest

from helpers import make_instance, micro_instance, random_small_instance, zero_transport
from jsspt import harness
from jsspt.engine import JointAction, ScheduleState, lower_bound, result_to_document, validate_schedule
from jsspt.errors import ActionError, StateError
from jsspt.instances import LOAD, GenerationConfig, generate_instance
from jsspt.rules import (
    ALL_COMBOS,
    AgvRule,
    OperationRule,
    combo_id,
    parse_combo,
    select_agv,
    select_operation,
    solve,
    sweep,
)


def three_job_instance():
    # Three single-machine jobs with processing times 5, 3, 7.
    return make_instance([[0], [0], [0]], [[5], [3], [7]], zero_transport(1), k=1)


def test_spt_and_lpt():
    state = ScheduleState(three_job_instance())
    assert select_operation(OperationRule.SPT, state) == 1
    assert select_operation(OperationRule.LPT, state) == 2


def test_mwr_tie_breaks_lowest_index():
    inst = make_instance(
        [[0, 1], [1, 0], [0, 1]],
        [[6, 6], [8, 4], [4, 5]],
        zero_transport(2),
        k=1,
    )
    # Remaining work: 12, 12, 9 -> tie between jobs 0 and 1, take job 0.
    assert select_operation(OperationRule.MWR, ScheduleState(inst)) == 0
    assert select_operation(OperationRule.LWR, ScheduleState(inst)) == 2


def test_smpt_uses_mean_remaining():
    # Job 0: remaining {9, 0} mean 3.0; job 1: remaining {4, 0} mean 2.0.
    inst = make_instance([[0, 1], [1, 0]], [[9, 9], [4, 4]], zero_transport(2), k=1)
    state = ScheduleState(inst).apply(JointAction(0, 0)).apply(JointAction(1, 0))
    assert select_operation(OperationRule.SMPT, state) == 1


def test_fdd_mwr_ratio():
    # Candidates at op 1: FDD/MWR = p1 / total. Job 0: 2/10; job 1: 5/6.
    inst = make_instance([[0, 1], [1, 0]], [[2, 8], [5, 1]], zero_transport(2), k=1)
    assert select_operation(OperationRule.FDD_MWR, ScheduleState(inst)) == 0


def test_mor_and_lor():
    inst = make_instance([[0, 1], [1, 0]], [[3, 3], [3, 3]], zero_transport(2), k=1)
    state = ScheduleState(inst).apply(JointAction(0, 0))
    # Job 0 has 2 ops left, job 1 has 3.
    assert select_operation(OperationRule.MOR, state) == 1
    assert select_operation(OperationRule.LOR, state) == 0


def test_fcfs_picks_earliest_ready():
    # After both first ops: completions 4 (job 0) and 2 (job 1).
    transport = zero_transport(2)
    transport[LOAD][2] = 1
    transport[LOAD][3] = 1
    inst = make_instance([[0, 1], [1, 0]], [[3, 4], [1, 2]], transport, k=2)
    state = ScheduleState(inst).apply(JointAction(0, 0)).apply(JointAction(1, 1))
    assert state.entries[0][0].end == 4
    assert state.entries[1][0].end == 2
    assert select_operation(OperationRule.FCFS, state) == 1


def test_random_rule_needs_rng_and_stays_in_mask():
    state = ScheduleState(three_job_instance())
    with pytest.raises(ActionError):
        select_operation(OperationRule.RANDOM, state)
    rng = np.random.default_rng(0)
    picks = {select_operation(OperationRule.RANDOM, state, rng) for _ in range(50)}
    assert picks <= {0, 1, 2}
    assert len(picks) > 1


def test_select_operation_terminal_errors(i1):
    state = ScheduleState(i1).apply(JointAction(0, 0)).apply(JointAction(0, 0))
    with pytest.raises(StateError):
        select_operation(OperationRule.SPT, state)


def test_agv_rules_single_vehicle(i1):
    state = ScheduleState(i1)
    for rule in (AgvRule.SPUT, AgvRule.SCTA, AgvRule.SCPT):
        assert select_agv(rule, state, 0) == 0
    assert select_agv(AgvRule.RANDOM, state, 0, np.random.default_rng(0)) == 0


def test_sput_vs_scpt_divergence():
    # ERT {0, 3}, empty travel {5, 1}: arrival {5, 4}.
    transport = zero_transport(2)
    transport[2][LOAD] = 5  # M1 -> load
    transport[3][LOAD] = 1  # M2 -> load
    inst = make_instance([[0, 1]], [[2, 2]], transport, k=2)
    state = ScheduleState(inst)
    state.agv_location = [2, 3]
    state.agv_free = [0, 3]
    assert select_agv(AgvRule.SPUT, state, 0) == 1  # earliest arrival
    assert select_agv(AgvRule.SCPT, state, 0) == 0  # earliest release


def test_scta_picks_min_task_finish():
    # Task finishes {9, 7, 11}.
    transport = zero_transport(2)
    transport[LOAD][2] = 2   # load -> M1 (the loaded leg)
    transport[3][LOAD] = 7   # M2 -> load
    transport[2][LOAD] = 5   # M1 -> load
    inst = make_instance([[0, 1]], [[2, 2]], transport, k=3)
    state = ScheduleState(inst)
    state.agv_location = [3, 2, LOAD]
    state.agv_free = [0, 0, 9]
    assert select_agv(AgvRule.SCTA, state, 0) == 1


def test_select_agv_invalid_job(i1):
    with pytest.raises(ActionError):
        select_agv(AgvRule.SCTA, ScheduleState(i1), 3)


def test_solve_micro_all_combos_force_ten():
    inst = micro_instance()
    assert sweep(inst, seed=0) == [10] * 40
    for index, ident in enumerate(ALL_COMBOS):
        result = solve(inst, *parse_combo(ident), seed=(0, index))
        assert validate_schedule(result, inst) == []


def test_solver_identifiers():
    assert len(ALL_COMBOS) == 40
    assert len(set(ALL_COMBOS)) == 40
    assert combo_id(OperationRule.FDD_MWR, AgvRule.SCTA) == "FDD/MWR+SCTA"
    assert parse_combo("FDD/MWR+SCTA") == (OperationRule.FDD_MWR, AgvRule.SCTA)
    with pytest.raises(ActionError):
        parse_combo("NOPE+SCTA")


def test_solve_deterministic_under_seed():
    inst = generate_instance(GenerationConfig(n=6, m=6, k=3, seed=9))
    a = solve(inst, "SPT", "SCTA", seed=4)
    b = solve(inst, "SPT", "SCTA", seed=4)
    assert a.makespan == b.makespan
    assert a.rows == b.rows
    r1 = solve(inst, "RANDOM", "RANDOM", seed=4)
    r2 = solve(inst, "RANDOM", "RANDOM", seed=4)
    assert r1.rows == r2.rows


def test_random_combo_always_valid():
    inst = generate_instance(GenerationConfig(n=4, m=3, k=2, seed=21))
    bound = lower_bound(inst)
    for seed in range(100):
        result = solve(inst, "RANDOM", "RANDOM", seed=seed)
        assert validate_schedule(result, inst) == []
        assert result.makespan >= bound


def test_best_combo_bounds_all_makespans():
    inst = generate_instance(GenerationConfig(n=4, m=4, k=2, seed=33))
    makespans = sweep(inst, seed=1)
    best = makespans.index(min(makespans))
    assert solve(inst, *parse_combo(ALL_COMBOS[best]), seed=(1, best)).makespan == min(makespans)
    # A subset sweeps each combo with its own stream, in the order given.
    picked = (ALL_COMBOS[best], "RANDOM+RANDOM", ALL_COMBOS[0])
    assert sweep(inst, picked, seed=1) == [makespans[ALL_COMBOS.index(c)] for c in picked]


def test_replaying_decisions_reproduces_schedule():
    inst = generate_instance(GenerationConfig(n=5, m=4, k=3, seed=8))
    result = solve(inst, "FDD/MWR", "SPUT", seed=0)
    state = ScheduleState(inst)
    for job, agv in result.decisions:
        state = state.apply(JointAction(job, agv))
    assert state.makespan() == result.makespan


def test_rule_choices_invariant_under_duration_doubling():
    inst = generate_instance(GenerationConfig(n=5, m=4, k=3, seed=14))
    doubled = make_instance(
        [list(r) for r in inst.routings],
        [[2 * p for p in row[:-1]] for row in inst.proc_times],
        [[2 * t for t in row] for row in inst.transport],
        k=inst.k,
    )
    state_a, state_b = ScheduleState(inst), ScheduleState(doubled)
    for rule in OperationRule:
        if rule is OperationRule.RANDOM:
            continue
        assert select_operation(rule, state_a) == select_operation(rule, state_b)
    job = select_operation(OperationRule.SPT, state_a)
    for rule in (AgvRule.SPUT, AgvRule.SCTA, AgvRule.SCPT):
        assert select_agv(rule, state_a, job) == select_agv(rule, state_b, job)


# -- reference scoring: the per-candidate if-chain and per-vehicle argmin ------

def _reference_operation_score(rule, state, j, i):
    # Lower is better; max-type rules negate.
    inst = state.instance
    if rule is OperationRule.SPT:
        return inst.proc_times[j][i - 1]
    if rule is OperationRule.LPT:
        return -inst.proc_times[j][i - 1]
    remaining_ops = inst.m + 2 - i
    if rule is OperationRule.SMPT:
        return inst.work_suffix[j][i - 1] / remaining_ops
    if rule is OperationRule.MWR:
        return -inst.work_suffix[j][i - 1]
    if rule is OperationRule.LWR:
        return inst.work_suffix[j][i - 1]
    if rule is OperationRule.FDD_MWR:
        remaining = inst.work_suffix[j][i - 1]
        if remaining == 0:
            return math.inf
        return inst.work_prefix[j][i - 1] / remaining
    if rule is OperationRule.MOR:
        return -remaining_ops
    if rule is OperationRule.LOR:
        return remaining_ops
    if rule is OperationRule.FCFS:
        return state.entries[j][-1].end if i > 1 else 0
    raise AssertionError(f"unhandled rule {rule}")


def reference_select_operation(rule, state):
    candidates = [j for j, i in enumerate(state.next_op) if i <= state.instance.m + 1]
    best_job = candidates[0]
    best = _reference_operation_score(rule, state, best_job, state.next_op[best_job])
    for j in candidates[1:]:
        score = _reference_operation_score(rule, state, j, state.next_op[j])
        if score < best:
            best, best_job = score, j
    return best_job


def reference_select_agv(rule, state, job):
    inst = state.instance
    op = state.next_op[job]
    source, target = inst.op_source(job, op), inst.op_machine(job, op)
    times = []
    for u in range(inst.k):
        ready = state.agv_free[u]
        arrival = ready + inst.transport[state.agv_location[u]][source]
        times.append((ready, arrival, arrival + inst.transport[source][target]))
    key = {AgvRule.SCPT: 0, AgvRule.SPUT: 1, AgvRule.SCTA: 2}[rule]
    best_u = 0
    for u in range(1, inst.k):
        if times[u][key] < times[best_u][key]:
            best_u = u
    return best_u


def tie_heavy_instance(rng, duration):
    """Every processing and off-diagonal transport time equals `duration`."""
    n, m, k = (int(x) for x in rng.integers(1, (9, 7, 5)))
    routings = [[int(x) for x in rng.permutation(m)] for _ in range(n)]
    transport = [[0 if a == b else duration for b in range(m + 2)] for a in range(m + 2)]
    return make_instance(routings, [[duration] * m for _ in range(n)], transport, k=k)


def episode_states(instance, rng):
    """Every non-terminal state of one episode of uniformly random actions."""
    state = ScheduleState(instance)
    while not state.is_terminal():
        yield state
        jobs = state.valid_operations()
        job = jobs[int(rng.integers(len(jobs)))]
        state = state.apply(JointAction(job, int(rng.integers(instance.k))))


def differential_instances():
    rng = np.random.default_rng(2024)
    insts = [random_small_instance(rng) for _ in range(30)]
    insts += [tie_heavy_instance(rng, d) for d in (1, 1, 7, 7, 100, 100)]
    return rng, insts


DETERMINISTIC_OP_RULES = [r for r in OperationRule if r is not OperationRule.RANDOM]
DETERMINISTIC_AGV_RULES = [r for r in AgvRule if r is not AgvRule.RANDOM]


def test_rules_match_reference_scoring_on_every_state():
    rng, insts = differential_instances()
    states = 0
    for inst in insts:
        for state in episode_states(inst, rng):
            states += 1
            limit = inst.m + 1
            assert state.valid_operations() == [
                j for j, i in enumerate(state.next_op) if i <= limit
            ]
            for rule in DETERMINISTIC_OP_RULES:
                assert select_operation(rule, state) == reference_select_operation(rule, state)
            for job in state.valid_operations():
                for rule in DETERMINISTIC_AGV_RULES:
                    assert select_agv(rule, state, job) == reference_select_agv(rule, state, job)
    assert states > 1000


def test_sput_and_scta_choose_alike():
    # SCTA's task finish is SPUT's arrival plus the loaded leg, which is the
    # same for every vehicle, so the two rules pick the same vehicle.
    rng, insts = differential_instances()
    for inst in insts:
        for state in episode_states(inst, rng):
            for job in state.valid_operations():
                assert select_agv(AgvRule.SPUT, state, job) == select_agv(AgvRule.SCTA, state, job)
        for rule in DETERMINISTIC_OP_RULES:
            assert solve(inst, rule, AgvRule.SPUT).rows == solve(inst, rule, AgvRule.SCTA).rows


def test_valid_operations_is_a_fresh_copy():
    state = ScheduleState(three_job_instance())
    state.valid_operations().clear()
    assert state.valid_operations() == [0, 1, 2]


GOLDEN_PLAN = dict(sizes=((6, 4), (10, 10), (30, 10)), rhos=(0.2, 1.2), instances_per_config=2, seed=7)
GOLDEN_RESULTS_CSV = "861b035c98834b7cb1e428419768aab0bbe238b22db3004f1a3915180ae5bb43"
GOLDEN_SCHEDULE_DOCS = "50fc59a9c14ba061a5b080a6d5b56e90906db8557270a7694361fc4a0e47d425"


def test_golden_bench_digests():
    plan = harness.ExperimentPlan(**GOLDEN_PLAN)
    insts = harness.generate_bench_instances(plan)
    table = harness.records_to_csv(harness.solve_instances(insts, plan.solvers))
    assert hashlib.sha256(table.encode()).hexdigest() == GOLDEN_RESULTS_CSV
    docs = [
        json.dumps(
            result_to_document(solve(inst, *parse_combo(ident), seed=(inst.seed, index))),
            separators=(",", ":"),
        )
        for inst in insts
        for index, ident in enumerate(plan.solvers)
    ]
    assert len(docs) == 480
    assert hashlib.sha256("\n".join(docs).encode()).hexdigest() == GOLDEN_SCHEDULE_DOCS
