import hashlib
import json

import numpy as np
import pytest

from helpers import (
    make_instance,
    micro_instance,
    random_small_instance,
    reference_select_operation,
    zero_transport,
)
from jsspt import harness, rules
from jsspt.engine import ScheduleState, lower_bound, result_to_document, validate_schedule
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
    state = ScheduleState(inst).apply(0, 0).apply(1, 0)
    assert select_operation(OperationRule.SMPT, state) == 1


def test_fdd_mwr_ratio():
    # Candidates at op 1: FDD/MWR = p1 / total. Job 0: 2/10; job 1: 5/6.
    inst = make_instance([[0, 1], [1, 0]], [[2, 8], [5, 1]], zero_transport(2), k=1)
    assert select_operation(OperationRule.FDD_MWR, ScheduleState(inst)) == 0


def test_mor_and_lor():
    inst = make_instance([[0, 1], [1, 0]], [[3, 3], [3, 3]], zero_transport(2), k=1)
    state = ScheduleState(inst).apply(0, 0)
    # Job 0 has 2 ops left, job 1 has 3.
    assert select_operation(OperationRule.MOR, state) == 1
    assert select_operation(OperationRule.LOR, state) == 0


def test_fcfs_picks_earliest_ready():
    # After both first ops: completions 4 (job 0) and 2 (job 1).
    transport = zero_transport(2)
    transport[LOAD][2] = 1
    transport[LOAD][3] = 1
    inst = make_instance([[0, 1], [1, 0]], [[3, 4], [1, 2]], transport, k=2)
    state = ScheduleState(inst).apply(0, 0).apply(1, 1)
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
    state = ScheduleState(i1).apply(0, 0).apply(0, 0)
    with pytest.raises(StateError):
        select_operation(OperationRule.SPT, state)


def test_agv_rules_single_vehicle(i1):
    state = ScheduleState(i1)
    for rule in (AgvRule.SPUT, AgvRule.SCTA, AgvRule.SCPT):
        assert select_agv(rule, state, 0) == 0
    assert select_agv(AgvRule.RANDOM, state, 0, np.random.default_rng(0)) == 0
    with pytest.raises(ActionError, match="^RANDOM agv rule needs a random generator$"):
        select_agv(AgvRule.RANDOM, state, 0)


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


def test_select_agv_names_why_it_cannot_move_a_job():
    # Two ops of job 0 (n = 1, m = 1) leave it complete; the range check
    # comes first, so -1 is out of range rather than read as the last job.
    state = ScheduleState(micro_instance())
    state.advance(0, 0)
    state.advance(0, 0)
    for rule in AgvRule:
        rng = np.random.default_rng(0)
        with pytest.raises(ActionError, match=r"^job 0 has no unscheduled operation$"):
            select_agv(rule, state, 0, rng)
        for job in (-1, 1):
            with pytest.raises(ActionError, match=rf"^job index {job} out of range$"):
                select_agv(rule, state, job, rng)


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
        state = state.apply(job, agv)
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


# -- reference scoring: the per-vehicle argmin (the if-chain is in helpers) -----

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
        state = state.apply(job, int(rng.integers(instance.k)))


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


def test_sweep_plays_each_decision_process_once(monkeypatch):
    inst = generate_instance(GenerationConfig(n=5, m=4, k=3, seed=12))
    full = sweep(inst, seed=3)
    play = rules.play
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return play(*args, **kwargs)

    monkeypatch.setattr(rules, "play", counted)
    for combos, episodes in [
        (ALL_COMBOS, 31),
        (("SPT+SPUT", "SPT+SCTA"), 1),
        (("SPT+SCTA",), 1),
        (("RANDOM+SPUT", "RANDOM+SCTA"), 2),
        (("MOR+SCTA", "MOR+SCTA"), 1),
    ]:
        del calls[:]
        makespans = sweep(inst, combos, seed=3)
        assert len(calls) == episodes, combos
        assert makespans == [full[ALL_COMBOS.index(c)] for c in combos]


# -- the dispatch table ------------------------------------------------------

def test_dispatch_table_holds_every_rule_but_random():
    assert set(rules._OPERATION_DISPATCH) == set(OperationRule) - {OperationRule.RANDOM}


def test_rule_rows_are_built_only_by_the_rules_that_read_them():
    # Grid plays SPT and MOR alone, so its instances never build the rows.
    inst = generate_instance(GenerationConfig(n=5, m=4, k=3, seed=12))
    sweep(inst, ("SPT+SCTA", "MOR+SCTA"))
    assert "mean_work_suffix" not in inst.__dict__
    assert "flow_due_ratio" not in inst.__dict__
    rules.play(inst, OperationRule.SMPT, AgvRule.SPUT)
    assert "mean_work_suffix" in inst.__dict__
    assert "flow_due_ratio" not in inst.__dict__


def test_string_and_enum_rules_choose_alike():
    rng, insts = differential_instances()
    for inst in insts[:10]:
        for state in episode_states(inst, rng):
            for rule in OperationRule:
                got = select_operation(rule.value, state, np.random.default_rng(1))
                assert got == select_operation(rule, state, np.random.default_rng(1))
            for job in state.valid_operations():
                for rule in AgvRule:
                    got = select_agv(rule.value, state, job, np.random.default_rng(1))
                    assert got == select_agv(rule, state, job, np.random.default_rng(1))


def test_unknown_rule_string_is_a_value_error():
    inst = three_job_instance()
    state = ScheduleState(inst)
    with pytest.raises(ValueError):
        select_operation("NOPE", state)
    with pytest.raises(ValueError):
        select_agv("NOPE", state, 0)
    with pytest.raises(ValueError):
        rules.play(inst, "NOPE", "SCTA")
    with pytest.raises(ValueError):
        rules.play(inst, "SPT", "NOPE")


def test_only_random_pairs_make_a_generator(monkeypatch):
    inst = generate_instance(GenerationConfig(n=4, m=3, k=2, seed=5))
    expected = {
        (o, a): rules.play(inst, o, a, seed=2)[1] for o in OperationRule for a in AgvRule
    }

    def refuse(seed=None):
        raise AssertionError("default_rng called")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    for (op_rule, agv_rule), decisions in expected.items():
        if op_rule is OperationRule.RANDOM or agv_rule is AgvRule.RANDOM:
            with pytest.raises(AssertionError, match="default_rng called"):
                rules.play(inst, op_rule, agv_rule, seed=2)
        else:
            assert rules.play(inst, op_rule, agv_rule, seed=2)[1] == decisions


@pytest.mark.parametrize("seed", [0, 2**32 - 1, (0, 0), (123456789, 39)])
def test_numpy_sized_draw_equals_scalar_draws(seed):
    """play draws an X+RANDOM episode's vehicles in one sized call. That
    gives the per-step loop's decisions only while numpy's sized integers()
    yields the values of as many scalar calls, and leaves the generator where
    they leave it, for every bound the benchmark reaches."""
    steps = 330  # 30 jobs x 11 operations
    for k in range(1, 41):
        sized, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
        assert sized.integers(k, size=steps).tolist() == [
            int(scalar.integers(k)) for _ in range(steps)
        ], k
        assert sized.bit_generator.state == scalar.bit_generator.state, k


def test_play_calls_select_operation_once_per_step(monkeypatch):
    # perfbench clocks decision steps by wrapping the module global.
    inst = generate_instance(GenerationConfig(n=4, m=3, k=2, seed=5))
    select = rules.select_operation
    calls = []

    def counted(*args):
        calls.append(args[1].steps)
        return select(*args)

    monkeypatch.setattr(rules, "select_operation", counted)
    for op_rule in OperationRule:
        for agv_rule in AgvRule:
            del calls[:]
            rules.play(inst, op_rule, agv_rule, seed=2)
            assert calls == list(range(inst.total_ops)), (op_rule, agv_rule)


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
    table = harness.records_to_csv(harness.run_bench(plan)[0])
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
