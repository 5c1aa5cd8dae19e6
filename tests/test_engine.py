import numpy as np
import pytest

from helpers import make_instance, random_episode, random_small_instance, zero_transport
from jsspt.engine import (
    JointAction,
    ScheduleResult,
    ScheduleState,
    build_result,
    load_result,
    lower_bound,
    result_from_document,
    result_to_document,
    terminal_reward,
    validate_schedule,
)
from jsspt.errors import ActionError, DocumentError, StateError
from jsspt.instances import LOAD


def run_sequence(instance, decisions):
    state = ScheduleState(instance)
    for job, agv in decisions:
        state = state.apply(JointAction(job, agv))
    return state


def test_reset_state(i1):
    state = ScheduleState(i1)
    assert state.steps == 0
    assert state.agv_location == [LOAD]
    assert state.agv_free == [0]
    assert state.machine_free == [0, 0, 0]
    assert state.valid_operations() == [0]
    assert not state.is_terminal()


def test_reset_is_deterministic(i1):
    a, b = ScheduleState(i1), ScheduleState(i1)
    assert a.next_op == b.next_op
    assert a.agv_location == b.agv_location
    assert a.machine_free == b.machine_free


def test_valid_operations_counts():
    inst = make_instance(
        [[0, 1], [1, 0]], [[3, 4], [2, 2]], zero_transport(2), k=1
    )
    state = ScheduleState(inst)
    assert state.valid_operations() == [0, 1]
    state = state.apply(JointAction(0, 0))
    assert state.valid_operations() == [0, 1]  # job 0 still has ops left
    while not state.is_terminal():
        state = state.apply(JointAction(state.valid_operations()[0], 0))
    assert state.valid_operations() == []


def test_micro_instance_worked_schedule(i1):
    state = ScheduleState(i1)
    state = state.apply(JointAction(0, 0))
    first = state.entries[0][0]
    assert (first.transport_start, first.transport_end, first.start, first.end) == (0, 2, 2, 7)
    assert state.agv_location == [2]  # at M1
    assert state.agv_free == [2]     # released at delivery
    state = state.apply(JointAction(0, 0))
    second = state.entries[0][1]
    assert (second.transport_start, second.transport_end, second.start, second.end) == (7, 10, 10, 10)
    assert state.is_terminal()
    assert state.makespan() == 10


def test_apply_rejects_invalid_actions(i1):
    state = ScheduleState(i1)
    before = list(state.next_op)
    with pytest.raises(ActionError):
        state.apply(JointAction(1, 0))
    with pytest.raises(ActionError):
        state.apply(JointAction(0, 1))
    done = run_sequence(i1, [(0, 0), (0, 0)])
    with pytest.raises(ActionError):
        done.apply(JointAction(0, 0))
    assert state.next_op == before  # rejection leaves the state untouched


def test_apply_is_functional(i1):
    state = ScheduleState(i1)
    successor = state.apply(JointAction(0, 0))
    assert state.steps == 0
    assert successor.steps == 1
    assert state.entries[0] == []


def test_makespan_requires_terminal(i1):
    state = ScheduleState(i1)
    with pytest.raises(StateError):
        state.makespan()


def test_makespan_is_max_over_jobs():
    # Two jobs on different machines, no transport: completions 10 and 14.
    inst = make_instance(
        [[0, 1], [1, 0]], [[4, 6], [5, 9]], zero_transport(2), k=2
    )
    state = run_sequence(inst, [(0, 0), (1, 1), (0, 0), (1, 1), (0, 0), (1, 1)])
    assert state.makespan() == 14


def test_lower_bound(i1):
    assert lower_bound(i1) == 10
    # All transports zero: reduces to the largest job processing sum.
    inst = make_instance([[0, 1], [1, 0]], [[4, 6], [5, 9]], zero_transport(2), k=1)
    assert lower_bound(inst) == 14
    # Paths 17 and 23: max wins.
    inst2 = make_instance([[0], [0]], [[17], [23]], zero_transport(1), k=1)
    assert lower_bound(inst2) == 23


def test_terminal_reward(i1):
    state = ScheduleState(i1)
    assert terminal_reward(state) == 0.0
    state = run_sequence(i1, [(0, 0), (0, 0)])
    assert terminal_reward(state, 5.0) == pytest.approx(-0.2, abs=1e-12)


def test_reward_at_twice_the_bound():
    # Two identical jobs on one machine, zero transport: makespan 10 = 2*LB.
    inst = make_instance([[0], [0]], [[5], [5]], zero_transport(1), k=1)
    state = run_sequence(inst, [(0, 0), (1, 0), (0, 0), (1, 0)])
    assert lower_bound(inst) == 5
    assert state.makespan() == 10
    assert terminal_reward(state, 5.0) == pytest.approx(-0.4, abs=1e-12)


def test_episode_length_equals_total_ops():
    rng = np.random.default_rng(0)
    inst = random_small_instance(rng)
    result = random_episode(inst, rng)
    assert len(result.decisions) == inst.total_ops
    assert len(result.rows) == inst.total_ops


def test_validate_accepts_engine_output(i1):
    state = run_sequence(i1, [(0, 0), (0, 0)])
    result = build_result(state, "manual", [(0, 0), (0, 0)])
    assert validate_schedule(result, i1) == []


def test_validate_flags_machine_overlap():
    inst = make_instance([[0], [0]], [[5], [5]], zero_transport(1), k=2)
    state = run_sequence(inst, [(0, 0), (1, 1), (0, 0), (1, 1)])
    result = build_result(state, "manual", [(0, 0), (1, 1), (0, 0), (1, 1)])
    rows = list(result.rows)
    # Drag job 1's processing on top of job 0's interval.
    target = next(i for i, r in enumerate(rows) if r.job == 1 and r.op == 1)
    rows[target] = rows[target]._replace(start=2, end=7, transport_end=2, transport_start=2)
    forged = ScheduleResult(
        result.instance_id, result.solver_id, result.makespan,
        tuple(rows), result.decisions,
    )
    assert any("overlap" in p for p in validate_schedule(forged, inst))


def test_validate_flags_start_before_delivery(i1):
    state = run_sequence(i1, [(0, 0), (0, 0)])
    result = build_result(state, "manual", [(0, 0), (0, 0)])
    rows = list(result.rows)
    rows[0] = rows[0]._replace(start=1, end=6)
    forged = ScheduleResult(
        result.instance_id, result.solver_id, result.makespan,
        tuple(rows), result.decisions,
    )
    problems = validate_schedule(forged, i1)
    assert any("before delivery" in p for p in problems)


def test_validate_flags_delayed_start_as_not_semi_active(i1):
    state = run_sequence(i1, [(0, 0), (0, 0)])
    result = build_result(state, "manual", [(0, 0), (0, 0)])
    rows = list(result.rows)
    rows[0] = rows[0]._replace(start=4, end=9)
    rows[1] = rows[1]._replace(transport_start=9, transport_end=12, start=12, end=12)
    forged = ScheduleResult(
        result.instance_id, result.solver_id, 12, tuple(rows), result.decisions
    )
    problems = validate_schedule(forged, i1)
    assert any("semi-active" in p for p in problems)


def test_validate_flags_wrong_makespan(i1):
    state = run_sequence(i1, [(0, 0), (0, 0)])
    result = build_result(state, "manual", [(0, 0), (0, 0)])
    forged = ScheduleResult(
        result.instance_id, result.solver_id, 99, result.rows, result.decisions
    )
    assert any("makespan" in p for p in validate_schedule(forged, i1))


def test_validate_flags_missing_rows(i1):
    state = run_sequence(i1, [(0, 0), (0, 0)])
    result = build_result(state, "manual", [(0, 0), (0, 0)])
    forged = ScheduleResult(
        result.instance_id, result.solver_id, result.makespan,
        result.rows[:1], result.decisions,
    )
    assert any("missing row" in p for p in validate_schedule(forged, i1))


def test_random_episodes_are_valid_and_bounded():
    rng = np.random.default_rng(42)
    for _ in range(200):
        inst = random_small_instance(rng)
        result = random_episode(inst, rng)
        assert validate_schedule(result, inst) == []
        assert result.makespan >= lower_bound(inst)


def test_monotone_clocks():
    rng = np.random.default_rng(7)
    for _ in range(50):
        inst = random_small_instance(rng)
        state = ScheduleState(inst)
        agv_frees = {u: [0] for u in range(inst.k)}
        while not state.is_terminal():
            jobs = state.valid_operations()
            job = jobs[int(rng.integers(len(jobs)))]
            agv = int(rng.integers(inst.k))
            state = state.apply(JointAction(job, agv))
            entry = state.entries[job][-1]
            assert 0 <= entry.transport_start <= entry.transport_end <= entry.start <= entry.end
            agv_frees[agv].append(state.agv_free[agv])
        for series in agv_frees.values():
            assert all(a <= b for a, b in zip(series, series[1:]))
        for machine in range(2, inst.m + 2):
            seq = sorted(
                (entry.start, j, entry)
                for j, (machines, ent) in enumerate(zip(inst.op_machines, state.entries))
                for t, entry in zip(machines, ent)
                if t == machine
            )
            ends = [entry.end for _, _, entry in seq]
            assert ends == sorted(ends)
            for (_, _, a), (_, _, b) in zip(seq, seq[1:]):
                assert a.end <= b.start


def _schedule_document(i1):
    state = run_sequence(i1, [(0, 0), (0, 0)])
    return result_to_document(build_result(state, "SPT+SCTA", [(0, 0), (0, 0)]))


def test_schedule_document_round_trip(i1):
    doc = _schedule_document(i1)
    assert result_to_document(result_from_document(doc)) == doc


def test_schedule_document_rejects_fractional_integers(i1):
    doc = _schedule_document(i1)
    doc["makespan"] = 12.9
    with pytest.raises(DocumentError, match=r"^makespan: must be an integer, got 12\.9$"):
        result_from_document(doc)


def test_schedule_document_rejects_bool_integers(i1):
    doc = _schedule_document(i1)
    doc["makespan"] = True
    with pytest.raises(DocumentError, match=r"^makespan: must be an integer, got True$"):
        result_from_document(doc)


def test_schedule_document_rejects_string_integers(i1):
    doc = _schedule_document(i1)
    doc["rows"][1][4] = "7"
    with pytest.raises(DocumentError, match=r"^rows\[1\]\[4\]: must be an integer, got '7'$"):
        result_from_document(doc)


def test_identical_action_sequences_identical_schedules():
    rng = np.random.default_rng(3)
    inst = random_small_instance(rng)
    decisions = list(random_episode(inst, rng).decisions)
    first = run_sequence(inst, decisions)
    second = run_sequence(inst, decisions)
    assert build_result(first, "a", decisions).rows == build_result(second, "a", decisions).rows


def test_load_result_rejects_a_file_that_is_not_json(tmp_path):
    path = tmp_path / "schedule.json"
    path.write_text("{bad", encoding="utf-8")
    with pytest.raises(DocumentError, match="^document: not valid JSON"):
        load_result(path)
