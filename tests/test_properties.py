"""Property tests over random instances and random valid decision sequences:
the in-place and functional transitions agree, apply() never touches its
parent, every rule schedule validates, play() agrees with solve() and with
run_episode() under a rule decider, sweep() agrees with solve(), every
operation line equals the reference encoder's in any encoding order,
documents load back equal, and the oracle bounds every combo."""

import copy
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import _reference_operation_line
from jsspt.bridge import OPERATION_PHASE, RulePolicy, run_episode, serialize_observation
from jsspt.engine import JointAction, ScheduleState, load_result, save_result, validate_schedule
from jsspt.errors import ActionError
from jsspt.harness import ExperimentPlan, load_plan, plan_to_document
from jsspt.instances import Instance, load_instance, save_instance
from jsspt.oracle import brute_force_oracle
from jsspt.rules import ALL_COMBOS, parse_combo, play, solve, sweep

SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def instances(draw, max_n=5, max_m=4, max_k=4, min_leg=0):
    """Any instance the constructor accepts, up to the given shape:
    processing times in [1, 100], transport times in [min_leg, 100] with a
    zero diagonal (zero off-diagonal legs included by default; a document
    needs min_leg=1)."""
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(1, max_m))
    k = draw(st.integers(1, max_k))
    routings = tuple(tuple(draw(st.permutations(range(m)))) for _ in range(n))
    proc = tuple(
        tuple(draw(st.lists(st.integers(1, 100), min_size=m, max_size=m))) + (0,)
        for _ in range(n)
    )
    size = m + 2
    transport = tuple(
        tuple(0 if a == b else draw(st.integers(min_leg, 100)) for b in range(size))
        for a in range(size)
    )
    return Instance("prop", n, m, k, routings, proc, transport, seed=0)


def snapshot(state: ScheduleState) -> dict:
    """Every field of the state but the instance, copied deeply."""
    return {
        name: copy.deepcopy(getattr(state, name))
        for name in ScheduleState.__slots__
        if name != "instance"
    }


def random_actions(data, instance):
    """Draw a complete valid decision sequence one step at a time."""
    state = ScheduleState(instance)
    while not state.is_terminal():
        job = data.draw(st.sampled_from(state.valid_operations()))
        agv = data.draw(st.integers(0, instance.k - 1))
        yield job, agv
        state.advance(job, agv)


def trace_states(data, instance) -> list[ScheduleState]:
    """Every state along one random decision trace, built with apply()."""
    states = [ScheduleState(instance)]
    for job, agv in random_actions(data, instance):
        states.append(states[-1].apply(JointAction(job, agv)))
    return states


def assert_operation_lines_match(states) -> None:
    for state in states:
        assert serialize_observation(state, OPERATION_PHASE) == _reference_operation_line(state)


def round_trip(save, load, value):
    """load(save(value)) through a file."""
    with tempfile.TemporaryDirectory() as tmp:
        return load(save(value, Path(tmp) / "doc.json"))


def save_plan(plan: ExperimentPlan, path: Path) -> Path:
    path.write_text(json.dumps(plan_to_document(plan)), encoding="utf-8")
    return path


@SETTINGS
@given(st.data())
def test_advance_equals_apply_chain_at_every_step(data):
    instance = data.draw(instances())
    functional = ScheduleState(instance)
    in_place = ScheduleState(instance)
    for job, agv in random_actions(data, instance):
        functional = functional.apply(JointAction(job, agv))
        in_place.advance(job, agv)
        assert snapshot(in_place) == snapshot(functional)
    assert in_place.makespan() == functional.makespan()


@SETTINGS
@given(st.data())
def test_apply_leaves_parent_untouched(data):
    instance = data.draw(instances())
    state = ScheduleState(instance)
    for job, agv in random_actions(data, instance):
        before = snapshot(state)
        successor = state.apply(JointAction(job, agv))
        assert snapshot(state) == before
        # advance() rejects an invalid action without touching the state.
        after = snapshot(successor)
        for bad_job, bad_agv in ((instance.n, 0), (job, instance.k)):
            with pytest.raises(ActionError):
                successor.advance(bad_job, bad_agv)
        assert snapshot(successor) == after
        state = successor


@SETTINGS
@given(instances(), st.sampled_from(ALL_COMBOS), st.integers(0, 2**32 - 1))
def test_every_solve_result_validates(instance, combo, seed):
    result = solve(instance, *parse_combo(combo), seed=seed)
    assert validate_schedule(result, instance) == []


@settings(max_examples=25, deadline=None)
@given(instances(), st.integers(0, 2**32 - 1))
def test_play_agrees_with_solve_for_every_combo(instance, seed):
    for combo in ALL_COMBOS:
        op_rule, agv_rule = parse_combo(combo)
        state, decisions = play(instance, op_rule, agv_rule, seed=seed)
        result = solve(instance, op_rule, agv_rule, seed=seed)
        assert state.makespan() == result.makespan
        assert tuple(decisions) == result.decisions


@settings(max_examples=25, deadline=None)
@given(instances(), st.integers(0, 2**32 - 1))
def test_run_episode_agrees_with_play_for_every_combo(instance, seed):
    for combo in ALL_COMBOS:
        op_rule, agv_rule = parse_combo(combo)
        policy = RulePolicy(op_rule, agv_rule, seed)
        state, decisions = run_episode(instance, policy, policy)
        played, played_decisions = play(instance, op_rule, agv_rule, seed)
        assert decisions == played_decisions
        assert state.makespan() == played.makespan()


@settings(max_examples=25, deadline=None)
@given(instances(), st.integers(0, 2**32 - 1))
def test_sweep_agrees_with_solve_for_every_combo(instance, seed):
    makespans = sweep(instance, seed=seed)
    assert len(makespans) == len(ALL_COMBOS)
    for index, combo in enumerate(ALL_COMBOS):
        result = solve(instance, *parse_combo(combo), seed=(seed, index))
        assert validate_schedule(result, instance) == []
        assert makespans[index] == result.makespan


@SETTINGS
@given(st.data())
def test_operation_lines_match_reference_in_any_encoding_order(data):
    # The encoder keeps one memo run per job. Its key must hold the job's
    # entries themselves, not their count: one trace never shows a job with
    # as many entries but other times, two interleaved traces do.
    instance = data.draw(instances())
    trace = trace_states(data, instance)
    assert_operation_lines_match(trace)
    assert_operation_lines_match(data.draw(st.permutations(trace)))
    other = trace_states(data, instance)
    assert_operation_lines_match(state for pair in zip(trace, other) for state in pair)


@SETTINGS
@given(instances(min_leg=1))
def test_instance_document_round_trips(instance):
    assert round_trip(save_instance, load_instance, instance) == instance


@SETTINGS
@given(instances(), st.sampled_from(ALL_COMBOS), st.integers(0, 2**32 - 1))
def test_schedule_document_round_trips(instance, combo, seed):
    result = solve(instance, *parse_combo(combo), seed=seed)
    assert round_trip(save_result, load_result, result) == result


@SETTINGS
@given(
    st.builds(
        ExperimentPlan,
        sizes=st.lists(st.tuples(st.integers(1, 50), st.integers(1, 50)), min_size=1, max_size=4)
        .map(tuple),
        rhos=st.lists(
            st.floats(min_value=0, max_value=1e6, exclude_min=True, allow_nan=False),
            min_size=1, max_size=6,
        ).map(tuple),
        instances_per_config=st.integers(1, 10**6),
        solvers=st.lists(st.sampled_from(ALL_COMBOS), min_size=1, max_size=5, unique=True)
        .map(tuple),
        seed=st.integers(0, 2**64),
    )
)
def test_plan_document_round_trips(plan):
    assert round_trip(save_plan, load_plan, plan) == plan


@settings(max_examples=30, deadline=None)
@given(instances(max_n=2, max_m=2, max_k=2), st.integers(0, 2**32 - 1))
def test_oracle_optimum_bounds_every_combo(instance, seed):
    optimum = brute_force_oracle(instance).makespan
    for combo in ALL_COMBOS:
        assert optimum <= solve(instance, *parse_combo(combo), seed=seed).makespan
