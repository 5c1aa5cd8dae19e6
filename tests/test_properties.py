"""Property tests over random instances and random valid decision sequences:
the in-place and functional transitions agree, apply() never touches its
parent, every rule schedule validates, and play() agrees with solve()."""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jsspt.engine import JointAction, ScheduleState, validate_schedule
from jsspt.errors import ActionError
from jsspt.instances import Instance
from jsspt.rules import ALL_COMBOS, parse_combo, play, solve

SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def instances(draw, max_n=5, max_m=4, max_k=4):
    """Any instance the constructor accepts, up to the given shape:
    processing times in [1, 100], transport times in [0, 100] with a zero
    diagonal (zero off-diagonal legs included)."""
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
        tuple(0 if a == b else draw(st.integers(0, 100)) for b in range(size))
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
