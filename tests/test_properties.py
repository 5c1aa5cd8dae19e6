"""Property tests over random instances and random valid decision sequences:
the in-place and functional transitions agree, the in-place one agrees with
a reference written from the semi-active rules, apply() never touches its
parent, select_operation on states stepped in place picks as the if-chain
reference does, every rule schedule validates and every single-field change
to it is reported, play() agrees with solve(), with run_episode() under a rule
decider and, on X+RANDOM pairs, with a loop that draws each vehicle per
step, sweep() agrees with solve(), scaling every time by c scales every
combo's makespan by c and relabeling the machines changes none (under sweep,
and for a rule decider both in process and served by rule_server), every
operation line equals the reference encoder's in any encoding order, the
canonical-line grammars read every encoder line as json.loads does and never
change what a line gets,
documents load back equal, the oracle bounds every combo, the results
reduction gives the reference's global best and summary, and a results table
reads back the records it was written from, carriage returns included."""

import copy
import dataclasses
import io
import json
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    RecordingPolicy,
    RulePolicy,
    _reference_operation_line,
    micro_instance,
    plan_to_document,
    reference_advance,
    reference_play,
    reference_select_global_best,
    reference_select_operation,
    reference_slots,
    reference_summarize_results,
)
from jsspt import bridge, rule_server
from jsspt.bridge import (
    AGV_PHASE,
    OPERATION_PHASE,
    encode_message,
    hello_message,
    run_episode,
    serialize_observation,
)
from jsspt.engine import (
    OpRow,
    ScheduleState,
    load_result,
    save_result,
    validate_schedule,
)
from jsspt.errors import ActionError, MetricError
from jsspt.harness import (
    ExperimentPlan,
    load_plan,
    read_records,
    records_from_csv,
    records_to_csv,
    select_global_best,
    summarize_results,
    summary_to_csv,
)
from jsspt.instances import (
    LOAD,
    SIZE_MAX,
    UNLOAD,
    GenerationConfig,
    Instance,
    generate_instance,
    load_instance,
    machine_index,
    save_instance,
    write_text_atomic,
)
from jsspt.metrics import ResultRecord, make_record
from jsspt.rule_server import _read_canonical, serve
from jsspt.oracle import brute_force_oracle
from jsspt.rules import (
    ALL_COMBOS,
    AgvRule,
    OperationRule,
    parse_combo,
    play,
    select_operation,
    solve,
    sweep,
)

SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def instances(draw, max_n=5, max_m=4, max_k=4, min_leg=0, max_time=100):
    """Any instance the constructor accepts, up to the given shape:
    processing times in [1, max_time], transport times in [min_leg,
    max_time] with a zero diagonal (zero off-diagonal legs included by
    default; a document needs min_leg=1)."""
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(1, max_m))
    k = draw(st.integers(1, max_k))
    routings = tuple(tuple(draw(st.permutations(range(m)))) for _ in range(n))
    proc = tuple(
        tuple(draw(st.lists(st.integers(1, max_time), min_size=m, max_size=m))) + (0,)
        for _ in range(n)
    )
    size = m + 2
    transport = tuple(
        tuple(0 if a == b else draw(st.integers(min_leg, max_time)) for b in range(size))
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
        states.append(states[-1].apply(job, agv))
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
        functional = functional.apply(job, agv)
        in_place.advance(job, agv)
        assert snapshot(in_place) == snapshot(functional)
    assert in_place.makespan() == functional.makespan()


@SETTINGS
@given(st.data())
def test_advance_equals_the_semi_active_reference_at_every_step(data):
    # Times of at most 3 make ties common: between the predecessor's end and the
    # vehicle's arrival, and between delivery and the machine's free time.
    instance = data.draw(instances(max_time=3))
    state = ScheduleState(instance)
    expected = reference_slots(instance)
    assert snapshot(state) == expected
    for job, agv in random_actions(data, instance):
        state.advance(job, agv)
        reference_advance(instance, expected, job, agv)
        assert snapshot(state) == expected


@SETTINGS
@given(st.data())
def test_apply_leaves_parent_untouched(data):
    instance = data.draw(instances())
    state = ScheduleState(instance)
    for job, agv in random_actions(data, instance):
        before = snapshot(state)
        successor = state.apply(job, agv)
        assert snapshot(state) == before
        # advance() rejects an invalid action without touching the state.
        after = snapshot(successor)
        for bad_job, bad_agv in ((instance.n, 0), (job, instance.k)):
            with pytest.raises(ActionError):
                successor.advance(bad_job, bad_agv)
        assert snapshot(successor) == after
        state = successor


DETERMINISTIC_OP_RULES = [r for r in OperationRule if r is not OperationRule.RANDOM]
# What follows a pick: mostly the advance of the pick itself, which lets
# select_operation re-score only that job; every other move must make it
# score the frontier afresh.
MOVES = ["pick"] * 4 + ["other", "two", "rule", "branch", "string"]


@settings(max_examples=80, deadline=None)
@given(st.data(), instances(max_n=8, max_time=3))
def test_picks_on_states_stepped_in_place_equal_the_reference(data, instance):
    # Two live episodes take the same actions in place, one on the instance
    # and one on its mirror, whose jobs come in reverse order; either may
    # make the next pick. After a pick, the advance may move another job
    # than the pick, or another job too, the rule may change or come as its
    # string, and a pick may be made on an apply() branch.
    mirror = dataclasses.replace(
        instance, routings=instance.routings[::-1], proc_times=instance.proc_times[::-1])
    live = [ScheduleState(instance), ScheduleState(mirror)]
    rule = name = OperationRule.SPT
    while not live[0].is_terminal():
        state = data.draw(st.sampled_from(live))
        pick = select_operation(name, state)
        assert pick == reference_select_operation(rule, state)
        move = data.draw(st.sampled_from(MOVES))
        others = [j for j in state.frontier if j != pick]
        agv = data.draw(st.integers(0, instance.k - 1))
        jobs = [pick]
        if move == "other" and others:
            jobs = [data.draw(st.sampled_from(others))]
        elif move == "two" and others:
            jobs = [data.draw(st.sampled_from(others)), pick]
        elif move in ("rule", "string"):
            rule = data.draw(st.sampled_from(DETERMINISTIC_OP_RULES))
            name = rule.value if move == "string" else rule
        elif move == "branch":
            branch = state.apply(pick, agv)
            if not branch.is_terminal():
                assert select_operation(name, branch) == reference_select_operation(rule, branch)
        for job in jobs:
            for episode in live:
                episode.advance(job, agv)


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


X_RANDOM_PAIRS = [(o, AgvRule.RANDOM) for o in OperationRule if o is not OperationRule.RANDOM]
SEEDS = st.one_of(st.integers(0, 2**32 - 1), st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 39)))


@SETTINGS
@given(instances(max_n=8, max_k=6), SEEDS)
@example(micro_instance(), 0)  # n = 1, k = 1
@example(generate_instance(GenerationConfig(n=1, m=3, k=5, seed=2)), (7, 3))
@example(generate_instance(GenerationConfig(n=6, m=4, k=1, seed=3)), 11)
def test_x_random_pairs_draw_the_vehicles_of_the_per_step_loop(instance, seed):
    for op_rule, agv_rule in X_RANDOM_PAIRS:
        state, decisions = play(instance, op_rule, agv_rule, seed=seed)
        want_state, want = reference_play(instance, op_rule, agv_rule, seed=seed)
        assert decisions == want
        assert state.makespan() == want_state.makespan()
        # A numpy integer in a decision would not survive json.dumps.
        assert all(type(job) is int and type(agv) is int for job, agv in decisions)
        result = solve(instance, op_rule, agv_rule, seed=seed)
        assert round_trip(save_result, load_result, result) == result


@settings(max_examples=25, deadline=None)
@given(instances(), st.integers(0, 2**32 - 1))
def test_sweep_agrees_with_solve_for_every_combo(instance, seed):
    makespans = sweep(instance, seed=seed)
    assert len(makespans) == len(ALL_COMBOS)
    for index, combo in enumerate(ALL_COMBOS):
        result = solve(instance, *parse_combo(combo), seed=(seed, index))
        assert validate_schedule(result, instance) == []
        assert makespans[index] == result.makespan


# Metamorphic relations: each changes the instance in a way that must change
# every combo's makespan in a known way. The RANDOM pairs are included, as
# their draws depend only on the frontier's length and on k. Each holds for
# sweep, and for a rule decider both in process (run_episode) and served over
# protocol v1 (rule_server.serve).

def scaled(instance: Instance, c: int) -> Instance:
    """Every processing and transport time multiplied by c."""
    return dataclasses.replace(
        instance,
        proc_times=tuple(tuple(c * p for p in row) for row in instance.proc_times),
        transport=tuple(tuple(c * t for t in row) for row in instance.transport),
    )


def relabeled(instance: Instance, perm) -> Instance:
    """Processing machine r becomes perm[r], in the routings and in the
    transport matrix; load and unload keep their indices."""
    index = (LOAD, UNLOAD) + tuple(machine_index(r) for r in perm)
    size = instance.m + 2
    transport = [[0] * size for _ in range(size)]
    for a, row in enumerate(instance.transport):
        for b, t in enumerate(row):
            transport[index[a]][index[b]] = t
    return dataclasses.replace(
        instance,
        routings=tuple(tuple(perm[r] for r in row) for row in instance.routings),
        transport=tuple(map(tuple, transport)),
    )


def decider_episodes(data, original: Instance, changed: Instance, seed):
    """For a drawn combo and a drawn RANDOM combo: the combo, then the
    makespans and decisions of a RulePolicy on `original` and on `changed`
    (run_episode), then the decisions rule_server.serve sends over the
    transcript a RecordingPolicy of the same combo records on `changed`."""
    random_combos = [c for c in ALL_COMBOS if "RANDOM" in c]
    for combo in (data.draw(st.sampled_from(ALL_COMBOS)), data.draw(st.sampled_from(random_combos))):
        op_rule, agv_rule = parse_combo(combo)
        policy = RulePolicy(op_rule, agv_rule, seed)
        state, decisions = run_episode(original, policy, policy)
        recorder = RecordingPolicy(op_rule, agv_rule, seed)
        changed_state, changed_decisions = run_episode(changed, recorder, recorder)
        lines = [hello_message(changed), *recorder.lines, recorder.terminal]
        out = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            save_instance(changed, Path(tmp))
            serve(op_rule, agv_rule, Path(tmp), seed,
                  stdin=io.StringIO("".join(line + "\n" for line in lines)), stdout=out)
        ready, *replies = out.getvalue().splitlines()
        assert json.loads(ready)["type"] == "ready"
        choices = [json.loads(line)["choice"] for line in replies]
        served = list(zip(choices[::2], choices[1::2]))
        yield (combo, (state.makespan(), decisions),
               (changed_state.makespan(), changed_decisions), served)


@SETTINGS
@given(instances(min_leg=1, max_time=33), st.sampled_from([2, 3]),
       st.integers(0, 2**32 - 1))
def test_scaling_every_time_scales_every_makespan(instance, c, seed):
    # Times in [1, 33] stay within TIME_MAX = 100 when tripled.
    assert sweep(scaled(instance, c), seed=seed) == [c * x for x in sweep(instance, seed=seed)]


@SETTINGS
@given(st.data(), instances(min_leg=1, max_time=33), st.sampled_from([2, 3]),
       st.integers(0, 2**32 - 1))
def test_scaling_every_time_scales_a_rule_deciders_episode(data, instance, c, seed):
    # Every comparison a rule makes scales with the times, so the decisions
    # stay the same, in process and served.
    for combo, (makespan, decisions), changed, served in decider_episodes(
            data, instance, scaled(instance, c), seed):
        assert changed == (c * makespan, decisions), combo
        assert served == decisions, combo
    # Of a record's coupling factors, rho stays and the mean times scale;
    # tau, normalized against the global time bounds, moves.
    record, scaled_record = (make_record(i, "SPT+SCTA", 1) for i in (instance, scaled(instance, c)))
    assert scaled_record.rho == record.rho
    assert (scaled_record.p_raw, scaled_record.t_raw) == pytest.approx(
        (c * record.p_raw, c * record.t_raw), rel=1e-12)


@SETTINGS
@given(st.data(), instances(max_n=6, max_m=5, max_k=6, max_time=3), st.integers(0, 2**32 - 1))
def test_relabeling_the_machines_keeps_every_makespan(data, instance, seed):
    # No rule breaks a tie by machine index, so every decision stays the
    # same too. Times in [1, 3] make the ties common.
    changed = relabeled(instance, data.draw(st.permutations(range(instance.m))))
    assert sweep(changed, seed=seed) == sweep(instance, seed=seed)
    for combo in ALL_COMBOS:
        pair = parse_combo(combo)
        assert play(changed, *pair, seed)[1] == play(instance, *pair, seed)[1], combo


@SETTINGS
@given(st.data(), instances(max_n=6, max_m=5, max_k=6, min_leg=1, max_time=3),
       st.integers(0, 2**32 - 1))
def test_relabeling_the_machines_keeps_a_rule_deciders_episode(data, instance, seed):
    changed = relabeled(instance, data.draw(st.permutations(range(instance.m))))
    for combo, original, changed_episode, served in decider_episodes(data, instance, changed, seed):
        assert changed_episode == original, combo
        assert served == original[1], combo


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


@SETTINGS
@given(instances(), st.sampled_from(ALL_COMBOS), st.integers(0, 2**32 - 1))
def test_every_single_field_change_to_a_schedule_is_reported(instance, combo, seed):
    result = solve(instance, *parse_combo(combo), seed=seed)
    changed = [dataclasses.replace(result, makespan=result.makespan + d) for d in (-1, 1)]
    for r, row in enumerate(result.rows):
        for field in OpRow._fields:
            for d in (-1, 1):
                rows = list(result.rows)
                rows[r] = row._replace(**{field: getattr(row, field) + d})
                changed.append(dataclasses.replace(result, rows=tuple(rows)))
    for s, (job, agv) in enumerate(result.decisions):
        for pair in ((job - 1, agv), (job + 1, agv), (job, agv - 1), (job, agv + 1)):
            decisions = list(result.decisions)
            decisions[s] = pair
            changed.append(dataclasses.replace(result, decisions=tuple(decisions)))
    for forged in changed:
        assert validate_schedule(forged, instance) != []


# -- canonical-line grammars ---------------------------------------------------

def transcript(data, instance) -> list[str]:
    """The v1 lines of one random episode, from hello to terminal."""
    lines = [hello_message(instance)]
    state = ScheduleState(instance)
    for job, agv in random_actions(data, instance):
        lines.append(serialize_observation(state, OPERATION_PHASE))
        lines.append(serialize_observation(state, AGV_PHASE, selected_op=job))
        state.advance(job, agv)
    lines.append(encode_message({"type": "terminal", "step": state.steps}))
    return lines


def no_match(*args):
    return None


def served(instances_dir, lines, fast=True):
    """What serve writes for the lines, and the error it ends with (type and
    message) or None. fast=False turns the grammars off: every line then
    takes the parse_message path."""
    out = io.StringIO()
    with mock.patch.object(rule_server, "match_operation_head",
                           bridge.match_operation_head if fast else no_match), \
            mock.patch.object(rule_server, "match_agv_line", bridge.match_agv_line if fast else no_match):
        try:
            serve("SPT", "SCTA", instances_dir, stdin=io.StringIO("".join(l + "\n" for l in lines)),
                  stdout=out)
        except Exception as exc:
            return out.getvalue(), (type(exc), str(exc))
    return out.getvalue(), None


def fields(line) -> tuple:
    msg = json.loads(line)
    return msg["type"], msg.get("phase"), msg["step"], msg.get("selected_job")


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_canonical_lines_take_the_fast_path(data):
    # Every encoder observation line is read by a grammar, as json.loads
    # reads it. The server parses only hello and terminal.
    instance = data.draw(instances(min_leg=1))
    lines = transcript(data, instance)
    tail = bridge.operation_tail(instance)
    for line in lines[1:-1]:
        kind, phase, step, job = fields(line)
        assert (kind, *_read_canonical(line, tail)) == ("observation", phase, step, job)
    parsed = []
    with tempfile.TemporaryDirectory() as tmp:
        save_instance(instance, tmp)
        with mock.patch.object(rule_server, "parse_message",
                               side_effect=lambda line: parsed.append(line) or bridge.parse_message(line)):
            _, error = served(Path(tmp), lines)
    assert error is None
    assert parsed == [lines[0], lines[-1]]


@pytest.mark.parametrize("value", ["1.5", "1e2", "1.0", "-1", "01", "true", '"1"', "null"])
def test_step_or_job_that_is_not_a_plain_integer_is_parsed(tmp_path, value):
    instance = Instance("prop", 2, 1, 1, ((0,), (0,)), ((3, 0), (4, 0)),
                        ((0, 1, 2), (1, 0, 1), (2, 1, 0)), seed=0)
    save_instance(instance, tmp_path)
    state = ScheduleState(instance)
    hello, first = hello_message(instance), serialize_observation(state, OPERATION_PHASE)
    agv = serialize_observation(state, AGV_PHASE, selected_op=1)
    for line in (first.replace('"step":0', f'"step":{value}'),
                 agv.replace('"step":0', f'"step":{value}'),
                 agv.replace('"selected_job":1', f'"selected_job":{value}')):
        assert _read_canonical(line, bridge.operation_tail(instance)) is None
        assert served(tmp_path, [hello, first, line]) == served(tmp_path, [hello, first, line], fast=False)


# Single-character edits: JSON punctuation, digits, letters, whitespace and a
# non-ASCII digit.
EDIT_CHARS = '0123456789-+.eE,:[]{}"atx \t\u0663'


@st.composite
def edited(draw, line):
    """The line with one character inserted, deleted or replaced: near the
    start, at a digit or anywhere."""
    digits = [i for i, c in enumerate(line) if c.isdigit()]
    at = draw(st.one_of(st.integers(0, min(len(line), 90)), st.sampled_from(digits),
                        st.integers(0, len(line))))
    how = draw(st.sampled_from(["insert", "delete", "replace"]))
    char = draw(st.one_of(st.sampled_from("0123456789"), st.sampled_from(EDIT_CHARS)))
    if how == "insert":
        return line[:at] + char + line[at:]
    return line[:at] + (char if how == "replace" else "") + line[at + 1:]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_edited_lines_get_what_the_parser_gives(data):
    # A line a grammar accepts is valid JSON with the matched values; any
    # edited line gets the same replies and the same error with the grammars
    # on as with every line parsed.
    instance = data.draw(instances(min_leg=1))
    lines = transcript(data, instance)
    tail = bridge.operation_tail(instance)
    with tempfile.TemporaryDirectory() as tmp:
        save_instance(instance, tmp)
        for _ in range(12):
            line = data.draw(edited(data.draw(st.sampled_from(lines[1:-1]))))
            canonical = _read_canonical(line, tail)
            if canonical is not None:
                assert fields(line) == ("observation", *canonical)
            prefix = [lines[0], lines[1]]
            assert served(Path(tmp), prefix + [line]) == served(Path(tmp), prefix + [line], fast=False)


# -- results reduction ---------------------------------------------------------

def _record(instance: str, solver: str, makespan: int) -> ResultRecord:
    return ResultRecord(instance, solver, makespan, 2, 2, 1, 50.0, 50.0, 0.5, 0.0,
                        "resource-saturated", "", 0)


@st.composite
def result_sets(draw):
    """Rows of a results table in any order: rule combos missing on some
    instances, external solver rows, and makespans in 1-20, so that ties
    occur. MOR+SCTA, the tie preference, is often among the combos."""
    combos = draw(st.lists(st.sampled_from(ALL_COMBOS), unique=True, max_size=6))
    if draw(st.booleans()) and "MOR+SCTA" not in combos:
        combos.append("MOR+SCTA")
    solvers = combos + draw(st.lists(st.sampled_from(["external", "learned"]), unique=True))
    pairs = [(f"i{i}", s) for i in range(draw(st.integers(1, 5))) for s in solvers]
    if not pairs:
        return []
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True))
    return [_record(i, s, draw(st.integers(1, 20))) for i, s in chosen]


def _outcome(reduce, records) -> str:
    """repr of what the reduction returns, float bits included, or its
    MetricError message."""
    try:
        return repr(reduce(records))
    except MetricError as exc:
        return f"MetricError: {exc}"


@settings(max_examples=200, deadline=None)
@given(result_sets())
@example([])
@example([_record("i0", "learned", 3), _record("i1", "external", 4)])  # no combo
@example([_record("i0", "SPT+SCTA", 3), _record("i1", "SPT+SCTA", 5),
          _record("i1", "external", 4)])  # a single combo
def test_reduction_matches_the_reference(records):
    assert _outcome(select_global_best, records) == _outcome(reference_select_global_best, records)
    assert (_outcome(summarize_results, records)
            == _outcome(reference_summarize_results, records))
    if any(r.solver_id in ALL_COMBOS for r in records):
        rows, best = summarize_results(records)
        expected_rows, expected_best = reference_summarize_results(records)
        assert best == expected_best
        assert summary_to_csv(rows) == summary_to_csv(expected_rows)
    else:
        with pytest.raises(MetricError):
            select_global_best(records)


# Any text the csv module can hold, line breaks included.
_CELL_TEXT = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
                     max_size=6)
_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@SETTINGS
@given(st.lists(
    # makespan, rho and tau within the ranges a table holds, rho at least
    # 1e-6 so that it stays above 0 at 6 decimals.
    st.builds(ResultRecord, instance_id=_CELL_TEXT, solver_id=_CELL_TEXT,
              makespan=st.integers(1, 2**53), n=st.integers(), m=st.integers(), k=st.integers(),
              p_raw=_FINITE, t_raw=_FINITE, rho=st.floats(1e-6, SIZE_MAX), tau=st.floats(-1, 1),
              regime=_CELL_TEXT, cell_id=_CELL_TEXT, seed=st.integers()),
    unique_by=lambda r: (r.instance_id, r.solver_id), max_size=8))
@example([_record("a\rb", "SPT+SCTA", 3), _record("a", "SPT+SCTA", 3)])
def test_results_table_round_trips(records):
    # Every field reads back, also from a file; floats are written, so
    # compared, at 6 decimals.
    read = records_from_csv(records_to_csv(records))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "results.csv"
        write_text_atomic(path, records_to_csv(records))
        assert read_records(path) == read
    assert len(read) == len(records)
    for got, want in zip(read, records):
        for field in dataclasses.fields(ResultRecord):
            value = getattr(want, field.name)
            if isinstance(value, float):
                assert f"{getattr(got, field.name):.6f}" == f"{value:.6f}"
            else:
                assert getattr(got, field.name) == value
