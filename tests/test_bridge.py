import dataclasses
import json
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    OVERLONG_INT,
    RecordingPolicy,
    RulePolicy,
    _reference_agv_line,
    _reference_operation_line,
    episode_digest,
    micro_instance,
    needs_int_digit_limit,
    random_small_instance,
    zero_transport,
)
from jsspt import bridge
from jsspt.bridge import (
    AGV_PHASE,
    OPERATION_PHASE,
    ExternalPolicyClient,
    _round6_text,
    _scaled_texts,
    encode_message,
    hello_message,
    parse_decision,
    parse_message,
    run_episode,
    serialize_observation,
)
from jsspt.engine import ScheduleState, lower_bound
from jsspt.errors import ProtocolError, TransportError
from jsspt.features import build_graph
from jsspt.instances import GenerationConfig, Instance, generate_instance, save_instance
from jsspt.rules import play, solve


def test_operation_observation_contents(i1):
    line = serialize_observation(ScheduleState(i1), OPERATION_PHASE)
    msg = json.loads(line)
    assert msg["phase"] == "operation"
    assert msg["step"] == 0
    assert msg["mask"] == [0]
    assert len(msg["operations"]) == 2
    assert len(msg["machines"]) == 3
    assert len(msg["precedence"]) == 1
    assert len(msg["assignment"]) == 4


def test_agv_observation_contents():
    inst = generate_instance(GenerationConfig(n=2, m=2, k=3, seed=5))
    line = serialize_observation(ScheduleState(inst), AGV_PHASE, selected_op=1)
    msg = json.loads(line)
    assert msg["phase"] == "agv"
    assert msg["selected_job"] == 1
    assert msg["mask"] == [0, 1, 2]
    assert len(msg["agvs"]) == 3
    assert all(len(row) == 13 for row in msg["agvs"])


def test_observation_round_trip(i1):
    line = serialize_observation(ScheduleState(i1), OPERATION_PHASE)
    assert json.dumps(json.loads(line), separators=(",", ":")) == line


# helpers.episode_digest of the observation lines one episode sends, pinning
# every byte of them.
GOLDEN_EPISODES = [
    (GenerationConfig(n=15, m=10, k=9, seed=3), "SPT", "SCTA", 165, 7805,
     "0e098aca683898f46a117c5110fd7b594c320f59b2cf81855f7f4f0660ff2814"),
    (GenerationConfig(n=6, m=4, k=2, seed=5), "MOR", "SCPT", 30, 1516,
     "310c4caf3ff41cbe865d15a6faa2cccabfaaceca8ada335889a98bc32f8312a5"),
    (GenerationConfig(n=10, m=10, k=3, seed=11), "RANDOM", "RANDOM", 110, 5053,
     "f8de73ee7b5b06b49b6aa72a9fe0f46770da7ba0bb96b16e79831ff7e6b4d0ff"),
    # All bounds equal: the degenerate normalization branch.
    (None, "FCFS", "SPUT", 2, 10,
     "0304f57dafd5115d388160ba176a5bdae300218fb9a2978fe8660a2c620c73a3"),
]


@pytest.mark.parametrize(
    "config, op_rule, agv_rule, steps, makespan, digest",
    GOLDEN_EPISODES,
    ids=["15x10x9-SPT+SCTA", "6x4x2-MOR+SCPT", "10x10x3-RANDOM+RANDOM", "micro-FCFS+SPUT"],
)
def test_protocol_v1_golden_digests(config, op_rule, agv_rule, steps, makespan, digest):
    inst = micro_instance() if config is None else generate_instance(config)
    policy = RecordingPolicy(op_rule, agv_rule, seed=7)
    state, decisions = run_episode(inst, policy, policy)
    assert (len(decisions), state.makespan()) == (steps, makespan)
    assert len(policy.lines) == 2 * steps
    assert episode_digest(policy.lines) == digest


def test_operation_lines_match_reference_encoder():
    rng = np.random.default_rng(23)
    for _ in range(40):
        inst = random_small_instance(rng)
        state = ScheduleState(inst)
        while not state.is_terminal():
            line = serialize_observation(state, OPERATION_PHASE)
            assert line == _reference_operation_line(state)
            jobs = state.valid_operations()
            job = jobs[int(rng.integers(len(jobs)))]
            state = state.apply(job, int(rng.integers(inst.k)))


def test_lines_never_hash_the_instance(monkeypatch):
    # The per-instance line fragments are found on the instance itself, not
    # by hashing its routings and tables at every step.
    def episode_lines():
        inst = generate_instance(GenerationConfig(n=5, m=4, k=3, seed=8))
        policy = RecordingPolicy("SPT", "SCTA", seed=7)
        run_episode(inst, policy, policy)
        return policy.lines

    want = episode_lines()

    def unhashable(self):
        raise AssertionError("an observation line hashed its instance")

    monkeypatch.setattr(Instance, "__hash__", unhashable)
    assert episode_lines() == want
    assert len(want) == 2 * 5 * (4 + 1)


def test_round6_text_is_repr_of_rounded_float():
    rng = np.random.default_rng(4)
    values = [0.0, -0.0, 1.0, 1e-4, 9.9999995e-5, 5e-7, 4.99e-7, 0.0078125,
              0.99999995, 999999999.9999997, 1e9, 1234567890123456.7, -0.25]
    values += [float(x) for x in rng.random(20_000)]
    values += [float(x) for x in rng.integers(0, 2**20, 5_000) / 2.0 ** 20]
    values += [float(x) for x in rng.uniform(-1, 1, 5_000) * 10.0 ** rng.integers(-9, 12, 5_000)]
    for value in values:
        assert _round6_text(value) == repr(round(value, 6)) == repr(float(f"{value:.6f}"))


def test_scaled_texts_are_repr_of_rounded_ratio():
    # Every 0 <= num <= span <= 2000: 2,003,000 pairs, 1,728 of them exact
    # 7th-digit ties, which must take the float path.
    ties = 0
    for span in range(1, 2001):
        nums = range(span + 1)
        assert _scaled_texts(nums, 0, span) == [repr(round(num / span, 6)) for num in nums]
        ties += sum((num * 2_000_000 + span) % (2 * span) == 0 for num in nums)
    assert ties == 1728
    # Spans around the exact path's limit of 10**5, with an offset lo.
    rng = np.random.default_rng(9)
    for span in [*range(99_990, 100_011), *rng.integers(50_000, 200_000, 30).tolist()]:
        lo = int(rng.integers(0, 1000))
        nums = [0, 1, span // 2, span - 1, span, *rng.integers(0, span + 1, 300).tolist()]
        values = [lo + num for num in nums]
        assert _scaled_texts(values, lo, lo + span) == [repr(round(num / span, 6)) for num in nums]
    assert _scaled_texts([4, 4], 4, 4) == ["0.0", "0.0"]


def test_scaled_texts_are_exact_at_the_lookup_thresholds():
    # Spans up to 10,050 that 128 does not divide are pure lookups: every
    # num around that limit. Spans 128 divides are the only ones with ties:
    # up to the float path's limit of 10**5, each with an offset lo, its
    # first two ties and random nums.
    for span in range(10_040, 10_061):
        nums = range(span + 1)
        assert _scaled_texts(nums, 0, span) == [repr(round(num / span, 6)) for num in nums]
    rng = np.random.default_rng(29)
    for span in range(128, 100_001, 128):
        lo = int(rng.integers(0, 10**6))
        tie = span // math.gcd(2_000_000, span)
        assert (tie * 2_000_000 + span) % (2 * span) == 0
        nums = [0, 1, tie, 3 * tie, span // 2, span - 1, span,
                *rng.integers(0, span + 1, 60).tolist()]
        nums = [num for num in nums if num <= span]
        values = [lo + num for num in nums]
        assert _scaled_texts(values, lo, lo + span) == [repr(round(num / span, 6)) for num in nums]


def test_an_operation_line_scales_one_job_unless_the_bound_range_moved(monkeypatch):
    # On a recorded episode, a step where (lo, hi) stayed scales only the
    # stepped job's m + 1 bounds; a step where it moved scales all n(m + 1)
    # bounds in one call.
    inst = generate_instance(GenerationConfig(n=15, m=10, k=9, seed=3))
    decisions = solve(inst, "SPT", "SCTA").decisions
    bridge._line_buffers(inst)  # the machine ratio texts, scaled once per instance
    scaled = []
    real_scaled_texts = bridge._scaled_texts

    def counting(values, lo, hi):
        scaled.append(len(values))
        return real_scaled_texts(values, lo, hi)

    monkeypatch.setattr(bridge, "_scaled_texts", counting)
    state = ScheduleState(inst)
    width = inst.m + 1
    kept = moved = 0
    bound_range = None
    for job, agv in decisions:
        scaled.clear()
        serialize_observation(state, OPERATION_PHASE)
        raw = build_graph(state).op_bound_raw
        if (min(raw), max(raw)) == bound_range:
            assert scaled == [width]
            kept += 1
        else:
            assert scaled == [inst.n * width]
            moved += 1
        bound_range = min(raw), max(raw)
        state.advance(job, agv)
    assert kept and moved > 1


def test_an_operation_line_writes_the_moved_machine_row_and_a_changed_mask(monkeypatch):
    # On a recorded episode, the first line writes every machine row and the
    # mask; each later line writes one row, the last advance's target, and
    # the mask only after a job finished.
    inst = generate_instance(GenerationConfig(n=15, m=10, k=9, seed=3))
    decisions = solve(inst, "SPT", "SCTA").decisions
    bridge._line_buffers(inst)  # the AGV mask, written once per instance
    rows, masks = [], []
    real_row, real_ints_text = bridge._machine_row, bridge._ints_text

    def counting_row(machine, ratio_text):
        rows.append(machine)
        return real_row(machine, ratio_text)

    def counting_ints_text(values):
        masks.append(list(values))
        return real_ints_text(values)

    monkeypatch.setattr(bridge, "_machine_row", counting_row)
    monkeypatch.setattr(bridge, "_ints_text", counting_ints_text)
    state = ScheduleState(inst)
    target = finished = None
    for job, agv in decisions:
        rows.clear()
        masks.clear()
        line = serialize_observation(state, OPERATION_PHASE)
        assert line == _reference_operation_line(state)
        if target is None:
            assert rows == list(range(inst.m + 2)) and masks == [state.frontier]
        else:
            assert rows == [target]
            assert masks == ([state.frontier] if finished else [])
        op = state.next_op[job]
        target, finished = inst.op_machines[job][op - 1], op == inst.m + 1
        state.advance(job, agv)
    assert not state.frontier and finished


def test_scaled_text_endpoints_skip_the_float_path(monkeypatch):
    def float_path(value):
        raise AssertionError(f"float path taken for {value!r}")

    monkeypatch.setattr(bridge, "_round6_text", float_path)
    for span in range(1, 1001):
        lo = 7 * span
        want = [repr(round(0 / span, 6)), repr(round(span / span, 6))]
        assert _scaled_texts([lo, lo + span], lo, lo + span) == want


def test_agv_lines_match_reference_encoder():
    # Every 4th instance has zero transport, every 5th a single vehicle.
    rng = np.random.default_rng(31)
    for episode in range(40):
        inst = random_small_instance(rng)
        if episode % 4 == 0:
            inst = dataclasses.replace(inst, transport=tuple(map(tuple, zero_transport(inst.m))))
        if episode % 5 == 0:
            inst = dataclasses.replace(inst, k=1)
        state = ScheduleState(inst)
        while not state.is_terminal():
            jobs = state.valid_operations()
            for job in jobs:
                line = serialize_observation(state, AGV_PHASE, selected_op=job)
                assert line == _reference_agv_line(state, job)
            job = jobs[int(rng.integers(len(jobs)))]
            state.advance(job, int(rng.integers(inst.k)))


def test_serialize_phase_guards(i1):
    state = ScheduleState(i1)
    with pytest.raises(ProtocolError):
        serialize_observation(state, AGV_PHASE)
    with pytest.raises(ProtocolError):
        serialize_observation(state, OPERATION_PHASE, selected_op=0)
    with pytest.raises(ProtocolError):
        serialize_observation(state, "weird")


def test_parse_decision():
    line = json.dumps({"type": "decision", "step": 3, "choice": 2})
    assert parse_decision(line, 3) == 2
    with pytest.raises(ProtocolError, match="stale"):
        parse_decision(line, 4)
    with pytest.raises(ProtocolError):
        parse_decision(json.dumps({"type": "decision", "step": 3, "choice": "x"}), 3)
    # The step is a plain integer: true and 1.0 do not answer step 1.
    for step in (True, 1.0, "1", None):
        reply = json.dumps({"type": "decision", "step": step, "choice": 0})
        with pytest.raises(ProtocolError, match="step must be an integer"):
            parse_decision(reply, 1)
    with pytest.raises(ProtocolError):
        parse_decision("not json", 3)
    with pytest.raises(ProtocolError):
        parse_decision(json.dumps({"type": "observation", "step": 3}), 3)


@needs_int_digit_limit
@pytest.mark.parametrize("field", ["step", "choice"])
def test_parse_decision_rejects_overlong_integer(field):
    # json.loads raises a plain ValueError on it, which is not a ProtocolError.
    values = {"step": "3", "choice": "0", field: OVERLONG_INT}
    reply = f'{{"type":"decision","step":{values["step"]},"choice":{values["choice"]}}}'
    with pytest.raises(ProtocolError, match="malformed protocol line"):
        parse_decision(reply, 3)


def _decision_outcome(line, step):
    try:
        return parse_decision(line, step)
    except ProtocolError as exc:
        return ProtocolError, str(exc)


def test_a_canonical_decision_is_read_without_the_parser():
    with mock.patch.object(bridge, "parse_message", side_effect=AssertionError("parsed")):
        assert parse_decision('{"type":"decision","step":3,"choice":2}', 3) == 2
        assert parse_decision('{"type":"decision","step":0,"choice":0}', 0) == 0
        assert parse_decision('{"type":"decision","step":7,"choice":-1}', 7) == -1
        big = 10**17 + 5
        assert parse_decision(f'{{"type":"decision","step":{big},"choice":{big}}}', big) == big


def test_every_other_decision_reply_gets_what_the_parser_gives():
    # Pending step 3. Each reply is not the canonical answer to it, so the
    # grammar hands it to the parse: the same value or the same error as
    # with the grammar turned off.
    digits19 = "1234567890123456789"
    replies = [
        '{"type": "decision", "step": 3, "choice": 2}',
        '{"type":"decision", "step":3, "choice":2}',
        '{"type":"decision","step": 3,"choice": 2}',
        '{"step":3,"type":"decision","choice":2}',
        '{"type":"decision","choice":2,"step":3}',
        '{"type":"decision","step":3,"choice":01}',
        '{"type":"decision","step":3,"choice":true}',
        '{"type":"decision","step":3,"choice":1.0}',
        '{"type":"decision","step":03,"choice":2}',
        '{"type":"decision","step":2,"choice":2}',
        '{"type":"decision","step":-3,"choice":2}',
        f'{{"type":"decision","step":{digits19},"choice":2}}',
        f'{{"type":"decision","step":3,"choice":{digits19}}}',
        f'{{"type":"decision","step":{OVERLONG_INT},"choice":2}}',
        f'{{"type":"decision","step":3,"choice":{OVERLONG_INT}}}',
        '{"type":"decision","step":3,"choice":2}x',
        '{"type":"decision","step":3,"choice":2} ',
        '{"type":"decision","step":3,"choice":2,"x":1}',
        '{"type":"ready","step":3,"choice":2}',
    ]
    parsed = []
    real_parse = bridge.parse_message

    def spy(line):
        parsed.append(line)
        return real_parse(line)

    with mock.patch.object(bridge, "parse_message", spy):
        fast = [_decision_outcome(reply, 3) for reply in replies]
    assert parsed == replies
    with mock.patch.object(bridge, "_match_decision", lambda line: None):
        assert [_decision_outcome(reply, 3) for reply in replies] == fast
    assert fast[:5] == [2, 2, 2, 2, 2] and fast[12] == int(digits19)
    assert fast[9] == (ProtocolError, "stale decision: replied to step 2, pending 3")


def test_hello_message_fields(i1):
    msg = parse_message(hello_message(i1))
    assert msg["instance"] == "micro"
    assert (msg["n"], msg["m"], msg["k"]) == (1, 1, 1)
    assert msg["version"] == 1


def test_rule_policy_roles():
    with pytest.raises(ProtocolError):
        RulePolicy()


def test_run_episode_builtin_micro(i1):
    policy = RecordingPolicy("SPT", "SCTA")
    state, decisions = run_episode(i1, policy, policy)
    assert state.makespan() == 10
    assert decisions == [(0, 0), (0, 0)]
    assert json.loads(policy.terminal)["reward"] == pytest.approx(-0.2, abs=1e-12)


def test_run_episode_matches_direct_solve():
    inst = generate_instance(GenerationConfig(n=4, m=3, k=2, seed=8))
    policy = RulePolicy("MWR", "SPUT")
    state, decisions = run_episode(inst, policy, policy)
    direct = solve(inst, "MWR", "SPUT")
    assert state.makespan() == direct.makespan
    assert tuple(decisions) == direct.decisions


def test_run_episode_role_mismatch(i1):
    op_only = RulePolicy(op_rule="SPT")
    agv_only = RulePolicy(agv_rule="SCTA")
    state, _ = run_episode(i1, op_only, agv_only)
    assert state.makespan() == 10
    with pytest.raises(ProtocolError):
        run_episode(i1, agv_only, agv_only)


def test_queries_alternate_once_per_step():
    inst = generate_instance(GenerationConfig(n=3, m=2, k=2, seed=6))
    calls = []

    class Counting(RulePolicy):
        def choose_operation(self, state, message):
            calls.append(("operation", state.steps))
            return super().choose_operation(state, message)

        def choose_agv(self, state, job, message):
            calls.append(("agv", state.steps))
            return super().choose_agv(state, job, message)

    policy = Counting("SPT", "SCTA")
    run_episode(inst, policy, policy)
    assert len(calls) == 2 * inst.total_ops
    expected = [(phase, t) for t in range(inst.total_ops) for phase in ("operation", "agv")]
    assert calls == expected


def test_trace_reward_matches_recomputation():
    # The terminal line both deciders receive, field by field.
    inst = generate_instance(GenerationConfig(n=3, m=3, k=2, seed=12))
    op_policy, agv_policy = RecordingPolicy(op_rule="LWR"), RecordingPolicy(agv_rule="SCPT")
    state, decisions = run_episode(inst, op_policy, agv_policy)
    assert len(decisions) == inst.total_ops
    assert op_policy.terminal == agv_policy.terminal
    msg = json.loads(op_policy.terminal)
    assert msg.keys() == {"type", "step", "makespan", "reward"}
    assert (msg["type"], msg["step"], msg["makespan"]) == ("terminal", inst.total_ops, state.makespan())
    assert msg["reward"] == -state.makespan() / (lower_bound(inst) * 5)


class _MaskedChooser(RulePolicy):
    def __init__(self):
        super().__init__("SPT", "SCTA")

    def choose_operation(self, state, message):
        return 99


class _NoSuchVehicle(RulePolicy):
    def __init__(self):
        super().__init__("SPT", "SCTA")

    def choose_agv(self, state, job, message):
        return state.instance.k


def test_masked_choice_aborts(i1):
    bad = _MaskedChooser()
    with pytest.raises(ProtocolError, match="masked"):
        run_episode(i1, bad, bad)
    bad = _NoSuchVehicle()
    with pytest.raises(ProtocolError, match=r"^agv decider chose invalid vehicle 1 \(k=1\)$"):
        run_episode(i1, bad, bad)


# -- external channel ---------------------------------------------------------

def rule_server_cmd(instances_dir, op_rule="SPT", agv_rule="SCTA"):
    return [
        sys.executable, "-m", "jsspt.rule_server",
        "--op-rule", op_rule, "--agv-rule", agv_rule,
        "--instances-dir", str(instances_dir),
    ]


def test_external_rule_server_transparency(tmp_path):
    instances = [
        generate_instance(GenerationConfig(n=3, m=3, k=2, seed=s)) for s in (1, 2, 3)
    ]
    for inst in instances:
        save_instance(inst, tmp_path)
    with ExternalPolicyClient(rule_server_cmd(tmp_path), timeout=20) as client:
        for inst in instances:
            state, decisions = run_episode(inst, client, client)
            builtin, builtin_decisions = play(inst, "SPT", "SCTA")
            assert decisions == builtin_decisions
            assert state.makespan() == builtin.makespan()


def test_external_endpoint_factory(tmp_path):
    inst = generate_instance(GenerationConfig(n=2, m=2, k=1, seed=4))
    save_instance(inst, tmp_path)
    client = ExternalPolicyClient(
        " ".join(rule_server_cmd(tmp_path, "LWR", "SCPT")), timeout=20
    )
    with client:
        state, _ = run_episode(inst, client, client)
    assert state.makespan() == solve(inst, "LWR", "SCPT").makespan


def _write_server_script(tmp_path, body: str):
    path = tmp_path / "server.py"
    path.write_text(
        "import json, sys, time\n"
        "def reply(obj):\n"
        "    sys.stdout.write(json.dumps(obj) + '\\n')\n"
        "    sys.stdout.flush()\n"
        "for line in sys.stdin:\n"
        "    msg = json.loads(line)\n"
        + body,
        encoding="utf-8",
    )
    return [sys.executable, str(path)]


def test_out_of_mask_external_decision(tmp_path, i1):
    cmd = _write_server_script(
        tmp_path,
        "    if msg['type'] == 'hello':\n"
        "        reply({'type': 'ready', 'version': 1})\n"
        "    elif msg['type'] == 'observation':\n"
        "        reply({'type': 'decision', 'step': msg['step'], 'choice': 42})\n",
    )
    with ExternalPolicyClient(cmd, timeout=20) as client:
        with pytest.raises(ProtocolError, match="masked"):
            run_episode(i1, client, client)


def test_stale_step_external_decision(tmp_path, i1):
    cmd = _write_server_script(
        tmp_path,
        "    if msg['type'] == 'hello':\n"
        "        reply({'type': 'ready', 'version': 1})\n"
        "    elif msg['type'] == 'observation':\n"
        "        reply({'type': 'decision', 'step': msg['step'] + 7, 'choice': 0})\n",
    )
    with ExternalPolicyClient(cmd, timeout=20) as client:
        with pytest.raises(ProtocolError, match="stale"):
            run_episode(i1, client, client)


def test_unresponsive_server_times_out(tmp_path, i1):
    cmd = _write_server_script(tmp_path, "    pass\n")
    with ExternalPolicyClient(cmd, timeout=1.5) as client:
        with pytest.raises(TransportError, match="answer"):
            run_episode(i1, client, client)


def test_close_reaps_child_and_closes_pipes(tmp_path, i1):
    # The child answers nothing, so the episode times out; the client kills
    # it at the error and reaps it.
    cmd = _write_server_script(tmp_path, "    pass\n")
    client = ExternalPolicyClient(cmd, timeout=0.5)
    with client:
        proc = client._proc
        with pytest.raises(TransportError, match="answer"):
            run_episode(i1, client, client)
        assert client._proc is None
    assert proc.stdin.closed and proc.stdout.closed
    assert proc.returncode is not None


def test_an_error_kills_the_child_without_a_grace_period(tmp_path, i1):
    # The child answers the hello, then sleeps through the observation and
    # its end of input. Given the 5 s grace of a normal close, the episode
    # would end after 5.5 s, so the test fails rather than hangs.
    cmd = _write_server_script(
        tmp_path,
        "    if msg['type'] == 'hello':\n"
        "        reply({'type': 'ready', 'version': 1})\n"
        "    else:\n"
        "        time.sleep(30)\n",
    )
    client = ExternalPolicyClient(cmd, timeout=0.5)
    with client:
        proc = client._proc
        start = time.monotonic()
        with pytest.raises(TransportError, match="^policy did not answer within 0.5s$"):
            run_episode(i1, client, client)
        assert time.monotonic() - start < 0.5 + 1
    assert proc.returncode == -signal.SIGKILL and proc.stdout.closed


def test_protocol_error_restarts_child(tmp_path, i1):
    # Every observation is answered twice, so the surplus reply to step 0
    # answers step 1 and the episode fails as stale. The next episode must
    # not read what is left in the old pipe.
    cmd = _write_server_script(
        tmp_path,
        "    if msg['type'] == 'hello':\n"
        "        reply({'type': 'ready', 'version': 1})\n"
        "    elif msg['type'] == 'observation':\n"
        "        for _ in range(2):\n"
        "            reply({'type': 'decision', 'step': msg['step'], 'choice': 0})\n",
    )
    inst = generate_instance(GenerationConfig(n=3, m=2, k=2, seed=1))
    with ExternalPolicyClient(cmd, timeout=20) as client:
        first = client._proc
        with pytest.raises(ProtocolError, match="stale decision: replied to step 0, pending 1"):
            run_episode(inst, client, client)
        assert first.returncode is not None and first.stdout.closed
        client.begin_episode(inst)
        assert client._proc is not first and client._proc.poll() is None


@needs_int_digit_limit
def test_overlong_integer_reply_closes_child(tmp_path, i1):
    cmd = _write_server_script(
        tmp_path,
        "    if msg['type'] == 'hello':\n"
        "        reply({'type': 'ready', 'version': 1})\n"
        "    elif msg['type'] == 'observation':\n"
        f"        sys.stdout.write('{{\"type\":\"decision\",\"step\":{OVERLONG_INT},\"choice\":0}}\\n')\n"
        "        sys.stdout.flush()\n",
    )
    client = ExternalPolicyClient(cmd, timeout=20)
    with client:
        proc = client._proc
        with pytest.raises(ProtocolError, match="malformed protocol line"):
            run_episode(i1, client, client)
        assert client._proc is None
    assert proc.returncode is not None and proc.stdin.closed and proc.stdout.closed


def test_reply_split_across_writes_is_reassembled(tmp_path, i1):
    cmd = _write_server_script(
        tmp_path,
        "    if msg['type'] == 'hello':\n"
        "        text = json.dumps({'type': 'ready', 'version': 1})\n"
        "    elif msg['type'] == 'observation':\n"
        "        text = json.dumps({'type': 'decision', 'step': msg['step'], 'choice': 0})\n"
        "    else:\n"
        "        continue\n"
        "    for part in (text[:9], text[9:] + '\\n'):\n"
        "        sys.stdout.write(part)\n"
        "        sys.stdout.flush()\n"
        "        time.sleep(0.05)\n",
    )
    with ExternalPolicyClient(cmd, timeout=20) as client:
        state, _ = run_episode(i1, client, client)
    assert state.makespan() == 10


def test_two_replies_in_one_read_are_returned_in_order(tmp_path, i1):
    cmd = _write_server_script(
        tmp_path,
        "    if msg['type'] == 'hello':\n"
        "        reply({'type': 'ready', 'version': 1})\n"
        "    elif msg['type'] == 'observation':\n"
        "        sys.stdout.write(''.join(json.dumps(\n"
        "            {'type': 'decision', 'step': msg['step'], 'choice': c}) + '\\n' for c in (0, 1)))\n"
        "        sys.stdout.flush()\n",
    )
    with ExternalPolicyClient(cmd, timeout=20) as client:
        client.begin_episode(i1)
        state = ScheduleState(i1)
        assert client.choose_operation(state, serialize_observation(state, OPERATION_PHASE)) == 0
        state.advance(0, 0)
        with pytest.raises(ProtocolError, match="stale decision: replied to step 0, pending 1"):
            client.choose_operation(state, serialize_observation(state, OPERATION_PHASE))
        assert client._proc is None


@pytest.mark.parametrize(
    "write, error, message",
    [
        ("sys.stdout.write('{\"type\":\"ready\"')", TransportError, "closed its output"),
        ("sys.stdout.buffer.write(b'\\xff\\n')", ProtocolError, "not UTF-8"),
        ("reply({'type': 'decision', 'step': 0, 'choice': 0})", ProtocolError,
         "^expected ready after handshake, got 'decision'$"),
        ("reply({'type': 'ready', 'version': 2})", ProtocolError, "^protocol version mismatch: 2$"),
    ],
    ids=["eof-mid-line", "not-utf8", "not-ready", "other-version"],
)
def test_bad_reply_bytes(tmp_path, i1, write, error, message):
    cmd = _write_server_script(tmp_path, f"    {write}\n    sys.stdout.flush()\n    break\n")
    with ExternalPolicyClient(cmd, timeout=20) as client:
        with pytest.raises(error, match=message):
            client.begin_episode(i1)
        assert client._proc is None


# Writes output without end and never a newline, and leaves at end of input.
FLOOD = """
import os, select
os.set_blocking(1, False)
while True:
    readable, writable, _ = select.select([0], [1], [])
    if readable and not os.read(0, 65536):
        break
    if writable:
        try:
            os.write(1, b"x" * 65536)
        except BlockingIOError:
            pass
"""

# Answers the hello, then sleeps without reading.
STALL_AFTER_HELLO = """
import sys, time
sys.stdin.readline()
print('{"type":"ready","version":1}', flush=True)
time.sleep(30)
"""

# An episode against POLICY on an n x m x k instance with the given timeout,
# timed; exits with the error's exit code and prints the seconds the episode
# took and the bytes read from the policy. Run in its own interpreter.
TIMED_EPISODE = """
import json, os, sys, time
from jsspt.bridge import ExternalPolicyClient, run_episode
from jsspt.errors import JssptError, report_error
from jsspt.instances import GenerationConfig, generate_instance

policy, n, m, k, timeout = sys.argv[1:]
instance = generate_instance(GenerationConfig(n=int(n), m=int(m), k=int(k), seed=0))
read, real_read = [], os.read


def counting_read(fd, size):
    data = real_read(fd, size)
    read.append(len(data))
    return data


code = 0
start = time.monotonic()
try:
    with ExternalPolicyClient([sys.executable, policy], timeout=float(timeout)) as client:
        os.read = counting_read
        run_episode(instance, client, client)
except JssptError as exc:
    code = report_error(exc)
print(json.dumps({"seconds": time.monotonic() - start, "read": sum(read)}))
sys.exit(code)
"""


def _timed_episode(tmp_path, policy: str, shape, timeout: float):
    """(exit code, stderr, report) of TIMED_EPISODE. A send or read that
    never ends fails the test at the watchdog instead of hanging it."""
    script = tmp_path / "policy.py"
    script.write_text(policy, encoding="utf-8")
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", TIMED_EPISODE, str(script), *map(str, shape), str(timeout)],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=20,
    )
    return proc.returncode, proc.stderr, json.loads(proc.stdout)


def test_a_flood_without_newline_is_refused_at_the_reply_cap(tmp_path):
    # The buffer stops at the cap, so the flood is refused long before the
    # deadline, and the client reads no byte past the cap.
    code, err, report = _timed_episode(tmp_path, FLOOD, (2, 2, 1), 5.0)
    assert (code, err) == (5, "jsspt: protocol error: policy reply has no newline in its "
                              "first 65536 bytes\n")
    assert report["read"] == bridge.MAX_REPLY_BYTES == 65536
    assert report["seconds"] < 5.0


def test_a_policy_that_stops_reading_ends_the_send_at_the_timeout(tmp_path):
    # The first operation line is longer than a pipe holds (64 KiB), so the
    # send cannot finish while the policy sleeps.
    first = serialize_observation(
        ScheduleState(generate_instance(GenerationConfig(n=120, m=12, k=2, seed=0))), OPERATION_PHASE
    )
    assert len(first) > 65536
    code, err, report = _timed_episode(tmp_path, STALL_AFTER_HELLO, (120, 12, 2), 1.0)
    assert (code, err) == (6, "jsspt: transport error: policy did not read its input within 1s\n")
    assert report["seconds"] < 1.0 + 1


# Answers protocol v1 up to its START-th observation line (0-based, both
# phases counted), then misbehaves there as BEHAVIOUR says; both names are
# set in a line put before this text.
HOSTILE_POLICY = """
import json, sys, time


def send(data):
    sys.stdout.buffer.write(data)
    sys.stdout.buffer.flush()


def decide(step, choice):
    send(json.dumps({"type": "decision", "step": step, "choice": choice}).encode() + b"\\n")


seen = 0
for line in sys.stdin:
    msg = json.loads(line)
    if msg["type"] == "hello":
        n, k = msg["n"], msg["k"]
        send(b'{"type":"ready","version":1}\\n')
        continue
    if msg["type"] != "observation":
        continue
    step, operation = msg["step"], msg["phase"] == "operation"
    if seen < START:
        seen += 1
        decide(step, msg["mask"][0])
    elif BEHAVIOUR == "stall":
        time.sleep(30)
    elif BEHAVIOUR == "flood":
        while True:
            send(b"x" * 65536)
    elif BEHAVIOUR == "not-utf8":
        send(b"\\xff\\n")
    elif BEHAVIOUR == "wrong-step":
        decide(step + 1, msg["mask"][0])
    elif BEHAVIOUR == "masked":
        decide(step, n if operation else k)
    elif BEHAVIOUR == "exit":
        sys.exit(0)
    # "silent" reads on and answers nothing.
"""

# The exit code each hostile behaviour ends an episode with: 5 for a
# protocol error, 6 for a transport error.
HOSTILE_EXIT_CODES = {"silent": 6, "stall": 6, "flood": 5, "not-utf8": 5, "wrong-step": 5,
                      "masked": 5, "exit": 6}
HOSTILE_SHAPE = (3, 2, 2)  # 9 steps, 18 observation lines


@settings(max_examples=8, deadline=None)
@given(behaviour=st.sampled_from(sorted(HOSTILE_EXIT_CODES)), start=st.integers(0, 17))
@example("silent", 0)
@example("stall", 0)
@example("flood", 5)
@example("not-utf8", 17)
@example("wrong-step", 8)
@example("masked", 3)
@example("exit", 12)
def test_a_hostile_policy_ends_its_episode_within_the_timeout(tmp_path_factory, behaviour, start):
    policy = f"BEHAVIOUR, START = {behaviour!r}, {start}\n" + HOSTILE_POLICY
    code, err, report = _timed_episode(tmp_path_factory.mktemp("hostile"), policy, HOSTILE_SHAPE, 0.5)
    category = {5: "protocol", 6: "transport"}[HOSTILE_EXIT_CODES[behaviour]]
    assert (code, err.split(":")[1]) == (HOSTILE_EXIT_CODES[behaviour], f" {category} error")
    assert report["seconds"] < 0.5 + 1


def test_close_kills_stalled_child_and_closes_pipes(tmp_path, monkeypatch):
    script = tmp_path / "stall.py"
    script.write_text("import time\ntime.sleep(60)\n", encoding="utf-8")
    client = ExternalPolicyClient([sys.executable, str(script)], timeout=1)
    with client:
        proc = client._proc
        real_wait = proc.wait

        def stalled_wait(timeout=None):
            # Stand in for the child outliving the grace period after EOF.
            if timeout is not None:
                raise subprocess.TimeoutExpired(proc.args, timeout)
            return real_wait()

        monkeypatch.setattr(proc, "wait", stalled_wait)
    assert proc.stdin.closed and proc.stdout.closed
    assert proc.returncode is not None and proc.returncode < 0  # killed


def test_child_that_exited_fails_the_next_send(tmp_path, i1):
    script = tmp_path / "exit.py"
    script.write_text("raise SystemExit(3)\n", encoding="utf-8")
    with ExternalPolicyClient([sys.executable, str(script)], timeout=5) as client:
        client._proc.wait()
        with pytest.raises(TransportError, match="^policy process exited with code 3$"):
            client.begin_episode(i1)
        assert client._proc is None


def test_child_that_closed_its_input_fails_the_send(tmp_path, i1):
    # The child closes its stdin, says so, and lives on for a second: the
    # hello then meets a pipe with no reader.
    script = tmp_path / "deaf.py"
    script.write_text("import os, time\nos.close(0)\nprint('closed', flush=True)\ntime.sleep(1)\n",
                      encoding="utf-8")
    with ExternalPolicyClient([sys.executable, str(script)], timeout=5) as client:
        assert client._proc.stdout.readline() == b"closed\n"
        with pytest.raises(TransportError, match="^policy channel closed while sending: "):
            client.begin_episode(i1)
        assert client._proc is None


def test_unreachable_endpoint(i1):
    client = ExternalPolicyClient(["/nonexistent/policy-binary"], timeout=5)
    with pytest.raises(TransportError):
        run_episode(i1, client, client)
