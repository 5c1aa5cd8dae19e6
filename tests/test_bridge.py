import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest

from helpers import micro_instance, random_small_instance
from jsspt.bridge import (
    AGV_PHASE,
    OPERATION_PHASE,
    ExternalPolicyClient,
    PolicyEndpoint,
    RulePolicy,
    _round6_text,
    encode_message,
    hello_message,
    make_policy,
    parse_decision,
    parse_message,
    run_episode,
    serialize_observation,
)
from jsspt.engine import JointAction, reset
from jsspt.errors import ProtocolError, TransportError
from jsspt.features import build_graph
from jsspt.instances import GenerationConfig, generate_instance, save_instance
from jsspt.rules import solve


def test_operation_observation_contents(i1):
    line = serialize_observation(reset(i1), OPERATION_PHASE)
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
    line = serialize_observation(reset(inst), AGV_PHASE, selected_op=1)
    msg = json.loads(line)
    assert msg["phase"] == "agv"
    assert msg["selected_job"] == 1
    assert msg["mask"] == [0, 1, 2]
    assert len(msg["agvs"]) == 3
    assert all(len(row) == 13 for row in msg["agvs"])


def test_observation_round_trip(i1):
    line = serialize_observation(reset(i1), OPERATION_PHASE)
    assert json.dumps(json.loads(line), separators=(",", ":")) == line


# sha256 over the joined per-step digests of one episode, pinning every byte
# of the protocol v1 lines it produced.
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
    policy = RulePolicy(op_rule, agv_rule, seed=7)
    trace = run_episode(inst, policy, policy)
    assert (len(trace.steps), trace.makespan) == (steps, makespan)
    joined = "\n".join(s.digest for s in trace.steps)
    assert hashlib.sha256(joined.encode("utf-8")).hexdigest() == digest


def _reference_operation_line(state):
    """The documented v1 operation line, built as a dict from the graph's
    fields and encoded in one piece."""

    def round6(value):
        return float(f"{value:.6f}")

    graph = build_graph(state)
    inst = state.instance
    operations = []
    for j in range(inst.n):
        for i in range(1, inst.m + 2):
            v = graph.op_vertex(j, i)
            operations.append([
                j, i, inst.op_machine(j, i), graph.op_scheduled[v],
                graph.op_bound_raw[v], round6(graph.op_bound[v]),
            ])
    machines = [
        [t, graph.machine_scheduled[t], round6(graph.machine_ratio[t])]
        for t in range(inst.m + 2)
    ]
    return encode_message({
        "type": "observation",
        "schema": 1,
        "step": state.steps,
        "phase": "operation",
        "mask": state.valid_operations(),
        "operations": operations,
        "machines": machines,
        "precedence": [list(e) for e in graph.precedence_edges],
        "assignment": [list(e) for e in graph.assignment_edges],
    })


def test_operation_lines_match_reference_encoder():
    rng = np.random.default_rng(23)
    for _ in range(40):
        inst = random_small_instance(rng)
        state = reset(inst)
        while not state.is_terminal():
            line = serialize_observation(state, OPERATION_PHASE)
            assert line == _reference_operation_line(state)
            jobs = state.valid_operations()
            job = jobs[int(rng.integers(len(jobs)))]
            state = state.apply(JointAction(job, int(rng.integers(inst.k))))


def test_round6_text_is_repr_of_rounded_float():
    rng = np.random.default_rng(4)
    values = [0.0, -0.0, 1.0, 1e-4, 9.9999995e-5, 5e-7, 4.99e-7, 0.0078125,
              0.99999995, 999999999.9999997, 1e9, 1234567890123456.7, -0.25]
    values += [float(x) for x in rng.random(20_000)]
    values += [float(x) for x in rng.integers(0, 2**20, 5_000) / 2.0 ** 20]
    values += [float(x) for x in rng.uniform(-1, 1, 5_000) * 10.0 ** rng.integers(-9, 12, 5_000)]
    for value in values:
        assert _round6_text(value) == repr(round(value, 6)) == repr(float(f"{value:.6f}"))


def test_serialize_phase_guards(i1):
    state = reset(i1)
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
    with pytest.raises(ProtocolError):
        parse_decision("not json", 3)
    with pytest.raises(ProtocolError):
        parse_decision(json.dumps({"type": "observation", "step": 3}), 3)


def test_hello_message_fields(i1):
    msg = parse_message(hello_message(i1))
    assert msg["instance"] == "micro"
    assert (msg["n"], msg["m"], msg["k"]) == (1, 1, 1)
    assert msg["version"] == 1


def test_rule_policy_roles():
    joint = RulePolicy("SPT", "SCTA")
    assert joint.role == "joint-policy"
    assert RulePolicy(op_rule="SPT").role == "operation-policy"
    assert RulePolicy(agv_rule="SCTA").role == "agv-policy"
    with pytest.raises(ProtocolError):
        RulePolicy()


def test_run_episode_builtin_micro(i1):
    policy = RulePolicy("SPT", "SCTA")
    trace = run_episode(i1, policy, policy, solver_id="SPT+SCTA")
    assert trace.makespan == 10
    assert trace.reward == pytest.approx(-0.2, abs=1e-12)
    assert len(trace.steps) == i1.total_ops
    assert [s.job for s in trace.steps] == [0, 0]
    assert trace.result.solver_id == "SPT+SCTA"


def test_run_episode_matches_direct_solve():
    inst = generate_instance(GenerationConfig(n=4, m=3, k=2, seed=8))
    policy = RulePolicy("MWR", "SPUT")
    trace = run_episode(inst, policy, policy, solver_id="MWR+SPUT")
    direct = solve(inst, "MWR", "SPUT")
    assert trace.makespan == direct.makespan
    assert trace.result.rows == direct.rows


def test_run_episode_role_mismatch(i1):
    op_only = RulePolicy(op_rule="SPT")
    agv_only = RulePolicy(agv_rule="SCTA")
    trace = run_episode(i1, op_only, agv_only)
    assert trace.makespan == 10
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
    from jsspt.engine import lower_bound

    inst = generate_instance(GenerationConfig(n=3, m=3, k=2, seed=12))
    policy = RulePolicy("LWR", "SCPT")
    trace = run_episode(inst, policy, policy, reward_scale=5.0)
    assert len(trace.steps) == inst.total_ops
    assert trace.reward == pytest.approx(
        -trace.makespan / (lower_bound(inst) * 5.0), abs=1e-12
    )


class _MaskedChooser(RulePolicy):
    def __init__(self):
        super().__init__("SPT", "SCTA")

    def choose_operation(self, state, message):
        return 99


def test_masked_choice_aborts(i1):
    bad = _MaskedChooser()
    with pytest.raises(ProtocolError, match="masked"):
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
            external = run_episode(inst, client, client, solver_id="SPT+SCTA")
            builtin_policy = RulePolicy("SPT", "SCTA")
            builtin = run_episode(inst, builtin_policy, builtin_policy, solver_id="SPT+SCTA")
            assert external.steps == builtin.steps  # digests, jobs and agvs all match
            assert external.makespan == builtin.makespan
            assert external.result.rows == builtin.result.rows


def test_external_endpoint_factory(tmp_path):
    inst = generate_instance(GenerationConfig(n=2, m=2, k=1, seed=4))
    save_instance(inst, tmp_path)
    endpoint = PolicyEndpoint(
        kind="external",
        role="joint-policy",
        command=" ".join(rule_server_cmd(tmp_path, "LWR", "SCPT")),
        timeout=20,
    )
    client = make_policy(endpoint)
    with client:
        trace = run_episode(inst, client, client, solver_id="LWR+SCPT")
    assert trace.makespan == solve(inst, "LWR", "SCPT").makespan


def _write_server_script(tmp_path, body: str):
    path = tmp_path / "server.py"
    path.write_text(
        "import json, sys\n"
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
    # The child answers nothing, so the episode times out; it exits at EOF.
    cmd = _write_server_script(tmp_path, "    pass\n")
    client = ExternalPolicyClient(cmd, timeout=0.5)
    with pytest.raises(TransportError, match="answer"):
        run_episode(i1, client, client)
    proc = client._proc
    client.close()
    assert proc.stdin.closed and proc.stdout.closed
    assert proc.returncode == 0
    assert client._proc is None


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


def test_unreachable_endpoint(i1):
    client = ExternalPolicyClient(["/nonexistent/policy-binary"], timeout=5)
    with pytest.raises(TransportError):
        run_episode(i1, client, client)
