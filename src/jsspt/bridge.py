"""Episode runner with pluggable deciders and the external wire protocol.

Both observation spaces are serialized as single JSON lines so any training
stack can be evaluated over stdin/stdout without language bindings. Protocol
v1, strictly synchronous, one episode at a time per channel:

    harness -> policy   {"type":"hello","schema":1,"version":1,
                         "instance":<id>,"n":..,"m":..,"k":..}
    policy  -> harness  {"type":"ready","version":1}
    per decision step, operation phase then AGV phase:
      harness -> policy {"type":"observation","schema":1,"step":t,
                         "phase":"operation","mask":[jobs..],
                         "operations":[[job,op,machine,scheduled,bound_raw,bound],..],
                         "machines":[[machine,scheduled,ratio],..],
                         "precedence":[[v,w],..],"assignment":[[v,w],..]}
      policy  -> harness{"type":"decision","step":t,"choice":job}
      harness -> policy {"type":"observation","schema":1,"step":t,"phase":"agv",
                         "selected_job":job,"mask":[agvs..],
                         "agvs":[[agv,pickup_ready,machine_ready,agv_ready,
                                  empty_travel,arrival,task_finish,
                                  <the six scaled values>],..]}
      policy  -> harness{"type":"decision","step":t,"choice":agv}
    harness -> policy   {"type":"terminal","step":T,"makespan":..,"reward":..}

All times are integers; scaled features are quantized to 6 decimal places.
"""

from __future__ import annotations

import hashlib
import json
import queue
import shlex
import subprocess
import threading
import time
import weakref
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .engine import JointAction, ScheduleResult, ScheduleState, build_result, reset, terminal_reward
from .errors import ProtocolError, TransportError
from .features import agv_features, build_graph
from .instances import Instance
from .rules import AgvRule, OperationRule, select_agv, select_operation

PROTOCOL_VERSION = 1
SCHEMA_VERSION = 1
DEFAULT_TIMEOUT = 30.0

OPERATION_PHASE = "operation"
AGV_PHASE = "agv"


def encode_message(obj: dict) -> str:
    """Canonical one-line encoding used on both sides of the channel."""
    return json.dumps(obj, separators=(",", ":"))


class _OperationFragments(NamedTuple):
    """The parts of an operation-phase line that are fixed per instance."""

    op_heads: tuple[str, ...]  # "[job,op,machine," per operation, vertex order
    tail: str  # ',"precedence":[..],"assignment":[..]}'


# Keyed by the instance itself, so an entry lives exactly as long as its
# instance; an id() key could be reused by a later instance.
_FRAGMENTS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _operation_fragments(instance: Instance) -> _OperationFragments:
    frags = _FRAGMENTS.get(instance)
    if frags is None:
        precedence, assignment = instance.graph_edges
        edges = encode_message(
            {
                "precedence": [list(e) for e in precedence],
                "assignment": [list(e) for e in assignment],
            }
        )
        frags = _FRAGMENTS[instance] = _OperationFragments(
            op_heads=tuple(
                f"[{j},{i},{t},"
                for j, machines in enumerate(instance.op_machines)
                for i, t in enumerate(machines, start=1)
            ),
            tail="," + edges[1:],
        )
    return frags


def _round6_text(value: float) -> str:
    """repr(round(value, 6)), the JSON text of a quantized feature, without
    repr's shortest-digits search. Below 1e9 a 6-decimal rendering has at
    most 15 significant digits, so with trailing zeros stripped it already is
    the shortest text of its float; below 1e-4 repr uses an exponent."""
    if not 1e-4 <= abs(value) < 1e9:
        return repr(round(value, 6))
    text = f"{value:.6f}".rstrip("0")
    return text + "0" if text.endswith(".") else text


def _operation_line(state: ScheduleState) -> str:
    """The operation-phase line: per-step values are formatted into the
    per-instance fragments."""
    graph = build_graph(state)
    frags = _operation_fragments(state.instance)
    operations = ",".join(
        [
            f"{head}{flag},{raw},{_round6_text(bound)}]"
            for head, flag, raw, bound in zip(
                frags.op_heads, graph.op_scheduled, graph.op_bound_raw, graph.op_bound
            )
        ]
    )
    machines = ",".join(
        [
            f"[{t},{flag},{_round6_text(ratio)}]"
            for t, (flag, ratio) in enumerate(
                zip(graph.machine_scheduled, graph.machine_ratio)
            )
        ]
    )
    mask = ",".join(map(str, state.valid_operations()))
    return (
        f'{{"type":"observation","schema":{SCHEMA_VERSION},"step":{state.steps},'
        f'"phase":"{OPERATION_PHASE}","mask":[{mask}],'
        f'"operations":[{operations}],"machines":[{machines}]{frags.tail}'
    )


def serialize_observation(
    state: ScheduleState, phase: str, selected_op: int | None = None
) -> str:
    """One self-contained observation line for the given phase."""
    if phase == OPERATION_PHASE:
        if selected_op is not None:
            raise ProtocolError("operation phase takes no selected job")
        return _operation_line(state)
    if phase == AGV_PHASE:
        if selected_op is None:
            raise ProtocolError("agv phase needs the selected job")
        vectors = agv_features(state, selected_op)
        return encode_message(
            {
                "type": "observation",
                "schema": SCHEMA_VERSION,
                "step": state.steps,
                "phase": AGV_PHASE,
                "selected_job": selected_op,
                "mask": list(range(state.instance.k)),
                "agvs": [
                    [
                        f.agv,
                        f.pickup_ready,
                        f.machine_ready,
                        f.agv_ready,
                        f.empty_travel,
                        f.arrival,
                        f.task_finish,
                        round(f.pickup_ready_scaled, 6),
                        round(f.machine_ready_scaled, 6),
                        round(f.agv_ready_scaled, 6),
                        round(f.empty_travel_scaled, 6),
                        round(f.arrival_scaled, 6),
                        round(f.task_finish_scaled, 6),
                    ]
                    for f in vectors
                ],
            }
        )
    raise ProtocolError(f"unknown phase {phase!r}")


def parse_message(line: str) -> dict:
    try:
        msg = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"malformed protocol line: {exc}") from exc
    if not isinstance(msg, dict) or "type" not in msg:
        raise ProtocolError("protocol line is not a typed object")
    return msg


def parse_decision(line: str, expected_step: int) -> int:
    """Extract the chosen index from a decision reply; the reply must answer
    the pending step."""
    msg = parse_message(line)
    if msg.get("type") != "decision":
        raise ProtocolError(f"expected a decision line, got type {msg.get('type')!r}")
    step = msg.get("step")
    if step != expected_step:
        raise ProtocolError(f"stale decision: replied to step {step}, pending {expected_step}")
    choice = msg.get("choice")
    if not isinstance(choice, int) or isinstance(choice, bool):
        raise ProtocolError(f"decision choice must be an integer, got {choice!r}")
    return choice


def hello_message(instance: Instance) -> str:
    return encode_message(
        {
            "type": "hello",
            "schema": SCHEMA_VERSION,
            "version": PROTOCOL_VERSION,
            "instance": instance.id,
            "n": instance.n,
            "m": instance.m,
            "k": instance.k,
        }
    )


def terminal_message(step: int, makespan: int, reward: float) -> str:
    return encode_message(
        {"type": "terminal", "step": step, "makespan": makespan, "reward": reward}
    )


# -- deciders -----------------------------------------------------------------

ROLE_OPERATION = "operation-policy"
ROLE_AGV = "agv-policy"
ROLE_JOINT = "joint-policy"


@dataclass(frozen=True)
class PolicyEndpoint:
    """How to obtain a decider: a builtin rule name or an external command."""

    kind: str  # "builtin-rule" | "external"
    role: str  # ROLE_OPERATION | ROLE_AGV | ROLE_JOINT
    op_rule: str | None = None
    agv_rule: str | None = None
    command: str = ""
    timeout: float = DEFAULT_TIMEOUT
    seed: int = 0


class RulePolicy:
    """In-process decider backed by dispatching rules."""

    def __init__(self, op_rule=None, agv_rule=None, seed=0):
        if op_rule is None and agv_rule is None:
            raise ProtocolError("rule policy needs at least one rule")
        self.op_rule = OperationRule(op_rule) if op_rule is not None else None
        self.agv_rule = AgvRule(agv_rule) if agv_rule is not None else None
        self.seed = seed
        self._rng = np.random.default_rng(seed)

    @property
    def role(self) -> str:
        if self.op_rule is not None and self.agv_rule is not None:
            return ROLE_JOINT
        return ROLE_OPERATION if self.op_rule is not None else ROLE_AGV

    def begin_episode(self, instance: Instance) -> None:
        self._rng = np.random.default_rng(self.seed)

    def choose_operation(self, state: ScheduleState, message: str) -> int:
        if self.op_rule is None:
            raise ProtocolError("this policy does not select operations")
        return select_operation(self.op_rule, state, self._rng)

    def choose_agv(self, state: ScheduleState, job: int, message: str) -> int:
        if self.agv_rule is None:
            raise ProtocolError("this policy does not select AGVs")
        return select_agv(self.agv_rule, state, job, self._rng)

    def end_episode(self, message: str) -> None:
        pass

    def close(self) -> None:
        pass


class ExternalPolicyClient:
    """Decider living in a child process that speaks protocol v1.

    One channel runs one episode at a time; episodes are executed back to back
    over the same pipes. Replies are awaited with a per-decision timeout.
    """

    def __init__(self, command, role: str = ROLE_JOINT, timeout: float = DEFAULT_TIMEOUT):
        self.command = shlex.split(command) if isinstance(command, str) else list(command)
        self.role = role
        self.timeout = timeout
        self._proc: subprocess.Popen | None = None
        self._lines: queue.Queue = queue.Queue()
        self._reader: threading.Thread | None = None

    # -- channel plumbing ---------------------------------------------------

    def _ensure_running(self) -> None:
        if self._proc is not None:
            if self._proc.poll() is None:
                return
            raise TransportError(
                f"policy process exited with code {self._proc.returncode}"
            )
        try:
            self._proc = subprocess.Popen(
                self.command,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
                bufsize=1,
            )
        except OSError as exc:
            raise TransportError(f"cannot start policy process {self.command}: {exc}") from exc
        self._lines = queue.Queue()
        self._reader = threading.Thread(
            target=self._pump, args=(self._proc.stdout, self._lines), daemon=True
        )
        self._reader.start()

    @staticmethod
    def _pump(stream, sink: queue.Queue) -> None:
        for line in stream:
            sink.put(line)
        sink.put(None)

    def _send(self, line: str) -> None:
        self._ensure_running()
        try:
            self._proc.stdin.write(line + "\n")
            self._proc.stdin.flush()
        except (BrokenPipeError, OSError) as exc:
            raise TransportError(f"policy channel closed while sending: {exc}") from exc

    def _recv(self) -> str:
        try:
            line = self._lines.get(timeout=self.timeout)
        except queue.Empty:
            raise TransportError(
                f"policy did not answer within {self.timeout:.0f}s"
            ) from None
        if line is None:
            raise TransportError("policy process closed its output")
        return line.rstrip("\n")

    # -- decider interface ----------------------------------------------------

    def begin_episode(self, instance: Instance) -> None:
        self._send(hello_message(instance))
        msg = parse_message(self._recv())
        if msg.get("type") != "ready":
            raise ProtocolError(f"expected ready after handshake, got {msg.get('type')!r}")
        if msg.get("version") != PROTOCOL_VERSION:
            raise ProtocolError(f"protocol version mismatch: {msg.get('version')!r}")

    def choose_operation(self, state: ScheduleState, message: str) -> int:
        self._send(message)
        return parse_decision(self._recv(), state.steps)

    def choose_agv(self, state: ScheduleState, job: int, message: str) -> int:
        self._send(message)
        return parse_decision(self._recv(), state.steps)

    def end_episode(self, message: str) -> None:
        self._send(message)

    def close(self) -> None:
        proc, self._proc = self._proc, None
        if proc is None:
            return
        try:
            proc.stdin.close()
            proc.wait(timeout=5)
        except (OSError, subprocess.TimeoutExpired):
            proc.kill()
            proc.wait()
        # The reader thread ends at the dead child's EOF; close its pipe after.
        self._reader.join(timeout=5)
        proc.stdout.close()

    def __enter__(self) -> "ExternalPolicyClient":
        self._ensure_running()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def make_policy(endpoint: PolicyEndpoint):
    if endpoint.kind == "builtin-rule":
        return RulePolicy(endpoint.op_rule, endpoint.agv_rule, endpoint.seed)
    if endpoint.kind == "external":
        return ExternalPolicyClient(endpoint.command, endpoint.role, endpoint.timeout)
    raise ProtocolError(f"unknown endpoint kind {endpoint.kind!r}")


# -- episode runner -----------------------------------------------------------

class StepRecord(NamedTuple):
    digest: str
    job: int
    agv: int


@dataclass(frozen=True)
class EpisodeTrace:
    """Everything one episode produced: the per-step records, the schedule,
    and the terminal reward."""

    instance_id: str
    steps: tuple[StepRecord, ...]
    makespan: int
    reward: float
    wall_time: float
    result: ScheduleResult


def run_episode(
    instance: Instance,
    op_policy,
    agv_policy,
    reward_scale: float = 5.0,
    solver_id: str = "external",
) -> EpisodeTrace:
    """Run one full episode, querying the operation decider and then the AGV
    decider at every step. A masked choice aborts the episode with a protocol
    error and produces no result."""
    if op_policy.role not in (ROLE_OPERATION, ROLE_JOINT):
        raise ProtocolError(f"{op_policy.role} cannot act as the operation decider")
    if agv_policy.role not in (ROLE_AGV, ROLE_JOINT):
        raise ProtocolError(f"{agv_policy.role} cannot act as the AGV decider")

    policies = [op_policy] if op_policy is agv_policy else [op_policy, agv_policy]
    started = time.perf_counter()
    for policy in policies:
        policy.begin_episode(instance)

    state = reset(instance)
    records: list[StepRecord] = []
    decisions: list[tuple[int, int]] = []
    while not state.is_terminal():
        mask = state.valid_operations()
        op_line = serialize_observation(state, OPERATION_PHASE)
        job = op_policy.choose_operation(state, op_line)
        if job not in mask:
            raise ProtocolError(f"operation decider chose masked job {job} (mask {mask})")
        agv_line = serialize_observation(state, AGV_PHASE, selected_op=job)
        agv = agv_policy.choose_agv(state, job, agv_line)
        if not 0 <= agv < instance.k:
            raise ProtocolError(f"agv decider chose invalid vehicle {agv} (k={instance.k})")
        digest = hashlib.sha256(
            (op_line + "\n" + agv_line).encode("utf-8")
        ).hexdigest()[:16]
        state = state.apply(JointAction(job, agv))
        records.append(StepRecord(digest, job, agv))
        decisions.append((job, agv))

    makespan = state.makespan()
    reward = terminal_reward(state, reward_scale)
    final = terminal_message(state.steps, makespan, reward)
    for policy in policies:
        policy.end_episode(final)
    wall = time.perf_counter() - started
    result = build_result(state, solver_id, decisions)
    return EpisodeTrace(
        instance_id=instance.id,
        steps=tuple(records),
        makespan=makespan,
        reward=reward,
        wall_time=wall,
        result=result,
    )
