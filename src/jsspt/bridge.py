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

import json
import os
import re
import select
import shlex
import subprocess
import sys
from time import monotonic
from typing import NamedTuple

import numpy as np

from .engine import ScheduleState, terminal_reward
# Unused here; kept importable because the benchmark's traced run
# (perfbench/spans.py) wraps `bridge.build_result`.
from .engine import build_result  # noqa: F401
from .errors import ProtocolError, TransportError
# build_graph and agv_features build the same values as the line encoders
# below; the benchmark's tracer (perfbench/spans.py) wraps them here.
from .features import _candidate_op, _open_offset, agv_features, build_graph  # noqa: F401
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


class _LineFragments(NamedTuple):
    """The parts of the observation lines that are fixed per instance, and
    the operation line's memo of per-job runs."""

    done_heads: tuple[tuple[str, ...], ...]  # per job, "[job,op,machine,1," per op
    open_heads: tuple[tuple[str, ...], ...]  # per job, "[job,op,machine,0," per op
    ratio_texts: tuple[str, ...]  # machine ratio text for c of n jobs scheduled
    tail: str  # ',"precedence":[..],"assignment":[..]}'
    agv_mask: str  # "0,1,..,k-1"
    # Per job, the last run encoded: (entries snapshot, (raw bounds,
    # "[job,op,machine,s,raw," prefixes), lo, hi, run text). The snapshot
    # fixes the raw bounds and the heads, so with (lo, hi) it fixes the text.
    runs: list


def _line_fragments(instance: Instance) -> _LineFragments:
    # Held in the instance's __dict__, beside its cached properties: found
    # without hashing the instance, and gone with it.
    frags = instance.__dict__.get("_line_fragments")
    if frags is None:
        precedence, assignment = instance.graph_edges
        edges = encode_message(
            {
                "precedence": [list(e) for e in precedence],
                "assignment": [list(e) for e in assignment],
            }
        )
        heads = [
            [f"[{j},{i},{t}," for i, t in enumerate(machines, start=1)]
            for j, machines in enumerate(instance.op_machines)
        ]
        frags = instance.__dict__["_line_fragments"] = _LineFragments(
            done_heads=tuple(tuple(h + "1," for h in row) for row in heads),
            open_heads=tuple(tuple(h + "0," for h in row) for row in heads),
            ratio_texts=tuple(_scaled_texts(range(instance.n + 1), 0, instance.n)),
            tail="," + edges[1:],
            agv_mask=",".join(map(str, range(instance.k))),
            runs=[None] * instance.n,
        )
    return frags


def operation_tail(instance: Instance) -> str:
    """The text every operation line of the instance ends with: its
    precedence and assignment lists and the closing brace."""
    return _line_fragments(instance).tail


def _round6_text(value: float) -> str:
    """The JSON text of a quantized feature."""
    return repr(round(value, 6))


# ("0.%06d" % q).rstrip("0") for q = 1000 * a + b with a >= 1 or b >= 100:
# _MILLI[a] + _DIGITS3[b], or _MILLI_SHORT[a] when b == 0.
_MILLI = tuple(f"0.{a:03d}" for a in range(1000))
_MILLI_SHORT = tuple(text.rstrip("0") for text in _MILLI)
_DIGITS3 = tuple(f"{b:03d}".rstrip("0") for b in range(1000))


def _scaled_texts(values, lo: int, hi: int, heads=None) -> list[str]:
    """[_round6_text((v - lo) / (hi - lo)) for v in values] for integers
    lo <= v <= hi; all "0.0" when hi == lo, as features' min-max scaling
    collapses. Given `heads`, each text comes after its head.

    With num = v - lo and span = hi - lo, q is num/span in millionths
    rounded half up, and r is 0 only at an exact 7th-digit tie. For
    span <= 10**5 a rational that is not a tie lies at least 5e-12 from one,
    far beyond the error of the double num / span, so both round to q. The
    endpoints num == 0 and num == span are exact; ties, larger spans and
    values below 1e-4 (which repr writes with an exponent) take the float
    path."""
    span = hi - lo
    if heads is None:
        heads = [""] * len(values)
    if not span:
        return [head + "0.0" for head in heads]
    if span > 100_000:
        return [head + _round6_text((v - lo) / span) for head, v in zip(heads, values)]
    two_span = 2 * span
    base = span - 2_000_000 * lo
    texts = []
    for head, v in zip(heads, values):
        q, r = divmod(2_000_000 * v + base, two_span)
        if r and 100 <= q < 1_000_000:
            a, b = divmod(q, 1000)
            texts.append(head + _MILLI[a] + _DIGITS3[b] if b else head + _MILLI_SHORT[a])
        elif v == lo:
            texts.append(head + "0.0")
        elif v == hi:
            texts.append(head + "1.0")
        else:
            texts.append(head + _round6_text((v - lo) / span))
    return texts


def _minmax_texts(values: list[int]) -> list[str]:
    return _scaled_texts(values, min(values), max(values))


def _operation_line(state: ScheduleState) -> str:
    """The operation-phase line: per-step values are formatted into the
    per-instance fragments. Each bound is features.op_lower_bound, min-max
    scaled over all operations.

    A job's bounds ascend (its done ends, then offset + work_prefix), so its
    first and last bound are its min and max. A job's run of operations is
    re-encoded only when its entries or the line's (lo, hi) differ from the
    memo's; when only (lo, hi) differ, only the scaled texts are."""
    inst = state.instance
    frags = _line_fragments(inst)
    runs = frags.runs
    all_entries = state.entries
    prefixes = inst.work_prefix
    lo = min([ent[0].end if ent else prefix[0] for ent, prefix in zip(all_entries, prefixes)])
    hi = max([_open_offset(ent, prefix) + prefix[-1] for ent, prefix in zip(all_entries, prefixes)])
    texts: list[str] = []
    for j, entries in enumerate(all_entries):
        run = runs[j]
        if run is not None and run[0] == entries:
            if run[2] == lo and run[3] == hi:
                texts.append(run[4])
                continue
            snapshot, (raw, pre) = run[0], run[1]
        else:
            prefix = prefixes[j]
            done = len(entries)
            offset = _open_offset(entries, prefix)
            raw = [e.end for e in entries] + [offset + p for p in prefix[done:]]
            heads = frags.done_heads[j][:done] + frags.open_heads[j][done:]
            pre = [f"{head}{v}," for head, v in zip(heads, raw)]
            snapshot = entries.copy()
        text = "],".join(_scaled_texts(raw, lo, hi, pre)) + "]"
        runs[j] = (snapshot, (raw, pre), lo, hi, text)
        texts.append(text)
    operations = ",".join(texts)
    # The v1 machine flag is always 0.
    ratios = frags.ratio_texts
    machines = ",".join([f"[{t},0,{ratios[c]}]" for t, c in enumerate(state.machine_ops)])
    mask = ",".join(map(str, state.frontier))
    return (
        f'{{"type":"observation","schema":{SCHEMA_VERSION},"step":{state.steps},'
        f'"phase":"{OPERATION_PHASE}","mask":[{mask}],'
        f'"operations":[{operations}],"machines":[{machines}]{frags.tail}'
    )


def _agv_line(state: ScheduleState, job: int) -> str:
    """The AGV-phase line, with the values of features.agv_features for the
    job's next operation."""
    inst = state.instance
    op = _candidate_op(state, job)
    source = inst.op_source(job, op)
    target = inst.op_machine(job, op)
    entries, machine_free, op_machines, next_op = (
        state.entries, state.machine_free, inst.op_machines, state.next_op
    )
    pickups = [entries[j][-1].end if entries[j] else 0 for j in state.frontier]
    machine_peers = [machine_free[op_machines[j][next_op[j] - 1]] for j in state.frontier]
    pickup = state.predecessor_end(job)
    machine_ready = machine_free[target]
    fixed = f"{pickup},{machine_ready},"
    (pickup_text,) = _scaled_texts((pickup,), min(pickups), max(pickups))
    (machine_text,) = _scaled_texts((machine_ready,), min(machine_peers), max(machine_peers))
    fixed_scaled = f"{pickup_text},{machine_text},"

    transport = inst.transport
    ready = state.agv_free
    empty = [transport[loc][source] for loc in state.agv_location]
    arrival = [r + e for r, e in zip(ready, empty)]
    leg = transport[source][target]
    # task_finish is arrival plus the same loaded leg for every vehicle, so
    # its min-max scaling has arrival's integers and prints arrival's text.
    agvs = ",".join(
        [
            f"[{u},{fixed}{r},{e},{a},{a + leg},{fixed_scaled}{rt},{et},{at},{at}]"
            for u, (r, e, a, rt, et, at) in enumerate(
                zip(ready, empty, arrival, _minmax_texts(ready), _minmax_texts(empty),
                    _minmax_texts(arrival))
            )
        ]
    )
    return (
        f'{{"type":"observation","schema":{SCHEMA_VERSION},"step":{state.steps},'
        f'"phase":"{AGV_PHASE}","selected_job":{job},'
        f'"mask":[{_line_fragments(inst).agv_mask}],"agvs":[{agvs}]}}'
    )


# -- canonical line grammars ----------------------------------------------------
#
# Full-match grammars for the two observation texts the v1 encoders write:
# the operation line's head (from "{" up to its edge lists) and the AGV line.
# The reference server reads a canonical line through them instead of
# json.loads. They accept only valid JSON: fixed keys in the encoders' order,
# no whitespace, ASCII digits without leading zeros. So a match has one
# reading, and its groups are what json.loads gives. Any other line, valid or
# not, is left to parse_message.
#
# The repeats are possessive: they keep no state to backtrack into. With
# plain repeats the external benchmark's step took 1.17x as long
# (BENCH_12.json).


def _without_possessive(pattern: str) -> str:
    """The pattern with plain repeats, for Python 3.10, which has no
    possessive ones. Each repeat here is followed by a character it cannot
    take, so the plain pattern accepts the same lines, only slower."""
    return re.sub(r"([*+?])\+", r"\1", pattern)


def _full_match(pattern: str):
    if sys.version_info < (3, 11):
        pattern = _without_possessive(pattern)
    return re.compile(pattern).fullmatch


_INT = "(?:0|[1-9][0-9]*+)"  # a non-negative JSON integer
# A scaled feature as _round6_text writes it: 0.0 to 1.0, or 1e-06 to 9.9e-05.
_SCALED = r"[0-9](?:\.[0-9]++)?+(?:e-[0-9]++)?+"


def _list(item: str) -> str:
    return rf"\[(?:{item}(?:,{item})*+)?+\]"


_OBSERVATION = rf'\{{"type":"observation","schema":{SCHEMA_VERSION},"step":({_INT}),'
_OPERATION_ROW = rf"\[{_INT},{_INT},{_INT},[01],{_INT},{_SCALED}\]"  # job,op,machine,s,raw,bound
_MACHINE_ROW = rf"\[{_INT},0,{_SCALED}\]"  # machine, the flag 0, ratio
_AGV_ROW = r"\[" + ",".join([_INT] * 7 + [_SCALED] * 6) + r"\]"  # vehicle, 6 raw, 6 scaled
# Groups: step.
match_operation_head = _full_match(
    rf'{_OBSERVATION}"phase":"{OPERATION_PHASE}","mask":{_list(_INT)},'
    rf'"operations":{_list(_OPERATION_ROW)},"machines":{_list(_MACHINE_ROW)}'
)
# Groups: step, selected_job.
match_agv_line = _full_match(
    rf'{_OBSERVATION}"phase":"{AGV_PHASE}","selected_job":({_INT}),'
    rf'"mask":{_list(_INT)},"agvs":{_list(_AGV_ROW)}\}}'
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
        return _agv_line(state, selected_op)
    raise ProtocolError(f"unknown phase {phase!r}")


def parse_message(line: str) -> dict:
    try:
        msg = json.loads(line)
    except ValueError as exc:  # invalid JSON, or an integer too long for int()
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
    if type(step) is not int:
        raise ProtocolError(f"decision step must be an integer, got {step!r}")
    if step != expected_step:
        raise ProtocolError(f"stale decision: replied to step {step}, pending {expected_step}")
    choice = msg.get("choice")
    if not isinstance(choice, int) or isinstance(choice, bool):
        raise ProtocolError(f"decision choice must be an integer, got {choice!r}")
    return choice


def _parse_ready(line: str) -> None:
    msg = parse_message(line)
    if msg.get("type") != "ready":
        raise ProtocolError(f"expected ready after handshake, got {msg.get('type')!r}")
    if msg.get("version") != PROTOCOL_VERSION:
        raise ProtocolError(f"protocol version mismatch: {msg.get('version')!r}")


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


# -- deciders -----------------------------------------------------------------

ROLE_OPERATION = "operation-policy"
ROLE_AGV = "agv-policy"
ROLE_JOINT = "joint-policy"


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


class ExternalPolicyClient:
    """Decider living in a child process that speaks protocol v1.

    One channel runs one episode at a time; episodes are executed back to back
    over the same pipes. Replies are read on the caller's thread, awaited with
    select and a per-decision timeout (POSIX pipes). A protocol or transport
    error in an exchange closes the child, so a stale reply left in its pipe
    cannot answer a later exchange; the next send starts a fresh child.
    """

    def __init__(self, command, role: str = ROLE_JOINT, timeout: float = DEFAULT_TIMEOUT):
        self.command = shlex.split(command) if isinstance(command, str) else list(command)
        self.role = role
        self.timeout = timeout
        self._proc: subprocess.Popen | None = None
        self._pending = b""  # bytes read past the last complete reply

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
                self.command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, bufsize=0
            )
        except OSError as exc:
            raise TransportError(f"cannot start policy process {self.command}: {exc}") from exc

    def _send(self, line: str) -> None:
        self._ensure_running()
        data = (line + "\n").encode("utf-8")
        try:
            # An unbuffered pipe may take a large line in parts.
            while data:
                data = data[self._proc.stdin.write(data):]
        except OSError as exc:
            raise TransportError(f"policy channel closed while sending: {exc}") from exc

    def _recv(self) -> str:
        fd = self._proc.stdout.fileno()
        deadline = monotonic() + self.timeout
        while (end := self._pending.find(b"\n")) < 0:
            ready, _, _ = select.select([fd], [], [], max(deadline - monotonic(), 0.0))
            if not ready:
                raise TransportError(f"policy did not answer within {self.timeout:.0f}s")
            chunk = os.read(fd, 65536)
            if not chunk:
                raise TransportError("policy process closed its output")
            self._pending += chunk
        line, self._pending = self._pending[:end], self._pending[end + 1:]
        try:
            return line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"policy reply is not UTF-8: {exc}") from exc

    def _exchange(self, line: str, parse=None, *args):
        """Send one line and, given `parse`, return `parse(reply, *args)`."""
        try:
            self._send(line)
            return parse(self._recv(), *args) if parse else None
        except (ProtocolError, TransportError):
            self.close()
            raise

    # -- decider interface ----------------------------------------------------

    def begin_episode(self, instance: Instance) -> None:
        self._exchange(hello_message(instance), _parse_ready)

    def choose_operation(self, state: ScheduleState, message: str) -> int:
        return self._exchange(message, parse_decision, state.steps)

    def choose_agv(self, state: ScheduleState, job: int, message: str) -> int:
        return self._exchange(message, parse_decision, state.steps)

    def end_episode(self, message: str) -> None:
        self._exchange(message)

    def close(self) -> None:
        proc, self._proc = self._proc, None
        self._pending = b""
        if proc is None:
            return
        try:
            proc.stdin.close()
            proc.wait(timeout=5)
        except (OSError, subprocess.TimeoutExpired):
            proc.kill()
            proc.wait()
        proc.stdout.close()

    def __enter__(self) -> "ExternalPolicyClient":
        self._ensure_running()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# -- episode runner -----------------------------------------------------------

def run_episode(instance: Instance, op_policy, agv_policy) -> tuple[ScheduleState, list]:
    """Run one full episode, querying the operation decider and then the AGV
    decider at every step; returns the terminal state and the decisions, as
    rules.play does. Both deciders receive the terminal line with its reward.
    A masked choice aborts the episode with a protocol error."""
    if op_policy.role not in (ROLE_OPERATION, ROLE_JOINT):
        raise ProtocolError(f"{op_policy.role} cannot act as the operation decider")
    if agv_policy.role not in (ROLE_AGV, ROLE_JOINT):
        raise ProtocolError(f"{agv_policy.role} cannot act as the AGV decider")

    policies = [op_policy] if op_policy is agv_policy else [op_policy, agv_policy]
    for policy in policies:
        policy.begin_episode(instance)

    state = ScheduleState(instance)
    decisions: list[tuple[int, int]] = []
    while not state.is_terminal():
        op_line = serialize_observation(state, OPERATION_PHASE)
        job = op_policy.choose_operation(state, op_line)
        if job not in state.frontier:
            raise ProtocolError(f"operation decider chose masked job {job} (mask {state.frontier})")
        agv_line = serialize_observation(state, AGV_PHASE, selected_op=job)
        agv = agv_policy.choose_agv(state, job, agv_line)
        if not 0 <= agv < instance.k:
            raise ProtocolError(f"agv decider chose invalid vehicle {agv} (k={instance.k})")
        state.advance(job, agv)
        decisions.append((job, agv))

    final = encode_message(
        {"type": "terminal", "step": state.steps, "makespan": state.makespan(),
         "reward": terminal_reward(state)}
    )
    for policy in policies:
        policy.end_episode(final)
    return state, decisions
