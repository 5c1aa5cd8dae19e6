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

from .engine import ScheduleState, terminal_reward
# Unused here; kept importable because the benchmark's traced run
# (perfbench/spans.py) wraps `bridge.build_result`.
from .engine import build_result  # noqa: F401
from .errors import ProtocolError, TransportError
# build_graph and agv_features build the same values as the line encoders
# below; the benchmark's tracer (perfbench/spans.py) wraps them here.
from .features import _candidate_op, _open_offset, agv_features, build_graph  # noqa: F401
from .instances import Instance

PROTOCOL_VERSION = 1
SCHEMA_VERSION = 1
DEFAULT_TIMEOUT = 30.0
#: The longest reply line, its newline included; a decision line is under
#: 100 bytes. A reply that fills this much without a newline is refused.
MAX_REPLY_BYTES = 65536

OPERATION_PHASE = "operation"
AGV_PHASE = "agv"


def encode_message(obj: dict) -> str:
    """Canonical one-line encoding used on both sides of the channel."""
    return json.dumps(obj, separators=(",", ":"))


class _LineFragments(NamedTuple):
    """The parts of the observation lines that are fixed per instance."""

    ratio_texts: tuple[str, ...]  # machine ratio text for c of n jobs scheduled
    agv_mask: str  # "0,1,..,k-1"


def _line_fragments(instance: Instance) -> _LineFragments:
    # Held in the instance's __dict__, beside its cached properties: found
    # without hashing the instance, and gone with it.
    frags = instance.__dict__.get("_line_fragments")
    if frags is None:
        frags = instance.__dict__["_line_fragments"] = _LineFragments(
            ratio_texts=tuple(_scaled_texts(range(instance.n + 1), 0, instance.n)),
            agv_mask=",".join(map(str, range(instance.k))),
        )
    return frags


def operation_tail(instance: Instance) -> str:
    """The text every operation line of the instance ends with: its
    precedence and assignment lists and the closing brace,
    ',"precedence":[..],"assignment":[..]}'. Held in the instance's
    __dict__ on its own: the rule server's hello needs only this."""
    tail = instance.__dict__.get("_operation_tail")
    if tail is None:
        precedence, assignment = instance.graph_edges
        edges = encode_message(
            {
                "precedence": [list(e) for e in precedence],
                "assignment": [list(e) for e in assignment],
            }
        )
        tail = instance.__dict__["_operation_tail"] = "," + edges[1:]
    return tail


class _OperationBuffers:
    """The operation line's per-instance state, kept between its steps, in
    the instance's __dict__ beside the fragments.

    Operation v = job * (m + 1) + op - 1 has its bound in raw[v], and parts
    holds at 2v its row's prefix "[job,op,machine,s,raw," (after "]," for
    v >= 1) and at 2v + 1 its bound scaled over (lo, hi); so the operations
    text is "".join(parts) + "]". All of job j's values are those its entries
    snapshot gives."""

    __slots__ = ("done_heads", "open_heads", "raw", "parts", "snapshots", "lo", "hi")

    def __init__(self, instance: Instance):
        heads = [
            f"],[{j},{i},{t},"
            for j, machines in enumerate(instance.op_machines)
            for i, t in enumerate(machines, start=1)
        ]
        heads[0] = heads[0].removeprefix("],")
        self.done_heads = [head + "1," for head in heads]
        self.open_heads = [head + "0," for head in heads]
        self.raw = [0] * len(heads)
        self.parts = [""] * (2 * len(heads))
        self.snapshots = [None] * instance.n
        self.lo = self.hi = None


def _round6_text(value: float) -> str:
    """The JSON text of a quantized feature."""
    return repr(round(value, 6))


# ("0.%06d" % q).rstrip("0") for q = 1000 * a + b with a >= 1 or b >= 100:
# _MILLI[a] + _DIGITS3[b], or _MILLI_SHORT[a] when b == 0. _MILLI_SHORT
# also writes q == 0 as "0.0" and q == 10**6 as "1.0".
_MILLI = tuple(f"0.{a:03d}" for a in range(1000))
_MILLI_SHORT = ("0.0", *(text.rstrip("0") for text in _MILLI[1:]), "1.0")
_DIGITS3 = tuple(f"{b:03d}".rstrip("0") for b in range(1000))


def _scaled_texts(values, lo: int, hi: int, heads=None) -> list[str]:
    """[_round6_text((v - lo) / (hi - lo)) for v in values] for integers
    lo <= v <= hi; all "0.0" when hi == lo, as features' min-max scaling
    collapses. Given `heads`, each text comes after its head.

    With num = v - lo and span = hi - lo, q is num/span in millionths
    rounded half up, and r is 0 only at an exact 7th-digit tie. For
    span <= 10**5 a rational that is not a tie lies at least 5e-12 from one,
    far beyond the error of the double num / span, so both round to q.

    A tie makes 2e6 * num / span an odd integer, and 2e6 = 2**7 * 5**6, so
    only a span that 128 divides has ties; and num >= 1 gives q >= 100
    (no exponent in repr) while span <= 10_050. So on those spans, unless
    128 divides them, every text is a lookup of q. On the others the
    endpoints num == 0 and num == span are exact; ties, spans above 10**5
    and values below 1e-4 (which repr writes with an exponent) take the
    float path."""
    if heads is not None:
        return [head + text for head, text in zip(heads, _scaled_texts(values, lo, hi))]
    span = hi - lo
    if not span:
        return ["0.0"] * len(values)
    two_span = 2 * span
    base = span - 2_000_000 * lo
    if span <= 10_050 and span % 128:
        return [
            _MILLI[a] + _DIGITS3[b] if b else _MILLI_SHORT[a]
            for v in values
            for a, b in (divmod((2_000_000 * v + base) // two_span, 1000),)
        ]
    if span > 100_000:
        return [_round6_text((v - lo) / span) for v in values]
    texts = []
    for v in values:
        q, r = divmod(2_000_000 * v + base, two_span)
        if r and 100 <= q < 1_000_000:
            a, b = divmod(q, 1000)
            texts.append(_MILLI[a] + _DIGITS3[b] if b else _MILLI_SHORT[a])
        elif v == lo:
            texts.append("0.0")
        elif v == hi:
            texts.append("1.0")
        else:
            texts.append(_round6_text((v - lo) / span))
    return texts


def _minmax_texts(values: list[int]) -> list[str]:
    return _scaled_texts(values, min(values), max(values))


def _operation_line(state: ScheduleState) -> str:
    """The operation-phase line: per-step values are formatted into the
    per-instance buffers. Each bound is features.op_lower_bound, min-max
    scaled over all operations.

    Only the jobs whose entries differ from their snapshot are re-derived.
    A job's bounds ascend (its done ends, then offset + work_prefix), so its
    first and last bound are its min and max, and give (lo, hi). If (lo, hi)
    moved, every bound is scaled in one pass; if not, only the re-derived
    jobs' bounds are."""
    inst = state.instance
    frags = _line_fragments(inst)
    buf = inst.__dict__.get("_operation_buffers")
    if buf is None:
        buf = inst.__dict__["_operation_buffers"] = _OperationBuffers(inst)
    snapshots, raw, parts = buf.snapshots, buf.raw, buf.parts
    all_entries = state.entries
    changed = [j for j, snapshot in enumerate(snapshots) if all_entries[j] != snapshot]
    width = inst.m + 1
    for j in changed:
        entries = all_entries[j]
        prefix = inst.work_prefix[j]
        done = len(entries)
        offset = _open_offset(entries, prefix)
        bounds = [e.end for e in entries] + [offset + p for p in prefix[done:]]
        s = j * width
        heads = buf.done_heads[s:s + done] + buf.open_heads[s + done:s + width]
        raw[s:s + width] = bounds
        parts[2 * s:2 * (s + width):2] = [f"{head}{v}," for head, v in zip(heads, bounds)]
        snapshots[j] = entries.copy()
    lo = min(raw[::width])
    hi = max(raw[width - 1::width])
    if lo != buf.lo or hi != buf.hi:
        parts[1::2] = _scaled_texts(raw, lo, hi)
        buf.lo, buf.hi = lo, hi
    else:
        for j in changed:
            s = j * width
            parts[2 * s + 1:2 * (s + width):2] = _scaled_texts(raw[s:s + width], lo, hi)
    operations = "".join(parts)
    # The v1 machine flag is always 0.
    ratios = frags.ratio_texts
    machines = ",".join([f"[{t},0,{ratios[c]}]" for t, c in enumerate(state.machine_ops)])
    mask = ",".join(map(str, state.frontier))
    return (
        f'{{"type":"observation","schema":{SCHEMA_VERSION},"step":{state.steps},'
        f'"phase":"{OPERATION_PHASE}","mask":[{mask}],'
        f'"operations":[{operations}]],"machines":[{machines}]{operation_tail(inst)}'
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

# A non-negative JSON integer: of any length where the server reads it (step,
# selected_job: a named error), else no longer than int() converts.
_READ_INT = "(?:0|[1-9][0-9]*+)"
_DIGITS = sys.get_int_max_str_digits()  # 0: no limit
_INT = f"(?:0|[1-9][0-9]{{0,{_DIGITS - 1}}}+)" if _DIGITS else _READ_INT
# A scaled feature as _round6_text writes it: 0.0 to 1.0, or 1e-06 to 9.9e-05.
_SCALED = r"[0-9](?:\.[0-9]++)?+(?:e-[0-9]++)?+"


def _list(item: str) -> str:
    return rf"\[(?:{item}(?:,{item})*+)?+\]"


_OBSERVATION = rf'\{{"type":"observation","schema":{SCHEMA_VERSION},"step":({_READ_INT}),'
_OPERATION_ROW = rf"\[{_INT},{_INT},{_INT},[01],{_INT},{_SCALED}\]"  # job,op,machine,s,raw,bound
_MACHINE_ROW = rf"\[{_INT},0,{_SCALED}\]"  # machine, the flag 0, ratio
_AGV_ROW = r"\[" + ",".join([_INT] * 7 + [_SCALED] * 6) + r"\]"  # vehicle, 6 raw, 6 scaled
# Groups: step.
match_operation_head = re.compile(
    rf'{_OBSERVATION}"phase":"{OPERATION_PHASE}","mask":{_list(_INT)},'
    rf'"operations":{_list(_OPERATION_ROW)},"machines":{_list(_MACHINE_ROW)}'
).fullmatch
# Groups: step, selected_job.
match_agv_line = re.compile(
    rf'{_OBSERVATION}"phase":"{AGV_PHASE}","selected_job":({_READ_INT}),'
    rf'"mask":{_list(_INT)},"agvs":{_list(_AGV_ROW)}\}}'
).fullmatch


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

class ExternalPolicyClient:
    """Decider living in a child process that speaks protocol v1.

    One channel runs one episode at a time; episodes are executed back to back
    over the same pipes. Lines go into a non-blocking pipe and replies are read
    on the caller's thread, both awaited with select (POSIX pipes); one
    deadline, `timeout` seconds, covers an exchange's send and its reply. A
    reply line holds at most MAX_REPLY_BYTES. A protocol or transport
    error in an exchange kills the child at once, so a stale reply left in its
    pipe cannot answer a later exchange and a child that ignores end of input
    costs no grace period; the next send starts a fresh child.
    """

    def __init__(self, command, timeout: float = DEFAULT_TIMEOUT):
        self.command = shlex.split(command) if isinstance(command, str) else list(command)
        self.timeout = timeout
        self._proc: subprocess.Popen | None = None
        self._pending = bytearray()  # bytes read past the last complete reply

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
        # A policy that stops reading then cannot hold a send past its deadline.
        os.set_blocking(self._proc.stdin.fileno(), False)

    def _send(self, line: str, deadline: float) -> None:
        self._ensure_running()
        fd = self._proc.stdin.fileno()
        data = (line + "\n").encode("utf-8")
        try:
            # A line the pipe has no room for goes in parts, each written once
            # select finds room; a line that fits takes one write.
            while True:
                try:
                    data = data[os.write(fd, data):]
                except BlockingIOError:
                    pass
                if not data:
                    return
                remaining = deadline - monotonic()
                if remaining <= 0 or not select.select([], [fd], [], remaining)[1]:
                    raise TransportError(f"policy did not read its input within {self.timeout:g}s")
        except OSError as exc:
            raise TransportError(f"policy channel closed while sending: {exc}") from exc

    def _recv(self, deadline: float) -> str:
        fd = self._proc.stdout.fileno()
        pending = self._pending
        scanned = 0  # each pass searches only the bytes its read added
        while (end := pending.find(b"\n", scanned)) < 0:
            if len(pending) >= MAX_REPLY_BYTES:
                raise ProtocolError(
                    f"policy reply has no newline in its first {MAX_REPLY_BYTES} bytes"
                )
            # Checked on every pass, so output that never ends a line cannot hold the read.
            remaining = deadline - monotonic()
            if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
                raise TransportError(f"policy did not answer within {self.timeout:g}s")
            scanned = len(pending)
            chunk = os.read(fd, MAX_REPLY_BYTES - scanned)
            if not chunk:
                raise TransportError("policy process closed its output")
            pending += chunk
        line = pending[:end]
        del pending[:end + 1]
        try:
            return line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"policy reply is not UTF-8: {exc}") from exc

    def _exchange(self, line: str, parse=None, *args):
        """Send one line and, given `parse`, return `parse(reply, *args)`;
        the send and the reply share one deadline."""
        deadline = monotonic() + self.timeout
        try:
            self._send(line, deadline)
            return parse(self._recv(deadline), *args) if parse else None
        except (ProtocolError, TransportError):
            self.close(grace=0)
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

    def close(self, grace: float = 5) -> None:
        """End the child's input and give it `grace` seconds to exit before
        killing it; reap it either way. A failed exchange gives it none."""
        proc, self._proc = self._proc, None
        self._pending.clear()
        if proc is None:
            return
        try:
            proc.stdin.close()
            proc.wait(timeout=grace)
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
    """Run one full episode, querying `op_policy` for the job and then
    `agv_policy` for the vehicle at every step; returns the terminal state and
    the decisions, as rules.play does. A decider has begin_episode(instance),
    choose_operation(state, line), choose_agv(state, job, line) and
    end_episode(line), and is asked only for the phase its position names;
    one object in both positions is begun and ended once. Both deciders
    receive the terminal line with its reward. A masked choice aborts the
    episode with a protocol error."""
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
