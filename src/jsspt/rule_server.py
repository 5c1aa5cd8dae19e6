"""Reference external policy process.

Serves a dispatching-rule pair over protocol v1 on stdin/stdout, exactly as an
externally trained agent would be wired up. The server keeps its own schedule
state, rebuilt from the instance document named in each handshake, so it can
evaluate any built-in rule without decoding times out of the observation
tables (those are still transmitted in full).

Run as:  python -m jsspt.rule_server --op-rule SPT --agv-rule SCTA \
             --instances-dir ./instances
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .bridge import (
    PROTOCOL_VERSION,
    SCHEMA_VERSION,
    encode_message,
    match_agv_line,
    match_operation_head,
    operation_tail,
    parse_message,
)
from .engine import ScheduleState
from .errors import JssptError, ProtocolError, report_error
from .instances import Instance, check_seed, load_instance, plain_file_stem
from .rules import AgvRule, OperationRule, select_agv, select_operation


def _field(msg: dict, name: str):
    if name not in msg:
        raise ProtocolError(f"{msg['type']} line has no {name!r} field")
    return msg[name]


def _group_int(match, group: int, name: str) -> int:
    try:
        return int(match[group])
    except ValueError as exc:  # more digits than int() converts
        raise ProtocolError(f"observation {name} has {len(match[group])} digits, "
                            "too many to read") from exc


def _read_canonical(line: str, tail: str | None) -> tuple[str, int, int | None] | None:
    """(phase, step, selected_job) of a canonical observation line, read by
    the bridge grammars: an operation line ending in the instance's tail,
    whose head matches, or an AGV line. None for any other line."""
    if tail is not None and line.endswith(tail):
        match = match_operation_head(line, 0, len(line) - len(tail))
        return None if match is None else ("operation", _group_int(match, 1, "step"), None)
    match = match_agv_line(line)
    if match is None:
        return None
    return "agv", _group_int(match, 1, "step"), _group_int(match, 2, "selected_job")


def _instance_path(instances_dir: Path, msg: dict) -> Path:
    """The document a hello names: <instance>.json directly in instances_dir."""
    name = _field(msg, "instance")
    if not plain_file_stem(name):
        raise ProtocolError(f"hello instance must be a plain file stem, got {name!r}")
    path = instances_dir / f"{name}.json"
    if not path.exists():
        raise ProtocolError(f"hello instance {name!r} is not in {instances_dir}")
    return path


def _check_hello(msg: dict, instance: Instance) -> None:
    """A hello must speak schema and protocol 1 and give the named
    instance's sizes, each a plain integer."""
    expected = {"schema": SCHEMA_VERSION, "version": PROTOCOL_VERSION,
                "n": instance.n, "m": instance.m, "k": instance.k}
    for name, value in expected.items():
        got = _field(msg, name)
        if type(got) is not int or got != value:
            raise ProtocolError(f"hello {name} must be {value} for {instance.id!r}, got {got!r}")


def serve(op_rule, agv_rule, instances_dir: Path, seed: int = 0,
          stdin=None, stdout=None) -> None:
    """Answer protocol v1 lines until stdin closes; a line the protocol does
    not allow raises ProtocolError naming the missing field or bad value.

    A canonical observation line is read by the bridge grammars, without
    json.loads. The server reads no edge list, and every operation line of
    an episode ends in the instance's edge lists as the bridge writes them.
    So an operation line ending in that tail is matched up to the tail: a
    match means the whole line is valid JSON with the matched members. A
    canonical AGV line is matched whole. Any other line is parsed in full,
    so every invalid line is rejected."""
    stdin = stdin or sys.stdin
    stdout = stdout or sys.stdout
    op_rule = OperationRule(op_rule)
    agv_rule = AgvRule(agv_rule)
    state = rng = None
    # Only the RANDOM rules draw, so no other pair loads numpy.
    draws = op_rule is OperationRule.RANDOM or agv_rule is AgvRule.RANDOM

    def decide(step: int, choice: int) -> None:
        # The same text as encode_message: json.dumps writes an int as str().
        stdout.write(f'{{"type":"decision","step":{step},"choice":{choice}}}\n')
        stdout.flush()

    tail = None
    for line in stdin:
        line = line.strip()
        if not line:
            continue
        canonical = _read_canonical(line, tail)
        if canonical is not None:
            phase, step, job = canonical
        else:
            msg = parse_message(line)
            kind = msg["type"]
            if kind == "hello":
                instance = load_instance(_instance_path(instances_dir, msg))
                _check_hello(msg, instance)
                state = ScheduleState(instance)
                tail = operation_tail(instance)
                if draws:
                    import numpy as np

                    rng = np.random.default_rng(seed)
                stdout.write(encode_message({"type": "ready", "version": PROTOCOL_VERSION}) + "\n")
                stdout.flush()
                continue
            if kind == "terminal":
                state = None
                continue
            if kind != "observation":
                raise ProtocolError(f"unexpected message type {kind!r}")
            phase = _field(msg, "phase")
            step = _field(msg, "step")
            if type(step) is not int:
                raise ProtocolError(f"observation step must be an integer, got {step!r}")
        if state is None:
            raise ProtocolError("observation before any hello")
        if phase == "operation":
            decide(step, select_operation(op_rule, state, rng))
        elif phase == "agv":
            if canonical is None:
                job = _field(msg, "selected_job")
                if type(job) is not int:
                    raise ProtocolError(f"selected_job must be an integer, got {job!r}")
            if job not in state.frontier:
                raise ProtocolError(f"selected_job {job} is not an unfinished job")
            agv = select_agv(agv_rule, state, job, rng)
            decide(step, agv)
            state.advance(job, agv)
        else:
            raise ProtocolError(f"unknown observation phase {phase!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="jsspt.rule_server",
        description="Serve a dispatching-rule pair over the external policy protocol.",
    )
    parser.add_argument("--op-rule", required=True, help="operation-selection rule name")
    parser.add_argument("--agv-rule", required=True, help="AGV-selection rule name")
    parser.add_argument(
        "--instances-dir",
        required=True,
        type=Path,
        help="directory holding <instance-id>.json documents",
    )
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    try:
        check_seed(args.seed, "--seed")
        serve(args.op_rule, args.agv_rule, args.instances_dir, args.seed)
    except (JssptError, OSError) as exc:
        return report_error(exc)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
