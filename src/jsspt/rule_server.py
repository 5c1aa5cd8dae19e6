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
import json
import sys
from pathlib import Path

import numpy as np

from .bridge import PROTOCOL_VERSION, encode_message, parse_message
from .engine import ScheduleState
from .errors import ProtocolError
from .instances import load_instance
from .rules import AgvRule, OperationRule, select_agv, select_operation


def _field(msg: dict, name: str):
    if name not in msg:
        raise ProtocolError(f"{msg['type']} line has no {name!r} field")
    return msg[name]


def _edge_tail(line: str) -> str | None:
    """The line's suffix from its edge lists, if that suffix holds exactly the
    precedence and assignment members and the closing brace."""
    start = line.find(',"precedence":')
    if start < 0:
        return None
    tail = line[start:]
    try:
        edges = json.loads("{" + tail[1:])
    except json.JSONDecodeError:
        return None
    if not isinstance(edges, dict) or edges.keys() != {"precedence", "assignment"}:
        return None
    return tail


def serve(op_rule, agv_rule, instances_dir: Path, seed: int = 0,
          stdin=None, stdout=None) -> None:
    """Answer protocol v1 lines until stdin closes; a line the protocol does
    not allow raises ProtocolError naming the missing field or bad value.

    The server reads no edge list, and those are the same on every operation
    line of an episode. So a line ending in the validated edge tail of the
    last operation line parsed in full is parsed as head + "}": a typed
    object there means head + tail is valid JSON with the same other members.
    Any other line is parsed in full, so every invalid line is rejected."""
    stdin = stdin or sys.stdin
    stdout = stdout or sys.stdout
    op_rule = OperationRule(op_rule)
    agv_rule = AgvRule(agv_rule)
    state = None
    rng = np.random.default_rng(seed)

    def reply(obj: dict) -> None:
        stdout.write(encode_message(obj) + "\n")
        stdout.flush()

    def decide(step, choice: int) -> None:
        # json.dumps writes a plain int as str() does; any other step value
        # (bool, float, string, ...) keeps the canonical encoder.
        if type(step) is int:
            stdout.write(f'{{"type":"decision","step":{step},"choice":{choice}}}\n')
            stdout.flush()
        else:
            reply({"type": "decision", "step": step, "choice": choice})

    tail = None
    for line in stdin:
        line = line.strip()
        if not line:
            continue
        msg = None
        if tail is not None and line.endswith(tail):
            try:
                msg = parse_message(line[: -len(tail)] + "}")
            except ProtocolError:
                pass
        if msg is None:
            msg = parse_message(line)
            if msg.get("type") == "observation" and msg.get("phase") == "operation":
                tail = _edge_tail(line)
        kind = msg["type"]
        if kind == "hello":
            tail = None
            instance = load_instance(instances_dir / f"{_field(msg, 'instance')}.json")
            state = ScheduleState(instance)
            rng = np.random.default_rng(seed)
            reply({"type": "ready", "version": PROTOCOL_VERSION})
        elif kind == "observation":
            phase = _field(msg, "phase")
            step = _field(msg, "step")
            if state is None:
                raise ProtocolError("observation before any hello")
            if phase == "operation":
                decide(step, select_operation(op_rule, state, rng))
            elif phase == "agv":
                job = _field(msg, "selected_job")
                agv = select_agv(agv_rule, state, job, rng)
                decide(step, agv)
                state.advance(job, agv)
            else:
                raise ProtocolError(f"unknown observation phase {phase!r}")
        elif kind == "terminal":
            state = None
        else:
            raise ProtocolError(f"unexpected message type {kind!r}")


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
        serve(args.op_rule, args.agv_rule, args.instances_dir, args.seed)
    except ProtocolError as exc:
        print(f"jsspt: protocol error: {exc}", file=sys.stderr)
        return 5
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
