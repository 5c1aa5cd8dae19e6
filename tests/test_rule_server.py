import io
import json
import sys

import pytest

from helpers import micro_instance
from jsspt import rule_server
from jsspt.bridge import OPERATION_PHASE, encode_message, hello_message, serialize_observation
from jsspt.engine import ScheduleState
from jsspt.errors import ProtocolError
from jsspt.instances import GenerationConfig, generate_instance, save_instance
from jsspt.rule_server import _edge_tail, main, serve


def _serve(tmp_path, *lines):
    out = io.StringIO()
    stdin = io.StringIO("".join(json.dumps(line) + "\n" for line in lines))
    serve("SPT", "SCTA", tmp_path, stdin=stdin, stdout=out)
    return [json.loads(line) for line in out.getvalue().splitlines()]


def _hello(tmp_path):
    inst = micro_instance(idle_leg=1)
    save_instance(inst, tmp_path)
    return json.loads(hello_message(inst))


def test_serves_one_step(tmp_path):
    replies = _serve(
        tmp_path,
        _hello(tmp_path),
        {"type": "observation", "step": 0, "phase": "operation"},
        {"type": "observation", "step": 0, "phase": "agv", "selected_job": 0},
    )
    assert replies == [
        {"type": "ready", "version": 1},
        {"type": "decision", "step": 0, "choice": 0},
        {"type": "decision", "step": 0, "choice": 0},
    ]


@pytest.mark.parametrize("step", [0, 7, 10**20, True, 1.5, "3", None])
def test_decision_lines_are_canonical(tmp_path, step):
    # A decision line is the encoder's text; a step that is not a plain
    # integer (a bool included) is a protocol error.
    lines = [_hello(tmp_path), {"type": "observation", "step": step, "phase": "operation"}]
    out = io.StringIO()
    stdin = io.StringIO("".join(json.dumps(line) + "\n" for line in lines))
    if type(step) is not int:
        with pytest.raises(ProtocolError, match="step must be an integer"):
            serve("SPT", "SCTA", tmp_path, stdin=stdin, stdout=out)
        return
    serve("SPT", "SCTA", tmp_path, stdin=stdin, stdout=out)
    expected = encode_message({"type": "decision", "step": step, "choice": 0})
    assert out.getvalue().splitlines()[1] == expected


@pytest.mark.parametrize(
    "line, message",
    [
        ({"type": "observation", "step": 0}, "'phase'"),
        ({"type": "observation", "phase": "operation"}, "'step'"),
        ({"type": "bogus"}, "'bogus'"),
        ({"type": "hello", "version": 1}, "'instance'"),
        ({"type": "observation", "step": 0, "phase": "operation"}, "before any hello"),
    ],
)
def test_bad_single_line_is_a_protocol_error(tmp_path, line, message):
    with pytest.raises(ProtocolError, match=message):
        _serve(tmp_path, line)


@pytest.mark.parametrize(
    "line, message",
    [
        ({"type": "observation", "step": 0, "phase": "agv"}, "'selected_job'"),
        ({"type": "observation", "step": 0, "phase": "vision"}, "'vision'"),
    ],
)
def test_bad_line_within_an_episode_is_a_protocol_error(tmp_path, line, message):
    with pytest.raises(ProtocolError, match=message):
        _serve(tmp_path, _hello(tmp_path), line)


def test_main_maps_protocol_error_to_exit_5(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO('{"type":"bogus"}\n'))
    code = main(["--op-rule", "SPT", "--agv-rule", "SCTA", "--instances-dir", str(tmp_path)])
    assert code == 5
    assert capsys.readouterr().err.startswith("jsspt: protocol error: ")


# -- edge-tail reuse ------------------------------------------------------------

def _operation_line(inst):
    return serialize_observation(ScheduleState(inst), OPERATION_PHASE)


def _serve_raw(tmp_path, lines, monkeypatch):
    """Serve raw protocol lines; returns the text handed to each
    parse_message call."""
    parsed = []
    real = rule_server.parse_message

    def spy(line):
        parsed.append(line)
        return real(line)

    monkeypatch.setattr(rule_server, "parse_message", spy)
    serve("SPT", "SCTA", tmp_path, stdin=io.StringIO("".join(l + "\n" for l in lines)),
          stdout=io.StringIO())
    return parsed


@pytest.fixture
def two_instances(tmp_path):
    insts = [generate_instance(GenerationConfig(n=3, m=2, k=2, seed=s)) for s in (1, 2)]
    for inst in insts:
        save_instance(inst, tmp_path)
    return insts


def test_cached_tail_parses_only_the_head(tmp_path, monkeypatch, two_instances):
    a, b = two_instances
    line_a, line_b = _operation_line(a), _operation_line(b)
    tail_a, tail_b = _edge_tail(line_a), _edge_tail(line_b)
    assert tail_a != tail_b
    parsed = _serve_raw(
        tmp_path, [hello_message(a), line_a, line_a, line_b, line_b, hello_message(a), line_b],
        monkeypatch)
    assert parsed[1:] == [
        line_a,  # the first operation line parses in full
        line_a[: -len(tail_a)] + "}",
        line_b,  # another instance's tail parses in full
        line_b[: -len(tail_b)] + "}",
        hello_message(a),
        line_b,  # hello drops the tail
    ]


@pytest.mark.parametrize("head", ['{"type":"observation","step":0,', "{"], ids=["broken", "brace"])
def test_line_with_cached_tail_and_bad_head_is_a_protocol_error(
        tmp_path, monkeypatch, two_instances, head):
    a = two_instances[0]
    line = _operation_line(a)
    with pytest.raises(ProtocolError):
        _serve_raw(tmp_path, [hello_message(a), line, head + _edge_tail(line)], monkeypatch)


HEAD = '{"type":"observation","schema":1,"step":0,"phase":"operation"'


@pytest.mark.parametrize(
    "tail",
    [
        ',"precedence":[[0,1]],"assignment":[],"extra":1}',
        ',"precedence":[[0,1]]}',
        ',"precedence":[[0,1]],"assignment":[]',
        ',"precedence":[[0,1]],"assignment":[]}]',
    ],
    ids=["extra-key", "no-assignment", "unclosed", "trailing-data"],
)
def test_tail_with_other_keys_is_never_cached(tail):
    assert _edge_tail(HEAD + tail) is None


def test_uncached_tail_parses_in_full(tmp_path, monkeypatch, two_instances):
    line = HEAD + ',"precedence":[[0,1]],"assignment":[],"extra":1}'
    parsed = _serve_raw(tmp_path, [hello_message(two_instances[0]), line, line], monkeypatch)
    assert parsed[1:] == [line, line]
