import io
import json
import sys

import pytest

from helpers import micro_instance
from jsspt.bridge import hello_message
from jsspt.errors import ProtocolError
from jsspt.instances import save_instance
from jsspt.rule_server import main, serve


def _serve(tmp_path, *lines):
    out = io.StringIO()
    stdin = io.StringIO("".join(json.dumps(line) + "\n" for line in lines))
    serve("SPT", "SCTA", tmp_path, stdin=stdin, stdout=out)
    return [json.loads(line) for line in out.getvalue().splitlines()]


def _hello(tmp_path):
    inst = micro_instance()
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
