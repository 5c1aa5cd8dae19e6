import io
import json
import math
import re
import sys
from unittest import mock

import numpy as np
import pytest

from helpers import OVERLONG_INT, micro_instance, needs_int_digit_limit
from jsspt import bridge, rule_server
from jsspt.bridge import (
    AGV_PHASE,
    OPERATION_PHASE,
    _scaled_texts,
    encode_message,
    hello_message,
    match_agv_line,
    operation_tail,
    serialize_observation,
)
from jsspt.engine import ScheduleState
from jsspt.errors import ProtocolError
from jsspt.instances import GenerationConfig, generate_instance, save_instance
from jsspt.rule_server import _read_canonical, main, serve


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
    # integer (a bool included) is a protocol error, and so is one the
    # server has not reached.
    lines = [_hello(tmp_path), {"type": "observation", "step": step, "phase": "operation"}]
    out = io.StringIO()
    stdin = io.StringIO("".join(json.dumps(line) + "\n" for line in lines))
    if type(step) is not int:
        with pytest.raises(ProtocolError, match="step must be an integer"):
            serve("SPT", "SCTA", tmp_path, stdin=stdin, stdout=out)
        return
    if step:
        with pytest.raises(ProtocolError, match=f"step {step}, but the server has played 0 "):
            serve("SPT", "SCTA", tmp_path, stdin=stdin, stdout=out)
        return
    serve("SPT", "SCTA", tmp_path, stdin=stdin, stdout=out)
    expected = encode_message({"type": "decision", "step": step, "choice": 0})
    assert out.getvalue().splitlines()[1] == expected


def test_an_operation_line_must_be_for_the_step_the_server_played(tmp_path):
    # The server advances on AGV lines only, so as an operation-only decider
    # it refuses the second step instead of answering from the first.
    out = io.StringIO()
    lines = [_hello(tmp_path), _observation(0, "operation"), _observation(1, "operation")]
    stdin = io.StringIO("".join(json.dumps(line) + "\n" for line in lines))
    with pytest.raises(ProtocolError,
                       match=r"operation line for step 1, but the server has played 0 steps"):
        serve("SPT", "SCTA", tmp_path, stdin=stdin, stdout=out)
    assert out.getvalue().splitlines()[1:] == ['{"type":"decision","step":0,"choice":0}']


@pytest.mark.parametrize("option", ["--op-rule", "--agv-rule"])
def test_main_rejects_an_unknown_rule_name_with_exit_2(tmp_path, capsys, option):
    argv = {"--op-rule": "SPT", "--agv-rule": "SCTA", "--instances-dir": str(tmp_path)}
    argv[option] = "BOGUS"
    with pytest.raises(SystemExit) as exited:
        main([text for pair in argv.items() for text in pair])
    assert exited.value.code == 2
    assert f"argument {option}: invalid choice: 'BOGUS'" in capsys.readouterr().err


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


@pytest.mark.parametrize("name", ["missing", "../micro", "/micro", "a/micro", "", "..", "micro\0",
                                  5, None, ["micro"]])
def test_hello_names_a_plain_stem_in_the_instances_dir(tmp_path, name):
    # micro.json sits one level above the instances dir, where "../micro"
    # would find it.
    hello = dict(_hello(tmp_path), instance=name)
    (tmp_path / "sub").mkdir()
    with pytest.raises(ProtocolError, match="hello instance"):
        _serve(tmp_path / "sub", hello)


def _observation(step, phase, **fields):
    return {"type": "observation", "schema": 1, "step": step, "phase": phase, **fields}


@pytest.mark.parametrize("job", ["a", 1.0, True, None, -1, 99])
def test_selected_job_must_be_an_unfinished_job(tmp_path, job):
    message = "must be an integer" if type(job) is not int else f"selected_job {job} "
    with pytest.raises(ProtocolError, match=message):
        _serve(tmp_path, _hello(tmp_path), _observation(0, "agv", selected_job=job))


@pytest.mark.parametrize("canonical", [True, False], ids=["matched", "parsed"])
def test_finished_job_is_a_protocol_error(tmp_path, canonical):
    # micro has one job of two operations (M1, then unload): the third AGV
    # line names a finished job.
    inst = micro_instance(idle_leg=1)
    save_instance(inst, tmp_path)
    line = serialize_observation(ScheduleState(inst), AGV_PHASE, selected_op=0)
    if not canonical:
        line = json.dumps(json.loads(line))  # with spaces after the separators
    assert bool(match_agv_line(line)) == canonical
    lines = [hello_message(inst)] + [_with_field(line, "step", step) for step in range(3)]
    with pytest.raises(ProtocolError, match="selected_job 0 is not an unfinished job"):
        serve("SPT", "SCTA", tmp_path, stdin=io.StringIO("".join(l + "\n" for l in lines)),
              stdout=io.StringIO())


@pytest.mark.parametrize("canonical", [True, False], ids=["matched", "parsed"])
def test_an_agv_line_must_be_for_the_step_the_server_played(
        tmp_path, monkeypatch, capsys, canonical):
    # Serving the AGV phase alone, the server follows the episode through its
    # AGV lines: a skipped or a repeated step exits 5 instead of putting the
    # server's state out of step with the client's.
    inst = micro_instance(idle_leg=1)
    save_instance(inst, tmp_path)
    line = serialize_observation(ScheduleState(inst), AGV_PHASE, selected_op=0)
    if not canonical:
        line = json.dumps(json.loads(line))  # with spaces after the separators
    assert bool(match_agv_line(line)) == canonical
    argv = ["--op-rule", "SPT", "--agv-rule", "SCTA", "--instances-dir", str(tmp_path)]
    for lines, step, played in (([_with_field(line, "step", 5)], 5, 0), ([line, line], 0, 1)):
        lines = [hello_message(inst), *lines]
        monkeypatch.setattr(sys, "stdin", io.StringIO("".join(l + "\n" for l in lines)))
        assert main(argv) == 5
        captured = capsys.readouterr()
        assert captured.err == (f"jsspt: protocol error: agv line for step {step}, "
                                f"but the server has played {played} steps\n")
        assert captured.out.splitlines()[1:] == ['{"type":"decision","step":0,"choice":0}'] * played


def _main(tmp_path, monkeypatch, *lines):
    monkeypatch.setattr(sys, "stdin", io.StringIO("".join(json.dumps(l) + "\n" for l in lines)))
    return main(["--op-rule", "SPT", "--agv-rule", "SCTA", "--instances-dir", str(tmp_path)])


def test_main_maps_bad_hello_and_job_to_exit_5(tmp_path, monkeypatch, capsys):
    hello = _hello(tmp_path)
    assert _main(tmp_path, monkeypatch, dict(hello, instance="missing")) == 5
    assert "'missing'" in capsys.readouterr().err
    assert _main(tmp_path, monkeypatch, hello, _observation(0, "agv", selected_job=99)) == 5
    assert capsys.readouterr().err.startswith("jsspt: protocol error: selected_job 99 ")


def test_main_skips_blank_lines_and_exits_0_at_end_of_input(tmp_path, monkeypatch, capsys):
    hello = json.dumps(_hello(tmp_path))
    op = json.dumps(_observation(0, "operation"))
    monkeypatch.setattr(sys, "stdin", io.StringIO(f"\n{hello}\n  \n\n{op}\n"))
    assert main(["--op-rule", "SPT", "--agv-rule", "SCTA", "--instances-dir", str(tmp_path)]) == 0
    assert capsys.readouterr().out == (
        '{"type":"ready","version":1}\n{"type":"decision","step":0,"choice":0}\n'
    )


def test_main_rejects_a_negative_seed_before_serving(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(_hello(tmp_path)) + "\n"))
    argv = ["--op-rule", "SPT", "--agv-rule", "SCTA", "--instances-dir", str(tmp_path)]
    assert main(argv + ["--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "jsspt: configuration error: --seed must be >= 0, got -1\n"
    assert captured.out == ""  # no ready line


def test_main_maps_document_and_io_errors_to_exit_3(tmp_path, monkeypatch, capsys):
    (tmp_path / "broken.json").write_text("{}")
    (tmp_path / "folder.json").mkdir()
    assert _main(tmp_path, monkeypatch, {"type": "hello", "instance": "broken"}) == 3
    assert capsys.readouterr().err.startswith("jsspt: document error: ")
    assert _main(tmp_path, monkeypatch, {"type": "hello", "instance": "folder"}) == 3
    assert capsys.readouterr().err.startswith("jsspt: io error: ")


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


def _reordered(line):
    """The same members with step before schema: valid JSON, not canonical."""
    return line.replace('"schema":1,"step":0,', '"step":0,"schema":1,', 1)


def test_cached_tail_parses_only_the_head(tmp_path, monkeypatch, two_instances):
    # A canonical line ending in the tail of the instance the hello loaded is
    # matched up to that tail and never parsed, the episode's first line
    # included; a valid line that is not canonical is parsed whole.
    a, b = two_instances
    line_a, line_b = _operation_line(a), _operation_line(b)
    odd_a, odd_b = _reordered(line_a), _reordered(line_b)
    tail_a, tail_b = operation_tail(a), operation_tail(b)
    assert tail_a != tail_b
    assert line_a.endswith(tail_a) and line_b.endswith(tail_b)
    assert odd_a != line_a and odd_a.endswith(tail_a)
    parsed = _serve_raw(
        tmp_path,
        [hello_message(a), line_a, line_a, odd_a, line_b, line_b, odd_b, hello_message(b), line_b,
         line_a],
        monkeypatch)
    assert parsed == [
        hello_message(a),
        odd_a,
        line_b,  # another instance's tail parses in full, every time
        line_b,
        odd_b,
        hello_message(b),
        line_a,  # a hello replaces the tail
    ]


@pytest.mark.parametrize("head", ['{"type":"observation","step":0,', "{"], ids=["broken", "brace"])
def test_line_with_cached_tail_and_bad_head_is_a_protocol_error(
        tmp_path, monkeypatch, two_instances, head):
    a = two_instances[0]
    with pytest.raises(ProtocolError):
        _serve_raw(tmp_path, [hello_message(a), head + operation_tail(a)], monkeypatch)


def test_a_hello_builds_only_the_operation_tail(tmp_path, monkeypatch):
    # The server matches lines against the tail and encodes none, so a hello
    # builds neither the encoder's fragments nor its buffers.
    loaded = []
    real_load = rule_server.load_instance

    def load_instance(path):
        loaded.append(real_load(path))
        return loaded[-1]

    monkeypatch.setattr(rule_server, "load_instance", load_instance)
    assert _serve(tmp_path, _hello(tmp_path)) == [{"type": "ready", "version": 1}]
    (instance,) = loaded
    built = {name for name in vars(instance) if name.startswith("_")}
    assert built == {"_operation_tail"}
    assert instance.__dict__["_operation_tail"] == operation_tail(micro_instance(idle_leg=1))


HEAD = '{"type":"observation","schema":1,"step":0,"phase":"operation"'


def test_uncached_tail_parses_in_full(tmp_path, monkeypatch, two_instances):
    line = HEAD + ',"precedence":[[0,1]],"assignment":[],"extra":1}'
    parsed = _serve_raw(tmp_path, [hello_message(two_instances[0]), line, line], monkeypatch)
    assert parsed[1:] == [line, line]


# -- over-long integers ------------------------------------------------------------

def _with_field(line, name, text):
    """The line with its first field of that name and value 0, canonical or
    spaced, set to text."""
    return line.replace(f'"{name}":0,', f'"{name}":{text},', 1).replace(
        f'"{name}": 0,', f'"{name}": {text},', 1)


@needs_int_digit_limit
@pytest.mark.parametrize("phase, field",
                         [(OPERATION_PHASE, "step"), (AGV_PHASE, "step"), (AGV_PHASE, "selected_job")],
                         ids=[OPERATION_PHASE, AGV_PHASE, "agv-selected_job"])
@pytest.mark.parametrize("canonical", [True, False], ids=["matched", "parsed"])
def test_overlong_step_exits_5(tmp_path, monkeypatch, capsys, two_instances, phase, field,
                               canonical):
    # A step or selected job of 5,000 digits is valid JSON that neither
    # json.loads nor int() reads: the grammars' digit bound hands the line to
    # the parse, which exits 5 naming the length, as for any other line.
    inst = two_instances[0]
    if phase == OPERATION_PHASE:
        line = _operation_line(inst)
    else:
        line = serialize_observation(ScheduleState(inst), AGV_PHASE, selected_op=0)
    if not canonical:
        line = json.dumps(json.loads(line))  # with spaces after the separators
    assert bool(_read_canonical(line, operation_tail(inst))) == canonical
    line = _with_field(line, field, OVERLONG_INT)
    assert OVERLONG_INT in line
    lines = [hello_message(inst), line]
    monkeypatch.setattr(sys, "stdin", io.StringIO("".join(l + "\n" for l in lines)))
    assert main(["--op-rule", "SPT", "--agv-rule", "SCTA", "--instances-dir", str(tmp_path)]) == 5
    err = capsys.readouterr().err
    assert err.startswith("jsspt: protocol error: malformed protocol line: ")
    assert "5000 digits" in err


@needs_int_digit_limit
@pytest.mark.parametrize("spaced", [False, True], ids=["canonical", "spaced"])
def test_overlong_mask_entry_exits_5(tmp_path, monkeypatch, capsys, spaced):
    # The server never reads the mask, but a canonical line may not hold an
    # integer json.loads rejects either: the grammar's digit bound hands it to
    # the parse, which exits 5 as it does for the spaced line.
    inst = generate_instance(GenerationConfig(n=4, m=3, k=2, seed=3))
    save_instance(inst, tmp_path)
    line = serialize_observation(ScheduleState(inst), AGV_PHASE, selected_op=0)
    mask = '"mask": [' if spaced else '"mask":['
    line = re.sub(r'"mask":\[[0-9]+', lambda _: mask + OVERLONG_INT, line, count=1)
    assert OVERLONG_INT in line and match_agv_line(line) is None
    lines = [hello_message(inst), line]
    monkeypatch.setattr(sys, "stdin", io.StringIO("".join(l + "\n" for l in lines)))
    assert main(["--op-rule", "SPT", "--agv-rule", "SCTA", "--instances-dir", str(tmp_path)]) == 5
    assert capsys.readouterr().err.startswith("jsspt: protocol error: ")


# -- strict hello ----------------------------------------------------------------

@pytest.mark.parametrize(
    "field, value",
    [("schema", 2), ("version", 7), ("version", True), ("n", 99), ("n", True), ("n", 1.0),
     ("m", 0), ("m", "1"), ("k", -3), ("k", None)],
)
def test_hello_must_match_protocol_and_instance(tmp_path, field, value):
    # micro is 1x1x1, so true and 1.0 equal its sizes but are not plain ints.
    hello = dict(_hello(tmp_path), **{field: value})
    with pytest.raises(ProtocolError, match=f"hello {field} must be 1 for 'micro', got {value!r}"):
        _serve(tmp_path, hello)


@pytest.mark.parametrize("field", ["schema", "version", "n", "m", "k"])
def test_hello_without_a_field_is_a_protocol_error(tmp_path, field):
    hello = _hello(tmp_path)
    del hello[field]
    with pytest.raises(ProtocolError, match=f"hello line has no '{field}' field"):
        _serve(tmp_path, hello)


def test_main_maps_mismatched_hello_to_exit_5(tmp_path, monkeypatch, capsys):
    hello = dict(_hello(tmp_path), version=7, n=99, m=0, k=-3)
    assert _main(tmp_path, monkeypatch, hello) == 5
    assert capsys.readouterr().err == "jsspt: protocol error: hello version must be 1 for 'micro', got 7\n"


# -- grammar atoms ------------------------------------------------------------------

def test_every_scaled_text_the_encoder_writes_fits_the_grammar():
    # The grammars accept a scaled feature only in the shapes _scaled_texts
    # writes; every text it writes must still match.
    texts = set()
    for span in range(1, 301):  # every num
        texts.update(_scaled_texts(range(span + 1), 0, span))
    rng = np.random.default_rng(30)
    for span in range(128, 100_001, 128):  # spans with 7th-digit ties
        tie = span // math.gcd(2_000_000, span)
        nums = [0, 1, tie, 3 * tie, span - 1, span, *rng.integers(0, span + 1, 8).tolist()]
        texts.update(_scaled_texts([num for num in nums if num <= span], 0, span))
    for span in rng.integers(100_001, 10**8, 300).tolist():  # below 1e-4
        texts.update(_scaled_texts([0, 1, *rng.integers(1, span // 10**4, 30).tolist(), span],
                                   0, span))
    for n in range(1, 1001):  # machine ratios
        texts.update(_scaled_texts(range(n + 1), 0, n))
    assert any(text.endswith("e-05") for text in texts)
    assert any(text.endswith("e-06") for text in texts)
    scaled = re.compile(bridge._SCALED).fullmatch
    assert [text for text in texts if not scaled(text)] == []


def _served(tmp_path, lines, fast):
    """What serve writes for the lines and the error it ends with, with the
    grammars on, or off so that every line is parsed."""
    out = io.StringIO()
    with mock.patch.object(rule_server, "match_operation_head",
                           bridge.match_operation_head if fast else lambda *args: None), \
            mock.patch.object(rule_server, "match_agv_line",
                              bridge.match_agv_line if fast else lambda *args: None):
        try:
            serve("SPT", "SCTA", tmp_path, stdin=io.StringIO("".join(l + "\n" for l in lines)),
                  stdout=out)
        except ProtocolError as exc:
            return out.getvalue(), str(exc)
    return out.getvalue(), None


# JSON numbers of shapes the encoders never write as a scaled feature, and a
# raw bound with a leading zero, which is not JSON.
FOREIGN_SCALED = ["1e2", "0.5e-3", "0.1234567", "2.0", "1.00", "5e-07", "1E-05"]


@pytest.mark.parametrize("text", [*FOREIGN_SCALED, "raw 01"])
def test_a_number_of_a_shape_the_encoder_never_writes_is_parsed(tmp_path, text):
    inst = generate_instance(GenerationConfig(n=4, m=3, k=2, seed=3))
    save_instance(inst, tmp_path)
    state = ScheduleState(inst)
    first, agv = _operation_line(inst), serialize_observation(state, AGV_PHASE, selected_op=0)
    tail = operation_tail(inst)
    assert _read_canonical(first, tail) and _read_canonical(agv, tail)
    # The first operation row's raw bound or scaled bound, the first machine
    # ratio, and the AGV line's first scaled value.
    if text == "raw 01":
        edits = [re.sub(r'("operations":\[\[[0-9]+,[0-9]+,[0-9]+,[01],)[0-9]+',
                        r"\g<1>01", first, count=1)]
    else:
        edits = [
            re.sub(r'("operations":\[\[(?:[0-9]+,){5})[^\]]+', rf"\g<1>{text}", first, count=1),
            re.sub(r'("machines":\[\[[0-9]+,0,)[^\]]+', rf"\g<1>{text}", first, count=1),
            re.sub(r'("agvs":\[\[(?:[0-9]+,){7})[^,]+', rf"\g<1>{text}", agv, count=1),
        ]
    for line in edits:
        assert text.removeprefix("raw ") in line and line not in (first, agv)
        assert _read_canonical(line, tail) is None
        lines = [hello_message(inst), line]
        assert _served(tmp_path, lines, fast=True) == _served(tmp_path, lines, fast=False)
