import io
import json
import re
import sys

import pytest

from helpers import OVERLONG_INT, micro_instance, needs_int_digit_limit
from jsspt import rule_server
from jsspt.bridge import (
    AGV_PHASE,
    OPERATION_PHASE,
    encode_message,
    hello_message,
    match_agv_line,
    operation_tail,
    serialize_observation,
)
from jsspt.engine import ScheduleState
from jsspt.errors import ProtocolError
from jsspt.instances import GenerationConfig, generate_instance, save_instance
from jsspt.rule_server import main, serve


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
    lines = [hello_message(inst)] + [line] * 3
    with pytest.raises(ProtocolError, match="selected_job 0 is not an unfinished job"):
        serve("SPT", "SCTA", tmp_path, stdin=io.StringIO("".join(l + "\n" for l in lines)),
              stdout=io.StringIO())


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

def _with_step(line, step_text):
    return line.replace('"step":0,', f'"step":{step_text},', 1).replace(
        '"step": 0,', f'"step": {step_text},', 1)


@needs_int_digit_limit
@pytest.mark.parametrize("phase", [OPERATION_PHASE, AGV_PHASE])
@pytest.mark.parametrize("canonical", [True, False], ids=["matched", "parsed"])
def test_overlong_step_exits_5(tmp_path, monkeypatch, capsys, two_instances, phase, canonical):
    # A step of 5,000 digits is valid JSON that neither json.loads nor int()
    # reads: the server exits 5, whether the line takes a grammar or the parse.
    inst = two_instances[0]
    state = ScheduleState(inst)
    first = _operation_line(inst)
    if phase == OPERATION_PHASE:
        line = _with_step(first, OVERLONG_INT)
        # A later line ending in the first line's tail takes the grammar.
        lines = [hello_message(inst), first, line] if canonical else [hello_message(inst), line]
    else:
        line = serialize_observation(state, AGV_PHASE, selected_op=0)
        if not canonical:
            line = json.dumps(json.loads(line))  # with spaces after the separators
        line = _with_step(line, OVERLONG_INT)
        lines = [hello_message(inst), line]
    assert OVERLONG_INT in line
    monkeypatch.setattr(sys, "stdin", io.StringIO("".join(l + "\n" for l in lines)))
    assert main(["--op-rule", "SPT", "--agv-rule", "SCTA", "--instances-dir", str(tmp_path)]) == 5
    err = capsys.readouterr().err
    assert err.startswith("jsspt: protocol error: ")
    if canonical:
        assert "observation step has 5000 digits" in err


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
