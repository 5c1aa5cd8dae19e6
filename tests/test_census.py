"""The census: every public function of the package is entered by what the
program runs, or is on ALLOWED with a reason.

The commands run in process under sys.setprofile:
- gen, solve --all-combos, solve with RANDOM vehicles and --out, and the
  load_result + validate_schedule check of that schedule;
- one failing command per entry point: gen with a negative seed through
  main, and a hello naming a missing instance through rule_server.main;
- bench --plan with --solvers; grid, then regress on its table;
- eval-external against a rule_server child; oracle;
- one whole episode served by rule_server.serve from a recorded transcript
  (the eval-external child is another process, so its serve is not seen).
A failure case is pinned, with its exit code and message, by its command's
tests; it joins this list only if it enters a public function that no
command here enters.
"""

from __future__ import annotations

import importlib
import inspect
import io
import json
import pkgutil
import sys

import jsspt
from helpers import RecordingPolicy
from jsspt import rule_server
from jsspt.bridge import hello_message, run_episode
from jsspt.cli import main
from jsspt.engine import load_result, validate_schedule
from jsspt.instances import load_instance

# Public names the commands never enter, each with the reason it stays.
ALLOWED = {
    name: "the v1 encoders' test reference; perfbench/spans.py wraps it"
    for name in (
        "features.op_lower_bound",
        "features.build_graph",
        "features.agv_features",
        "features.raw_transport_times",
    )
} | {
    name: "perfbench's checks rebuild a round's instances through it"
    for name in ("harness.generate_bench_instances", "harness.generate_grid_instances")
}


def public_functions() -> dict:
    """{dotted name: code object} of every function, and every method,
    property and cached property of a class, without a leading underscore
    that a module of the package defines."""
    found = {}
    for info in pkgutil.iter_modules(jsspt.__path__):
        module = importlib.import_module(f"jsspt.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            # A private class's public methods are public through its subclasses.
            if inspect.isclass(obj):
                members = vars(obj).items()
            elif not name.startswith("_"):
                members = [("", obj)]
            else:
                continue
            for attr, member in members:
                if attr.startswith("_"):
                    continue
                # property, cached_property, staticmethod, classmethod
                for wrapped in ("fget", "func", "__func__"):
                    member = getattr(member, wrapped, member)
                if inspect.isfunction(member):
                    found[".".join(filter(None, (info.name, name, attr)))] = member.__code__
    return found


def _run_commands(root, capsys, monkeypatch) -> None:
    def cli(*argv, code=0):
        assert main([str(a) for a in argv]) == code, capsys.readouterr().err

    smoke = root / "smoke"
    instance = smoke / "4x3x2-seed1.json"
    cli("gen", "--n", 4, "--m", 3, "--k", 2, "--seed", 1, "--out", smoke)
    cli("solve", "--instance", instance, "--all-combos")
    cli("solve", "--instance", instance, "--op-rule", "SPT", "--agv-rule", "RANDOM",
        "--seed", 3, "--out", smoke / "spt-random.json")
    assert validate_schedule(load_result(smoke / "spt-random.json"), load_instance(instance)) == []
    cli("gen", "--n", 4, "--m", 3, "--k", 2, "--seed", -1, "--out", smoke, code=2)
    monkeypatch.setattr(sys, "stdin", io.StringIO('{"type":"hello","instance":"missing"}\n'))
    argv = ["--op-rule", "SPT", "--agv-rule", "SCTA", "--instances-dir", str(smoke)]
    assert rule_server.main(argv) == 5, capsys.readouterr().err
    plan = root / "plan.json"
    plan.write_text(json.dumps({"sizes": [[3, 2]], "rhos": [0.5, 1.0], "seed": 2}))
    cli("bench", "--plan", plan, "--solvers", "SPT+SCTA,MOR+SCTA", "--instances", 2,
        "--out", root / "bench")
    cli("grid", "--sizes", "3x2", "--rhos", "0.4,0.8", "--instances-per-cell", 1,
        "--seed", 4, "--out", root / "grid")
    cli("regress", "--results", root / "grid" / "grid_results.csv",
        "--solver", "SPT+SCTA", "--baseline", "MOR+SCTA", "--out", root / "regress.txt")
    server = (f"{sys.executable} -m jsspt.rule_server --op-rule LPT --agv-rule SCPT "
              f"--instances-dir {smoke}")
    cli("eval-external", "--instances", instance, "--cmd", server, "--timeout", 20,
        "--out", root / "external.csv")
    cli("gen", "--n", 2, "--m", 2, "--k", 1, "--seed", 5, "--out", root / "tiny")
    cli("oracle", "--instance", root / "tiny" / "2x2x1-seed5.json")


def test_every_public_function_is_entered_or_allowed(tmp_path, capsys, monkeypatch):
    # A transcript of one whole episode, recorded before the census starts.
    smoke = tmp_path / "smoke"
    assert main(["gen", "--n", "3", "--m", "2", "--k", "2", "--seed", "6", "--out", str(smoke)]) == 0
    recorded = load_instance(smoke / "3x2x2-seed6.json")
    recorder = RecordingPolicy("SPT", "SCTA")
    _, decisions = run_episode(recorded, recorder, recorder)
    transcript = "\n".join([hello_message(recorded), *recorder.lines, recorder.terminal]) + "\n"

    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        _run_commands(tmp_path, capsys, monkeypatch)
        replies = io.StringIO()
        rule_server.serve("SPT", "SCTA", smoke, stdin=io.StringIO(transcript), stdout=replies)
    finally:
        sys.setprofile(previous)

    replies = [json.loads(line) for line in replies.getvalue().splitlines()]
    assert replies[0] == {"type": "ready", "version": 1}
    assert [reply["choice"] for reply in replies[1:]] == [c for step in decisions for c in step]
    never = {name for name, code in public_functions().items() if code not in entered}
    unused = sorted(never - ALLOWED.keys())
    assert not unused, f"public, and no command enters it: {unused}"
    stale = sorted(ALLOWED.keys() - never)
    assert not stale, f"allowed, yet a command enters it: {stale}"
