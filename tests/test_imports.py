"""numpy is loaded only by the paths that use it: generating an instance, a
RANDOM rule's draws and the regression fits. Each check runs in a fresh
interpreter against this checkout's src/, since this test process has numpy
loaded: `import jsspt` loads neither numpy nor scipy, a rule server serving a
deterministic pair over a whole transcript loads no numpy, a RANDOM pair
loads it and sends the decisions its recorded run made, a command loads it
only if it generates or fits, and every name that `jsspt` exported before
its regression names became lazy still resolves, `vif` aside."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import RecordingPolicy
from jsspt.bridge import hello_message, run_episode
from jsspt.cli import main
from jsspt.instances import GenerationConfig, generate_instance, save_instance

SRC = Path(__file__).resolve().parents[1] / "src"


def fresh(code: str, *args) -> dict:
    """The JSON object that `code` prints last, run by a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", code, *map(str, args)],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True, check=True,
    ).stdout
    return json.loads(out.splitlines()[-1])


LOADED = "sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy'))"


def test_import_loads_neither_numpy_nor_scipy():
    report = fresh(f"import json, sys, jsspt; print(json.dumps({{'loaded': {LOADED}, "
                   "'regression': 'jsspt.regression' in sys.modules}))")
    assert report == {"loaded": [], "regression": False}


SERVE = f"""
import io, json, sys
from pathlib import Path
from jsspt.rule_server import serve

op_rule, agv_rule, seed, docs, transcript = sys.argv[1:]
out = io.StringIO()
with open(transcript, encoding="utf-8") as stdin:
    serve(op_rule, agv_rule, Path(docs), int(seed), stdin=stdin, stdout=out)
print(json.dumps({{"loaded": {LOADED}, "replies": out.getvalue().splitlines()}}))
"""


@pytest.mark.parametrize("op_rule, agv_rule, numpy_loaded", [
    ("SPT", "SCTA", False),
    ("FDD/MWR", "SCPT", False),
    ("RANDOM", "SPUT", True),
    ("LWR", "RANDOM", True),
])
def test_a_served_transcript_loads_numpy_only_for_a_random_pair(
        tmp_path, op_rule, agv_rule, numpy_loaded):
    instance = generate_instance(GenerationConfig(n=6, m=4, k=3, seed=5))
    save_instance(instance, tmp_path)
    recorder = RecordingPolicy(op_rule, agv_rule, seed=11)
    _, decisions = run_episode(instance, recorder, recorder)
    transcript = tmp_path / "transcript.txt"
    lines = [hello_message(instance), *recorder.lines, recorder.terminal]
    transcript.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    report = fresh(SERVE, op_rule, agv_rule, 11, tmp_path, transcript)
    assert bool(report["loaded"]) is numpy_loaded
    assert all(m.split(".")[0] == "numpy" for m in report["loaded"])
    ready, *replies = map(json.loads, report["replies"])
    assert ready == {"type": "ready", "version": 1}
    choices = [reply["choice"] for reply in replies]
    assert list(zip(choices[::2], choices[1::2])) == decisions


COMMAND = f"""
import json, sys
from jsspt.cli import main

code = main(sys.argv[1:])
print(json.dumps({{"code": code, "loaded": {LOADED}}}))
"""


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A 2x2x1 instance in its own directory, and a grid results table."""
    root = tmp_path_factory.mktemp("commands")
    (root / "docs").mkdir()
    save_instance(generate_instance(GenerationConfig(n=2, m=2, k=1, seed=5)), root / "docs")
    assert main(["grid", "--sizes", "3x2", "--rhos", "0.5,1.0", "--instances-per-cell", "1",
                 "--out", str(root / "grid")]) == 0
    return root


@pytest.mark.parametrize("argv, numpy_loaded", [
    ("solve --instance {docs}/2x2x1-seed5.json --op-rule SPT --agv-rule SCTA", False),
    ("oracle --instance {docs}/2x2x1-seed5.json", False),
    ("eval-external --instances {docs} --out {out}/external.csv --cmd", False),
    ("gen --n 3 --m 2 --k 1 --out {out}", True),
    ("bench --sizes 3x2 --rhos 0.5 --instances 1 --solvers SPT+SCTA --out {out}", True),
    ("grid --sizes 3x2 --rhos 0.5 --instances-per-cell 1 --out {out}", True),
    ("regress --results {grid}/grid_results.csv --solver SPT+SCTA --baseline MOR+SCTA", True),
], ids=lambda value: value.split()[0] if isinstance(value, str) else None)
def test_a_command_loads_numpy_only_to_generate_or_fit(inputs, tmp_path, argv, numpy_loaded):
    args = argv.format(docs=inputs / "docs", grid=inputs / "grid", out=tmp_path).split()
    if args[0] == "eval-external":
        args.append(f"{sys.executable} -m jsspt.rule_server --op-rule SPT --agv-rule SCTA "
                    f"--instances-dir {inputs / 'docs'}")
    report = fresh(COMMAND, *args)
    assert report["code"] == 0
    assert bool(report["loaded"]) is numpy_loaded
    assert all(m.split(".")[0] == "numpy" for m in report["loaded"])


# Every public name of `jsspt` after `import jsspt` before its regression
# names became lazy, the submodules it imported included; `vif` has since
# left the package, since each VIF is read off the fit.
EXPORTED = (
    "ALL_COMBOS", "ActionError", "AgvRule", "BottleneckFeatures", "ConfigurationError",
    "DocumentError", "GRID_BINS", "GenerationConfig", "Instance", "JssptError", "LOAD",
    "MetricError", "OpRow", "OpSchedule", "OperationRule", "OracleLimitError", "OracleResult",
    "ProtocolError", "Regime", "RegressionReport", "ResultRecord", "ScheduleResult",
    "ScheduleState", "StateError", "TransportError", "UNLOAD", "aggregate_ci",
    "bottleneck_features", "brute_force_oracle", "build_result", "classify_regime", "combo_id",
    "engine", "errors", "features", "generate_instance", "instance_from_document",
    "instance_to_document", "instances", "load_instance", "lower_bound", "machine_index",
    "make_record", "metrics", "ols_fit", "oracle", "parse_combo", "play", "regression", "rho",
    "rpi", "rules", "save_instance", "select_agv", "select_operation", "solve", "sweep",
    "temporal_dominance", "terminal_reward", "validate_schedule", "win", "z_normalize",
)

RESOLVE = """
import json, sys
import jsspt

names = sys.argv[1:]
missing = [name for name in names if not hasattr(jsspt, name)]
from jsspt import regression
report = {
    "missing": missing,
    "regression": [name for name in ("RegressionReport", "aggregate_ci", "ols_fit", "z_normalize")
                   if getattr(jsspt, name) is not getattr(regression, name)],
    "unknown": hasattr(jsspt, "no_such_name"),
    "version": jsspt.__version__,
}
print(json.dumps(report))
"""


def test_every_name_jsspt_exported_still_resolves():
    report = fresh(RESOLVE, *EXPORTED)
    assert report == {"missing": [], "regression": [], "unknown": False, "version": "0.1.0"}
