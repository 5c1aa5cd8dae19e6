import json
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import micro_instance
from jsspt.cli import main
from jsspt.instances import instance_to_document, load_instance, save_instance


def run_cli(*argv):
    return main(list(argv))


def test_gen_writes_loadable_instances(tmp_path, capsys):
    code = run_cli(
        "gen", "--n", "4", "--m", "3", "--k", "2", "--count", "2",
        "--seed", "5", "--out", str(tmp_path),
    )
    assert code == 0
    paths = sorted(tmp_path.glob("*.json"))
    assert len(paths) == 2
    inst = load_instance(paths[0])
    assert inst.n == 4 and inst.m == 3


def test_gen_rejects_bad_config(tmp_path, capsys):
    code = run_cli("gen", "--n", "0", "--m", "3", "--out", str(tmp_path))
    assert code == 2
    assert "configuration error" in capsys.readouterr().err


GEN = ("gen", "--n", "4", "--m", "3", "--k", "2")


@pytest.mark.parametrize(
    "argv, named",
    [
        (GEN + ("--seed", "-1"), "seed must be >= 0, got -1"),
        (GEN + ("--seed", "-1", "--count", "3"), "seed must be >= 0, got -1"),
        (GEN + ("--count", "0"), "--count must be >= 1, got 0"),
        (("bench", "--sizes", "3x2", "--rhos", "0.5", "--instances", "1", "--seed", "-1"),
         "seed must be >= 0, got -1"),
        (("grid", "--sizes", "3x2", "--instances-per-cell", "1", "--seed", "-2"),
         "seed must be >= 0, got -2"),
    ],
    ids=["gen-seed", "gen-seed-count-3", "gen-count-0", "bench-seed", "grid-seed"],
)
def test_negative_seed_or_zero_count_exits_2_before_writing(tmp_path, capsys, argv, named):
    assert run_cli(*argv, "--out", str(tmp_path)) == 2
    assert f"jsspt: configuration error: {named}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("combos", [(), ("--all-combos",)])
def test_solve_rejects_a_negative_seed(tmp_path, capsys, combos):
    path = save_instance(micro_instance(idle_leg=1), tmp_path)
    assert run_cli("solve", "--instance", str(path), "--seed", "-1", *combos) == 2
    captured = capsys.readouterr()
    assert "jsspt: configuration error: --seed must be >= 0, got -1" in captured.err
    assert captured.out == ""


def test_bench_plan_rejects_a_negative_seed(tmp_path, capsys):
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps({**PLAN_FIELDS, "seed": -3}))
    assert run_cli("bench", "--plan", str(plan_path), "--out", str(tmp_path)) == 2
    assert "jsspt: configuration error: seed must be >= 0, got -3" in capsys.readouterr().err
    assert not (tmp_path / "results.csv").exists()


@pytest.mark.parametrize("ident", ["a\rb", "x/y", 5])
def test_solve_rejects_an_id_that_is_not_a_plain_file_stem(tmp_path, capsys, ident):
    doc = instance_to_document(micro_instance(idle_leg=1))
    path = tmp_path / "micro.json"
    path.write_text(json.dumps({**doc, "id": ident}))
    assert run_cli("solve", "--instance", str(path)) == 3
    assert "jsspt: document error: id: must be a plain file stem" in capsys.readouterr().err


def test_solve_single_combo(tmp_path, capsys):
    path = save_instance(micro_instance(idle_leg=1), tmp_path)
    out = tmp_path / "schedule.json"
    code = run_cli(
        "solve", "--instance", str(path),
        "--op-rule", "SPT", "--agv-rule", "SCTA", "--out", str(out),
    )
    assert code == 0
    assert "SPT+SCTA,10" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert doc["makespan"] == 10
    assert len(doc["rows"]) == 2


def test_solve_cli_sweeps_all_combos(tmp_path, capsys):
    path = save_instance(micro_instance(idle_leg=1), tmp_path)
    code = run_cli("solve", "--instance", str(path), "--all-combos")
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 41
    assert lines[-1] == "best,SPT+RANDOM,10"  # first of the all-equal combos


def test_solve_missing_instance(tmp_path, capsys):
    code = run_cli("solve", "--instance", str(tmp_path / "nope.json"))
    assert code == 3
    assert "io error" in capsys.readouterr().err


def test_solve_rejects_times_above_time_max(tmp_path, capsys):
    doc = {
        "id": "slow", "n": 3, "m": 2, "k": 2, "seed": 0,
        "routings": [[0, 1], [1, 0], [0, 1]],
        "proc_times": [[150, 150, 0]] * 3,
        "transport": [[0 if a == b else 1 for b in range(4)] for a in range(4)],
    }
    path = tmp_path / "slow.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = run_cli("solve", "--instance", str(path), "--op-rule", "SPT", "--agv-rule", "SCTA")
    assert code == 3
    assert "proc_times[0][0]: must be <= 100, got 150" in capsys.readouterr().err


def test_eval_external_rejects_zero_transport_document(tmp_path, capsys):
    # Rejected at load, before any episode runs: the metrics could only
    # reject it after the whole episode (exit 4).
    doc = {
        "id": "flat", "n": 3, "m": 2, "k": 1, "seed": 0,
        "routings": [[0, 1], [1, 0], [0, 1]],
        "proc_times": [[5, 7, 0]] * 3,
        "transport": [[0] * 4 for _ in range(4)],
    }
    (tmp_path / "flat.json").write_text(json.dumps(doc), encoding="utf-8")
    server = (
        f"{sys.executable} -m jsspt.rule_server --op-rule SPT --agv-rule SCTA "
        f"--instances-dir {tmp_path}"
    )
    out_file = tmp_path / "out.csv"
    code = run_cli(
        "eval-external", "--instances", str(tmp_path), "--cmd", server,
        "--timeout", "20", "--out", str(out_file),
    )
    assert code == 3
    assert "document error: transport[0][1]: must be >= 1, got 0" in capsys.readouterr().err
    assert not out_file.exists()


def test_bench_cli(tmp_path, capsys):
    code = run_cli(
        "bench", "--sizes", "3x2", "--rhos", "0.4,1.0", "--instances", "2",
        "--solvers", "SPT+SCTA,MOR+SCTA", "--seed", "3", "--out", str(tmp_path),
    )
    assert code == 0
    results = (tmp_path / "results.csv").read_text().splitlines()
    assert results[0].startswith("instance,solver,makespan")
    assert len(results) == 1 + 2 * 2 * 2  # header + configs x instances x solvers
    summary = (tmp_path / "summary.csv").read_text().splitlines()
    assert len(summary) == 3
    assert "global best combo" in capsys.readouterr().out


def test_bench_with_plan_file(tmp_path, capsys):
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(
        json.dumps(
            {
                "sizes": [[2, 2]],
                "rhos": [0.5],
                "instances_per_config": 1,
                "solvers": ["SPT+SCTA"],
                "seed": 1,
            }
        )
    )
    code = run_cli("bench", "--plan", str(plan_path), "--out", str(tmp_path))
    assert code == 0
    assert len((tmp_path / "results.csv").read_text().splitlines()) == 2


def test_grid_cli(tmp_path, capsys):
    code = run_cli(
        "grid", "--sizes", "2x2", "--rhos", "0.5", "--instances-per-cell", "1",
        "--solver-a", "SPT+SCTA", "--solver-b", "MOR+SCTA",
        "--seed", "2", "--out", str(tmp_path),
    )
    assert code == 0
    assert (tmp_path / "grid_results.csv").exists()
    assert (tmp_path / "grid_cells.csv").exists()
    heatmap = (tmp_path / "heatmap.csv").read_text().splitlines()
    assert heatmap[0] == "tau,0.5"
    assert len(heatmap) == 22


def test_grid_rejects_nonpositive_scarcity(tmp_path, capsys):
    code = run_cli(
        "grid", "--sizes", "4x3", "--rhos=-0.5,0.4", "--instances-per-cell", "1",
        "--out", str(tmp_path),
    )
    assert code == 2
    assert "jsspt: configuration error: scarcity values must be positive" in capsys.readouterr().err
    assert not (tmp_path / "heatmap.csv").exists()


@pytest.mark.parametrize(
    "rhos, named",
    [("0.2,0.2000001", "rho 0.2000001 repeats heatmap column 0.2"),
     ("0.5,0.5", "rho 0.5 repeats heatmap column 0.5")],
    ids=["same-text", "repeated"],
)
def test_grid_rejects_scarcity_values_sharing_a_column(tmp_path, capsys, rhos, named):
    code = run_cli(
        "grid", "--sizes", "2x2", "--rhos", rhos, "--instances-per-cell", "1",
        "--out", str(tmp_path),
    )
    assert code == 2
    assert f"jsspt: configuration error: {named}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_grid_rejects_zero_size(tmp_path, capsys):
    code = run_cli("grid", "--sizes", "0x5", "--instances-per-cell", "1", "--out", str(tmp_path))
    assert code == 2
    assert "jsspt: configuration error: invalid size 0x5" in capsys.readouterr().err


def test_bench_rejects_unknown_solver_on_every_path(tmp_path, capsys):
    code = run_cli("bench", "--sizes", "3x2", "--solvers", "SPT+BOGUS", "--out", str(tmp_path))
    assert code == 2
    assert "jsspt: configuration error: unknown solver in plan: 'SPT+BOGUS'" in capsys.readouterr().err
    code = run_cli("bench", "--sizes", "3x2", "--solvers", "", "--out", str(tmp_path))
    assert code == 2
    assert "jsspt: configuration error:" in capsys.readouterr().err
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps({"sizes": [[3, 2]], "solvers": ["SPT+BOGUS"]}))
    code = run_cli("bench", "--plan", str(plan_path), "--out", str(tmp_path))
    assert code == 2
    assert "unknown solver in plan: 'SPT+BOGUS'" in capsys.readouterr().err
    code = run_cli("grid", "--solver-a", "SPT+BOGUS", "--out", str(tmp_path))
    assert code == 2
    assert "unknown solver in plan: 'SPT+BOGUS'" in capsys.readouterr().err
    assert not (tmp_path / "results.csv").exists()


def test_solve_rejects_non_integer_fields(tmp_path, capsys):
    doc = json.loads((save_instance(micro_instance(idle_leg=1), tmp_path)).read_text())
    doc["k"] = True
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = run_cli("solve", "--instance", str(path))
    assert code == 3
    assert "jsspt: document error: k: must be an integer, got True" in capsys.readouterr().err


def test_regress_cli(tmp_path, capsys):
    code = run_cli(
        "grid", "--sizes", "3x2", "--rhos", "0.4,0.8", "--instances-per-cell", "1",
        "--solver-a", "SPT+SCTA", "--solver-b", "MOR+SCTA",
        "--seed", "4", "--out", str(tmp_path),
    )
    assert code == 0
    report_path = tmp_path / "report.txt"
    code = run_cli(
        "regress", "--results", str(tmp_path / "grid_results.csv"),
        "--solver", "SPT+SCTA", "--baseline", "MOR+SCTA", "--out", str(report_path),
    )
    assert code == 0
    text = report_path.read_text()
    assert text.count("model,") == 5
    assert "R2," in text and "VIF" in text


@pytest.mark.parametrize(
    "mangle, column, named",
    [
        ("set-79.5", "makespan", "line 2, column 'makespan': must be an integer, got '79.5'"),
        ("drop-column", "seed", "line 1: no 'seed' column"),
        ("cut-row", "tau", "line 2: the row ends before column 'tau'"),
        ("extend-row", "seed", "line 2: the row runs past column 'seed'"),
        ("repeat-row", "instance", "line 3: instance '{0}', solver '{1}' repeats line 2"),
        ("set-nan", "tau", "line 2, column 'tau': must be finite, got 'nan'"),
        ("set-inf", "rho", "line 2, column 'rho': must be finite, got 'inf'"),
    ],
    ids=["float-makespan", "no-seed-column", "short-row", "long-row", "repeated-pair",
         "nan-tau", "inf-rho"],
)
def test_regress_rejects_malformed_results_table(tmp_path, capsys, mangle, column, named):
    code = run_cli(
        "grid", "--sizes", "2x2", "--rhos", "0.5", "--instances-per-cell", "1",
        "--seed", "2", "--out", str(tmp_path),
    )
    assert code == 0
    path = tmp_path / "grid_results.csv"
    rows = [line.split(",") for line in path.read_text().splitlines()]
    at = rows[0].index(column)
    if mangle == "drop-column":
        rows = [row[:at] + row[at + 1:] for row in rows]
    elif mangle == "cut-row":
        rows[1] = rows[1][:at]
    elif mangle == "extend-row":
        rows[1] = rows[1] + ["7"]
    elif mangle == "repeat-row":
        rows[2] = rows[1]
    else:
        rows[1][at] = mangle.removeprefix("set-")
    path.write_text("".join(",".join(row) + "\n" for row in rows))
    capsys.readouterr()
    code = run_cli(
        "regress", "--results", str(path), "--solver", "SPT+SCTA", "--baseline", "MOR+SCTA",
    )
    assert code == 3
    named = named.format(*rows[1])
    assert capsys.readouterr().err == f"jsspt: document error: results table {named}\n"


def test_bench_rejects_repeated_solver(tmp_path, capsys):
    named = "jsspt: configuration error: solver 'SPT+SCTA' appears more than once in the plan"
    code = run_cli(
        "bench", "--sizes", "4x3", "--rhos", "0.5", "--instances", "3",
        "--solvers", "SPT+SCTA,SPT+SCTA,MOR+SCTA", "--out", str(tmp_path),
    )
    assert code == 2
    assert named in capsys.readouterr().err
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps({**PLAN_FIELDS, "solvers": ["SPT+SCTA", "SPT+SCTA"]}))
    code = run_cli("bench", "--plan", str(plan_path), "--out", str(tmp_path))
    assert code == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "results.csv").exists()


def test_regress_join_error(tmp_path, capsys):
    code = run_cli(
        "bench", "--sizes", "2x2", "--rhos", "0.5", "--instances", "1",
        "--solvers", "SPT+SCTA", "--seed", "1", "--out", str(tmp_path),
    )
    assert code == 0
    code = run_cli(
        "regress", "--results", str(tmp_path / "results.csv"),
        "--solver", "SPT+SCTA", "--baseline", "LWR+SPUT",
    )
    assert code == 4
    assert "compute error" in capsys.readouterr().err


def test_oracle_cli(tmp_path, capsys):
    path = save_instance(micro_instance(idle_leg=1), tmp_path)
    code = run_cli("oracle", "--instance", str(path))
    assert code == 0
    out = capsys.readouterr().out
    assert "optimum,10" in out
    assert "trace,[[0, 0], [0, 0]]" in out


def test_oracle_refusal_exit_code(tmp_path, capsys):
    code = run_cli(
        "gen", "--n", "4", "--m", "4", "--k", "2", "--seed", "1", "--out", str(tmp_path)
    )
    assert code == 0
    instance_path = next(tmp_path.glob("*.json"))
    code = run_cli("oracle", "--instance", str(instance_path))
    assert code == 7
    assert "refused" in capsys.readouterr().err


def test_eval_external_cli(tmp_path, capsys):
    gen_code = run_cli(
        "gen", "--n", "3", "--m", "2", "--k", "2", "--count", "2",
        "--seed", "9", "--out", str(tmp_path),
    )
    assert gen_code == 0
    server = (
        f"{sys.executable} -m jsspt.rule_server --op-rule LPT --agv-rule SCPT "
        f"--instances-dir {tmp_path}"
    )
    out_file = tmp_path / "external.csv"
    code = run_cli(
        "eval-external", "--instances", str(tmp_path), "--cmd", server,
        "--label", "LPT+SCPT", "--timeout", "20", "--out", str(out_file),
    )
    assert code == 0
    rows = out_file.read_text().splitlines()
    assert len(rows) == 3
    assert all("LPT+SCPT" in row for row in rows[1:])


def test_eval_external_unreachable(tmp_path, capsys):
    path = save_instance(micro_instance(idle_leg=1), tmp_path)
    out_file = tmp_path / "external.csv"
    code = run_cli(
        "eval-external", "--instances", str(path),
        "--cmd", "/nonexistent/policy", "--out", str(out_file),
    )
    assert code == 6
    assert not out_file.exists()  # zero rows on transport failure


@pytest.mark.parametrize(
    "option, named",
    [
        (("--timeout", "nan"), "--timeout must be positive and finite, got nan"),
        (("--timeout", "inf"), "--timeout must be positive and finite, got inf"),
        (("--timeout", "0"), "--timeout must be positive and finite, got 0.0"),
        (("--timeout", "-1"), "--timeout must be positive and finite, got -1.0"),
        (("--label", "a\nb"), "--label must be one line, got 'a\\nb'"),
        (("--label", "a\rb"), "--label must be one line, got 'a\\rb'"),
    ],
    ids=["timeout-nan", "timeout-inf", "timeout-0", "timeout-negative", "label-lf", "label-cr"],
)
def test_eval_external_rejects_bad_timeout_and_label(tmp_path, capsys, option, named):
    path = save_instance(micro_instance(idle_leg=1), tmp_path)
    out_file = tmp_path / "external.csv"
    code = run_cli(
        "eval-external", "--instances", str(path), "--cmd", "/nonexistent/policy",
        *option, "--out", str(out_file),
    )
    assert code == 2
    assert f"jsspt: configuration error: {named}" in capsys.readouterr().err
    assert not out_file.exists()


def test_env_var_out_dir(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("JSSPT_OUT", str(tmp_path / "from-env"))
    code = run_cli("gen", "--n", "3", "--m", "2", "--k", "1", "--seed", "0")
    assert code == 0
    assert list((tmp_path / "from-env").glob("*.json"))


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "jsspt.cli", "gen", "--n", "2", "--m", "2",
         "--k", "1", "--out", str(tmp_path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert (tmp_path / "2x2x1-seed0.json").exists()


PLAN_FIELDS = {"sizes": [[2, 2]], "rhos": [0.5], "instances_per_config": 1,
               "solvers": ["SPT+SCTA"], "seed": 1}


@pytest.mark.parametrize(
    "field, value, named",
    [
        ("sizes", [[True, 2]], "sizes[0][0]: must be an integer, got True"),
        ("sizes", [[1, 2.9]], "sizes[0][1]: must be an integer, got 2.9"),
        ("rhos", ["0.5"], "rhos[0]: must be a number, got '0.5'"),
        ("rhos", [True], "rhos[0]: must be a number, got True"),
        ("instances_per_config", 1.7, "instances_per_config: must be an integer, got 1.7"),
        ("solvers", [7], "solvers[0]: must be a string, got 7"),
        ("seed", "3", "seed: must be an integer, got '3'"),
    ],
)
def test_bench_plan_rejects_inexact_values(tmp_path, capsys, field, value, named):
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps({**PLAN_FIELDS, field: value}))
    code = run_cli("bench", "--plan", str(plan_path), "--out", str(tmp_path))
    assert code == 2
    assert f"jsspt: configuration error: bad plan document: {named}" in capsys.readouterr().err
    assert not (tmp_path / "results.csv").exists()


@pytest.mark.parametrize("text, named", [("{bad", "not valid JSON"), ("[1]", "expected an object")])
def test_bench_plan_rejects_non_object_documents(tmp_path, capsys, text, named):
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(text)
    code = run_cli("bench", "--plan", str(plan_path), "--out", str(tmp_path))
    assert code == 2
    assert f"jsspt: configuration error: bad plan document: {named}" in capsys.readouterr().err


def test_interrupted_table_write_keeps_the_old_table(tmp_path, capsys, monkeypatch):
    args = ("bench", "--sizes", "3x2", "--rhos", "0.5", "--instances", "1",
            "--solvers", "SPT+SCTA", "--out", str(tmp_path))
    assert run_cli(*args, "--seed", "1") == 0
    old = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert sorted(old) == ["results.csv", "summary.csv"]

    real_write = Path.write_text

    def torn_write(self, data, *a, **kw):
        real_write(self, data[: len(data) // 2], *a, **kw)
        raise OSError("no space left on device")

    monkeypatch.setattr(Path, "write_text", torn_write)
    assert run_cli(*args, "--seed", "2") == 3
    assert "jsspt: io error: no space left on device" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == old


def test_interrupted_document_write_keeps_the_old_document(tmp_path, capsys, monkeypatch):
    args = ("gen", "--n", "3", "--m", "2", "--k", "1", "--seed", "4", "--out", str(tmp_path))
    assert run_cli(*args) == 0
    old = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert sorted(old) == ["3x2x1-seed4.json"]

    real_write = Path.write_text

    def torn_write(self, data, *a, **kw):
        real_write(self, data[: len(data) // 2], *a, **kw)
        raise OSError("no space left on device")

    monkeypatch.setattr(Path, "write_text", torn_write)
    assert run_cli(*args) == 3
    assert "jsspt: io error: no space left on device" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == old
