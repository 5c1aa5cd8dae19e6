import json
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

from helpers import OVERLONG_INT, micro_instance, needs_int_digit_limit
from jsspt import bridge, harness, oracle
from jsspt.cli import build_parser, main
from jsspt.engine import load_result
from jsspt.errors import ConfigurationError, DocumentError, JssptError, report_error
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


@pytest.mark.parametrize(
    "argv, named",
    [
        (("gen", "--n", "1001", "--m", "1", "--k", "1", "--seed", "1"), "n must be <= 1000, got 1001"),
        (("gen", "--n", "4", "--m", "1001", "--k", "2"), "m must be <= 1000, got 1001"),
        (("gen", "--n", "4", "--m", "3", "--k", "1001"), "k must be <= 1000, got 1001"),
        (("bench", "--sizes", "1001x1", "--rhos", "0.5", "--instances", "1"),
         "n must be <= 1000, got 1001"),
        # fleet_size(300, 4) = 1200 vehicles.
        (("bench", "--sizes", "4x3", "--rhos", "300", "--instances", "1"),
         "k must be <= 1000, got 1200"),
        (("grid", "--sizes", "3x1001", "--instances-per-cell", "1"), "m must be <= 1000, got 1001"),
        # fleet_size overflowed: rho * n was not a finite float, or n too long for one.
        (("bench", "--sizes", "3x2", "--rhos", "1e308", "--instances", "1"),
         "scarcity values must be <= 1000, got 1e+308"),
        (("grid", "--sizes", "3x2", "--rhos", "1e308", "--instances-per-cell", "1"),
         "scarcity values must be <= 1000, got 1e+308"),
        (("bench", "--plan", {"sizes": [[10**400, 2]]}), f"n must be <= 1000, got {10**400}"),
    ],
    ids=["gen-n", "gen-m", "gen-k", "bench-n", "bench-fleet", "grid-m", "bench-rho", "grid-rho",
         "plan-n"],
)
def test_a_size_no_document_can_hold_exits_2_before_writing(tmp_path, capsys, argv, named):
    # The loader bounds n, m and k at 1000; without the same bound, gen wrote
    # a document that solve refused, and bench ran on an instance no
    # document can hold. A plan document is written next to the output.
    plan = tmp_path / "plan.json"
    if isinstance(argv[-1], dict):
        plan.write_text(json.dumps(argv[-1]), encoding="utf-8")
        argv = (*argv[:-1], str(plan))
    assert run_cli(*argv, "--out", str(tmp_path)) == 2
    assert capsys.readouterr().err == f"jsspt: configuration error: {named}\n"
    assert sorted(tmp_path.iterdir()) == sorted(tmp_path.glob("plan.json"))


@pytest.mark.parametrize(
    "argv, named",
    [
        (("bench", "--sizes", "3by2"), "cannot parse sizes '3by2' (want e.g. 15x10,10x10)"),
        (("grid", "--sizes", "3x2x1"), "cannot parse sizes '3x2x1' (want e.g. 15x10,10x10)"),
        (("bench", "--sizes", "3x2", "--rhos", "0.5,x"), "cannot parse scarcity list '0.5,x'"),
    ],
    ids=["bench-sizes", "grid-sizes", "bench-rhos"],
)
def test_unparsable_sizes_or_rhos_exit_2_before_writing(tmp_path, capsys, argv, named):
    assert run_cli(*argv, "--out", str(tmp_path)) == 2
    assert capsys.readouterr().err == f"jsspt: configuration error: {named}\n"
    assert list(tmp_path.iterdir()) == []


def test_an_uncategorized_error_exits_1(capsys):
    assert report_error(JssptError("no category")) == 1
    assert capsys.readouterr().err == "jsspt: error: no category\n"


def test_gen_at_the_size_bound_writes_a_document_solve_reads(tmp_path, capsys):
    assert run_cli("gen", "--n", "1000", "--m", "1", "--k", "1", "--seed", "1",
                   "--out", str(tmp_path)) == 0
    path = tmp_path / "1000x1x1-seed1.json"
    assert load_instance(path).n == 1000
    assert run_cli("solve", "--instance", str(path), "--op-rule", "SPT", "--agv-rule", "SCTA") == 0


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


def test_eval_external_scores_an_instance_whose_times_are_all_1(tmp_path, capsys):
    # Both mean durations at the lower bound: tau is 0, not a metric error
    # (exit 4) after the policy has played the episode.
    docs = tmp_path / "docs"
    assert run_cli("gen", "--n", "3", "--m", "2", "--k", "2", "--proc", "1", "1",
                   "--transport", "1", "1", "--out", str(docs)) == 0
    server = (
        f"{sys.executable} -m jsspt.rule_server --op-rule SPT --agv-rule SCTA "
        f"--instances-dir {docs}"
    )
    out_file = tmp_path / "out.csv"
    code = run_cli("eval-external", "--instances", str(docs), "--cmd", server,
                   "--timeout", "20", "--out", str(out_file))
    assert code == 0, capsys.readouterr().err
    header, row = out_file.read_text(encoding="utf-8").splitlines()
    record = dict(zip(header.split(","), row.split(",")))
    assert (record["p_raw"], record["t_raw"], record["tau"]) == ("1.000000", "1.000000", "0.000000")


@pytest.mark.parametrize("field", ["m", "k"])
def test_solve_rejects_a_huge_size_naming_the_field(tmp_path, capsys, field):
    # m = 10**30 overflowed range(m) while loading; k = 10**30 loaded, then
    # made numpy's vehicle draw fail mid-sweep. Both exit 1 without the bound.
    doc = {
        "id": "huge", "n": 3, "m": 2, "k": 2, "seed": 0,
        "routings": [[0, 1], [1, 0], [0, 1]],
        "proc_times": [[5, 7, 0]] * 3,
        "transport": [[0 if a == b else 3 for b in range(4)] for a in range(4)],
        field: 10**30,
    }
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run_cli("solve", "--instance", str(path), "--all-combos") == 3
    named = f"jsspt: document error: {field}: must be <= 1000, got {10**30} (in {path})\n"
    assert capsys.readouterr().err == named


def test_eval_external_names_the_document_that_is_not_an_instance(tmp_path, capsys):
    inst = save_instance(micro_instance(idle_leg=1), tmp_path)
    assert run_cli("solve", "--instance", str(inst), "--out", str(tmp_path / "sched.json")) == 0
    capsys.readouterr()
    code = run_cli("eval-external", "--instances", str(tmp_path), "--cmd", "unused",
                   "--out", str(tmp_path / "out.csv"))
    assert code == 3
    named = f"jsspt: document error: id: missing required field (in {tmp_path / 'sched.json'})\n"
    assert capsys.readouterr().err == named


def test_every_document_error_names_its_file(tmp_path):
    bad = tmp_path / "bad.json"
    named = re.escape(f" (in {bad})") + "$"
    bad.write_text('{"instance": "x"}', encoding="utf-8")
    with pytest.raises(DocumentError, match=r"^solver: missing required field" + named):
        load_result(bad)
    bad.write_text('{"sizes": [[4, 3]], "sead": 4}', encoding="utf-8")
    with pytest.raises(ConfigurationError, match=r"^bad plan document: unknown field 'sead'" + named):
        harness.load_plan(bad)
    table = tmp_path / "bad.csv"
    table.write_text("instance,solver\n", encoding="utf-8")
    named = re.escape(f" (in {table})") + "$"
    with pytest.raises(DocumentError, match=r"^results table line 1: no 'makespan' column" + named):
        harness.read_records(table)


@pytest.mark.parametrize(
    "argv, code, category",
    [
        (("solve", "--instance"), 3, "document error: document"),
        (("eval-external", "--cmd", "unused", "--instances"), 3, "document error: document"),
        (("bench", "--plan"), 2, "configuration error: bad plan document"),
    ],
    ids=["solve", "eval-external", "bench-plan"],
)
def test_a_file_that_is_not_utf8_exits_naming_it(tmp_path, capsys, argv, code, category):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    assert run_cli(*argv, str(bad), "--out", str(tmp_path / "out")) == code
    named = (f"jsspt: {category}: not valid JSON ('utf-8' codec can't decode byte 0xff in "
             f"position 0: invalid start byte) (in {bad})\n")
    assert capsys.readouterr().err == named
    if code == 3:
        with pytest.raises(DocumentError, match="^document: not valid JSON"):
            load_result(bad)


@needs_int_digit_limit
def test_an_integer_too_long_to_read_exits_3_naming_the_file(tmp_path, capsys):
    bad = tmp_path / "long.json"
    bad.write_text(f'{{"id": "x", "n": {OVERLONG_INT}}}', encoding="utf-8")
    assert run_cli("solve", "--instance", str(bad)) == 3
    err = capsys.readouterr().err
    assert err.startswith("jsspt: document error: document: not valid JSON (Exceeds the limit")
    assert err.endswith(f"(in {bad})\n")


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
    # Without --out the report goes to stdout.
    capsys.readouterr()
    code = run_cli(
        "regress", "--results", str(tmp_path / "grid_results.csv"),
        "--solver", "SPT+SCTA", "--baseline", "MOR+SCTA",
    )
    assert code == 0
    assert capsys.readouterr().out == text


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
        # Finite values outside the documented ranges; the first three ended
        # in OverflowError.
        ("set-1e300", "tau", "line 2, column 'tau': must be in [-1, 1], got '1e300'"),
        ("set-1e300", "rho", "line 2, column 'rho': must be in (0, 1000], got '1e300'"),
        ("set-1" + "0" * 400, "makespan",
         f"line 2, column 'makespan': must be in [1, 2**53], got '{10**400}'"),
        ("set--1.5", "tau", "line 2, column 'tau': must be in [-1, 1], got '-1.5'"),
        ("set-0", "rho", "line 2, column 'rho': must be in (0, 1000], got '0'"),
        ("set-0", "makespan", "line 2, column 'makespan': must be in [1, 2**53], got '0'"),
        ("latin-1", "instance", "line 2: not UTF-8 (invalid continuation byte)"),
    ],
    ids=["float-makespan", "no-seed-column", "short-row", "long-row", "repeated-pair",
         "nan-tau", "inf-rho", "huge-tau", "huge-rho", "huge-makespan", "low-tau", "zero-rho",
         "zero-makespan", "latin-1"],
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
    elif mangle == "latin-1":
        rows[1][at] += "\xe9"
    else:
        rows[1][at] = mangle.removeprefix("set-")
    encoding = "latin-1" if mangle == "latin-1" else "utf-8"
    path.write_text("".join(",".join(row) + "\n" for row in rows), encoding=encoding)
    capsys.readouterr()
    code = run_cli(
        "regress", "--results", str(path), "--solver", "SPT+SCTA", "--baseline", "MOR+SCTA",
    )
    assert code == 3
    named = named.format(*rows[1])
    assert capsys.readouterr().err == f"jsspt: document error: results table {named} (in {path})\n"


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


def test_a_solver_compared_with_itself_is_refused(tmp_path, capsys):
    code = run_cli(
        "grid", "--sizes", "3x2", "--rhos", "0.5,1.0", "--instances-per-cell", "1",
        "--solver-a", "SPT+SCTA", "--solver-b", "SPT+SCTA", "--out", str(tmp_path / "grid"),
    )
    assert code == 2
    assert capsys.readouterr().err == (
        "jsspt: configuration error: solver 'SPT+SCTA' appears more than once in the plan\n"
    )
    assert not (tmp_path / "grid" / "grid_results.csv").exists()
    assert run_cli("bench", "--sizes", "3x2", "--rhos", "0.5,1.0", "--instances", "2",
                   "--solvers", "SPT+SCTA,MOR+SCTA", "--out", str(tmp_path)) == 0
    capsys.readouterr()
    code = run_cli("regress", "--results", str(tmp_path / "results.csv"),
                   "--solver", "SPT+SCTA", "--baseline", "SPT+SCTA")
    assert code == 4
    assert capsys.readouterr() == (
        "", "jsspt: compute error: cannot pair solver 'SPT+SCTA' with itself\n"
    )


def test_each_default_has_one_home():
    # The channel timeout and the oracle limit are each written once; the
    # options and the functions take their defaults from that constant.
    parser = build_parser()
    timeout = parser.parse_args(["eval-external", "--instances", "i", "--cmd", "c"]).timeout
    limit = parser.parse_args(["oracle", "--instance", "i"]).limit
    assert timeout is bridge.DEFAULT_TIMEOUT == 30.0
    assert harness.run_external_eval.__defaults__[-1] is bridge.DEFAULT_TIMEOUT
    assert bridge.ExternalPolicyClient.__init__.__defaults__ == (bridge.DEFAULT_TIMEOUT,)
    assert limit == oracle.brute_force_oracle.__defaults__[0] == oracle.DEFAULT_LIMIT == 8


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


@pytest.mark.parametrize("copy", [True, False], ids=["copied-document", "directory-twice"])
def test_eval_external_rejects_a_repeated_instance_id_before_spawning(tmp_path, capsys, copy):
    # Two rows for one (instance, solver) pair made a table read_records
    # refuses, after every episode had run.
    (tmp_path / "d1").mkdir()
    first = repeated = save_instance(micro_instance(idle_leg=1), tmp_path / "d1")
    if copy:
        repeated = tmp_path / "d2" / "copy.json"
        repeated.parent.mkdir()
        repeated.write_bytes(first.read_bytes())
    out_file = tmp_path / "out.csv"
    with mock.patch("jsspt.bridge.subprocess.Popen") as popen:
        code = run_cli("eval-external", "--instances", str(first.parent), str(repeated.parent),
                       "--cmd", "unused", "--out", str(out_file))
    assert code == 3
    named = f"jsspt: document error: instance id 'micro' in {repeated} repeats {first}\n"
    assert capsys.readouterr().err == named
    popen.assert_not_called()
    assert not out_file.exists()


def test_eval_external_over_a_directory_without_documents_exits_2(tmp_path, capsys):
    (tmp_path / "empty").mkdir()
    with mock.patch("jsspt.bridge.subprocess.Popen") as popen:
        code = run_cli("eval-external", "--instances", str(tmp_path / "empty"), "--cmd", "unused",
                       "--out", str(tmp_path / "out.csv"))
    assert code == 2
    assert capsys.readouterr().err == "jsspt: configuration error: no instance documents found\n"
    popen.assert_not_called()


def test_eval_external_unreachable(tmp_path, capsys):
    path = save_instance(micro_instance(idle_leg=1), tmp_path)
    out_file = tmp_path / "external.csv"
    code = run_cli(
        "eval-external", "--instances", str(path),
        "--cmd", "/nonexistent/policy", "--out", str(out_file),
    )
    assert code == 6
    assert not out_file.exists()  # zero rows on transport failure


def test_eval_external_names_a_timeout_below_one_second(tmp_path, capsys):
    # The timeout prints as given: 0.3 read "within 0s".
    path = save_instance(micro_instance(idle_leg=1), tmp_path)
    silent = tmp_path / "silent.py"
    silent.write_text("import sys\nsys.stdin.read()\n", encoding="utf-8")
    code = run_cli("eval-external", "--instances", str(path), "--cmd", f"{sys.executable} {silent}",
                   "--timeout", "0.3", "--out", str(tmp_path / "external.csv"))
    assert code == 6
    assert capsys.readouterr().err == "jsspt: transport error: policy did not answer within 0.3s\n"


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
        # An option's name that is not a plan field, and a misspelled field.
        ("instances", 3, "unknown field 'instances'"),
        ("sead", 4, "unknown field 'sead'"),
        # Each list field is a list, and each size a pair; sizes is required.
        ("sizes", None, "sizes: missing required field"),
        ("sizes", 5, "sizes: must be a list, got 5"),
        ("sizes", [4, 3], "sizes[0]: must be an [n, m] pair, got 4"),
        ("sizes", [[4, 3, 2]], "sizes[0]: must be an [n, m] pair, got [4, 3, 2]"),
        ("rhos", 0.5, "rhos: must be a list, got 0.5"),
        ("rhos", "0.5", "rhos: must be a list, got '0.5'"),
        ("rhos", [10**400], "rhos[0]: must be a number, got 10000000000"),
        ("solvers", 5, 'solvers: must be a list or "all", got 5'),
        ("solvers", "SPT+SCTA", "solvers: must be a list or \"all\", got 'SPT+SCTA'"),
    ],
)
def test_bench_plan_rejects_inexact_values(tmp_path, capsys, field, value, named):
    plan_path = tmp_path / "plan.json"
    # None leaves the field out.
    doc = {**PLAN_FIELDS, field: value}
    plan_path.write_text(json.dumps({f: v for f, v in doc.items() if v is not None}))
    code = run_cli("bench", "--plan", str(plan_path), "--out", str(tmp_path))
    assert code == 2
    assert f"jsspt: configuration error: bad plan document: {named}" in capsys.readouterr().err
    assert not (tmp_path / "results.csv").exists()


@pytest.mark.parametrize(
    "option, field, value",
    [
        (("--sizes", "3x2"), "sizes", [[3, 2]]),
        (("--rhos", "1.0"), "rhos", [1.0]),
        (("--instances", "2"), "instances_per_config", 2),
        (("--solvers", "MOR+SCPT,SPT+SCTA"), "solvers", ["MOR+SCPT", "SPT+SCTA"]),
        (("--seed", "4"), "seed", 4),
    ],
    ids=["sizes", "rhos", "instances", "solvers", "seed"],
)
def test_bench_option_overrides_its_plan_field(tmp_path, capsys, option, field, value):
    def results(name, *argv):
        out = tmp_path / name
        assert run_cli("bench", *argv, "--out", str(out)) == 0
        return (out / "results.csv").read_bytes()

    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(PLAN_FIELDS))
    edited_path = tmp_path / "edited.json"
    edited_path.write_text(json.dumps({**PLAN_FIELDS, field: value}))
    overridden = results("option", "--plan", str(plan_path), *option)
    assert overridden == results("edited", "--plan", str(edited_path))
    assert overridden != results("plan", "--plan", str(plan_path))


@pytest.mark.parametrize("command", [
    ("bench", "--sizes", "3x2", "--rhos", "0.5", "--instances", "1"),
    ("grid", "--sizes", "2x2", "--rhos", "0.5", "--instances-per-cell", "1"),
], ids=["bench", "grid"])
@pytest.mark.parametrize("jobs", ["0", "-5"])
def test_jobs_below_1_exits_2_before_generating(tmp_path, capsys, monkeypatch, command, jobs):
    def generate_instance(*args, **kwargs):
        raise AssertionError("an instance was generated")

    monkeypatch.setattr(harness, "generate_instance", generate_instance)
    assert run_cli(*command, "--jobs", jobs, "--out", str(tmp_path)) == 2
    assert f"jsspt: configuration error: --jobs must be >= 1, got {jobs}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


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
