"""Command-line front end.

Subcommands: gen, solve, bench, grid, regress, eval-external, oracle.
Output goes to --out if given, else to the working directory. Failures exit
nonzero with a category prefix on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
from pathlib import Path

from . import harness
from .bridge import DEFAULT_TIMEOUT
from .engine import save_result
from .errors import ConfigurationError, DocumentError, JssptError, report_error
from .instances import (
    GenerationConfig,
    check_seed,
    generate_instance,
    load_instance,
    save_instance,
    write_text_atomic,
)
from .oracle import DEFAULT_LIMIT, brute_force_oracle
from .rules import ALL_COMBOS, parse_combo, solve, sweep


def _out_dir(value: str | None) -> Path:
    path = Path(value or ".")
    path.mkdir(parents=True, exist_ok=True)
    return path


def _parse_sizes(text: str) -> tuple[tuple[int, int], ...]:
    try:
        sizes = tuple(
            (int(n), int(m))
            for n, m in (part.lower().split("x") for part in text.split(","))
        )
    except ValueError as exc:
        raise ConfigurationError(f"cannot parse sizes {text!r} (want e.g. 15x10,10x10)") from exc
    return sizes


def _parse_rhos(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError as exc:
        raise ConfigurationError(f"cannot parse scarcity list {text!r}") from exc


def _parse_solvers(text: str) -> tuple[str, ...]:
    if text == "all":
        return ALL_COMBOS
    return tuple(s.strip() for s in text.split(","))


_PLAN_PARSERS = {"sizes": _parse_sizes, "rhos": _parse_rhos, "solvers": _parse_solvers}


def _plan_from_args(base, args):
    """`base` with each option the user gave in place of its field, once the
    --jobs that bench and grid share is checked. Each plan field is the dest
    of one option; the plan dataclass holds the plan's only check."""
    if args.jobs < 1:
        raise ConfigurationError(f"--jobs must be >= 1, got {args.jobs}")
    given = {}
    for field in dataclasses.fields(base):
        value = getattr(args, field.name)
        if value is not None:
            given[field.name] = _PLAN_PARSERS.get(field.name, lambda v: v)(value)
    return dataclasses.replace(base, **given)


# -- subcommands ---------------------------------------------------------------

def _cmd_gen(args) -> int:
    if args.count < 1:
        raise ConfigurationError(f"--count must be >= 1, got {args.count}")
    out = _out_dir(args.out)
    written = []
    for i in range(args.count):
        config = GenerationConfig(
            n=args.n,
            m=args.m,
            proc_range=tuple(args.proc),
            transport_range=tuple(args.transport),
            k=args.k,
            seed=args.seed + i,
        )
        written.append(save_instance(generate_instance(config), out))
    for path in written:
        print(path)
    return 0


def _cmd_solve(args) -> int:
    check_seed(args.seed, "--seed")
    instance = load_instance(args.instance)
    if args.all_combos:
        makespans = sweep(instance, seed=args.seed)
        for ident, makespan in zip(ALL_COMBOS, makespans):
            print(f"{ident},{makespan}")
        best = min(makespans)  # ties keep the canonical order
        print(f"best,{ALL_COMBOS[makespans.index(best)]},{best}")
        return 0
    op_rule, agv_rule = parse_combo(f"{args.op_rule}+{args.agv_rule}")
    result = solve(instance, op_rule, agv_rule, seed=args.seed)
    if args.out:
        save_result(result, args.out)
    print(f"{result.solver_id},{result.makespan}")
    return 0


def _cmd_bench(args) -> int:
    base = harness.load_plan(args.plan) if args.plan else harness.ExperimentPlan()
    plan = _plan_from_args(base, args)
    out = _out_dir(args.out)
    records, summary, global_best = harness.run_bench(plan, jobs=args.jobs)
    results_path = out / "results.csv"
    summary_path = out / "summary.csv"
    write_text_atomic(results_path, harness.records_to_csv(records))
    write_text_atomic(summary_path, harness.summary_to_csv(summary))
    print(f"{len(records)} rows -> {results_path}")
    print(f"summary -> {summary_path}")
    print(f"global best combo: {global_best}")
    return 0


def _cmd_grid(args) -> int:
    plan = _plan_from_args(harness.GridPlan(), args)
    out = _out_dir(args.out)
    records, cells, heatmap = harness.run_grid(plan, jobs=args.jobs)
    results_path = out / "grid_results.csv"
    cells_path = out / "grid_cells.csv"
    heatmap_path = out / "heatmap.csv"
    write_text_atomic(results_path, harness.records_to_csv(records))
    write_text_atomic(cells_path, harness.grid_cells_to_csv(cells))
    write_text_atomic(heatmap_path, harness.heatmap_to_csv(heatmap))
    print(f"{len(records)} rows -> {results_path}")
    print(f"cells -> {cells_path}")
    print(f"heatmap -> {heatmap_path}")
    return 0


def _cmd_regress(args) -> int:
    records = harness.read_records(args.results)
    reports = harness.run_regression_suite(records, args.solver, args.baseline)
    text = harness.format_regression_suite(reports)
    if args.out:
        write_text_atomic(Path(args.out), text)
        print(f"report -> {args.out}")
    else:
        print(text, end="")
    return 0


def _cmd_eval_external(args) -> int:
    if not 0 < args.timeout < math.inf:
        raise ConfigurationError(f"--timeout must be positive and finite, got {args.timeout}")
    # The label fills a results-table cell, which the table keeps on one line.
    if "\r" in args.label or "\n" in args.label:
        raise ConfigurationError(f"--label must be one line, got {args.label!r}")
    paths: list[Path] = []
    for entry in args.instances:
        p = Path(entry)
        if p.is_dir():
            paths.extend(sorted(p.glob("*.json")))
        else:
            paths.append(p)
    if not paths:
        raise ConfigurationError("no instance documents found")
    instances, files = [], {}
    for p in paths:
        instance = load_instance(p)
        # A results table holds one row per (instance, solver).
        if instance.id in files:
            raise DocumentError(f"instance id {instance.id!r} in {p} repeats {files[instance.id]}")
        files[instance.id] = p
        instances.append(instance)
    records = harness.run_external_eval(
        instances, args.cmd, label=args.label, timeout=args.timeout
    )
    out_path = Path(args.out) if args.out else _out_dir(None) / "external_results.csv"
    write_text_atomic(out_path, harness.records_to_csv(records))
    print(f"{len(records)} rows -> {out_path}")
    return 0


def _cmd_oracle(args) -> int:
    instance = load_instance(args.instance)
    result = brute_force_oracle(instance, limit=args.limit)
    print(f"optimum,{result.makespan}")
    print(f"trace,{json.dumps([list(d) for d in result.decisions])}")
    print(f"explored,{result.explored}")
    return 0


# -- parser ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jsspt",
        description="Job-shop-with-transport scheduling: generation, solving, benchmarking.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate random instances")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, default=None, help="AGV count (omit to sample DU(3, n))")
    p.add_argument("--proc", type=int, nargs=2, default=(1, 100), metavar=("LO", "HI"))
    p.add_argument("--transport", type=int, nargs=2, default=(1, 100), metavar=("LO", "HI"))
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("solve", help="run one rule combo (or all 40) on an instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--op-rule", default="SPT")
    p.add_argument("--agv-rule", default="SCTA")
    p.add_argument("--all-combos", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="write the schedule document here")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("bench", help="benchmark solvers over a plan")
    p.add_argument("--plan", default=None, help="plan JSON file")
    p.add_argument("--sizes")
    p.add_argument("--rhos")
    p.add_argument("--instances", type=int, dest="instances_per_config", metavar="INSTANCES")
    p.add_argument("--solvers")
    p.add_argument("--seed", type=int)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("grid", help="duration-grid experiment over two solvers")
    p.add_argument("--sizes")
    p.add_argument("--rhos")
    p.add_argument("--instances-per-cell", type=int)
    p.add_argument("--solver-a")
    p.add_argument("--solver-b")
    p.add_argument("--seed", type=int)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_grid)

    p = sub.add_parser("regress", help="fit the coupling-factor models on a results table")
    p.add_argument("--results", required=True)
    p.add_argument("--solver", required=True)
    p.add_argument("--baseline", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_regress)

    p = sub.add_parser("eval-external", help="evaluate an external policy process")
    p.add_argument("--instances", nargs="+", required=True, help="instance files or directories")
    p.add_argument("--cmd", required=True, help="command line of the policy process")
    p.add_argument("--label", default="external")
    p.add_argument("--timeout", type=float, default=DEFAULT_TIMEOUT)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_eval_external)

    p = sub.add_parser("oracle", help="exact optimum of a small instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--limit", type=int, default=DEFAULT_LIMIT)
    p.set_defaults(func=_cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (JssptError, OSError) as exc:
        return report_error(exc)


if __name__ == "__main__":
    raise SystemExit(main())
