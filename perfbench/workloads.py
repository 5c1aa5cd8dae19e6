"""The four workloads: inputs from the seed, one timed round, the checks.

A round is the unit the timed phase repeats: always the same operations, so
a run attempts whole rounds. Every round writes its tables into its own
directory, and the checks read them back after the timed phase.

- bench: the `jsspt bench` CLI on the default plan at one instance per
  config: 8 sizes x 6 scarcity values x 40 combos = 1,920 episodes.
- grid: the `jsspt grid` CLI over all 100 duration cells on the 10x10 base
  shape at every scarcity value (600 instances, SPT+SCTA vs MOR+SCTA), then
  `jsspt regress` on the table it wrote.
- external: `harness.run_external_eval` against one `jsspt.rule_server`
  child serving SPT+SCTA, over a fixed pool of eight 15x10x9 instance
  documents in a seeded order. The pool does not depend on the seed, so the
  protocol lines, and their byte counts, are the same in every run.
- analyze: read and reduce a 192,000-row results table shaped like the
  default bench output (4,800 instances x 40 combos), synthesised in set-up.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

import numpy as np

import check
from common import BENCH_DIR, COMBOS, PREFERRED_GLOBAL_BEST, RHOS, SIZES, round_seed

SOLVER_A, SOLVER_B = "SPT+SCTA", "MOR+SCTA"


class Round(NamedTuple):
    index: int
    out: Path
    attempted: int
    failed: int


def _fleet_size(rho: float, n: int) -> int:
    return max(1, int(np.floor(rho * n + 0.5)))


class Workload:
    """Base: `setup` prepares inputs, `run_round` is timed, `check` raises
    `check.CheckError` on a wrong output, `close` stops what setup started."""

    def __init__(self, seed: int, out: Path):
        self.seed = seed
        self.out = out
        self.policy_spans = out / "policy-spans.json"

    def setup(self) -> None:
        pass

    def run_round(self, index: int, out: Path) -> Round:
        raise NotImplementedError

    def check(self, rounds: list[Round]) -> None:
        raise NotImplementedError

    def start_traced_policy(self) -> None:
        """Start a second policy process that records spans (external only)."""

    def use_policy(self, traced: bool) -> None:
        """Route the next rounds to the plain or the traced policy process."""

    def close(self) -> None:
        pass

    def _cli(self, argv: list[str]) -> int:
        from jsspt import cli

        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def stamp_steps(self, pacer) -> None:
        """Clock the decision steps with `pacer.ticker()`: here the
        operation-phase queries of the in-process rule episodes."""
        from jsspt import rules

        select = rules.select_operation
        tick = pacer.ticker()

        def stamped(rule, state, rng=None):
            tick(not state.steps)
            return select(rule, state, rng)

        rules.select_operation = stamped


class Bench(Workload):
    ROWS = len(SIZES) * len(RHOS) * len(COMBOS)

    def run_round(self, index: int, out: Path) -> Round:
        code = self._cli(["bench", "--instances", "1", "--seed", str(round_seed(self.seed, index)),
                          "--jobs", "1", "--out", str(out)])
        return Round(index, out, self.ROWS, 0 if code == 0 else self.ROWS)

    def check(self, rounds: list[Round]) -> None:
        from jsspt import harness

        for r in rounds:
            plan = harness.ExperimentPlan(instances_per_config=1, seed=round_seed(self.seed, r.index))
            arrays = [check.arrays_of(i) for i in harness.generate_bench_instances(plan)]
            want = [(n, m, _fleet_size(rho, n)) for n, m in SIZES for rho in RHOS]
            if [(a.n, a.m, a.k) for a in arrays] != want:
                raise check.CheckError("bench instances do not follow the plan's configs")
            check.check_results(r.out / "results.csv", arrays, COMBOS)
            check.check_summary(check.parse_results(r.out / "results.csv"), r.out / "summary.csv")


class Grid(Workload):
    SHAPE = (10, 10)
    ROWS = 100 * len(RHOS) * 2

    def run_round(self, index: int, out: Path) -> Round:
        seed = str(round_seed(self.seed, index))
        size = f"{self.SHAPE[0]}x{self.SHAPE[1]}"
        code = self._cli(["grid", "--sizes", size, "--instances-per-cell", "1", "--seed", seed,
                          "--jobs", "1", "--out", str(out)])
        if code == 0:
            code = self._cli(["regress", "--results", str(out / "grid_results.csv"), "--solver", SOLVER_A,
                              "--baseline", SOLVER_B, "--out", str(out / "regress.txt")])
        return Round(index, out, self.ROWS, 0 if code == 0 else self.ROWS)

    def check(self, rounds: list[Round]) -> None:
        from jsspt import harness

        m = self.SHAPE[1]
        for r in rounds:
            plan = harness.GridPlan(sizes=(self.SHAPE,), instances_per_cell=1, seed=round_seed(self.seed, r.index))
            instances, labels = harness.generate_grid_instances(plan)
            arrays = [check.arrays_of(i) for i in instances]
            cells = dict(zip((a.id for a in arrays), labels))
            for a in arrays:
                p_lo, t_lo = (int(x) for x in cells[a.id][1:].split("_t"))
                off = a.transport[~np.eye(a.m + 2, dtype=bool)]
                if not (p_lo <= a.proc[:, :m].min() and a.proc[:, :m].max() <= p_lo + 9
                        and t_lo <= off.min() and off.max() <= t_lo + 9):
                    raise check.CheckError(f"{a.id}: durations outside cell {cells[a.id]}")
            factors = check.check_results(r.out / "grid_results.csv", arrays, (SOLVER_A, SOLVER_B), cells)
            table = check.parse_results(r.out / "grid_results.csv")
            check.check_cells(table, SOLVER_A, SOLVER_B, r.out / "grid_cells.csv", factors)
            check.check_heatmap(table, SOLVER_A, SOLVER_B, RHOS, r.out / "heatmap.csv", factors)
            check.check_regression(table, SOLVER_A, SOLVER_B, r.out / "regress.txt")


class _Borrowed:
    """Stands in for `ExternalPolicyClient` inside `run_external_eval`, so
    every round reuses the policy process set-up started."""

    def __init__(self, client):
        self.client = client

    def __call__(self, *args, **kwargs):
        return self

    def __enter__(self):
        return self.client

    def __exit__(self, *exc_info):
        return None


class External(Workload):
    POOL_SEEDS = tuple(range(101, 109))
    LABEL = "rule-server"

    def setup(self) -> None:
        from jsspt import GenerationConfig, generate_instance, instances, save_instance

        # Writing the pool is input preparation; loading it is the program's
        # path, as `jsspt eval-external` loads its --instances.
        self.docs = self.out / "instances"
        self.docs.mkdir(parents=True, exist_ok=True)
        paths = [save_instance(generate_instance(GenerationConfig(n=15, m=10, k=9, seed=s)), self.docs)
                 for s in self.POOL_SEEDS]
        self.instances = [instances.load_instance(p) for p in paths]
        self.clients = {}
        self.policy_ready_s = self._start_policy(traced=False)
        self.use_policy(traced=False)

    def _start_policy(self, traced: bool) -> float:
        """Start a policy process and wait for its first `ready`."""
        from jsspt.bridge import ExternalPolicyClient

        args = ["--op-rule", "SPT", "--agv-rule", "SCTA", "--instances-dir", str(self.docs)]
        if traced:
            command = [sys.executable, str(BENCH_DIR / "policy_launcher.py"), str(self.policy_spans), *args]
        else:
            command = [sys.executable, "-m", "jsspt.rule_server", *args]
        started = perf_counter()
        self.clients[traced] = ExternalPolicyClient(command).__enter__()
        self.clients[traced].begin_episode(self.instances[0])
        return perf_counter() - started

    def start_traced_policy(self) -> None:
        self._start_policy(traced=True)

    def use_policy(self, traced: bool) -> None:
        from jsspt import harness

        self.client = self.clients[traced]
        harness.ExternalPolicyClient = _Borrowed(self.client)

    def run_round(self, index: int, out: Path) -> Round:
        from jsspt import JssptError, harness

        order = np.random.default_rng(round_seed(self.seed, index)).permutation(len(self.instances))
        batch = [self.instances[i] for i in order]
        out.mkdir(parents=True, exist_ok=True)
        try:
            records = harness.run_external_eval(batch, [], label=self.LABEL)
        except JssptError as exc:
            print(f"external round {index}: {exc}", file=sys.stderr)
            return Round(index, out, len(batch), len(batch))
        (out / "external_results.csv").write_text(harness.records_to_csv(records), encoding="utf-8")
        return Round(index, out, len(batch), 0)

    def stamp_steps(self, pacer) -> None:
        choose = self.client.choose_operation
        tick = pacer.ticker()

        def stamped(state, message):
            tick(not state.steps)
            return choose(state, message)

        self.client.choose_operation = stamped

    def check(self, rounds: list[Round]) -> None:
        arrays = [check.arrays_of(json.loads(p.read_text(encoding="utf-8")))
                  for p in sorted(self.docs.glob("*.json"))]
        for r in rounds:
            check.check_results(r.out / "external_results.csv", arrays, (self.LABEL,),
                                aliases={self.LABEL: SOLVER_A})

    def close(self) -> None:
        for client in self.clients.values():
            client.close()
        self.clients = {}


class Analyze(Workload):
    INSTANCES_PER_CONFIG = 100

    def setup(self) -> None:
        self.table = self.out / "results.csv"
        self.planted, text = synthetic_table(self.seed, self.INSTANCES_PER_CONFIG)
        self.table.write_bytes(text)
        self.rows = len(SIZES) * len(RHOS) * self.INSTANCES_PER_CONFIG * len(COMBOS)

    def run_round(self, index: int, out: Path) -> Round:
        from jsspt import harness

        out.mkdir(parents=True, exist_ok=True)
        records = harness.read_records(self.table)
        outputs = {"results.csv": harness.records_to_csv(records)}
        summary, _ = harness.summarize_results(records)
        outputs["summary.csv"] = harness.summary_to_csv(summary)
        outputs["grid_cells.csv"] = harness.grid_cells_to_csv(harness.grid_cell_table(records, SOLVER_A, SOLVER_B))
        outputs["heatmap.csv"] = harness.heatmap_to_csv(harness.heatmap_table(records, SOLVER_A, SOLVER_B))
        reports = harness.run_regression_suite(records, SOLVER_A, SOLVER_B)
        outputs["regression.txt"] = harness.format_regression_suite(reports)
        for name, text in outputs.items():
            (out / name).write_text(text, encoding="utf-8")
        return Round(index, out, len(records), 0)

    def stamp_steps(self, pacer) -> None:
        from jsspt import harness

        record = harness.ResultRecord
        tick = pacer.ticker()
        first = [True]

        def stamped(**fields):
            tick(first[0])
            first[0] = False
            return record(**fields)

        harness.ResultRecord = stamped

    def check(self, rounds: list[Round]) -> None:
        first = rounds[0].out
        source = self.table.read_bytes()
        if (first / "results.csv").read_bytes() != source:
            raise check.CheckError("results.csv: rewritten table differs from the table read")
        table = check.parse_results(self.table)
        check.check_rows("results.csv", table.instance.tolist(), table.solver.tolist(),
                         set(table.instance.tolist()), COMBOS)
        if len(table.instance) != self.rows:
            raise check.CheckError(f"results.csv: {len(table.instance)} rows, expected {self.rows}")
        winner = check.check_summary(table, first / "summary.csv")
        if winner != self.planted:
            raise check.CheckError(f"global best {winner}, but {self.planted} is best on every instance")
        summary = check.read_table(first / "summary.csv", check.SUMMARY_COLUMNS)
        planted_row = next(r for r in summary if r[0] == self.planted)
        if float(planted_row[5]) != 0.0:
            raise check.CheckError(f"{self.planted}: mean_rpi_vs_global {planted_row[5]}, expected 0")
        check.check_cells(table, SOLVER_A, SOLVER_B, first / "grid_cells.csv")
        check.check_heatmap(table, SOLVER_A, SOLVER_B, RHOS, first / "heatmap.csv")
        check.check_regression(table, SOLVER_A, SOLVER_B, first / "regression.txt")
        for r in rounds[1:]:
            for path in first.iterdir():
                if (r.out / path.name).read_bytes() != path.read_bytes():
                    raise check.CheckError(f"round {r.index}: {path.name} differs from round 0")


def synthetic_table(seed: int, per_config: int) -> tuple[str, bytes]:
    """A results table in the bench format, one row per (instance, combo),
    built with numpy string operations. Returns the combo planted strictly
    best on every instance (never MOR+SCTA, which wins ties) and the text."""
    rng = np.random.default_rng(seed)
    shape = np.array([(n, m, rho) for n, m in SIZES for rho in RHOS for _ in range(per_config)])
    n, m, nominal = shape[:, 0].astype(np.int64), shape[:, 1].astype(np.int64), shape[:, 2]
    count = len(n)
    k = np.maximum(1, np.floor(nominal * n + 0.5)).astype(np.int64)
    ops, legs = n * m, (m + 2) * (m + 1)
    p_raw = rng.integers(ops + 1, 100 * ops + 1) / ops
    t_raw = rng.integers(legs + 1, 100 * legs + 1) / legs
    rho = k / n
    p_norm, t_norm = (p_raw - 1) / 99, (t_raw - 1) / 99
    tau = 2.0 * (p_norm / (p_norm + t_norm)) - 1.0
    regime = np.where(tau > 0, np.where(rho >= 0.5, "process-constrained", "underutilized-transport"),
                      np.where(rho >= 0.5, "resource-saturated", "transport-constrained"))
    p_lo = 1 + 10 * np.clip((p_raw - 1) // 10, 0, 9).astype(np.int64)
    t_lo = 1 + 10 * np.clip((t_raw - 1) // 10, 0, 9).astype(np.int64)
    seeds = rng.integers(0, 2**31 - 1, size=count)
    # Byte strings keep set-up memory well below the reduction's own peak.
    text = lambda a: a.astype("S")  # noqa: E731
    fixed6 = lambda a: np.char.mod("%.6f", a).astype("S")  # noqa: E731
    s = np.strings
    ids = text(n)
    for col in (b"x", text(m), b"x", text(k), b"-seed", text(seeds), b"-i", text(np.arange(count))):
        ids = s.add(ids, col)
    cell = s.add(s.add(s.add(b"p", text(p_lo)), b"_t"), text(t_lo))
    tail = text(n)
    for col in (text(m), text(k), fixed6(p_raw), fixed6(t_raw), fixed6(rho), fixed6(tau),
                text(regime), cell, text(seeds)):
        tail = s.add(s.add(tail, b","), col)
    planted = COMBOS[rng.choice([i for i, c in enumerate(COMBOS) if c != PREFERRED_GLOBAL_BEST])]
    base = rng.integers(200, 3000, size=count)
    makespan = base[:, None] + rng.integers(1, base[:, None] // 4, size=(count, len(COMBOS)))
    makespan[:, COMBOS.index(planted)] = base
    rows = s.add(np.repeat(s.add(ids, b","), len(COMBOS)), np.tile(text(np.array(COMBOS)), count))
    rows = s.add(s.add(s.add(s.add(rows, b","), text(makespan.ravel())), b","), np.repeat(tail, len(COMBOS)))
    header = ",".join(check.RESULT_COLUMNS).encode()
    return planted, header + b"\n" + b"\n".join(rows.tolist()) + b"\n"


WORKLOAD_CLASSES = {"bench": Bench, "grid": Grid, "external": External, "analyze": Analyze}
