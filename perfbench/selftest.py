"""Self-test of the benchmark's checks: valid outputs pass, corrupted ones fail.

    cd perfbench && python3 selftest.py

Small bench, grid and analyze outputs are made with jsspt from this
checkout; each check must then reject one deliberately corrupted copy: a
makespan off by one, a makespan below the lower bound, a wrong global best,
a perturbed coefficient, a perturbed cell or heatmap mean, a dropped row.
"""

from __future__ import annotations

import shutil
import unittest
from pathlib import Path

import common

common.use_checkout_sources()
common.checked_import()

import check  # noqa: E402
from jsspt import harness  # noqa: E402
from workloads import SOLVER_A, SOLVER_B, Analyze  # noqa: E402

OUT = common.OUT / "selftest"
GRID_RHOS = (0.4, 0.8, 1.2)


def _edit(path: Path, row: int, column: int, value) -> None:
    """Replace one CSV field (row 0 is the header)."""
    lines = path.read_text(encoding="utf-8").splitlines()
    fields = lines[row].split(",")
    fields[column] = str(value)
    lines[row] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _copy(src: Path, name: str) -> Path:
    dst = OUT / name
    shutil.rmtree(dst, ignore_errors=True)
    shutil.copytree(src, dst)
    return dst


class Fixtures(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        shutil.rmtree(OUT, ignore_errors=True)
        cls.bench = OUT / "bench"
        cls.bench.mkdir(parents=True)
        plan = harness.ExperimentPlan(sizes=((5, 4), (6, 3)), rhos=(0.4, 1.0), instances_per_config=2, seed=7)
        records, summary, _ = harness.run_bench(plan)
        (cls.bench / "results.csv").write_text(harness.records_to_csv(records), encoding="utf-8")
        (cls.bench / "summary.csv").write_text(harness.summary_to_csv(summary), encoding="utf-8")
        cls.bench_instances = [check.arrays_of(i) for i in harness.generate_bench_instances(plan)]

        cls.grid = OUT / "grid"
        cls.grid.mkdir()
        gplan = harness.GridPlan(sizes=((5, 4),), rhos=GRID_RHOS, instances_per_cell=1, seed=5)
        records, cells, heatmap = harness.run_grid(gplan)
        text = harness.records_to_csv(records)
        (cls.grid / "grid_results.csv").write_text(text, encoding="utf-8")
        (cls.grid / "grid_cells.csv").write_text(harness.grid_cells_to_csv(cells), encoding="utf-8")
        (cls.grid / "heatmap.csv").write_text(harness.heatmap_to_csv(heatmap), encoding="utf-8")
        reports = harness.run_regression_suite(harness.records_from_csv(text), SOLVER_A, SOLVER_B)
        (cls.grid / "regress.txt").write_text(harness.format_regression_suite(reports), encoding="utf-8")
        instances, labels = harness.generate_grid_instances(gplan)
        cls.grid_instances = [check.arrays_of(i) for i in instances]
        cls.grid_cells = dict(zip((i.id for i in instances), labels))

    def bench_checks(self, root: Path) -> None:
        check.check_results(root / "results.csv", self.bench_instances, common.COMBOS)
        check.check_summary(check.parse_results(root / "results.csv"), root / "summary.csv")

    def grid_checks(self, root: Path) -> None:
        factors = check.check_results(root / "grid_results.csv", self.grid_instances,
                                      (SOLVER_A, SOLVER_B), self.grid_cells)
        table = check.parse_results(root / "grid_results.csv")
        check.check_cells(table, SOLVER_A, SOLVER_B, root / "grid_cells.csv", factors)
        check.check_heatmap(table, SOLVER_A, SOLVER_B, GRID_RHOS, root / "heatmap.csv", factors)
        check.check_regression(table, SOLVER_A, SOLVER_B, root / "regress.txt")

    def row_of(self, path: Path, solver: str) -> int:
        lines = path.read_text(encoding="utf-8").splitlines()
        return next(i for i, line in enumerate(lines) if line.split(",")[1] == solver)


class BenchChecks(Fixtures):
    def test_valid_output_passes(self):
        self.bench_checks(self.bench)

    def test_makespan_off_by_one(self):
        for solver in ("SPT+SCTA", "FCFS+SCPT", "FDD/MWR+SPUT"):
            root = _copy(self.bench, "off-by-one")
            row = self.row_of(root / "results.csv", solver)
            makespan = int((root / "results.csv").read_text().splitlines()[row].split(",")[2])
            _edit(root / "results.csv", row, 2, makespan + 1)
            with self.assertRaisesRegex(check.CheckError, "reference dispatcher"):
                self.bench_checks(root)

    def test_makespan_below_lower_bound(self):
        root = _copy(self.bench, "below-bound")
        row = self.row_of(root / "results.csv", "RANDOM+RANDOM")
        ident = (root / "results.csv").read_text().splitlines()[row].split(",")[0]
        bound = check.lower_bound(next(a for a in self.bench_instances if a.id == ident))
        _edit(root / "results.csv", row, 2, bound - 1)
        with self.assertRaisesRegex(check.CheckError, "below lower bound"):
            self.bench_checks(root)

    def test_wrong_global_best(self):
        root = _copy(self.bench, "global-best")
        summary = (root / "summary.csv").read_text().splitlines()
        wrong = next(c for c in common.COMBOS if c != summary[1].split(",")[-1])
        for row in range(1, len(summary)):
            _edit(root / "summary.csv", row, 8, wrong)
        with self.assertRaisesRegex(check.CheckError, "global best"):
            self.bench_checks(root)

    def test_perturbed_summary_mean(self):
        root = _copy(self.bench, "summary-mean")
        value = float((root / "summary.csv").read_text().splitlines()[3].split(",")[3])
        _edit(root / "summary.csv", 3, 3, f"{value + 0.01:.6f}")
        with self.assertRaisesRegex(check.CheckError, "mean_rpi_vs_best"):
            self.bench_checks(root)

    def test_dropped_row(self):
        root = _copy(self.bench, "dropped-row")
        lines = (root / "results.csv").read_text().splitlines()
        (root / "results.csv").write_text("\n".join(lines[:5] + lines[6:]) + "\n")
        with self.assertRaisesRegex(check.CheckError, "rows"):
            self.bench_checks(root)


class GridChecks(Fixtures):
    def test_valid_output_passes(self):
        self.grid_checks(self.grid)

    def test_perturbed_coefficient(self):
        root = _copy(self.grid, "coefficient")
        text = (root / "regress.txt").read_text()
        lines = text.splitlines()
        row = next(i for i, line in enumerate(lines) if line.startswith("JBN,"))
        fields = lines[row].split(",")
        fields[1] = f"{float(fields[1]) + 0.001:.6f}"
        lines[row] = ",".join(fields)
        (root / "regress.txt").write_text("\n".join(lines) + "\n")
        with self.assertRaisesRegex(check.CheckError, "coefficient"):
            self.grid_checks(root)

    def test_perturbed_cell_mean(self):
        root = _copy(self.grid, "cell-mean")
        value = float((root / "grid_cells.csv").read_text().splitlines()[4].split(",")[7])
        _edit(root / "grid_cells.csv", 4, 7, f"{value + 0.01:.6f}")
        with self.assertRaisesRegex(check.CheckError, "grid_cells.csv"):
            self.grid_checks(root)

    def test_perturbed_heatmap_cell(self):
        root = _copy(self.grid, "heatmap")
        lines = (root / "heatmap.csv").read_text().splitlines()
        row = next(i for i, line in enumerate(lines[1:], 1) if line.split(",")[1])
        _edit(root / "heatmap.csv", row, 1, f"{float(lines[row].split(',')[1]) + 0.01:.6f}")
        with self.assertRaisesRegex(check.CheckError, "heatmap.csv"):
            self.grid_checks(root)

    def test_dropped_row(self):
        root = _copy(self.grid, "grid-dropped-row")
        lines = (root / "grid_results.csv").read_text().splitlines()
        (root / "grid_results.csv").write_text("\n".join(lines[:-1]) + "\n")
        with self.assertRaisesRegex(check.CheckError, "rows"):
            self.grid_checks(root)


class AnalyzeChecks(unittest.TestCase):
    def setUp(self):
        self.root = OUT / "analyze"
        shutil.rmtree(self.root, ignore_errors=True)
        self.workload = Analyze(3, self.root)
        self.workload.INSTANCES_PER_CONFIG = 2
        self.root.mkdir(parents=True)
        self.workload.setup()
        self.round = self.workload.run_round(0, self.root / "r0")

    def test_valid_output_passes(self):
        self.workload.check([self.round])

    def test_wrong_global_best(self):
        self.workload.planted = next(c for c in common.COMBOS if c != self.workload.planted)
        with self.assertRaisesRegex(check.CheckError, "global best"):
            self.workload.check([self.round])

    def test_dropped_row(self):
        path = self.round.out / "results.csv"
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with self.assertRaisesRegex(check.CheckError, "differs"):
            self.workload.check([self.round])
        self.workload.table.write_text("\n".join(lines[:-1]) + "\n")
        with self.assertRaisesRegex(check.CheckError, "rows"):
            self.workload.check([self.round])


if __name__ == "__main__":
    unittest.main()
