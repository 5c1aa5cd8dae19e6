"""Experiment orchestration: benchmark sweeps, the duration grid, regression
on solver gaps, and external-policy evaluation.

Everything here is deterministic under (plan, seed): instance seeds are drawn
once from a master stream in a fixed order, per-solver RNG streams derive from
(instance seed, solver index), and bench and grid reduce in instance order
however many processes generate and solve their chunks, so repeated runs emit
byte-identical tables.
"""

from __future__ import annotations

import csv
import io
import math
from bisect import bisect_right
from collections import deque
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

from .bridge import DEFAULT_TIMEOUT, ExternalPolicyClient, run_episode
from .errors import ActionError, ConfigurationError, DocumentError, MetricError, naming_file
from .instances import (
    GRID_BINS,
    SIZE_MAX,
    GenerationConfig,
    Instance,
    _document_fields,
    _document_int,
    _document_list,
    _document_table,
    check_seed,
    check_size,
    generate_instance,
    read_document,
)
from .metrics import ResultRecord, bottleneck_features, make_record, rpi, win
from .regression import RegressionReport, aggregate_ci, ols_fit, z_normalize
from .rules import ALL_COMBOS, parse_combo, sweep
from .rules import solve  # noqa: F401  (unused; the traced benchmark run wraps harness.solve)

#: What bench and grid generate and solve, one instance each: its config, its
#: id (None keeps the id generate_instance gives) and its grid cell ("" on bench).
Task = tuple[GenerationConfig, str | None, str]

#: Resource-scarcity ladder used throughout the experiments.
RHO_LADDER: tuple[float, ...] = (0.2, 0.4, 0.6, 0.8, 1.0, 1.2)

#: Benchmark instance shapes (jobs x machines).
DEFAULT_SIZES: tuple[tuple[int, int], ...] = (
    (15, 10),
    (10, 10),
    (12, 12),
    (14, 14),
    (20, 5),
    (5, 10),
    (15, 15),
    (30, 10),
)

#: The tau* heatmap axis: 21 bins of width 0.1 on [-1, 1].
TAU_BINS: tuple[float, ...] = tuple(round(-1.0 + 0.1 * i, 1) for i in range(21))


def fleet_size(rho_value: float, n: int) -> int:
    """AGV count for a nominal scarcity value; half-up rounding, at least 1."""
    return max(1, int(math.floor(rho_value * n + 0.5)))


class _Axes:
    """The sizes x scarcity axes both experiment plans sweep, the one check
    of a plan's axes, instance count and solvers, and the configurations
    they give."""

    def _check(self, count_field: str, solvers) -> None:
        if not self.sizes:
            raise ConfigurationError("plan needs at least one size")
        for n, m in self.sizes:
            if n < 1 or m < 1:
                raise ConfigurationError(f"invalid size {n}x{m}")
        if not self.rhos or not all(0 < r < math.inf for r in self.rhos):
            raise ConfigurationError("scarcity values must be positive and finite")
        if getattr(self, count_field) < 1:
            raise ConfigurationError(f"{count_field} must be >= 1")
        check_seed(self.seed)
        if not solvers:
            raise ConfigurationError("plan needs at least one solver")
        for i, ident in enumerate(solvers):
            try:
                parse_combo(ident)
            except (ActionError, AttributeError) as exc:  # AttributeError: not a str
                raise ConfigurationError(f"unknown solver in plan: {ident!r}") from exc
            # A repeated id would count each instance twice in its summary
            # row, or pair each grid row with itself.
            if ident in solvers[:i]:
                raise ConfigurationError(f"solver {ident!r} appears more than once in the plan")

    def configs(self) -> list[tuple[int, int, int]]:
        """(n, m, k) per configuration, size-major. bench and grid take them
        before they generate an instance, so an n, m or k above the loader's
        bound SIZE_MAX is a ConfigurationError naming it before anything
        runs; n and the scarcity values are bounded first, so that
        fleet_size's product is a float."""
        for n, m in self.sizes:
            check_size("n", n)
            check_size("m", m)
        if max(self.rhos) > SIZE_MAX:
            raise ConfigurationError(f"scarcity values must be <= {SIZE_MAX}, got {max(self.rhos)}")
        configs = [(n, m, fleet_size(r, n)) for n, m in self.sizes for r in self.rhos]
        for _, _, k in configs:
            check_size("k", k)
        return configs


@dataclass(frozen=True)
class ExperimentPlan(_Axes):
    """A benchmark sweep: sizes x scarcity ladder x instances x solvers."""

    sizes: tuple[tuple[int, int], ...] = DEFAULT_SIZES
    rhos: tuple[float, ...] = RHO_LADDER
    instances_per_config: int = 100
    solvers: tuple[str, ...] = ALL_COMBOS
    seed: int = 0

    def __post_init__(self) -> None:
        self._check("instances_per_config", self.solvers)


def _is_number(value) -> bool:
    # A bool is an int to Python, and an int too long for a float has no rho.
    return type(value) is float or type(value) is int and abs(value) <= 2**1023


def plan_from_document(doc: dict) -> ExperimentPlan:
    """A plan from its document; `sizes` is required, and the other fields
    left out keep the plan's defaults. Values the plan cannot hold exactly,
    and fields it does not have, are rejected, naming the field."""
    if not isinstance(doc, dict):
        raise ConfigurationError(f"bad plan document: expected an object, got {type(doc).__name__}")
    try:
        _document_fields(doc, ("sizes",), tuple(ExperimentPlan.__dataclass_fields__))
        given = {"sizes": _document_table(doc, "sizes", 2, "an [n, m] pair")}
        if "rhos" in doc:
            given["rhos"] = tuple(map(float, _document_list(doc, "rhos", "a number", _is_number)))
        if doc.get("solvers", "all") != "all":
            given["solvers"] = _document_list(doc, "solvers", "a string",
                                              lambda v: isinstance(v, str), 'a list or "all"')
        for field in ("instances_per_config", "seed"):
            if field in doc:
                given[field] = _document_int(doc[field], field)
    except DocumentError as exc:
        raise ConfigurationError(f"bad plan document: {exc}") from exc
    return ExperimentPlan(**given)


def load_plan(path: str | Path) -> ExperimentPlan:
    with naming_file(path):
        try:
            doc = read_document(path)
        except DocumentError as exc:
            raise ConfigurationError(f"bad plan {exc}") from exc
        return plan_from_document(doc)


def bench_tasks(plan: ExperimentPlan) -> Iterator[Task]:
    """The plan's instances as tasks, in plan order, seeds drawn from one
    stream. A bench instance keeps the id generate_instance gives it."""
    import numpy as np

    seed_rng = np.random.default_rng(plan.seed)
    for n, m, k in plan.configs():
        child_seeds = seed_rng.integers(0, 2**31 - 1, size=plan.instances_per_config)
        for child in child_seeds:
            yield GenerationConfig(n=n, m=m, k=k, seed=int(child)), None, ""


def generate_bench_instances(plan: ExperimentPlan) -> list[Instance]:
    """All benchmark instances in plan order."""
    return _generate(bench_tasks(plan))


def _generate(tasks: Iterable[Task]) -> list[Instance]:
    return [generate_instance(config, id_override=ident) for config, ident, _ in tasks]


# -- solving ------------------------------------------------------------------

#: Tasks per chunk: a chunk generates its instances, then solves them, so no
#: process holds more than a chunk's instances at once. Chunks of 16 or fewer
#: made every rule step of a bench round about 6% slower; 24 and more did not.
CHUNK_SIZE = 32
#: Chunks pending per worker process when bench or grid fans out.
WINDOW_PER_JOB = 4


def _solve_chunk(tasks: list[Task], solver_ids: tuple[str, ...]) -> list[ResultRecord]:
    """Generate a chunk's instances, then run every solver on each, in task
    order; runs in a worker process when bench or grid fans out. The whole
    chunk is generated before the first sweep: generating and solving one
    instance at a time is a chunk of one, which CHUNK_SIZE says is slow."""
    records: list[ResultRecord] = []
    for instance, (_, _, cell) in zip(_generate(tasks), tasks):
        makespans = sweep(instance, solver_ids, seed=instance.seed)
        records.extend(
            make_record(instance, ident, ms, cell) for ident, ms in zip(solver_ids, makespans)
        )
    return records


def _chunks(tasks: Iterable[Task]) -> Iterator[list[Task]]:
    tasks = iter(tasks)
    while chunk := list(islice(tasks, CHUNK_SIZE)):
        yield chunk


def _solve_tasks(tasks: Iterable[Task], solver_ids, jobs: int) -> list[ResultRecord]:
    """The records of every task, in task order, chunk by chunk: in this
    process, or in `jobs` worker processes that generate what they solve,
    with at most WINDOW_PER_JOB chunks per worker pending."""
    solver_ids = tuple(solver_ids)
    if jobs > 1:
        # Imported here: they bring in socket and logging, which a one-process
        # run never uses.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # Workers start as fresh interpreters, not as forks of this process,
        # so they hold none of what this process holds.
        context = multiprocessing.get_context("spawn")
        records: list[ResultRecord] = []
        pending: deque = deque()
        with ProcessPoolExecutor(max_workers=jobs, mp_context=context) as pool:
            for chunk in _chunks(tasks):
                if len(pending) == WINDOW_PER_JOB * jobs:
                    records.extend(pending.popleft().result())
                pending.append(pool.submit(_solve_chunk, chunk, solver_ids))
            while pending:
                records.extend(pending.popleft().result())
        return records
    return [record for chunk in _chunks(tasks) for record in _solve_chunk(chunk, solver_ids)]


def run_bench(plan: ExperimentPlan, jobs: int = 1):
    """Execute the benchmark plan; returns (records, summary rows, global best)."""
    records = _solve_tasks(bench_tasks(plan), plan.solvers, jobs)
    summary, global_best = summarize_results(records)
    return records, summary, global_best


# -- summaries ------------------------------------------------------------------

SUMMARY_COLUMNS = (
    "solver",
    "instances",
    "mean_makespan",
    "mean_rpi_vs_best",
    "ci95_rpi_vs_best",
    "mean_rpi_vs_global",
    "ci95_rpi_vs_global",
    "win_rate_vs_global",
    "global_best",
)

#: Tie preference for the global-best combo, matching the benchmark baseline.
PREFERRED_GLOBAL_BEST = "MOR+SCTA"

_COMBOS = frozenset(ALL_COMBOS)


def _combo_makespans(records) -> dict[str, dict[str, int]]:
    """{instance: {combo: makespan}} over the rule-combo rows, in one pass.
    A results table holds each (instance, solver) pair once."""
    index: dict[str, dict[str, int]] = {}
    for rec in records:
        if rec.solver_id in _COMBOS:
            index.setdefault(rec.instance_id, {})[rec.solver_id] = rec.makespan
    return index


def select_global_best(records: list[ResultRecord]) -> str:
    """The rule combo with the highest round-robin win rate (strict wins
    against every other combo over all instances). Ties prefer MOR+SCTA,
    then the lexicographically smallest identifier."""
    index = _combo_makespans(records)
    wins: dict[str, int] = {}
    for makespans in index.values():
        ranked = sorted(makespans.values())
        for c, makespan in makespans.items():
            # c beats every combo with a longer makespan on this instance.
            wins[c] = wins.get(c, 0) + len(ranked) - bisect_right(ranked, makespan)
    if not wins:
        raise MetricError("no dispatching-rule rows to pick a global best from")
    most_wins = max(wins.values())
    tied = sorted(c for c, count in wins.items() if count == most_wins)
    return PREFERRED_GLOBAL_BEST if PREFERRED_GLOBAL_BEST in tied else tied[0]


def summarize_results(records: list[ResultRecord]):
    """Per-solver benchmark summary against the per-instance best rule combo
    and against the fixed global-best combo. All solver ids present (including
    external ones) are ranked with the same arithmetic."""
    if not records:
        raise MetricError("cannot summarize an empty results table")
    global_best = select_global_best(records)
    index = _combo_makespans(records)
    best = {i: min(makespans.values()) for i, makespans in index.items()}
    at_global = {i: ms[global_best] for i, ms in index.items() if global_best in ms}
    by_solver: dict[str, list[ResultRecord]] = {}
    for rec in records:
        by_solver.setdefault(rec.solver_id, []).append(rec)
    rows = []
    for solver_id in sorted(by_solver):
        mine = by_solver[solver_id]
        rpis_best = [rpi(r.makespan, best[r.instance_id]) for r in mine if r.instance_id in best]
        vs_global = [
            (r.makespan, at_global[r.instance_id]) for r in mine if r.instance_id in at_global
        ]
        rpis_global = [rpi(*pair) for pair in vs_global]
        rows.append(
            {
                "solver": solver_id,
                "instances": len(mine),
                "mean_makespan": _mean(r.makespan for r in mine),
                "mean_rpi_vs_best": _mean(rpis_best),
                "ci95_rpi_vs_best": _half_width(rpis_best),
                "mean_rpi_vs_global": _mean(rpis_global),
                "ci95_rpi_vs_global": _half_width(rpis_global),
                "win_rate_vs_global": _mean(win(*pair) for pair in vs_global),
                "global_best": global_best,
            }
        )
    rows.sort(key=lambda r: (-r["mean_rpi_vs_best"], r["solver"]))
    return rows, global_best


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else float("nan")


def _half_width(values: list) -> float:
    return aggregate_ci(values)[1] if len(values) > 1 else 0.0


# -- results tables --------------------------------------------------------------

#: The results table: (header, ResultRecord field, cell type) per column, in
#: the order ResultRecord declares its fields.
_RESULT_SCHEMA: tuple[tuple[str, str, type], ...] = (
    ("instance", "instance_id", str),
    ("solver", "solver_id", str),
    ("makespan", "makespan", int),
    ("n", "n", int),
    ("m", "m", int),
    ("k", "k", int),
    ("p_raw", "p_raw", float),
    ("t_raw", "t_raw", float),
    ("rho", "rho", float),
    ("tau", "tau", float),
    ("regime", "regime", str),
    ("cell", "cell_id", str),
    ("seed", "seed", int),
)
RESULT_COLUMNS = tuple(header for header, _, _ in _RESULT_SCHEMA)
#: The format() spec of each results cell: 6 decimals for a float column,
#: str() for the others.
_RESULT_SPECS = tuple(".6f" if kind is float else "" for _, _, kind in _RESULT_SCHEMA)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6f}"
    return "" if value is None else str(value)


def records_to_csv(records: list[ResultRecord]) -> str:
    # A record's __dict__ holds its fields in declaration order: the schema's.
    return _write_csv(RESULT_COLUMNS, lambda: (map(format, vars(r).values(), _RESULT_SPECS)
                                                for r in records))


def records_from_csv(text: str) -> list[ResultRecord]:
    """The records of a results table. A missing column, a short or long
    row, a cell that is not a number of its column's type, a number that is
    not finite, a makespan, rho or tau outside its range or a repeated
    (instance, solver) pair raises DocumentError naming the line, as does
    text the csv module cannot read."""
    reader = csv.DictReader(io.StringIO(text))
    try:
        return _read_records(reader)
    except csv.Error as exc:
        # DictReader's own line_num stops at the last row it returned.
        raise DocumentError(f"results table line {reader.reader.line_num}: {exc}") from None


def _read_records(reader: csv.DictReader) -> list[ResultRecord]:
    for column in RESULT_COLUMNS:
        if column not in (reader.fieldnames or ()):
            raise DocumentError(f"results table line 1: no {column!r} column")
    records = []
    lines: dict[tuple[str, str], int] = {}
    for row in reader:
        line = reader.line_num
        if None in row:  # csv.DictReader files surplus cells under None
            raise DocumentError(
                f"results table line {line}: the row runs past column {reader.fieldnames[-1]!r}"
            )
        pair = (row["instance"], row["solver"])
        if pair in lines:
            raise DocumentError(
                f"results table line {line}: instance {pair[0]!r}, solver {pair[1]!r} "
                f"repeats line {lines[pair]}"
            )
        lines[pair] = line
        cells = {field: _cell(row, header, kind, line) for header, field, kind in _RESULT_SCHEMA}
        # The documented ranges: tau is an index on [-1, 1], rho = k/n with
        # k <= SIZE_MAX, and a makespan up to 2**53 stays exact in the
        # summary's float means.
        for column, fits, bounds in (
            ("makespan", 1 <= cells["makespan"] <= 2**53, "[1, 2**53]"),
            ("rho", 0 < cells["rho"] <= SIZE_MAX, f"(0, {SIZE_MAX}]"),
            ("tau", -1 <= cells["tau"] <= 1, "[-1, 1]"),
        ):
            if not fits:
                raise DocumentError(
                    f"results table line {line}, column {column!r}: must be in {bounds}, "
                    f"got {row[column]!r}"
                )
        records.append(ResultRecord(**cells))
    return records


def _cell(row: dict, column: str, kind: type, line: int):
    """A cell of a results row, as `kind`; a float cell must be finite."""
    value = row[column]
    if value is None:  # csv.DictReader fills a short row with None
        raise DocumentError(f"results table line {line}: the row ends before column {column!r}")
    if kind is str:
        return value
    try:
        cell = kind(value)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise DocumentError(
            f"results table line {line}, column {column!r}: must be {what}, got {value!r}"
        ) from None
    if kind is float and not math.isfinite(cell):
        raise DocumentError(
            f"results table line {line}, column {column!r}: must be finite, got {value!r}"
        )
    return cell


def read_records(path: str | Path) -> list[ResultRecord]:
    # Decoded bytes keep their newlines, so a quoted carriage return reads back as one.
    with naming_file(path):
        data = Path(path).read_bytes()
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = data.count(b"\n", 0, exc.start) + 1
            raise DocumentError(f"results table line {line}: not UTF-8 ({exc.reason})") from None
        return records_from_csv(text)


def _table_to_csv(columns: tuple[str, ...], rows: list[dict]) -> str:
    return _write_csv(columns, lambda: ([_fmt(row[c]) for c in columns] for row in rows))


def _write_csv(columns: tuple[str, ...], cells) -> str:
    """A table of the rows that `cells()` yields. Up to Python 3.12 the
    writer quotes a cell holding a line feed but not one holding a lone
    carriage return, which the reader then rejects; so a table with any
    carriage return is written again with every cell quoted."""
    for quoting in (csv.QUOTE_MINIMAL, csv.QUOTE_ALL):
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n", quoting=quoting)
        writer.writerow(columns)
        writer.writerows(cells())
        text = buf.getvalue()
        if "\r" not in text:
            break
    return text


def summary_to_csv(rows: list[dict]) -> str:
    return _table_to_csv(SUMMARY_COLUMNS, rows)


# -- grid experiment ----------------------------------------------------------

@dataclass(frozen=True)
class GridPlan(_Axes):
    """The duration-grid experiment: every decade-bin combination, each base
    configuration, `instances_per_cell` instances, two solvers to compare."""

    sizes: tuple[tuple[int, int], ...] = DEFAULT_SIZES
    rhos: tuple[float, ...] = RHO_LADDER
    instances_per_cell: int = 20
    solver_a: str = "SPT+SCTA"
    solver_b: str = "MOR+SCTA"
    seed: int = 0

    def __post_init__(self) -> None:
        self._check("instances_per_cell", (self.solver_a, self.solver_b))
        # Each scarcity value heads its own heatmap.csv column, by its :g text.
        columns = [f"{r:g}" for r in self.rhos]
        for i, column in enumerate(columns):
            if column in columns[:i]:
                raise ConfigurationError(f"rho {self.rhos[i]!r} repeats heatmap column {column}")


def _cell_label(proc_bin: tuple[int, int], transport_bin: tuple[int, int]) -> str:
    return f"p{proc_bin[0]}_t{transport_bin[0]}"


def grid_tasks(plan: GridPlan) -> Iterator[Task]:
    """A task for every instance of every (cell, base config) pair. The plan
    stream gives each pair a child seed, in cell-major order; the child
    stream gives that pair's instance seeds."""
    import numpy as np

    seed_rng = np.random.default_rng(plan.seed)
    configs = plan.configs()
    for proc_bin in GRID_BINS:
        for transport_bin in GRID_BINS:
            label = _cell_label(proc_bin, transport_bin)
            for n, m, k in configs:
                child = np.random.default_rng(int(seed_rng.integers(0, 2**31 - 1)))
                seeds = child.integers(0, 2**31 - 1, size=plan.instances_per_cell).tolist()
                for idx, seed in enumerate(seeds):
                    config = GenerationConfig(
                        n=n, m=m, proc_range=proc_bin, transport_range=transport_bin, k=k, seed=seed
                    )
                    ident = f"{n}x{m}x{k}-seed{seed}-cell{proc_bin[0]}_{transport_bin[0]}-i{idx}"
                    yield config, ident, label


def generate_grid_instances(plan: GridPlan) -> tuple[list[Instance], list[str]]:
    """Instances for every (cell, base config) pair plus their cell ids."""
    tasks = list(grid_tasks(plan))
    return _generate(tasks), [cell for _, _, cell in tasks]


def run_grid(plan: GridPlan, jobs: int = 1):
    """Execute the grid experiment; returns (records, cell rows, heatmap rows)."""
    records = _solve_tasks(grid_tasks(plan), (plan.solver_a, plan.solver_b), jobs)
    cells = grid_cell_table(records, plan.solver_a, plan.solver_b)
    heatmap = heatmap_table(records, plan.solver_a, plan.solver_b, plan.rhos)
    return records, cells, heatmap


def _pair_records(records, solver_a: str, solver_b: str):
    """Join the two solvers' rows by instance; every instance needs both."""
    if solver_a == solver_b:
        raise MetricError(f"cannot pair solver {solver_a!r} with itself")
    rows_a = {r.instance_id: r for r in records if r.solver_id == solver_a}
    rows_b = {r.instance_id: r for r in records if r.solver_id == solver_b}
    if set(rows_a) != set(rows_b):
        missing = sorted(set(rows_a) ^ set(rows_b))
        raise MetricError(
            f"cannot pair solvers {solver_a!r} and {solver_b!r}: "
            f"{len(missing)} unmatched instances (first: {missing[0]})"
        )
    if not rows_a:
        raise MetricError(f"no rows found for solvers {solver_a!r} / {solver_b!r}")
    return [(rows_a[i], rows_b[i]) for i in sorted(rows_a)]


GRID_CELL_COLUMNS = (
    "proc_bin",
    "transport_bin",
    "cell",
    "instances",
    "mean_tau",
    "mean_makespan_a",
    "mean_makespan_b",
    "mean_rpi",
)


def grid_cell_table(records, solver_a: str, solver_b: str) -> list[dict]:
    """Aggregate makespans and improvement per duration cell (all base
    configurations pooled)."""
    pairs = _pair_records(records, solver_a, solver_b)
    by_cell: dict[str, list[tuple[ResultRecord, ResultRecord]]] = {}
    for pair in pairs:
        by_cell.setdefault(pair[0].cell_id, []).append(pair)
    rows = []
    for proc_bin in GRID_BINS:
        for transport_bin in GRID_BINS:
            label = _cell_label(proc_bin, transport_bin)
            cell_pairs = by_cell.get(label)
            if not cell_pairs:
                continue
            rows.append(
                {
                    "proc_bin": f"{proc_bin[0]}-{proc_bin[1]}",
                    "transport_bin": f"{transport_bin[0]}-{transport_bin[1]}",
                    "cell": label,
                    "instances": len(cell_pairs),
                    "mean_tau": _mean(a.tau for a, _ in cell_pairs),
                    "mean_makespan_a": _mean(a.makespan for a, _ in cell_pairs),
                    "mean_makespan_b": _mean(b.makespan for _, b in cell_pairs),
                    "mean_rpi": _mean(
                        rpi(a.makespan, b.makespan) for a, b in cell_pairs
                    ),
                }
            )
    return rows


def grid_cells_to_csv(rows: list[dict]) -> str:
    return _table_to_csv(GRID_CELL_COLUMNS, rows)


def nearest_rho(value: float, axis) -> float:
    """Column of the heatmap a realized k/n belongs to."""
    return min(axis, key=lambda r: (abs(r - value), r))


def tau_bin(tau: float) -> float:
    """tau* rounded half-up to the nearest 0.1, clamped to [-1, 1]."""
    binned = math.floor(tau * 10 + 0.5) / 10
    return min(1.0, max(-1.0, binned)) + 0.0


def heatmap_table(records, solver_a: str, solver_b: str, rho_axis=RHO_LADDER):
    """Mean improvement of solver_a over solver_b per (tau* bin, rho column).
    Rows descend from tau* = 1.0 to -1.0 and are keyed by the heatmap.csv
    headers: "tau" holds the bin's text, and each rho column its :g text.
    Cells without data are None."""
    pairs = _pair_records(records, solver_a, solver_b)
    axis = tuple(sorted(rho_axis))
    sums: dict[tuple[float, float], list[float]] = {}
    for a, b in pairs:
        key = (tau_bin(a.tau), nearest_rho(a.rho, axis))
        sums.setdefault(key, []).append(rpi(a.makespan, b.makespan))
    rows = []
    for tau_value in reversed(TAU_BINS):
        row: dict = {"tau": f"{tau_value:.1f}"}
        for rho_value in axis:
            values = sums.get((tau_value, rho_value))
            row[f"{rho_value:g}"] = _mean(values) if values else None
        rows.append(row)
    return rows


def heatmap_to_csv(rows: list[dict]) -> str:
    return _table_to_csv(tuple(rows[0]) if rows else ("tau",), rows)


# -- regression on solver gaps ---------------------------------------------------

REGRESSION_MODELS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("BM", ("BM",)),
    ("JBN", ("JBN",)),
    ("ABN", ("ABN",)),
    ("JBN+ABN", ("JBN", "ABN")),
    ("BM+JBN+ABN", ("BM", "JBN", "ABN")),
)


def run_regression_suite(
    records, solver: str, baseline: str
) -> list[tuple[str, RegressionReport]]:
    """Fit the single-, two- and three-feature models of the coupling-factor
    regression: improvement of `solver` over `baseline` explained by the
    z-normalized bottleneck features."""
    import numpy as np

    pairs = _pair_records(records, solver, baseline)
    y = np.array([rpi(a.makespan, b.makespan) for a, b in pairs])
    # The (bm, jbn, abn) members of each row's BottleneckFeatures.
    feats = np.array([bottleneck_features(a.rho, a.tau)[1:] for a, _ in pairs])
    features = ("BM", "JBN", "ABN")
    columns = dict(zip(features, z_normalize(feats, names=list(features)).T))
    reports = []
    for label, names in REGRESSION_MODELS:
        design = np.column_stack([np.ones(len(y))] + [columns[name] for name in names])
        reports.append((label, ols_fit(design, y, names=["const", *names])))
    return reports


def format_regression_suite(reports: list[tuple[str, RegressionReport]]) -> str:
    return "\n".join(f"model,{label}\n{report.format_text()}" for label, report in reports)


# -- external policy evaluation ----------------------------------------------------

def run_external_eval(
    instances: list[Instance],
    command,
    label: str = "external",
    timeout: float = DEFAULT_TIMEOUT,
) -> list[ResultRecord]:
    """Evaluate one external joint policy over an instance set; rows use the
    same schema as rule-combo rows, so rankings and regressions apply as-is."""
    records = []
    with ExternalPolicyClient(command, timeout=timeout) as client:
        for instance in instances:
            state, _ = run_episode(instance, client, client)
            records.append(make_record(instance, label, state.makespan()))
    return records
