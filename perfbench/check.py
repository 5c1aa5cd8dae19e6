"""Independent checks of the tables the benchmark's workloads write.

Nothing here calls jsspt: every expected value is recomputed from the
instance arrays or from the results table with plain Python and numpy,
following the rules as the README states them.

- `lower_bound`: a contention-free makespan bound; every makespan must reach it.
- `reference_makespans`: a semi-active dispatcher for the deterministic rule
  pairs, ties toward the lowest index; those makespans must match exactly.
- `check_summary`, `check_cells`, `check_heatmap`: numpy recomputation of the
  per-instance best, the summary means, the grid cells and the heatmap.
- `check_regression`: `numpy.linalg.lstsq` on the same design matrix as the
  printed OLS estimates.
- `check_results`: row counts equal to instances x solvers, and every
  per-row column derived from the instance.
"""

from __future__ import annotations

import csv
import math
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import numpy as np

from common import COMBOS, DETERMINISTIC, GRID_LOWS, PREFERRED_GLOBAL_BEST

RESULT_COLUMNS = (
    "instance", "solver", "makespan", "n", "m", "k", "p_raw", "t_raw",
    "rho", "tau", "regime", "cell", "seed",
)
SUMMARY_COLUMNS = (
    "solver", "instances", "mean_makespan", "mean_rpi_vs_best", "ci95_rpi_vs_best",
    "mean_rpi_vs_global", "ci95_rpi_vs_global", "win_rate_vs_global", "global_best",
)
CELL_COLUMNS = (
    "proc_bin", "transport_bin", "cell", "instances", "mean_tau",
    "mean_makespan_a", "mean_makespan_b", "mean_rpi",
)
MODELS = (("BM", ("BM",)), ("JBN", ("JBN",)), ("ABN", ("ABN",)),
          ("JBN+ABN", ("JBN", "ABN")), ("BM+JBN+ABN", ("BM", "JBN", "ABN")))

# Printed floats carry six decimals; means recomputed in another order can
# land on the other side of a rounding step.
PRINT_TOL = 2e-6
LOAD, UNLOAD = 0, 1


class CheckError(AssertionError):
    """A workload output disagrees with the independent recomputation."""


def _fail(what: str, detail: str) -> None:
    raise CheckError(f"{what}: {detail}")


def _close(printed: float, expected: float, tol: float = PRINT_TOL) -> bool:
    return abs(printed - expected) <= tol + 1e-9 * abs(expected)


# -- instances ------------------------------------------------------------------

class Arrays(NamedTuple):
    """An instance as plain arrays: routings (n, m) of 0-based machines,
    proc (n, m+1) with the zero-time release last, transport (m+2, m+2)."""

    id: str
    n: int
    m: int
    k: int
    seed: int
    routings: np.ndarray
    proc: np.ndarray
    transport: np.ndarray


def arrays_of(doc) -> Arrays:
    """From an instance document (dict) or any object with the same fields."""
    get = doc.__getitem__ if isinstance(doc, dict) else lambda f: getattr(doc, f)
    return Arrays(
        str(get("id")), int(get("n")), int(get("m")), int(get("k")), int(get("seed")),
        np.asarray(get("routings"), dtype=np.int64),
        np.asarray(get("proc_times"), dtype=np.int64),
        np.asarray(get("transport"), dtype=np.int64),
    )


def _targets(a: Arrays) -> np.ndarray:
    """Transport index of the machine of every operation, (n, m+1)."""
    return np.concatenate([a.routings + 2, np.full((a.n, 1), UNLOAD)], axis=1)


def _sources(a: Arrays) -> np.ndarray:
    return np.concatenate([np.full((a.n, 1), LOAD), a.routings + 2], axis=1)


def lower_bound(a: Arrays) -> int:
    """Largest of three contention-free bounds: a job's processing plus its
    loaded legs; a machine's total processing; all loaded travel shared by
    k vehicles."""
    legs = a.transport[_sources(a), _targets(a)]
    job_path = int((a.proc.sum(axis=1) + legs.sum(axis=1)).max())
    machine_load = int(np.bincount(a.routings.ravel(), weights=a.proc[:, :a.m].ravel()).max())
    fleet = -(-int(legs.sum()) // a.k)
    return max(job_path, machine_load, fleet)


def coupling_factors(a: Arrays) -> tuple[float, float, float, float]:
    """(p_raw, t_raw, rho, tau) with the README's definitions, in the same
    floating-point operation order as the table writer so bins agree."""
    p_raw = int(a.proc[:, :a.m].sum()) / (a.n * a.m)
    size = a.m + 2
    t_raw = int(a.transport.sum()) / (size * (size - 1))
    p_norm = (p_raw - 1) / 99
    t_norm = (t_raw - 1) / 99
    tau = 2.0 * (p_norm / (p_norm + t_norm)) - 1.0
    return p_raw, t_raw, a.k / a.n, tau


def regime(rho: float, tau: float) -> str:
    if tau > 0.0:
        return "process-constrained" if rho >= 0.5 else "underutilized-transport"
    return "resource-saturated" if rho >= 0.5 else "transport-constrained"


# -- reference dispatcher -----------------------------------------------------------

_OP_KEYS = {
    # Lower is better; p is the job's processing row, i the 0-based op index.
    "SPT": lambda p, i: p[i],
    "LPT": lambda p, i: -p[i],
    "SMPT": lambda p, i: Fraction(sum(p[i:]), len(p) - i),
    "MWR": lambda p, i: -sum(p[i:]),
    "LWR": lambda p, i: sum(p[i:]),
    # The zero-time release has no work left: it never wins a strict
    # comparison, which an infinite key expresses.
    "FDD/MWR": lambda p, i: Fraction(sum(p[: i + 1]), sum(p[i:])) if sum(p[i:]) else math.inf,
    "MOR": lambda p, i: -(len(p) - i),
    "LOR": lambda p, i: len(p) - i,
}


def _static_keys(a: Arrays, rule: str) -> list[list[int]] | None:
    """Integer rank of every (job, op) key for rules that depend only on the
    candidate operation (exact, so ties stay ties); None for FCFS, whose key
    is the job's last completion time."""
    if rule == "FCFS":
        return None
    key = _OP_KEYS[rule]
    rows = [[key(p, i) for i in range(a.m + 1)] for p in a.proc.tolist()]
    rank = {v: r for r, v in enumerate(sorted({v for row in rows for v in row}))}
    return [[rank[v] for v in row] for row in rows]


def reference_makespans(a: Arrays, combos) -> dict[str, int]:
    """Makespan of every given deterministic rule pair, each schedule built
    from scratch by the semi-active construction."""
    tables = {rule: _static_keys(a, rule) for rule in {c.rsplit("+", 1)[0] for c in combos}}
    return {c: _dispatch(a, tables[c.rsplit("+", 1)[0]], c.rsplit("+", 1)[1]) for c in combos}


def _dispatch(a: Arrays, table, agv_rule: str) -> int:
    n, m, k = a.n, a.m, a.k
    ops = m + 1
    p = a.proc.tolist()
    travel = a.transport.tolist()
    target = _targets(a).tolist()
    source = _sources(a).tolist()
    nxt = [0] * n
    job_done = [0] * n
    machine_free = [0] * (m + 2)
    agv_at = [LOAD] * k
    agv_free = [0] * k
    makespan = 0
    for _ in range(n * ops):
        job, best = -1, None
        for j in range(n):
            i = nxt[j]
            if i == ops:
                continue
            key = job_done[j] if table is None else table[j][i]
            if best is None or key < best:
                job, best = j, key
        i = nxt[job]
        src, dst = source[job][i], target[job][i]
        loaded = travel[src][dst]
        vehicle, best = -1, None
        for u in range(k):
            arrival = agv_free[u] + travel[agv_at[u]][src]
            key = arrival if agv_rule == "SPUT" else arrival + loaded if agv_rule == "SCTA" else agv_free[u]
            if best is None or key < best:
                vehicle, best = u, key
        pickup = max(job_done[job], agv_free[vehicle] + travel[agv_at[vehicle]][src])
        delivered = pickup + loaded
        if i < m:
            end = max(delivered, machine_free[dst]) + p[job][i]
            machine_free[dst] = max(machine_free[dst], end)
        else:
            end = delivered
            makespan = max(makespan, end)
        agv_at[vehicle] = dst
        agv_free[vehicle] = delivered
        job_done[job] = end
        nxt[job] = i + 1
    return makespan


# -- results tables -------------------------------------------------------------------

def read_table(path: Path, columns: tuple[str, ...]) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    if not rows or tuple(rows[0]) != columns:
        _fail(path.name, f"header {rows[:1]} is not {list(columns)}")
    return rows[1:]


class Table(NamedTuple):
    """A results table as numpy columns, in file order."""

    instance: np.ndarray
    solver: np.ndarray
    makespan: np.ndarray
    rho: np.ndarray
    tau: np.ndarray
    cell: np.ndarray


def parse_results(path: Path) -> Table:
    rows = read_table(path, RESULT_COLUMNS)
    if not rows:
        _fail(path.name, "no rows")
    cols = list(zip(*rows))
    return Table(
        np.array(cols[0]), np.array(cols[1]), np.array(cols[2], dtype=np.int64),
        np.array(cols[8], dtype=float), np.array(cols[9], dtype=float), np.array(cols[11]),
    )


def check_rows(what: str, instance_ids, solver_ids, instances, solvers) -> None:
    """Exactly one row per (instance, solver) pair."""
    expected = {(i, s) for i in instances for s in solvers}
    seen = set(zip(instance_ids, solver_ids))
    if len(instance_ids) != len(expected) or seen != expected:
        _fail(what, f"{len(instance_ids)} rows, {len(seen)} distinct pairs; expected "
              f"{len(instances)} instances x {len(solvers)} solvers = {len(expected)}")


def check_results(path: Path, instances: list[Arrays], solvers, cells=None, aliases=None) -> dict:
    """Rows, derived columns, lower bounds and deterministic makespans of one
    results table. `cells` maps instance id to its grid-cell label (empty
    labels otherwise); `aliases` maps a solver label to the rule pair it
    serves. Returns instance id -> (rho, tau) at full precision."""
    rows = read_table(path, RESULT_COLUMNS)
    by_id = {a.id: a for a in instances}
    check_rows(path.name, [r[0] for r in rows], [r[1] for r in rows], by_id, solvers)
    rules_of = {s: s for s in solvers if s in DETERMINISTIC} | (aliases or {})
    truth = {}
    for ident, a in by_id.items():
        refs = reference_makespans(a, set(rules_of.values()))
        truth[ident] = (a, lower_bound(a), coupling_factors(a),
                        {s: refs[c] for s, c in rules_of.items()})
    for row in rows:
        ident, solver, makespan = row[0], row[1], int(row[2])
        a, bound, (p_raw, t_raw, rho, tau), refs = truth[ident]
        if [int(x) for x in (row[3], row[4], row[5], row[12])] != [a.n, a.m, a.k, a.seed]:
            _fail(path.name, f"{ident}: n, m, k, seed {row[3:6] + row[12:]} disagree with the instance")
        for name, printed, value in zip(("p_raw", "t_raw", "rho", "tau"), row[6:10],
                                        (p_raw, t_raw, rho, tau)):
            if not _close(float(printed), value):
                _fail(path.name, f"{ident}: {name} {printed} != {value:.6f}")
        if row[10] != regime(rho, tau):
            _fail(path.name, f"{ident}: regime {row[10]} != {regime(rho, tau)}")
        if row[11] != (cells[ident] if cells else ""):
            _fail(path.name, f"{ident}: cell {row[11]!r}")
        if makespan < bound:
            _fail(path.name, f"{ident} {solver}: makespan {makespan} below lower bound {bound}")
        if solver in refs and makespan != refs[solver]:
            _fail(path.name, f"{ident} {solver}: makespan {makespan}, "
                  f"reference dispatcher gives {refs[solver]}")
    return {ident: t[2][2:] for ident, t in truth.items()}


def _matrix(table: Table):
    """Makespans as an (instances x solvers) matrix, both axes sorted."""
    ids, inst_idx = np.unique(table.instance, return_inverse=True)
    solvers, solver_idx = np.unique(table.solver, return_inverse=True)
    matrix = np.zeros((len(ids), len(solvers)), dtype=np.int64)
    matrix[inst_idx, solver_idx] = table.makespan
    return ids, list(solvers), matrix


def global_best(solvers: list[str], matrix: np.ndarray) -> str:
    """Round-robin winner: strict wins against every other combo over all
    instances; ties prefer MOR+SCTA, then the smallest identifier."""
    cols = [i for i, s in enumerate(solvers) if s in COMBOS]
    sub = matrix[:, cols]
    wins = (sub[:, :, None] < sub[:, None, :]).sum(axis=(0, 2))
    tied = sorted(solvers[cols[i]] for i in np.flatnonzero(wins == wins.max()))
    return PREFERRED_GLOBAL_BEST if PREFERRED_GLOBAL_BEST in tied else tied[0]


def _rpi(makespan, baseline):
    return -(makespan - baseline) / baseline * 100.0


def check_summary(table: Table, path: Path) -> str:
    """The summary table against a numpy recomputation; returns the global best."""
    rows = read_table(path, SUMMARY_COLUMNS)
    ids, solvers, matrix = _matrix(table)
    combo_cols = [i for i, s in enumerate(solvers) if s in COMBOS]
    best = matrix[:, combo_cols].min(axis=1)
    winner = global_best(solvers, matrix)
    glob = matrix[:, solvers.index(winner)]
    if sorted(r[0] for r in rows) != solvers:
        _fail(path.name, f"solvers {sorted(r[0] for r in rows)} != {solvers}")
    previous = math.inf
    for row in rows:
        col = matrix[:, solvers.index(row[0])]
        expected = {
            "instances": len(ids),
            "mean_makespan": col.mean(),
            "mean_rpi_vs_best": _rpi(col, best).mean(),
            "mean_rpi_vs_global": _rpi(col, glob).mean(),
            "win_rate_vs_global": (col < glob).mean(),
        }
        for name, value in expected.items():
            printed = float(row[SUMMARY_COLUMNS.index(name)])
            if not _close(printed, value):
                _fail(path.name, f"{row[0]}: {name} {printed} != {value:.6f}")
        if row[-1] != winner:
            _fail(path.name, f"{row[0]}: global best {row[-1]} != {winner}")
        rpi_best = float(row[3])
        if rpi_best > previous:
            _fail(path.name, "rows are not ordered by mean_rpi_vs_best")
        previous = rpi_best
    return winner


def _pairs(table: Table, solver_a: str, solver_b: str, factors=None):
    """Paired rows by instance: makespans of a and b, the a-row's rho and tau
    (from `factors` when given, else the table) and its cell label."""
    a = table.solver == solver_a
    b = table.solver == solver_b
    ia, ib = np.argsort(table.instance[a], kind="stable"), np.argsort(table.instance[b], kind="stable")
    ids = table.instance[a][ia]
    if not np.array_equal(ids, table.instance[b][ib]):
        _fail("pairs", f"{solver_a} and {solver_b} rows do not cover the same instances")
    ms_a, ms_b = table.makespan[a][ia], table.makespan[b][ib]
    if factors is None:
        rho, tau = table.rho[a][ia], table.tau[a][ia]
    else:
        rho = np.array([factors[i][0] for i in ids])
        tau = np.array([factors[i][1] for i in ids])
    return ms_a, ms_b, rho, tau, table.cell[a][ia]


def check_cells(table: Table, solver_a: str, solver_b: str, path: Path, factors=None) -> None:
    rows = read_table(path, CELL_COLUMNS)
    ms_a, ms_b, _, tau, cell = _pairs(table, solver_a, solver_b, factors)
    labels = [f"p{p}_t{t}" for p in GRID_LOWS for t in GRID_LOWS if np.any(cell == f"p{p}_t{t}")]
    if [r[2] for r in rows] != labels:
        _fail(path.name, f"cells {[r[2] for r in rows][:5]}... != {labels[:5]}...")
    for row in rows:
        sel = cell == row[2]
        p_lo, t_lo = (int(x) for x in row[2][1:].split("_t"))
        if row[:2] != [f"{p_lo}-{p_lo + 9}", f"{t_lo}-{t_lo + 9}"] or int(row[3]) != sel.sum():
            _fail(path.name, f"{row[2]}: bins or count {row[:4]}")
        for printed, value in zip(row[4:], (tau[sel].mean(), ms_a[sel].mean(), ms_b[sel].mean(),
                                            _rpi(ms_a[sel], ms_b[sel]).mean())):
            if not _close(float(printed), value):
                _fail(path.name, f"{row[2]}: {printed} != {value:.6f}")


def check_heatmap(table: Table, solver_a: str, solver_b: str, rhos, path: Path, factors=None) -> None:
    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    axis = np.array(sorted(rhos))
    if rows[0] != ["tau"] + [f"{r:g}" for r in axis]:
        _fail(path.name, f"header {rows[0]}")
    ms_a, ms_b, rho, tau, _ = _pairs(table, solver_a, solver_b, factors)
    tau_bin = np.clip(np.floor(tau * 10 + 0.5), -10, 10).astype(int)
    column = np.abs(axis[None, :] - rho[:, None]).argmin(axis=1)
    gain = _rpi(ms_a, ms_b)
    if [r[0] for r in rows[1:]] != [f"{b / 10:.1f}" for b in range(10, -11, -1)]:
        _fail(path.name, "tau rows are not 1.0 down to -1.0")
    for row in rows[1:]:
        b = round(float(row[0]) * 10)
        for c, printed in enumerate(row[1:]):
            sel = (tau_bin == b) & (column == c)
            if not sel.any():
                if printed != "":
                    _fail(path.name, f"tau {row[0]} rho {axis[c]:g}: {printed} where no pair falls")
            elif printed == "" or not _close(float(printed), gain[sel].mean()):
                _fail(path.name, f"tau {row[0]} rho {axis[c]:g}: {printed!r} != {gain[sel].mean():.6f}")


def parse_regression(text: str) -> dict[str, dict]:
    """model label -> {"observations": int, "coef": {name: value}}."""
    models: dict[str, dict] = {}
    current = None
    in_table = False
    for line in text.splitlines():
        if line.startswith("model,"):
            current = models.setdefault(line.split(",", 1)[1], {"coef": {}})
            in_table = False
        elif current is None or not line:
            continue
        elif line.startswith("observations,"):
            current["observations"] = int(line.split(",")[1])
        elif line.startswith("variable,coef"):
            in_table = True
        elif in_table:
            name, coef = line.split(",")[:2]
            current["coef"][name] = float(coef)
    return models


def check_regression(table: Table, solver: str, baseline: str, path: Path) -> None:
    """Each printed model's estimates against lstsq on the same z-normalized
    bottleneck design (features from the table's rho and tau columns)."""
    models = parse_regression(path.read_text(encoding="utf-8"))
    if list(models) != [label for label, _ in MODELS]:
        _fail(path.name, f"models {list(models)}")
    ms_a, ms_b, rho, tau, _ = _pairs(table, solver, baseline)
    y = _rpi(ms_a, ms_b)
    bd = np.abs(-np.maximum(0.0, tau) + (1.0 - rho))
    feats = np.column_stack([(bd - 1.0) ** 2, tau * rho, (rho - 1.0) * tau])
    z = (feats - feats.mean(axis=0)) / feats.std(axis=0)
    column = {"BM": z[:, 0], "JBN": z[:, 1], "ABN": z[:, 2]}
    for label, names in MODELS:
        design = np.column_stack([np.ones(len(y))] + [column[n] for n in names])
        coef = np.linalg.lstsq(design, y, rcond=None)[0]
        printed = models[label]
        if printed.get("observations") != len(y) or list(printed["coef"]) != ["const", *names]:
            _fail(path.name, f"{label}: observations or variables disagree")
        for name, value in zip(["const", *names], coef):
            if not _close(printed["coef"][name], value, 1e-6 + 1e-6 * abs(value)):
                _fail(path.name, f"{label} {name}: coefficient {printed['coef'][name]} != {value:.6f}")
