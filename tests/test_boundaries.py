"""One property per input boundary. A document or table after one or two
edits by helpers.mutate either reads and then runs, or fails with its
documented error:
- an instance document loads, and then sweep plays all 40 combos and each
  makespan makes a record, or DocumentError names one of its fields, the
  document or an unknown field;
- a schedule document loads and validate_schedule returns a list, or
  DocumentError names a field the same way;
- every configuration of a plan document builds a GenerationConfig, or the
  plan raises ConfigurationError;
- read_records and then the summary, grid-cell, heatmap and regression
  tables raise nothing but JssptError, and every record read holds a
  makespan, rho and tau within range; one draw in four puts one such cell
  out of range.
"""

import csv
import io
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import mutate
from jsspt.engine import result_from_document, result_to_document, validate_schedule
from jsspt.errors import ConfigurationError, DocumentError, JssptError
from jsspt.harness import (
    GridPlan,
    grid_cell_table,
    heatmap_table,
    plan_from_document,
    read_records,
    records_to_csv,
    run_grid,
    run_regression_suite,
    summarize_results,
)
from jsspt.instances import (
    GenerationConfig,
    generate_instance,
    instance_from_document,
    instance_to_document,
)
from jsspt.metrics import make_record
from jsspt.rules import ALL_COMBOS, parse_combo, solve, sweep


def _mutant(data, value, max_edits=2):
    """`value` after up to `max_edits` edits, read back as from a file."""
    def choose(options):
        return options[data.draw(st.integers(0, len(options) - 1))]

    for _ in range(data.draw(st.integers(1, max_edits))):
        value = mutate(value, choose)
    return json.loads(json.dumps(value))


def _names_a_field(fields, message: str) -> bool:
    """Whether `message` starts with one of `fields` or an entry of one, the
    document as a whole, or an unknown field."""
    path = rf"(?:{'|'.join(fields)})(?:\[\d+\])*: "
    return re.match(rf"{path}|document: expected an object$|unknown field '", message) is not None


SEEDS = st.integers(0, 2**31 - 1)


@settings(max_examples=150, deadline=None)
@given(st.data(), st.integers(2, 4), st.integers(1, 3), st.integers(1, 3), SEEDS)
def test_a_mutated_instance_document_runs_or_names_its_field(data, n, m, k, seed):
    instance = generate_instance(GenerationConfig(n, m, k=k, seed=seed))
    try:
        instance = instance_from_document(_mutant(data, instance_to_document(instance)))
    except DocumentError as exc:
        fields = ("id", "n", "m", "k", "routings", "proc_times", "transport", "seed")
        assert _names_a_field(fields, str(exc)), exc
        return
    for solver, makespan in zip(ALL_COMBOS, sweep(instance)):
        make_record(instance, solver, makespan)


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from(ALL_COMBOS), SEEDS)
def test_a_mutated_schedule_document_validates_or_names_its_field(data, solver, seed):
    instance = generate_instance(GenerationConfig(3, 2, k=2, seed=seed))
    doc = result_to_document(solve(instance, *parse_combo(solver), seed=seed))
    try:
        result = result_from_document(_mutant(data, doc))
    except DocumentError as exc:
        fields = ("instance", "solver", "makespan", "rows", "decisions")
        assert _names_a_field(fields, str(exc)), exc
        return
    assert isinstance(validate_schedule(result, instance), list)


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_a_mutated_plan_builds_every_config_or_is_a_configuration_error(data):
    doc = _mutant(data, {"sizes": [[3, 2], [4, 3]], "rhos": [0.5, 1.0],
                         "solvers": ["SPT+SCTA"], "seed": 1})
    try:
        plan = plan_from_document(doc)
        configs = plan.configs()
    except ConfigurationError:
        return
    for n, m, k in configs:
        GenerationConfig(n, m, k=k, seed=plan.seed)


SOLVER_A, SOLVER_B = "SPT+SCTA", "MOR+SCTA"


@pytest.fixture(scope="module")
def results_table(tmp_path_factory):
    """A file to write tables to, and the rows of a grid results table: both
    solvers' rows of both instances in every 34th cell, three in all."""
    records, _, _ = run_grid(GridPlan(sizes=((3, 2),), rhos=(0.4, 0.8), instances_per_cell=1,
                                      solver_a=SOLVER_A, solver_b=SOLVER_B, seed=4))
    header, *body = csv.reader(io.StringIO(records_to_csv(records)))
    rows = [header] + [row for i, row in enumerate(body) if i // 4 % 34 == 0]
    return tmp_path_factory.mktemp("tables") / "results.csv", rows


def _table_text(rows) -> str:
    """Mutated rows as CSV: each list a row of cells, anything else one cell."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in rows if isinstance(rows, list) else [rows]:
        writer.writerow(row if isinstance(row, list) else [row])
    return buf.getvalue()


# Cells just past and far past the documented ranges: makespan in
# [1, 2**53], rho in (0, 1000], tau in [-1, 1].
OUT_OF_RANGE = {
    "makespan": ("0", "-1", str(2**53 + 1), str(10**20)),
    "rho": ("0.000000", "-0.5", "1000.000001", "1e300"),
    "tau": ("-1.000001", "1.000001", "2", "-1e300"),
}


def _out_of_range(data, rows):
    """`rows` with one makespan, rho or tau cell outside its range."""
    rows = [list(row) for row in rows]
    column = data.draw(st.sampled_from(sorted(OUT_OF_RANGE)))
    row = rows[data.draw(st.integers(1, len(rows) - 1))]
    row[rows[0].index(column)] = data.draw(st.sampled_from(OUT_OF_RANGE[column]))
    return rows


@settings(max_examples=800, deadline=None)
@given(data=st.data())
def test_a_mutated_results_table_reduces_or_raises_a_jsspt_error(results_table, data):
    path, rows = results_table
    # One draw in four puts one cell out of range (its 144 placements make
    # about one distinct example in six); the others make one edit: a second
    # one would most often stop the read before the tables.
    if data.draw(st.integers(0, 3)) == 0:
        rows = _out_of_range(data, rows)
    else:
        rows = _mutant(data, rows, max_edits=1)
    path.write_text(_table_text(rows), encoding="utf-8")
    try:
        records = read_records(path)
        for r in records:
            assert 1 <= r.makespan <= 2**53 and 0 < r.rho <= 1000 and -1 <= r.tau <= 1, r
        summarize_results(records)
        grid_cell_table(records, SOLVER_A, SOLVER_B)
        heatmap_table(records, SOLVER_A, SOLVER_B, (0.4, 0.8))
        run_regression_suite(records, SOLVER_A, SOLVER_B)
    except JssptError:
        pass
