import concurrent.futures
import json
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import plan_to_document
from jsspt.errors import ConfigurationError, DocumentError, MetricError
from jsspt.harness import (
    DEFAULT_SIZES,
    RHO_LADDER,
    TAU_BINS,
    ExperimentPlan,
    GridPlan,
    bench_tasks,
    fleet_size,
    format_regression_suite,
    generate_bench_instances,
    generate_grid_instances,
    grid_cell_table,
    grid_cells_to_csv,
    grid_tasks,
    heatmap_table,
    heatmap_to_csv,
    load_plan,
    nearest_rho,
    plan_from_document,
    records_from_csv,
    records_to_csv,
    run_bench,
    run_grid,
    run_regression_suite,
    select_global_best,
    summarize_results,
    summary_to_csv,
    tau_bin,
)
from jsspt import engine, harness, rules
from jsspt.instances import GRID_BINS, GenerationConfig, generate_instance
from jsspt.metrics import ResultRecord, make_record, temporal_dominance
from jsspt.rules import ALL_COMBOS, parse_combo, solve

# Expected AGV ladders per size: one fleet size per scarcity value.
LADDERS = {
    (15, 10): (3, 6, 9, 12, 15, 18),
    (10, 10): (2, 4, 6, 8, 10, 12),
    (12, 12): (2, 5, 7, 10, 12, 14),
    (14, 14): (3, 6, 8, 11, 14, 17),
    (20, 5): (4, 8, 12, 16, 20, 24),
    (5, 10): (1, 2, 3, 4, 5, 6),
    (15, 15): (3, 6, 9, 12, 15, 18),
    (30, 10): (6, 12, 18, 24, 30, 36),
}


def small_plan(**overrides):
    params = dict(
        sizes=((3, 2), (2, 3)),
        rhos=(0.4, 1.0),
        instances_per_config=2,
        solvers=("SPT+SCTA", "MOR+SCTA", "LWR+SPUT"),
        seed=7,
    )
    params.update(overrides)
    return ExperimentPlan(**params)


def test_agv_ladders_expected_values():
    for (n, m), expected in LADDERS.items():
        ladder = tuple(fleet_size(r, n) for r in RHO_LADDER)
        assert ladder == expected, f"ladder mismatch for {n}x{m}"


def test_fleet_size_rounding():
    assert fleet_size(0.2, 5) == 1
    assert fleet_size(0.4, 12) == 5   # 4.8 rounds up
    assert fleet_size(0.6, 12) == 7   # 7.2 rounds down
    assert fleet_size(0.1, 3) == 1    # floor at one vehicle


def test_plan_configs_cardinality():
    plan = ExperimentPlan()
    assert len(plan.configs()) == len(DEFAULT_SIZES) * len(RHO_LADDER)
    assert plan.solvers == tuple(plan.solvers)
    assert len(plan.solvers) == 40


def test_plan_round_trip(tmp_path):
    plan = small_plan()
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan_to_document(plan)), encoding="utf-8")
    assert load_plan(path) == plan


def test_plan_validation():
    with pytest.raises(ConfigurationError):
        ExperimentPlan(sizes=())
    with pytest.raises(ConfigurationError):
        ExperimentPlan(rhos=(0.0,))
    with pytest.raises(ConfigurationError):
        ExperimentPlan(solvers=("BOGUS",))
    with pytest.raises(ConfigurationError):
        plan_from_document({"sizes": "nope"})
    with pytest.raises(ConfigurationError, match="^instances_per_config must be >= 1$"):
        ExperimentPlan(instances_per_config=0)
    with pytest.raises(ConfigurationError, match="^plan needs at least one solver$"):
        ExperimentPlan(solvers=())


def test_grid_plan_validation():
    with pytest.raises(ConfigurationError, match="invalid size 0x5"):
        GridPlan(sizes=((0, 5),))
    for rhos in ((-0.5, 0.4), (float("nan"),), (float("inf"),)):
        with pytest.raises(ConfigurationError, match="scarcity values must be positive"):
            GridPlan(rhos=rhos)
    with pytest.raises(ConfigurationError, match="unknown solver"):
        GridPlan(solver_b="SPT+BOGUS")
    assert GridPlan(sizes=((3, 2),), rhos=(0.4,)).configs() == [(3, 2, 1)]


def test_bench_row_counts_and_cardinality():
    plan = small_plan()
    records, summary, global_best = run_bench(plan)
    expected = len(plan.sizes) * len(plan.rhos) * plan.instances_per_config * len(plan.solvers)
    assert len(records) == expected
    assert {r["solver"] for r in summary} == set(plan.solvers)
    assert global_best in plan.solvers


def test_bench_instances_unique_and_deterministic():
    plan = small_plan()
    first = generate_bench_instances(plan)
    second = generate_bench_instances(plan)
    assert [i.id for i in first] == [i.id for i in second]
    assert len({i.id for i in first}) == len(first)


def test_bench_byte_determinism():
    plan = small_plan()
    records_a, summary_a, _ = run_bench(plan)
    records_b, summary_b, _ = run_bench(plan)
    assert records_to_csv(records_a) == records_to_csv(records_b)
    assert summary_to_csv(summary_a) == summary_to_csv(summary_b)


def _tables(records, summary, global_best) -> tuple[str, str, str]:
    return records_to_csv(records), summary_to_csv(summary), global_best


def _grid_tables(records, cells, heatmap) -> tuple[str, str, str]:
    return records_to_csv(records), grid_cells_to_csv(cells), heatmap_to_csv(heatmap)


# 200 instances. The tests below shrink the chunks to 4 instances, so that
# a run has more chunks than the window of two workers holds.
SMALL_GRID = dict(sizes=((3, 2),), rhos=(0.5, 1.0), instances_per_cell=1, seed=9)


def test_one_and_two_jobs_write_the_same_bytes(monkeypatch):
    monkeypatch.setattr(harness, "CHUNK_SIZE", 4)
    plan = small_plan(instances_per_config=10)
    assert _tables(*run_bench(plan, jobs=2)) == _tables(*run_bench(plan, jobs=1))
    grid = GridPlan(**SMALL_GRID)
    assert _grid_tables(*run_grid(grid, jobs=2)) == _grid_tables(*run_grid(grid, jobs=1))


def test_no_more_than_a_chunk_of_instances_is_alive(monkeypatch):
    # Every instance the harness generates is tracked without being kept.
    live: weakref.WeakSet = weakref.WeakSet()
    peaks = []

    def tracked(config, **kwargs):
        instance = generate_instance(config, **kwargs)
        live.add(instance)
        peaks.append(len(live))
        return instance

    monkeypatch.setattr(harness, "generate_instance", tracked)
    monkeypatch.setattr(harness, "CHUNK_SIZE", 4)
    # One chunk: select_operation's memo (rules._last) lets go of an
    # episode's state, and its instance, when the episode ends.
    run_bench(small_plan(instances_per_config=10), jobs=1)
    assert len(peaks) == 40 and max(peaks) == harness.CHUNK_SIZE
    peaks.clear()
    run_grid(GridPlan(**SMALL_GRID), jobs=1)
    assert len(peaks) == 200 and max(peaks) == harness.CHUNK_SIZE


class _FakeExecutor:
    """A pool that starts no process. Each submission first runs the calls
    still pending in this process, the newest first, so they finish out of
    submission order; it counts the calls submitted and not yet taken."""

    def __init__(self):
        self.pending: list[_FakeFuture] = []
        self.most = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return None

    def submit(self, fn, *args):
        for future in reversed(self.pending):
            future.run()
        self.pending.append(_FakeFuture(self, fn, args))
        self.most = max(self.most, len(self.pending))
        return self.pending[-1]


class _FakeFuture:
    def __init__(self, pool: _FakeExecutor, fn, args):
        self.pool, self.fn, self.args, self.value = pool, fn, args, None

    def run(self):
        if self.value is None:
            self.value = self.fn(*self.args)

    def result(self):
        self.pool.pending.remove(self)
        self.run()
        return self.value


def test_the_window_bounds_pending_chunks_and_keeps_instance_order(monkeypatch):
    pools: list[_FakeExecutor] = []

    def pool(max_workers, mp_context):
        pools.append(_FakeExecutor())
        return pools[-1]

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)
    monkeypatch.setattr(harness, "CHUNK_SIZE", 4)
    plan = GridPlan(**SMALL_GRID)
    bench = small_plan(instances_per_config=10)  # 40 instances, 10 chunks
    assert _grid_tables(*run_grid(plan, jobs=2)) == _grid_tables(*run_grid(plan, jobs=1))
    assert _tables(*run_bench(bench, jobs=2)) == _tables(*run_bench(bench, jobs=1))
    assert [(p.most, p.pending) for p in pools] == [(harness.WINDOW_PER_JOB * 2, [])] * 2


SIZES = st.sampled_from([(3, 2), (2, 3), (4, 2), (3, 3)])
RHOS = st.sampled_from([0.4, 0.5, 1.0, 1.2])
SEEDS = st.integers(0, 2**32)


@settings(max_examples=15, deadline=None)
@given(
    sizes=st.lists(SIZES, min_size=1, max_size=2, unique=True),
    rhos=st.lists(RHOS, min_size=1, max_size=2, unique=True),
    count=st.integers(1, 20),
    seed=SEEDS,
)
def test_the_bench_task_stream_gives_the_plan_instances(sizes, rhos, count, seed):
    plan = ExperimentPlan(sizes=tuple(sizes), rhos=tuple(rhos), instances_per_config=count,
                          solvers=("SPT+SCTA",), seed=seed)
    tasks = list(bench_tasks(plan))
    instances = generate_bench_instances(plan)
    assert [(config.seed, ident, cell) for config, ident, cell in tasks] == [
        (i.seed, None, "") for i in instances
    ]
    records, _, _ = run_bench(plan)
    assert [(r.instance_id, r.seed, r.cell_id) for r in records] == [
        (i.id, i.seed, "") for i in instances
    ]


@settings(max_examples=8, deadline=None)
@given(size=SIZES, rhos=st.lists(RHOS, min_size=1, max_size=2, unique=True),
       count=st.integers(1, 2), seed=SEEDS)
def test_the_grid_task_stream_gives_the_plan_instances(size, rhos, count, seed):
    plan = GridPlan(sizes=(size,), rhos=tuple(rhos), instances_per_cell=count, seed=seed)
    tasks = list(grid_tasks(plan))
    instances, cells = generate_grid_instances(plan)
    assert [(config.seed, ident, cell) for config, ident, cell in tasks] == [
        (i.seed, i.id, cell) for i, cell in zip(instances, cells)
    ]
    records, _, _ = run_grid(plan)
    assert [(r.instance_id, r.seed, r.cell_id) for r in records[::2]] == [
        (i.id, i.seed, cell) for i, cell in zip(instances, cells)
    ]


def test_a_chunk_builds_no_schedule(monkeypatch):
    """The harness reads makespans from the played states: it never builds a
    schedule result, and its records equal those made from solve()."""
    configs = [GenerationConfig(n=n, m=m, k=k, seed=seed)
               for n, m, k, seed in ((4, 3, 2, 11), (5, 2, 1, 12), (3, 4, 3, 13))]
    cells = ["p1_t1", "p1_t11", ""]
    want = []
    for config, cell in zip(configs, cells):
        instance = generate_instance(config)
        for index, ident in enumerate(ALL_COMBOS):
            result = solve(instance, *parse_combo(ident), seed=(instance.seed, index))
            want.append(make_record(instance, result.solver_id, result.makespan, cell))

    def refuse(*args, **kwargs):
        raise AssertionError("build_result called on the harness path")

    monkeypatch.setattr(engine, "build_result", refuse)
    monkeypatch.setattr(rules, "build_result", refuse)
    tasks = [(config, None, cell) for config, cell in zip(configs, cells)]
    assert harness._solve_chunk(tasks, ALL_COMBOS) == want


def test_summary_semantics():
    plan = small_plan()
    records, summary, global_best = run_bench(plan)
    by_solver = {row["solver"]: row for row in summary}
    # Improvement vs the per-instance best combo can never be positive.
    for row in summary:
        assert row["mean_rpi_vs_best"] <= 1e-12
        assert row["global_best"] == global_best
    # The global best never loses to itself.
    assert by_solver[global_best]["mean_rpi_vs_global"] == pytest.approx(0.0)
    assert by_solver[global_best]["win_rate_vs_global"] == 0.0


def _fixed_record(instance, solver, makespan):
    return ResultRecord(
        instance_id=instance, solver_id=solver, makespan=makespan,
        n=2, m=2, k=1, p_raw=50.0, t_raw=50.0, rho=0.5, tau=0.0,
        regime="resource-saturated", cell_id="", seed=0,
    )


def test_select_global_best_tie_preference():
    rows = [
        _fixed_record("a", "MOR+SCTA", 10), _fixed_record("a", "SPT+SCTA", 10),
        _fixed_record("b", "MOR+SCTA", 12), _fixed_record("b", "SPT+SCTA", 12),
    ]
    assert select_global_best(rows) == "MOR+SCTA"
    with pytest.raises(MetricError):
        select_global_best([_fixed_record("a", "learned", 5)])


def test_summary_ranks_external_rows_uniformly():
    rows = [
        _fixed_record("a", "MOR+SCTA", 10), _fixed_record("a", "SPT+SCTA", 12),
        _fixed_record("b", "MOR+SCTA", 10), _fixed_record("b", "SPT+SCTA", 12),
        _fixed_record("a", "learned", 9), _fixed_record("b", "learned", 9),
    ]
    summary, global_best = summarize_results(rows)
    assert global_best == "MOR+SCTA"
    assert [row["solver"] for row in summary][0] == "learned"
    learned = summary[0]
    # The external solver beats the best rule combo on both instances by 10%.
    assert learned["mean_rpi_vs_best"] == pytest.approx(10.0)
    assert learned["win_rate_vs_global"] == 1.0


def test_records_csv_round_trip():
    plan = small_plan(instances_per_config=1)
    records, _, _ = run_bench(plan)
    text = records_to_csv(records)
    parsed = records_from_csv(text)
    assert len(parsed) == len(records)
    assert parsed[0].instance_id == records[0].instance_id
    assert parsed[0].makespan == records[0].makespan
    assert parsed[0].rho == pytest.approx(records[0].rho, abs=1e-6)


def test_short_row_is_rejected_whatever_the_column_order():
    # With the text columns last, a short row used to read them as None.
    text = ("instance,solver,makespan,n,m,k,p_raw,t_raw,rho,tau,seed,regime,cell\n"
            "a,SPT+SCTA,10,2,2,1,50.0,50.0,0.5,0.1,3\n")
    with pytest.raises(DocumentError, match="line 2: the row ends before column 'regime'"):
        records_from_csv(text)


def test_carriage_return_in_a_cell_is_a_document_error():
    # The csv module cannot read a lone carriage return in an unquoted cell,
    # as a hand-edited table may hold; records_to_csv quotes such a table.
    text = ("instance,solver,makespan,n,m,k,p_raw,t_raw,rho,tau,regime,cell,seed\n"
            "a,SPT+SCTA,10,2,2,1,50.0,50.0,0.5,0.1,r,,3\n"
            "a\rb,SPT+SCTA,10,2,2,1,50.0,50.0,0.5,0.1,r,,3\n")
    with pytest.raises(DocumentError, match="^results table line 3: new-line character"):
        records_from_csv(text)


def test_grid_row_counts_and_cells():
    plan = GridPlan(
        sizes=((3, 2),), rhos=(0.4, 1.0), instances_per_cell=1,
        solver_a="SPT+SCTA", solver_b="MOR+SCTA", seed=3,
    )
    records, cells, heatmap = run_grid(plan)
    assert len(records) == 100 * 2 * 1 * 2  # cells x configs x per-cell x solvers
    assert len(cells) == 100
    assert all(c["instances"] == 2 for c in cells)  # two base configs pooled
    assert len(heatmap) == len(TAU_BINS)
    csv_text = grid_cells_to_csv(cells)
    assert csv_text.splitlines()[0].startswith("proc_bin,transport_bin")
    # A cell without pairs has no row, and a table without pairs is an error.
    kept = [r for r in records if r.cell_id == "p1_t11"]
    assert [c["cell"] for c in grid_cell_table(kept, "SPT+SCTA", "MOR+SCTA")] == ["p1_t11"]
    with pytest.raises(MetricError, match="^no rows found for solvers 'LPT\\+SCTA' / 'LPT\\+SCPT'$"):
        grid_cell_table(records, "LPT+SCTA", "LPT+SCPT")


def test_grid_symmetric_cells_have_small_mean_tau():
    # Symmetric duration bins balance processing and transport on average.
    plan = GridPlan(sizes=((5, 8),), rhos=(0.4,), instances_per_cell=10, seed=11)
    instances, labels = generate_grid_instances(plan)
    for lo, _ in GRID_BINS:
        taus = [
            temporal_dominance(i.mean_proc_time, i.mean_transport_time).index
            for i, label in zip(instances, labels)
            if label == f"p{lo}_t{lo}"
        ]
        assert len(taus) == 10
        assert abs(np.mean(taus)) < 0.05


def test_grid_refuses_identical_solvers():
    # Compared with itself, a solver would pair each row with itself: the
    # plan refuses it before anything runs, and so does every pairing.
    with pytest.raises(ConfigurationError,
                       match="^solver 'SPT\\+SCTA' appears more than once in the plan$"):
        GridPlan(sizes=((2, 2),), rhos=(0.5,), instances_per_cell=1,
                 solver_a="SPT+SCTA", solver_b="SPT+SCTA", seed=5)
    records, _, _ = run_bench(ExperimentPlan(sizes=((3, 2),), rhos=(0.5, 1.0), instances_per_config=2,
                                             solvers=("SPT+SCTA", "MOR+SCTA"), seed=5))
    for pairing in (grid_cell_table, heatmap_table, run_regression_suite):
        with pytest.raises(MetricError, match="^cannot pair solver 'SPT\\+SCTA' with itself$"):
            pairing(records, "SPT+SCTA", "SPT+SCTA")


def test_tau_bin_and_nearest_rho():
    assert tau_bin(0.04) == 0.0
    assert tau_bin(0.05) == 0.1
    assert tau_bin(-0.949) == -0.9
    assert tau_bin(1.2) == 1.0
    assert tau_bin(-0.0001) == 0.0
    assert nearest_rho(5 / 12, RHO_LADDER) == 0.4
    assert nearest_rho(17 / 14, RHO_LADDER) == 1.2
    assert nearest_rho(1 / 5, RHO_LADDER) == 0.2


def test_heatmap_csv_layout():
    plan = GridPlan(
        sizes=((2, 2),), rhos=(0.5, 1.0), instances_per_cell=1,
        solver_a="SPT+SCTA", solver_b="MOR+SCTA", seed=2,
    )
    _, _, heatmap = run_grid(plan)
    text = heatmap_to_csv(heatmap)
    lines = text.splitlines()
    assert lines[0] == "tau,0.5,1"
    assert lines[1].startswith("1.0,")
    assert lines[-1].startswith("-1.0,")
    assert len(lines) == 1 + len(TAU_BINS)


def synthetic_gap_records():
    """126 instance pairs whose improvement follows a known linear model of the
    z-normalized bottleneck features (up to integer-makespan quantization)."""
    from jsspt.metrics import bottleneck_features
    from jsspt.regression import z_normalize

    taus = [round(-1.0 + 0.1 * i, 1) for i in range(21)]
    rhos = [0.2, 0.4, 0.6, 0.8, 1.0, 1.2]
    points = [(r, t) for t in taus for r in rhos]
    feats = np.array(
        [[f.bm, f.jbn, f.abn] for f in (bottleneck_features(r, t) for r, t in points)]
    )
    z = z_normalize(feats)
    y = 2.55 + 0.54 * z[:, 0] - 0.95 * z[:, 1] - 0.80 * z[:, 2]
    records = []
    baseline = 10_000_000
    for idx, ((rho_value, tau), y_val) in enumerate(zip(points, y)):
        share = (tau + 1.0) / 2.0
        p_raw = 1.0 + 99.0 * share
        t_raw = 100.0 - 99.0 * share
        common = dict(
            instance_id=f"synth-{idx}", n=10, m=5, k=int(round(rho_value * 10)),
            p_raw=p_raw, t_raw=t_raw, rho=rho_value, tau=tau,
            regime="synthetic", cell_id="", seed=idx,
        )
        records.append(ResultRecord(solver_id="learned", makespan=int(round(baseline * (1 - y_val / 100))), **common))
        records.append(ResultRecord(solver_id="MOR+SCTA", makespan=baseline, **common))
    return records


def test_regression_suite_recovers_planted_model():
    records = synthetic_gap_records()
    reports = run_regression_suite(records, "learned", "MOR+SCTA")
    labels = [label for label, _ in reports]
    assert labels == ["BM", "JBN", "ABN", "JBN+ABN", "BM+JBN+ABN"]
    full = dict(reports)["BM+JBN+ABN"]
    assert full.observations == 126
    assert full.r_squared > 1 - 1e-8
    assert full.coefficients == pytest.approx((2.55, 0.54, -0.95, -0.80), abs=1e-4)
    assert all(v < 5 for v in full.vif)
    single_r2 = {label: rep.r_squared for label, rep in reports}
    assert single_r2["BM"] > single_r2["ABN"]  # balance explains the most alone
    text = format_regression_suite(reports)
    assert "model,BM+JBN+ABN" in text
    assert "cond. no." in text


def test_regression_suite_join_error():
    records = synthetic_gap_records()
    with pytest.raises(MetricError, match="pair|rows"):
        run_regression_suite(records, "learned", "SPT+SCTA")


def test_temporal_dominance_consistency_of_synthetic_records():
    for record in synthetic_gap_records()[:10]:
        if record.p_raw == 1.0 and record.t_raw == 1.0:
            continue
        recomputed = temporal_dominance(record.p_raw, record.t_raw).index
        assert recomputed == pytest.approx(record.tau, abs=1e-9)
