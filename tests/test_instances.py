import itertools
import json
import math
import re

import numpy as np
import pytest

from helpers import make_instance, random_small_instance, zero_transport
from jsspt.errors import ConfigurationError, DocumentError
from jsspt.harness import DEFAULT_SIZES, GridPlan, generate_grid_instances
from jsspt.instances import (
    GRID_BINS,
    SIZE_MAX,
    GenerationConfig,
    generate_instance,
    instance_from_document,
    instance_to_document,
    load_instance,
    save_instance,
)


def test_generate_shape_and_structure():
    inst = generate_instance(GenerationConfig(n=6, m=6, k=3, seed=7))
    assert inst.n == 6 and inst.m == 6 and inst.k == 3
    assert inst.id == "6x6x3-seed7"
    assert len(inst.routings) == 6
    for routing in inst.routings:
        assert sorted(routing) == list(range(6))
    assert inst.total_ops == 42
    for row in inst.proc_times:
        assert len(row) == 7
        assert row[-1] == 0
        assert all(1 <= p <= 100 for p in row[:-1])


def test_degenerate_ranges_give_the_unique_instance():
    inst = generate_instance(
        GenerationConfig(n=1, m=1, proc_range=(5, 5), transport_range=(2, 2), k=1, seed=3)
    )
    assert inst.proc_times == ((5, 0),)
    for a in range(3):
        for b in range(3):
            assert inst.transport[a][b] == (0 if a == b else 2)


def test_sampled_fleet_size_and_determinism():
    config = GenerationConfig(n=15, m=10, seed=11)
    first = generate_instance(config)
    second = generate_instance(config)
    assert 3 <= first.k <= 15
    assert first == second
    assert json.dumps(instance_to_document(first)) == json.dumps(
        instance_to_document(second)
    )


def test_different_seeds_differ():
    a = generate_instance(GenerationConfig(n=6, m=6, k=3, seed=1))
    b = generate_instance(GenerationConfig(n=6, m=6, k=3, seed=2))
    assert a.proc_times != b.proc_times or a.transport != b.transport


def test_transport_diagonal_is_zero_and_asymmetry_allowed():
    inst = generate_instance(GenerationConfig(n=4, m=4, k=2, seed=5))
    size = inst.m + 2
    assert all(inst.transport[i][i] == 0 for i in range(size))
    asym = any(
        inst.transport[a][b] != inst.transport[b][a]
        for a in range(size)
        for b in range(a + 1, size)
    )
    assert asym  # entrywise sampling makes symmetry astronomically unlikely


def test_config_validation():
    with pytest.raises(ConfigurationError):
        GenerationConfig(n=0, m=3)
    with pytest.raises(ConfigurationError):
        GenerationConfig(n=3, m=0)
    with pytest.raises(ConfigurationError):
        GenerationConfig(n=3, m=3, proc_range=(0, 10))
    with pytest.raises(ConfigurationError):
        GenerationConfig(n=3, m=3, transport_range=(50, 10))
    with pytest.raises(ConfigurationError):
        GenerationConfig(n=3, m=3, proc_range=(1, 101))
    with pytest.raises(ConfigurationError):
        GenerationConfig(n=3, m=3, k=0)
    with pytest.raises(ConfigurationError):
        GenerationConfig(n=2, m=3)  # sampled k needs n >= 3


def test_du_sampling_mean():
    # >= 10^4 draws from DU(1, 100): empirical mean within [48, 53].
    draws = []
    for seed in range(25):
        inst = generate_instance(GenerationConfig(n=20, m=20, k=3, seed=seed))
        for row in inst.proc_times:
            draws.extend(row[:-1])
    assert len(draws) >= 10_000
    assert 48 <= np.mean(draws) <= 53


def test_grid_bins_partition_the_time_range():
    assert len(GRID_BINS) == 10
    covered = []
    for lo, hi in GRID_BINS:
        covered.extend(range(lo, hi + 1))
    assert covered == list(range(1, 101))


def test_grid_cell_generation():
    plan = GridPlan(sizes=((15, 10),), rhos=(0.2,), instances_per_cell=2, seed=42)
    instances, labels = generate_grid_instances(plan)
    assert len(instances) == 100 * 2
    for idx, (inst, label) in enumerate(zip(instances, labels)):
        proc_bin, transport_bin = GRID_BINS[idx // 20], GRID_BINS[idx // 2 % 10]
        assert label == f"p{proc_bin[0]}_t{transport_bin[0]}"
        assert (inst.n, inst.m, inst.k) == (15, 10, 3)
        assert all(proc_bin[0] <= p <= proc_bin[1] for row in inst.proc_times for p in row[:-1])
        size = inst.m + 2
        for a in range(size):
            for b in range(size):
                if a != b:
                    assert transport_bin[0] <= inst.transport[a][b] <= transport_bin[1]
        assert inst.id == (
            f"15x10x3-seed{inst.seed}-cell{proc_bin[0]}_{transport_bin[0]}-i{idx % 2}"
        )


def test_grid_cell_symmetric_bins_have_close_averages():
    instances = [
        generate_instance(
            GenerationConfig(n=8, m=6, proc_range=(51, 60), transport_range=(51, 60), k=2, seed=s)
        )
        for s in range(10)
    ]
    p_mean = np.mean([inst.mean_proc_time for inst in instances])
    t_mean = np.mean([inst.mean_transport_time for inst in instances])
    assert abs(p_mean - t_mean) < 2.0


def test_grid_cell_reproducible_bytes():
    plan = GridPlan(sizes=((2, 2),), rhos=(0.5,), instances_per_cell=1, seed=7)
    first, second = (generate_grid_instances(plan)[0] for _ in range(2))
    assert [json.dumps(instance_to_document(i)) for i in first] == [
        json.dumps(instance_to_document(i)) for i in second
    ]


@pytest.mark.parametrize("lo, hi", GRID_BINS + ((1, 100),))
def test_sized_draw_equals_scalar_draws(lo, hi):
    # generate_instance draws each duration table in one sized call; numpy's
    # bounded-integer stream must give the per-entry values and leave the
    # generator where the per-entry calls would.
    for seed, (n, m) in enumerate(DEFAULT_SIZES):
        for size in ((n, m), (m + 2) * (m + 1)):
            sized, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
            values = sized.integers(lo, hi + 1, size=size).ravel().tolist()
            assert values == [int(scalar.integers(lo, hi + 1)) for _ in values]
            assert sized.integers(0, 2**31 - 1) == scalar.integers(0, 2**31 - 1)


@pytest.mark.parametrize("seed", [0, 2**32 - 1])
def test_permuted_rows_equal_one_permutation_per_row(seed):
    """generate_instance draws all n routings in one permuted() call. That
    gives the routings of n permutation(m) calls only while numpy permutes
    the rows of the tiled 0..m-1 one after another with the same stream, and
    leaves the generator where the n calls leave it."""
    for n, m in ((1, 15), (15, 1), (30, 10)):
        rows, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
        assert rows.permuted(np.tile(np.arange(m), (n, 1)), axis=1).tolist() == [
            scalar.permutation(m).tolist() for _ in range(n)
        ], (n, m)
        assert rows.bit_generator.state == scalar.bit_generator.state, (n, m)
        assert rows.integers(1, 101, size=n * m).tolist() == (
            scalar.integers(1, 101, size=n * m).tolist()
        ), (n, m)


def _per_entry_reference(config):
    """generate_instance as one scalar draw per duration entry."""
    rng = np.random.default_rng(config.seed)
    n, m = config.n, config.m
    routings = [[int(x) for x in rng.permutation(m)] for _ in range(n)]
    plo, phi = config.proc_range
    proc = [[int(rng.integers(plo, phi + 1)) for _ in range(m)] + [0] for _ in range(n)]
    tlo, thi = config.transport_range
    transport = [
        [0 if a == b else int(rng.integers(tlo, thi + 1)) for b in range(m + 2)]
        for a in range(m + 2)
    ]
    k = config.k if config.k is not None else int(rng.integers(3, n + 1))
    return routings, proc, transport, k


@pytest.mark.parametrize(
    "config",
    [
        GenerationConfig(n=15, m=10, seed=3),
        GenerationConfig(n=30, m=10, proc_range=(91, 100), transport_range=(1, 10), k=6, seed=8),
        GenerationConfig(n=4, m=1, proc_range=(5, 17), transport_range=(40, 60), seed=2**31 - 2),
    ],
)
def test_generate_instance_matches_per_entry_draws(config):
    inst = generate_instance(config)
    doc = instance_to_document(inst)
    assert (doc["routings"], doc["proc_times"], doc["transport"], inst.k) == (
        _per_entry_reference(config)
    )


def test_save_load_round_trip(tmp_path):
    inst = generate_instance(GenerationConfig(n=5, m=4, k=2, seed=13))
    path = save_instance(inst, tmp_path)
    assert path.name == f"{inst.id}.json"
    assert load_instance(path) == inst


def test_load_rejects_zero_proc_time_mid_route():
    doc = instance_to_document(generate_instance(GenerationConfig(n=2, m=2, k=1, seed=1)))
    doc["proc_times"][0][0] = 0
    with pytest.raises(DocumentError, match="proc_times"):
        instance_from_document(doc)


def test_load_rejects_negative_transport():
    doc = instance_to_document(generate_instance(GenerationConfig(n=2, m=2, k=1, seed=1)))
    doc["transport"][0][1] = -3
    with pytest.raises(DocumentError, match="transport"):
        instance_from_document(doc)


def test_load_rejects_bad_routing_and_missing_field():
    doc = instance_to_document(generate_instance(GenerationConfig(n=2, m=2, k=1, seed=1)))
    doc["routings"][0] = [0, 0]
    with pytest.raises(DocumentError, match="routings"):
        instance_from_document(doc)
    doc2 = instance_to_document(generate_instance(GenerationConfig(n=2, m=2, k=1, seed=1)))
    del doc2["transport"]
    with pytest.raises(DocumentError, match="transport"):
        instance_from_document(doc2)
    with pytest.raises(DocumentError, match="^document: expected an object$"):
        instance_from_document([doc])
    doc["routings"] = 5
    with pytest.raises(DocumentError, match=r"^routings: must be a list, got 5$"):
        instance_from_document(doc)


def test_load_rejects_garbage_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(DocumentError, match="JSON"):
        load_instance(path)


def test_load_rejects_nonzero_diagonal():
    doc = instance_to_document(generate_instance(GenerationConfig(n=2, m=2, k=1, seed=1)))
    doc["transport"][1][1] = 4
    with pytest.raises(DocumentError, match="diagonal"):
        instance_from_document(doc)


def test_load_rejects_times_above_time_max():
    doc = instance_to_document(generate_instance(GenerationConfig(n=3, m=2, k=2, seed=1)))
    doc["proc_times"] = [[150, 150, 0]] * 3
    with pytest.raises(DocumentError, match=r"proc_times\[0\]\[0\]: must be <= 100, got 150"):
        instance_from_document(doc)
    doc = instance_to_document(generate_instance(GenerationConfig(n=3, m=2, k=2, seed=1)))
    doc["transport"][2][0] = 101
    with pytest.raises(DocumentError, match=r"transport\[2\]\[0\]: must be <= 100, got 101"):
        instance_from_document(doc)


def _small_document():
    return instance_to_document(generate_instance(GenerationConfig(n=2, m=2, k=1, seed=1)))


def test_load_rejects_bool_integers():
    doc = _small_document()
    doc["k"] = True
    with pytest.raises(DocumentError, match=r"^k: must be an integer, got True$"):
        instance_from_document(doc)


def test_load_rejects_fractional_integers():
    doc = _small_document()
    doc["routings"][0] = [0.9, 1]
    with pytest.raises(DocumentError, match=r"^routings\[0\]\[0\]: must be an integer, got 0\.9$"):
        instance_from_document(doc)
    doc = _small_document()
    doc["transport"][0][1] = 2.7
    with pytest.raises(DocumentError, match=r"^transport\[0\]\[1\]: must be an integer, got 2\.7$"):
        instance_from_document(doc)
    doc = _small_document()
    doc["transport"][0][1] = 3.0  # integral floats are exact, so they load
    assert instance_from_document(doc).transport[0][1] == 3


def test_load_rejects_string_integers():
    doc = _small_document()
    doc["proc_times"][0][0] = "5"
    with pytest.raises(DocumentError, match=r"^proc_times\[0\]\[0\]: must be an integer, got '5'$"):
        instance_from_document(doc)


@pytest.mark.parametrize("ident", [5, None, "", "..", "x/y", "/x", "a\rb", "a\nb", "a\0b"])
def test_load_rejects_an_id_that_is_not_a_plain_file_stem(ident):
    # The id names the instance's <id>.json and fills a results-table cell.
    doc = dict(_small_document(), id=ident)
    with pytest.raises(DocumentError, match=r"^id: must be a plain file stem on one line, got "):
        instance_from_document(doc)


def test_zero_transport_document_is_rejected(tmp_path):
    # Built in code, zero legs are allowed (engine tests rely on them); as a
    # document, the instance lies outside the domain the metrics accept.
    inst = make_instance([[0, 1], [1, 0]], [[3, 100], [1, 2]], zero_transport(2), k=1)
    path = save_instance(inst, tmp_path)
    named = rf"^transport\[0\]\[1\]: must be >= 1, got 0 \(in {re.escape(str(path))}\)$"
    with pytest.raises(DocumentError, match=named):
        load_instance(path)
    for a, b in itertools.permutations(range(4), 2):  # each single zero leg of m = 2
        doc = _small_document()
        doc["transport"][a][b] = 0
        with pytest.raises(DocumentError, match=rf"^transport\[{a}\]\[{b}\]: must be >= 1, got 0$"):
            instance_from_document(doc)


_LEGS = [[0 if a == b else 3 for b in range(4)] for a in range(4)]  # m = 2


@pytest.mark.parametrize(
    "field, value, named",
    [
        ("n", 0, "n: must be >= 1, got 0"),
        ("m", 0, "m: must be >= 1, got 0"),
        ("k", 0, "k: must be >= 1, got 0"),
        ("k", -2, "k: must be >= 1, got -2"),
        ("routings", [[0, 1]], "routings: expected 2 rows, got 1"),
        ("proc_times", [[5, 7, 0]], "proc_times: expected 2 rows, got 1"),
        ("proc_times", [[5, 7, 0], [5, 7]], "proc_times[1]: expected 3 entries, got 2"),
        ("proc_times", [[5, 7, 4], [5, 7, 0]], "proc_times[0][2]: final release must take time 0, got 4"),
        ("transport", _LEGS[:3], "transport: expected 4 rows, got 3"),
        ("transport", _LEGS[:2] + [[3, 3, 0], _LEGS[3]], "transport[2]: expected 4 entries, got 3"),
        ("n", SIZE_MAX + 1, f"n: must be <= {SIZE_MAX}, got {SIZE_MAX + 1}"),
        ("m", 10**30, f"m: must be <= {SIZE_MAX}, got {10**30}"),
        ("k", 10**30, f"k: must be <= {SIZE_MAX}, got {10**30}"),
        # A table is a list of lists, and a document holds only its eight fields.
        ("routings", 5, "routings: must be a list, got 5"),
        ("proc_times", [[5, 7, 0], 3], "proc_times[1]: must be a list of integers, got 3"),
        ("transport", [1, 2, 3, 4], "transport[0]: must be a list of integers, got 1"),
        ("comment", "hi", "unknown field 'comment'"),
    ],
)
def test_load_names_the_field_and_the_file(tmp_path, field, value, named):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(dict(_small_document(), **{field: value})), encoding="utf-8")
    with pytest.raises(DocumentError) as raised:
        load_instance(path)
    assert str(raised.value) == f"{named} (in {path})"


def test_a_document_at_the_size_bound_loads():
    # The bound admits every default size, with up to SIZE_MAX vehicles.
    largest = max(n for n, _ in DEFAULT_SIZES), max(m for _, m in DEFAULT_SIZES)
    doc = instance_to_document(generate_instance(GenerationConfig(*largest, k=SIZE_MAX, seed=3)))
    assert instance_from_document(doc).k == SIZE_MAX


def test_mean_durations():
    inst = generate_instance(GenerationConfig(n=3, m=3, k=1, seed=2))
    flat = [p for row in inst.proc_times for p in row[:-1]]
    assert inst.mean_proc_time == pytest.approx(np.mean(flat))
    size = inst.m + 2
    off = [inst.transport[a][b] for a in range(size) for b in range(size) if a != b]
    assert inst.mean_transport_time == pytest.approx(np.mean(off))


def test_rule_rows_equal_the_per_step_formulas_bit_for_bit():
    rng = np.random.default_rng(18)
    for _ in range(40):
        inst = random_small_instance(rng)
        m, suffix, prefix = inst.m, inst.work_suffix, inst.work_prefix
        for j in range(inst.n):
            for i in range(1, m + 2):
                mean = suffix[j][i - 1] / (m + 2 - i)
                ratio = prefix[j][i - 1] / suffix[j][i - 1] if suffix[j][i - 1] else math.inf
                assert inst.mean_work_suffix[j][i - 1].hex() == mean.hex(), (j, i)
                assert inst.flow_due_ratio[j][i - 1].hex() == ratio.hex(), (j, i)
            # The release op has no work left: its ratio is inf.
            assert inst.flow_due_ratio[j][m] == math.inf
        assert [len(row) for row in inst.mean_work_suffix] == [m + 1] * inst.n
        assert [len(row) for row in inst.flow_due_ratio] == [m + 1] * inst.n
