"""Golden sha256 digests of the CLI's output files.

Each digest pins every byte a command writes for a fixed seed: the grid
tables over all 100 duration cells with the regression report read back from
them, a small bench summary, and generated instance documents with a sampled
fleet size and with custom duration ranges.
"""

import hashlib

from jsspt.cli import main


def _digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _docs_digest(directory) -> str:
    joined = b"".join(p.name.encode() + b"\n" + p.read_bytes() for p in sorted(directory.glob("*.json")))
    return hashlib.sha256(joined).hexdigest()


GOLDEN_GRID = {
    "grid_results.csv": "32838a86e930cc7d2717db0f6679e08ae847bb31e05cdb895c817828edcd5fe6",
    "grid_cells.csv": "6243a4b8feffb1a940ab651c7bfee32525d4032936ac8ebe50a374a629fcc1c6",
    "heatmap.csv": "1e2657b78ea76fd896212bbcc5617ff895edbb8f9cf00ca651d411e27b357515",
    "regress.txt": "d30a45a6b651426c9e57adce0a2223d6cd60a36c728faaf52e8e4186e630871d",
}
GOLDEN_BENCH_SUMMARY = "93837d6b84be0c40b0daa0a327d866a7655dbbfb0e75f1ce0f05779c848af052"
GOLDEN_GEN_SAMPLED_K = "a46e36fbf7b964b99ac0b1aa2cda3ac2276554d77fda9a4ca12475bb7bd81edd"
GOLDEN_GEN_CUSTOM_RANGES = "88aadc8b128bf18cb18cfda105157be54a77060986a454df9fe92a0b0f1e4a81"


def test_golden_grid_and_regress_digests(tmp_path):
    assert main(["grid", "--sizes", "4x3,3x2", "--rhos", "0.4,1.0", "--instances-per-cell", "1",
                 "--seed", "11", "--out", str(tmp_path)]) == 0
    assert main(["regress", "--results", str(tmp_path / "grid_results.csv"), "--solver", "SPT+SCTA",
                 "--baseline", "MOR+SCTA", "--out", str(tmp_path / "regress.txt")]) == 0
    assert len((tmp_path / "grid_cells.csv").read_text().splitlines()) == 1 + 100
    assert {name: _digest(tmp_path / name) for name in GOLDEN_GRID} == GOLDEN_GRID


def test_golden_bench_summary_digest(tmp_path):
    assert main(["bench", "--sizes", "4x3,3x2", "--rhos", "0.4,1.0", "--instances", "2",
                 "--seed", "9", "--out", str(tmp_path)]) == 0
    assert _digest(tmp_path / "summary.csv") == GOLDEN_BENCH_SUMMARY


def test_golden_gen_digests(tmp_path):
    sampled, custom = tmp_path / "sampled", tmp_path / "custom"
    assert main(["gen", "--n", "6", "--m", "4", "--count", "3", "--seed", "21",
                 "--out", str(sampled)]) == 0
    assert main(["gen", "--n", "4", "--m", "3", "--k", "2", "--proc", "5", "17",
                 "--transport", "40", "60", "--count", "2", "--seed", "8", "--out", str(custom)]) == 0
    assert _docs_digest(sampled) == GOLDEN_GEN_SAMPLED_K
    assert _docs_digest(custom) == GOLDEN_GEN_CUSTOM_RANGES
