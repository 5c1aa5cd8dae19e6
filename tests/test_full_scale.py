"""Paper-scale reference outputs: the default `bench` and `grid` plans, each
192,000 episodes, and a regression on the grid's table must write exactly the
recorded bytes. The golden tests pin only toy shapes; these plans also cover
every default size up to 30x10 and all six scarcity values.

Skipped unless JSSPT_FULL_SCALE=1, as a run takes about three minutes on two
cores:

    JSSPT_FULL_SCALE=1 PYTHONPATH=src python -m pytest -q tests/test_full_scale.py

A change that must alter these bytes records the new digests here and says
why, as for the golden digests."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from jsspt import cli

pytestmark = pytest.mark.skipif(
    os.environ.get("JSSPT_FULL_SCALE") != "1", reason="set JSSPT_FULL_SCALE=1 to run"
)

#: sha256 of each output file, by its path under the run's directory.
FULL_SCALE_DIGESTS = {
    "bench/results.csv": "b2e168b4d8de65b1ab68dcfec28c80ad25014414bbf15db7675de3a1ca738813",
    "bench/summary.csv": "639c46531c0df0a66856350dde891fe43e0daf2245c9c70d48b44de4f4f7ad50",
    "grid/grid_results.csv": "6f1d5c7fc361cf61b5a86d85d241bb4904c1932d1133ecd8fedfb9dc6cb254d5",
    "grid/grid_cells.csv": "e049c871858939ca1f6400e991a250c1672452270b587a5a165cae5eabe50050",
    "grid/heatmap.csv": "a2b6d44acd6537224e0b6c6d650185c8ce9f6e60a0369d72e3c9f83cbc644464",
    "regress.txt": "937bca2e5c6d5a4b8d02799bc6554fc1f7d980c6b0ce9058d7ae320004530ea1",
}


# Runs one command, then prints the largest peak resident set of the
# processes it started, its pool workers, in KiB (ru_maxrss on Linux).
WITH_WORKER_PEAK = """
import resource, sys
from jsspt.cli import main
code = main(sys.argv[1:])
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
sys.exit(code)
"""


def worker_peak_kib(*argv: str) -> int:
    """Run `jsspt ARGV` in a fresh interpreter. Not in this one: a started
    process's ru_maxrss begins at its starter's peak, so the workers of a
    grid run after bench here would read bench's peak."""
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run([sys.executable, "-c", WITH_WORKER_PEAK, *argv], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(src)), timeout=1800)
    assert done.returncode == 0, done.stderr
    return int(done.stdout.splitlines()[-1])


def test_default_plans_write_the_recorded_bytes(tmp_path: Path):
    # Each pool worker generates only the chunks it solves: the largest
    # worker's peak stays far below the 653 MB a grid worker took when the
    # parent generated the whole plan's instances before starting them.
    for command in ("bench", "grid"):
        assert worker_peak_kib(command, "--jobs", "2", "--out", str(tmp_path / command)) <= 100 * 1024
    assert cli.main([
        "regress", "--results", str(tmp_path / "grid" / "grid_results.csv"),
        "--solver", "MOR+SCTA", "--baseline", "SPT+SCTA", "--out", str(tmp_path / "regress.txt"),
    ]) == 0
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in FULL_SCALE_DIGESTS
    }
    assert digests == FULL_SCALE_DIGESTS
