"""Paths, seeds and the rule-combo names shared by the benchmark's modules.

The benchmark lives in `perfbench/` of a jsspt checkout and always runs the
package from that checkout's `src/`, never from an installed copy.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

WORKLOADS = ("bench", "grid", "external", "analyze")

# Rule names in the README's canonical order; combo ids are operation-rule
# major, which is the row order of every results table.
OP_RULES = ("SPT", "SMPT", "LPT", "MWR", "LWR", "FDD/MWR", "MOR", "LOR", "RANDOM", "FCFS")
AGV_RULES = ("RANDOM", "SPUT", "SCTA", "SCPT")
COMBOS = tuple(f"{o}+{a}" for o in OP_RULES for a in AGV_RULES)
DETERMINISTIC = tuple(c for c in COMBOS if "RANDOM" not in c)
PREFERRED_GLOBAL_BEST = "MOR+SCTA"

# The default experiment axes (README, `jsspt bench --help`).
SIZES = ((15, 10), (10, 10), (12, 12), (14, 14), (20, 5), (5, 10), (15, 15), (30, 10))
RHOS = (0.2, 0.4, 0.6, 0.8, 1.0, 1.2)
GRID_LOWS = tuple(range(1, 100, 10))


class CheckoutError(RuntimeError):
    """The directory the benchmark runs in holds no jsspt sources."""


def require_sources() -> None:
    if not (SRC / "jsspt" / "__init__.py").is_file():
        raise CheckoutError(f"no jsspt sources under {SRC}")


def use_checkout_sources() -> None:
    """Import jsspt from this checkout, for this process and its children."""
    require_sources()
    sys.path.insert(0, str(SRC))
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")


def checked_import():
    """`import jsspt`, refusing a copy that does not come from this checkout."""
    import jsspt

    if Path(jsspt.__file__).resolve().parent != (SRC / "jsspt").resolve():
        raise CheckoutError(f"jsspt imported from {jsspt.__file__}, not from {SRC}")
    return jsspt


def round_seed(seed: int, round_index: int) -> int:
    """Plan seed of one round: distinct per (seed, round), stable across runs."""
    return seed * 1000 + round_index
