"""Run the jsspt benchmark: one workload, or all four in turn.

    python3 perfbench/run.py --workload bench --seed 1 --seconds 20 --trace 0

Each workload runs in `WORKERS` fresh interpreters (worker.py) in turn,
all on one CPU. Each one's set-up is timed from spawn to the first timed
call; each one then runs a share of the timed rounds and checks them.
Every time is scaled to a reference machine speed by the probes of
speed.py. The end-to-end figures are the median set-up and peak RSS, the
rows over the scaled time of all rounds, and the median over all rounds
of each round's step percentiles. The last line printed for a workload is
one JSON object with `correct`, `attempted`, `failed` and `metrics`;
`--trace 1` reports the per-layer metrics of one traced interpreter
instead. Exits nonzero when the checkout holds no jsspt sources, a worker
fails, or a check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
import speed  # noqa: E402

# Fresh interpreters per run. Each one's set-up is timed, and each one runs
# a share of the timed rounds.
WORKERS = 3
RUN_TIMEOUT_S = 170


class WorkerError(RuntimeError):
    pass


def spawn(workload: str, seed: int, seconds: float, trace: int, worker: int,
          deadline: float) -> tuple[float, dict]:
    """Run one worker interpreter; returns its spawn time and its result."""
    result = common.OUT / f"{workload}-worker.json"
    result.unlink(missing_ok=True)
    argv = [sys.executable, str(common.BENCH_DIR / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
            "--worker", str(worker), "--result", str(result)]
    env = dict(os.environ, PYTHONPATH=str(common.SRC))
    before = speed.probe()
    spawned = time.monotonic()
    proc = subprocess.run(argv, env=env, cwd=common.ROOT, timeout=max(1.0, deadline - spawned),
                          stdout=subprocess.DEVNULL)
    if proc.returncode != 0 or not result.exists():
        raise WorkerError(f"{workload} worker exited with code {proc.returncode}")
    res = json.loads(result.read_text())
    res["setup_probes"] = [before, *res.get("setup_probes", ())]
    return spawned, res


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    out = common.OUT / workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    deadline = time.monotonic() + RUN_TIMEOUT_S
    if trace:
        _, res = spawn(workload, seed, seconds, 1, 0, deadline)
        print(f"{workload}: {res['attempted']} operations attempted, {res['failed']} failed, "
              f"correct={res['correct']}")
        metrics = {name: {"value": value, "unit": unit_of(name)} for name, value in res["metrics"].items()}
        return {"correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"],
                "metrics": metrics}

    workers, used = [], 0.0
    for i in range(WORKERS):
        # What is left of --seconds, shared among the workers still to come:
        # the first always times at least one round, a later one may time none.
        share = (seconds - used) / (WORKERS - i)
        spawned, res = spawn(workload, seed, share, 0, i, deadline)
        res["raw_setup_s"] = res["first_call"] - spawned
        res["setup_s"] = speed.scale(res["raw_setup_s"], res["setup_probes"])
        used += sum(res["round_s"])
        workers.append(res)
    rows = sum(sum(w["rows"]) for w in workers)
    steps = [s for w in workers for s in w["steps"]]
    for i, w in enumerate(workers):
        print(f"{workload} worker {i}: set-up {w['raw_setup_s']:.3f} s raw, {w['setup_s']:.3f} s scaled; "
              f"rounds of {', '.join(f'{t:.3f}' for t in w['round_s'])} s raw, "
              f"{', '.join(f'{t:.3f}' for t in w['scaled_s'])} s scaled; "
              f"step samples {', '.join(str(s[0]) for s in w['steps'])}; "
              f"median probe {w['probe_s'] * 1e3:.3f} ms")
    # The 99th percentile is printed, not reported: on a shared host it
    # measures the host's stalls (see README.md, Noise).
    print(f"{workload}: step p99 {statistics.median(s[3] for s in steps) * 1e6:.1f} us, "
          f"median over {len(steps)} rounds")
    result = {
        "correct": all(w["correct"] for w in workers),
        "attempted": sum(w["attempted"] for w in workers),
        "failed": sum(w["failed"] for w in workers),
        "metrics": {
            "rows_per_s": {"value": rows / sum(sum(w["scaled_s"]) for w in workers), "unit": "1/s"},
            "setup_s": {"value": statistics.median(w["setup_s"] for w in workers), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(w["peak_rss_mb"] for w in workers if w["rows"]),
                            "unit": "MB"},
            "step_p50_us": {"value": statistics.median(s[1] for s in steps) * 1e6, "unit": "us"},
            "step_p90_us": {"value": statistics.median(s[2] for s in steps) * 1e6, "unit": "us"},
        },
    }
    print(f"{workload}: {result['attempted']} operations attempted, {result['failed']} failed, "
          f"correct={result['correct']}")
    return result


def unit_of(name: str) -> str:
    suffix = name.rsplit("_", 1)[-1]
    if name.endswith("_bytes"):
        return "bytes"
    return {"us": "us", "ms": "ms", "s": "s", "calls": "count", "share": "ratio",
            "ratio": "ratio"}.get(suffix, "count")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="jsspt benchmark")
    parser.add_argument("--workload", choices=common.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        common.require_sources()
    except common.CheckoutError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    # One CPU for the whole run, inherited by every worker and policy child.
    # Left to the scheduler, processes move between CPUs whose speed differs
    # on a shared host, and the protocol's wake-ups cross CPUs: run-to-run
    # spreads of step_p99_us on external reached 1.0 of the median that way.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    names = common.WORKLOADS if args.workload == "all" else (args.workload,)
    ok = True
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, args.trace)
        except (WorkerError, subprocess.TimeoutExpired) as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        ok = ok and result["correct"] and result["failed"] == 0
        if args.workload == "all":
            result = {"workload": name, **result}
        print(json.dumps(result))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
