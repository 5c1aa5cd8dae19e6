"""One workload in a fresh interpreter: set-up, timed rounds, the checks.

run.py starts several of these in turn for one run and times each set-up
from the moment it spawns the process. The result goes to the JSON file
named by --result:

- `first_call`: CLOCK_MONOTONIC reading at the first timed call, less the
  time of the speed probe taken during set-up;
- untraced: the set-up's speed probes, per-round raw and scaled times
  (speed.py), finished rows and scaled step statistics, the operations
  attempted and failed, correctness and peak RSS;
- traced (--trace 1): the per-layer metrics. Each round runs untraced and
  then traced on the same inputs, which gives the tracing overhead. The span
  aggregates go to out/trace-<workload>.json.

The first worker to produce a round's tables checks them in full. Workers
after it run the same rounds on the same inputs and must write the same
bytes, which a digest of the round's directory compares.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import sys
import time
from pathlib import Path
from time import perf_counter

import common
import speed

# Each round's 99th percentile needs at least ten samples beyond it.
MIN_STEPS = 1000

def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_rounds(workload, pacer, seconds: float, out: Path):
    """Whole rounds until `seconds` have passed (none if `seconds` <= 0).
    Returns the rounds, their raw and scaled times (speed.py) and per-round
    step statistics (count, median, 90th and 99th percentiles in scaled
    seconds), computed between rounds."""
    import numpy as np

    rounds, raw, scaled, steps = [], [], [], []
    started = perf_counter()
    while perf_counter() - started < seconds:
        pacer.restart()
        raw_before, scaled_before = pacer.raw, pacer.scaled
        rounds.append(workload.run_round(len(rounds), out / f"r{len(rounds)}"))
        pacer.close()
        raw.append(pacer.raw - raw_before)
        scaled.append(pacer.scaled - scaled_before)
        s = np.array(pacer.samples)
        del pacer.samples[:]
        steps.append((len(s), *(float(q) for q in np.percentile(s, (50, 90, 99)))) if len(s)
                     else (0, math.nan, math.nan, math.nan))
    return rounds, raw, scaled, steps


def digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def check_rounds(workload, rounds, registry: Path) -> None:
    """Full checks for rounds no earlier worker has checked; the others must
    match the checked tables byte for byte."""
    from check import CheckError

    registry.mkdir(parents=True, exist_ok=True)
    fresh = []
    for r in rounds:
        seen = registry / f"r{r.index}.sha256"
        if not seen.exists():
            fresh.append(r)
        elif seen.read_text() != digest(r.out):
            raise CheckError(f"round {r.index}: tables differ from an earlier run of the same inputs")
    if fresh:
        workload.check(fresh)
    for r in fresh:
        (registry / f"r{r.index}.sha256").write_text(digest(r.out))


def run(args) -> dict:
    common.use_checkout_sources()
    started = perf_counter()
    common.checked_import()
    import_s = perf_counter() - started
    # A speed probe between import and input preparation; its own time is
    # left out of the set-up time.
    started = perf_counter()
    setup_probes = [speed.probe()]
    probing_s = perf_counter() - started

    import spans
    from check import CheckError
    from workloads import WORKLOAD_CLASSES

    out = common.OUT / args.workload
    workload = WORKLOAD_CLASSES[args.workload](args.seed, out)
    tracer = spans.program_tracer() if args.trace else None
    result: dict = {"import_s": import_s}
    try:
        if tracer:
            tracer.install()
        workload.setup()
        if tracer:
            tracer.uninstall()
        result["first_call"] = time.monotonic() - probing_s
        if tracer is None:
            pacer = speed.Pacer()
            result["setup_probes"] = setup_probes + pacer.probes[:1]
            workload.stamp_steps(pacer)
            rounds, raw, scaled, steps = timed_rounds(workload, pacer, args.seconds, out / f"w{args.worker}")
            result["peak_rss_mb"] = peak_rss_mb()
            result["probe_s"] = sorted(pacer.probes)[len(pacer.probes) // 2]
        else:
            # Untraced and traced rounds alternate on the same inputs, so a
            # drift of the machine's speed does not bias the overhead.
            workload.start_traced_policy()
            mark = tracer.mark()
            untraced, rounds, untraced_s, traced_s = [], [], 0.0, 0.0
            while untraced_s < args.seconds:
                index = len(rounds)
                workload.use_policy(traced=False)
                started = perf_counter()
                untraced.append(workload.run_round(index, out / "untraced" / f"r{index}"))
                untraced_s += perf_counter() - started
                workload.use_policy(traced=True)
                tracer.install()
                started = perf_counter()
                rounds.append(workload.run_round(index, out / "traced" / f"r{index}"))
                traced_s += perf_counter() - started
                tracer.uninstall()
    finally:
        workload.close()

    result.update(attempted=sum(r.attempted for r in rounds), failed=sum(r.failed for r in rounds),
                  correct=True)
    try:
        if tracer is None:
            check_rounds(workload, rounds, out / "checked")
            if any(s[0] < MIN_STEPS for s in steps):
                raise CheckError(f"a round gave fewer than {MIN_STEPS} step samples")
        else:
            check_rounds(workload, untraced + rounds, out / "checked")
    except CheckError as exc:
        print(f"check failed on {args.workload}: {exc}", file=sys.stderr)
        result["correct"] = False

    if tracer is None:
        result.update(round_s=raw, scaled_s=scaled, rows=[r.attempted - r.failed for r in rounds], steps=steps)
        return result

    agg = tracer.aggregate()
    server = json.loads(workload.policy_spans.read_text()) if workload.policy_spans.exists() else {}
    shares = {layer: s / traced_s for layer, s in spans.layer_self_seconds(tracer.aggregate(mark)).items()}
    shares.update({layer: s / traced_s for layer, s in spans.layer_self_seconds(server).items()})
    metrics = spans.layer_metrics(agg, tracer.counters, server, shares)
    metrics["import.jsspt_s"] = import_s
    metrics["external.policy_ready_s"] = getattr(workload, "policy_ready_s", 0.0)
    metrics["trace.overhead_ratio"] = traced_s / untraced_s
    report = {"workload": args.workload, "seed": args.seed, "rounds": len(rounds),
              "untraced_s": untraced_s, "traced_s": traced_s, "spans": spans.summary(agg),
              "policy_spans": server, "counters": tracer.counters, "metrics": metrics}
    (common.OUT / f"trace-{args.workload}.json").write_text(json.dumps(report, indent=1) + "\n")
    result["metrics"] = metrics
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=common.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="this worker's share of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", type=int, default=0)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args(argv)
    args.result.write_text(json.dumps(run(args)) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
