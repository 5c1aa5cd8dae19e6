"""In-memory span tracing around the public functions of each jsspt module.

Spans are kept as four parallel arrays (name id, parent index, start, end),
so a traced bench round of about two million spans costs tens of MB. The
wrappers are installed from outside the package by replacing module and
class attributes at the places the program looks them up; `uninstall`
puts every original back.
"""

from __future__ import annotations

from array import array
from time import perf_counter

import numpy as np

# Op-rule enum member names give metric-safe labels ("FDD/MWR" -> FDD_MWR).
OP_RULE_LABELS = ("SPT", "SMPT", "LPT", "MWR", "LWR", "FDD_MWR", "MOR", "LOR", "RANDOM", "FCFS")
AGV_RULE_LABELS = ("RANDOM", "SPUT", "SCTA", "SCPT")
LAYERS = ("instances", "engine", "rules", "features", "bridge", "rule_server",
          "metrics", "harness", "regression")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, float] = {}
        self._stack = [-1]
        self._patches: list[tuple[object, str, object, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, owner, attr: str, name, key_arg: int = 0, on_result=None) -> None:
        """Record a span around `owner.attr`. `name` is a span name, or a
        function of the positional argument `key_arg` returning one."""
        original = getattr(owner, attr)
        names, parent, start, end, stack = self.name, self.parent, self.start, self.end, self._stack
        fixed = self._id(name) if isinstance(name, str) else None
        by_key: dict = {}

        def traced(*args, **kwargs):
            nid = fixed
            if nid is None:
                key = args[key_arg]
                nid = by_key.get(key)
                if nid is None:
                    nid = by_key[key] = self._id(name(key))
            idx = len(end)
            names.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = original(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(self, args, result)
            return result

        self._patches.append((owner, attr, original, traced))

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def install(self) -> None:
        for owner, attr, _, traced in self._patches:
            setattr(owner, attr, traced)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def mark(self) -> int:
        """Index of the next span; aggregates can start from a mark."""
        return len(self.end)

    def aggregate(self, since: int = 0) -> dict[str, dict]:
        """Per span name: calls, total and self seconds, and the durations.
        Self time is a span's duration minus the durations of its children."""
        count = len(self.end)
        nid = np.frombuffer(self.name, dtype=np.int32)[:count]
        parent = np.frombuffer(self.parent, dtype=np.int32)[:count]
        dur = np.frombuffer(self.end)[:count] - np.frombuffer(self.start)[:count]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=count)
        own = dur - child
        keep = np.arange(count) >= since
        out = {}
        for i, name in enumerate(self.names):
            sel = keep & (nid == i)
            if sel.any():
                parents = parent[sel]
                by_parent = np.unique(nid[parents[parents >= 0]], return_counts=True)
                out[name] = {
                    "calls": int(sel.sum()),
                    "total_s": float(dur[sel].sum()),
                    "self_s": float(own[sel].sum()),
                    "durations": dur[sel],
                    "calls_by_parent": {self.names[p]: int(c) for p, c in zip(*by_parent)},
                }
        return out


def _op_rule_name(rule):
    from jsspt.rules import OperationRule

    return "rules.select_operation." + OperationRule(rule).name


def _agv_rule_name(rule):
    from jsspt.rules import AgvRule

    return "rules.select_agv." + AgvRule(rule).name


def _phase_name(phase):
    return "bridge.serialize_" + ("operation" if phase == "operation" else "agv")


def _line_bytes(tracer: Tracer, args, line: str) -> None:
    phase = "operation" if args[1] == "operation" else "agv"
    tracer.count(f"bridge.{phase}_line_bytes", len(line.encode("utf-8")))
    tracer.count(f"bridge.{phase}_lines")


def program_tracer() -> Tracer:
    """A tracer wrapping the public functions the per-layer metrics name, at
    every place the program looks them up."""
    from jsspt import bridge, engine, features, harness, instances, rules

    t = Tracer()
    t.wrap(harness, "generate_instance", "instances.generate_instance")
    t.wrap(instances, "generate_instance", "instances.generate_instance")
    t.wrap(instances, "load_instance", "instances.load_instance")
    t.wrap(engine.ScheduleState, "apply", "engine.apply")
    t.wrap(engine.ScheduleState, "valid_operations", "engine.valid_operations")
    t.wrap(rules, "build_result", "engine.build_result")
    t.wrap(bridge, "build_result", "engine.build_result")
    t.wrap(rules, "select_operation", _op_rule_name)
    t.wrap(rules, "select_agv", _agv_rule_name)
    t.wrap(harness, "solve", "rules.solve")
    t.wrap(bridge, "build_graph", "features.build_graph")
    t.wrap(features, "op_lower_bound", "features.op_lower_bound")
    t.wrap(bridge, "agv_features", "features.agv_features")
    t.wrap(rules, "raw_transport_times", "features.raw_transport_times")
    t.wrap(features, "raw_transport_times", "features.raw_transport_times")
    t.wrap(bridge, "serialize_observation", _phase_name, key_arg=1, on_result=_line_bytes)
    t.wrap(bridge.ExternalPolicyClient, "choose_operation", "bridge.round_trip")
    t.wrap(bridge.ExternalPolicyClient, "choose_agv", "bridge.round_trip")
    t.wrap(bridge.ExternalPolicyClient, "begin_episode", "bridge.begin_episode")
    t.wrap(harness, "run_episode", "bridge.run_episode")
    t.wrap(harness, "make_record", "metrics.make_record")
    for fn in ("generate_bench_instances", "generate_grid_instances", "select_global_best",
               "summarize_results", "records_to_csv", "records_from_csv", "summary_to_csv",
               "grid_cell_table", "heatmap_table", "run_regression_suite"):
        t.wrap(harness, fn, "harness." + fn)
    t.wrap(harness, "ols_fit", "regression.ols_fit")
    return t


UNIT_SCALE = {"us": 1e6, "ms": 1e3, "s": 1.0}

# Self time per call, each named <span name>_<unit>. The rule_server spans
# come from the policy child.
PER_CALL = (
    "instances.generate_instance_us", "instances.load_instance_ms",
    "engine.apply_us", "engine.valid_operations_us", "engine.build_result_us",
    *(f"rules.select_operation.{label}_us" for label in OP_RULE_LABELS),
    *(f"rules.select_agv.{label}_us" for label in AGV_RULE_LABELS),
    "features.build_graph_us", "features.op_lower_bound_us", "features.agv_features_us",
    "features.raw_transport_times_us",
    "bridge.serialize_operation_us", "bridge.serialize_agv_us", "bridge.round_trip_us",
    "bridge.begin_episode_ms",
    "rule_server.parse_message_us", "rule_server.decide_us", "rule_server.load_instance_ms",
    "metrics.make_record_us",
    "harness.generate_bench_instances_s", "harness.generate_grid_instances_s",
    "harness.select_global_best_s", "harness.summarize_results_s", "harness.records_to_csv_s",
    "harness.records_from_csv_s", "harness.summary_to_csv_ms", "harness.grid_cell_table_ms",
    "harness.heatmap_table_ms", "harness.run_regression_suite_ms",
    "regression.ols_fit_ms",
)
# Call counts, each named <span name>_calls.
CALLS = ("instances.generate_instance_calls", "engine.apply_calls",
         "features.build_graph_calls", "metrics.make_record_calls")
# Episode loops whose self time is reported per step (per engine.apply call).
LOOPS = (("rules.solve_self_us", "rules.solve"), ("bridge.run_episode_self_us", "bridge.run_episode"))


def layer_metrics(agg: dict, counters: dict, server: dict, shares: dict) -> dict[str, float]:
    """The per-layer metric values from one traced run. `agg` covers every
    traced span of the main process, `server` the policy child's spans, and
    `shares` the per-layer self time of the traced rounds over their wall time."""
    m: dict[str, float] = {}
    for metric in PER_CALL:
        span, unit = metric.rsplit("_", 1)
        a = (server if span.startswith("rule_server.") else agg).get(span)
        m[metric] = a["self_s"] / a["calls"] * UNIT_SCALE[unit] if a else 0.0
    for metric in CALLS:
        m[metric] = agg.get(metric[: -len("_calls")], {}).get("calls", 0)
    m["rules.select_operation_calls"] = sum(
        a["calls"] for name, a in agg.items() if name.startswith("rules.select_operation."))
    for metric, loop in LOOPS:
        steps = agg.get("engine.apply", {}).get("calls_by_parent", {}).get(loop, 0)
        m[metric] = agg[loop]["self_s"] / steps * 1e6 if steps else 0.0
    for phase in ("operation", "agv"):
        lines = counters.get(f"bridge.{phase}_lines", 0)
        m[f"bridge.{phase}_line_bytes"] = counters[f"bridge.{phase}_line_bytes"] / lines if lines else 0.0
    rt = agg.get("bridge.round_trip")
    m["bridge.round_trip_p99_us"] = float(np.percentile(rt["durations"], 99)) * 1e6 if rt else 0.0
    for layer in LAYERS:
        m[f"{layer}.self_share"] = shares.get(layer, 0.0)
    return m


def layer_self_seconds(agg: dict) -> dict[str, float]:
    out: dict[str, float] = {}
    for name, a in agg.items():
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + a["self_s"]
    return out


def summary(agg: dict) -> dict:
    """JSON-ready per-span aggregates (durations dropped)."""
    return {
        name: {"calls": a["calls"], "total_s": a["total_s"], "self_s": a["self_s"],
               "self_us_per_call": a["self_s"] / a["calls"] * 1e6,
               "p50_us": float(np.percentile(a["durations"], 50)) * 1e6,
               "p99_us": float(np.percentile(a["durations"], 99)) * 1e6,
               "calls_by_parent": a["calls_by_parent"]}
        for name, a in sorted(agg.items())
    }
