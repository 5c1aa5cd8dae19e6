"""Shared builders for hand-crafted instances, random episodes and plan
documents, a mutator of JSON values, the reference rule episode loop, the
if-chain operation rule reference, the reference engine transition, the
reference operation-line encoder, an in-process rule decider and one that
records the protocol v1 lines it is sent, the reference results
reduction, and variance inflation factors by their definition."""

from __future__ import annotations

import copy
import hashlib
import math
import sys

import numpy as np
import pytest

from jsspt.bridge import encode_message
from jsspt.engine import ScheduleResult, ScheduleState
from jsspt.errors import MetricError, ProtocolError
from jsspt.features import build_graph
from jsspt.harness import PREFERRED_GLOBAL_BEST, ExperimentPlan
from jsspt.instances import LOAD, GenerationConfig, Instance, generate_instance
from jsspt.metrics import ResultRecord, rpi, win
from jsspt.regression import aggregate_ci
from jsspt.rules import ALL_COMBOS, AgvRule, OperationRule, select_agv, select_operation, solve


# An integer text longer than this Python's int() limit: json.loads and int()
# raise a plain ValueError on it. A Python without the limit reads it.
OVERLONG_INT = "1" * 5000
needs_int_digit_limit = pytest.mark.skipif(
    not 0 < sys.get_int_max_str_digits() < len(OVERLONG_INT),
    reason="this Python converts integers of any length",
)


def make_instance(
    routings,
    proc,
    transport,
    k: int = 1,
    ident: str = "test",
    seed: int = 0,
) -> Instance:
    """Build an instance from plain lists; `proc` rows omit the final zero."""
    n = len(routings)
    m = len(routings[0])
    return Instance(
        id=ident,
        n=n,
        m=m,
        k=k,
        routings=tuple(tuple(r) for r in routings),
        proc_times=tuple(tuple(p) + (0,) for p in proc),
        transport=tuple(tuple(row) for row in transport),
        seed=seed,
    )


def micro_instance(idle_leg: int = 0) -> Instance:
    """One job, one machine, one AGV: p=5, t(load, M1)=2, t(M1, unload)=3.
    The only feasible schedule has makespan 10. The legs it never drives take
    `idle_leg`; a saved document loads only with idle_leg >= 1."""
    transport = [
        [0, idle_leg, 2],  # from load
        [idle_leg, 0, idle_leg],  # from unload
        [idle_leg, 3, 0],  # from M1
    ]
    return make_instance([[0]], [[5]], transport, k=1, ident="micro")


def zero_transport(m: int) -> list[list[int]]:
    size = m + 2
    return [[0] * size for _ in range(size)]


def random_small_instance(rng: np.random.Generator) -> Instance:
    """Random shape up to 10 jobs x 10 machines x 5 AGVs, times in [1, 100]."""
    n = int(rng.integers(1, 11))
    m = int(rng.integers(1, 11))
    k = int(rng.integers(1, 6))
    config = GenerationConfig(n=n, m=m, k=k, seed=int(rng.integers(2**31 - 1)))
    return generate_instance(config)


def plan_to_document(plan: ExperimentPlan) -> dict:
    return {
        "sizes": [list(s) for s in plan.sizes],
        "rhos": list(plan.rhos),
        "instances_per_config": plan.instances_per_config,
        "solvers": list(plan.solvers),
        "seed": plan.seed,
    }


# -- mutated documents -------------------------------------------------------------

#: What `mutate` puts in a field or entry: other types, values at and past
#: the documented bounds, and numbers that no float or no size can hold.
MUTANT_VALUES = (
    0, -1, 1, 2, 3, 100, 101, 1001, 1.5, 2.0, True, None, "2", "", [], [1], [[1]], {},
    1e300, 1e308, -1e308, 10**400, math.nan, math.inf,
)


def _places(value, out: list) -> list:
    """Append (container, key) of every field and entry of a JSON value to
    `out`, depth first."""
    if isinstance(value, dict):
        keys = list(value)
    else:
        keys = range(len(value)) if isinstance(value, list) else ()
    for key in keys:
        out.append((value, key))
        _places(value[key], out)
    return out


def _retyped(value) -> list:
    """`value` as other JSON types: wrapped in a list or an object, as text,
    and an integer as a float."""
    out = [[value], {"value": value}, str(value)]
    if type(value) is int and value.bit_length() <= 1000:
        out.append(float(value))
    return out


def mutate(value, choose):
    """A copy of the JSON value `value` with one edit: a field or entry, or
    the whole value, replaced by one of MUTANT_VALUES, retyped or deleted, or
    an unknown field added to an object. `choose(options)` picks one of a
    sequence, e.g. `lambda xs: data.draw(st.sampled_from(xs))`."""
    root = [copy.deepcopy(value)]
    places = _places(root, [])
    objects = [c[k] for c, k in places if isinstance(c[k], dict)]
    edits = ["replace", "retype"] + ["delete"] * (len(places) > 1) + ["add"] * bool(objects)
    edit = choose(edits)
    if edit == "add":
        choose(objects)["unknown"] = copy.deepcopy(choose(MUTANT_VALUES))
        return root[0]
    # The whole value, places[0], may be replaced or retyped, not deleted.
    container, key = choose(places[1:] if edit == "delete" else places)
    if edit == "replace":
        container[key] = copy.deepcopy(choose(MUTANT_VALUES))
    elif edit == "retype":
        container[key] = choose(_retyped(container[key]))
    else:
        del container[key]
    return root[0]


def random_episode(instance: Instance, rng: np.random.Generator) -> ScheduleResult:
    """Drive the engine with uniformly random valid actions to completion:
    RANDOM+RANDOM draws a job from the frontier, then a vehicle, from `rng`."""
    return solve(instance, "RANDOM", "RANDOM", seed=rng)


def reference_play(instance: Instance, op_rule, agv_rule, seed=0):
    """rules.play with every vehicle chosen per step: one select_operation
    and one select_agv call per step, each RANDOM rule drawing one scalar
    from a single generator. Returns the terminal state and the decisions."""
    rng = np.random.default_rng(seed)
    state = ScheduleState(instance)
    decisions = []
    for _ in range(instance.total_ops):
        job = select_operation(op_rule, state, rng)
        agv = select_agv(agv_rule, state, job, rng)
        state.advance(job, agv)
        decisions.append((job, agv))
    return state, decisions


def _reference_operation_score(rule, state, j, i):
    # Lower is better; max-type rules negate.
    inst = state.instance
    if rule is OperationRule.SPT:
        return inst.proc_times[j][i - 1]
    if rule is OperationRule.LPT:
        return -inst.proc_times[j][i - 1]
    remaining_ops = inst.m + 2 - i
    if rule is OperationRule.SMPT:
        return inst.work_suffix[j][i - 1] / remaining_ops
    if rule is OperationRule.MWR:
        return -inst.work_suffix[j][i - 1]
    if rule is OperationRule.LWR:
        return inst.work_suffix[j][i - 1]
    if rule is OperationRule.FDD_MWR:
        remaining = inst.work_suffix[j][i - 1]
        if remaining == 0:
            return math.inf
        return inst.work_prefix[j][i - 1] / remaining
    if rule is OperationRule.MOR:
        return -remaining_ops
    if rule is OperationRule.LOR:
        return remaining_ops
    if rule is OperationRule.FCFS:
        return state.entries[j][-1].end if i > 1 else 0
    raise AssertionError(f"unhandled rule {rule}")


def reference_select_operation(rule, state):
    """The job a deterministic operation rule picks, by an if-chain that
    scores every unfinished job from scratch; the lowest index wins ties."""
    candidates = [j for j, i in enumerate(state.next_op) if i <= state.instance.m + 1]
    best_job = candidates[0]
    best = _reference_operation_score(rule, state, best_job, state.next_op[best_job])
    for j in candidates[1:]:
        score = _reference_operation_score(rule, state, j, state.next_op[j])
        if score < best:
            best, best_job = score, j
    return best_job


def reference_slots(instance: Instance) -> dict:
    """A fresh ScheduleState's slots, but the instance, as plain lists."""
    return {
        "next_op": [1] * instance.n,
        "frontier": list(range(instance.n)),
        "entries": [[] for _ in range(instance.n)],
        "machine_free": [0] * (instance.m + 2),
        "machine_ops": [0] * (instance.m + 2),
        "agv_location": [LOAD] * instance.k,
        "agv_free": [0] * instance.k,
        "steps": 0,
    }


def reference_advance(instance: Instance, slots: dict, job: int, agv: int) -> None:
    """ScheduleState.advance on `reference_slots`, in place, written from the
    semi-active rules validate_schedule checks. Pickup is at the later of the
    predecessor's end and the vehicle's arrival after its empty leg; delivery
    is pickup plus the loaded leg; a processing op starts at the later of
    delivery and the machine's free time; the release op starts and ends at
    delivery. An entry is (pickup, delivery, start, end, agv)."""
    i = slots["next_op"][job]
    source, target = instance.op_source(job, i), instance.op_machine(job, i)
    entries = slots["entries"][job]
    predecessor_end = entries[-1][3] if entries else 0
    empty_leg = instance.travel(slots["agv_location"][agv], source)
    pickup = max(predecessor_end, slots["agv_free"][agv] + empty_leg)
    delivery = pickup + instance.travel(source, target)
    if i <= instance.m:
        start = max(delivery, slots["machine_free"][target])
        end = start + instance.proc_time(job, i)
    else:
        start = end = delivery
    entries.append((pickup, delivery, start, end, agv))
    slots["next_op"][job] = i + 1
    slots["frontier"] = [j for j, op in enumerate(slots["next_op"]) if op <= instance.m + 1]
    slots["machine_free"][target] = max(slots["machine_free"][target], end)
    slots["machine_ops"][target] += 1
    slots["agv_location"][agv] = target
    slots["agv_free"][agv] = delivery
    slots["steps"] += 1


def all_decision_sequences(instance: Instance):
    """Yield every complete (job, agv) decision sequence, depth first.
    Exponential; keep instances tiny. Used as the oracle's own oracle."""
    total = instance.total_ops

    def expand(state, trail):
        if len(trail) == total:
            yield trail, state
            return
        for job in state.valid_operations():
            for agv in range(instance.k):
                yield from expand(state.apply(job, agv), trail + ((job, agv),))

    yield from expand(ScheduleState(instance), ())


def _reference_operation_line(state):
    """The documented v1 operation line, built as a dict from the graph's
    fields and encoded in one piece."""

    def round6(value):
        return float(f"{value:.6f}")

    graph = build_graph(state)
    inst = state.instance
    operations = []
    for j in range(inst.n):
        for i in range(1, inst.m + 2):
            v = j * (inst.m + 1) + i - 1
            operations.append([
                j, i, inst.op_machine(j, i), graph.op_scheduled[v],
                graph.op_bound_raw[v], round6(graph.op_bound[v]),
            ])
    machines = [
        [t, 0, round6(graph.machine_ratio[t])]
        for t in range(inst.m + 2)
    ]
    return encode_message({
        "type": "observation",
        "schema": 1,
        "step": state.steps,
        "phase": "operation",
        "mask": state.valid_operations(),
        "operations": operations,
        "machines": machines,
        "precedence": [list(e) for e in graph.precedence_edges],
        "assignment": [list(e) for e in graph.assignment_edges],
    })


class RulePolicy:
    """In-process decider backed by dispatching rules."""

    def __init__(self, op_rule=None, agv_rule=None, seed=0):
        if op_rule is None and agv_rule is None:
            raise ProtocolError("rule policy needs at least one rule")
        self.op_rule = OperationRule(op_rule) if op_rule is not None else None
        self.agv_rule = AgvRule(agv_rule) if agv_rule is not None else None
        self.seed = seed
        self._rng = np.random.default_rng(seed)

    def begin_episode(self, instance: Instance) -> None:
        self._rng = np.random.default_rng(self.seed)

    def choose_operation(self, state: ScheduleState, message: str) -> int:
        if self.op_rule is None:
            raise ProtocolError("this policy does not select operations")
        return select_operation(self.op_rule, state, self._rng)

    def choose_agv(self, state: ScheduleState, job: int, message: str) -> int:
        if self.agv_rule is None:
            raise ProtocolError("this policy does not select AGVs")
        return select_agv(self.agv_rule, state, job, self._rng)

    def end_episode(self, message: str) -> None:
        pass


class RecordingPolicy(RulePolicy):
    """A rule decider that keeps the lines of its last episode: every
    observation line in the order sent, and the terminal line."""

    def begin_episode(self, instance: Instance) -> None:
        super().begin_episode(instance)
        self.lines: list[str] = []
        self.terminal: str | None = None

    def choose_operation(self, state, message):
        self.lines.append(message)
        return super().choose_operation(state, message)

    def choose_agv(self, state, job, message):
        self.lines.append(message)
        return super().choose_agv(state, job, message)

    def end_episode(self, message):
        self.terminal = message


def episode_digest(lines: list[str]) -> str:
    """sha256 over an episode's joined step digests; a step's digest is the
    first 16 hex digits of sha256(operation line + "\n" + AGV line)."""
    steps = [
        hashlib.sha256((op + "\n" + agv).encode("utf-8")).hexdigest()[:16]
        for op, agv in zip(lines[::2], lines[1::2])
    ]
    return hashlib.sha256("\n".join(steps).encode("utf-8")).hexdigest()


# -- reference results reduction ---------------------------------------------------
#
# harness.select_global_best and harness.summarize_results as they were before
# both read one per-instance index: a pairwise win count, and one scan of
# every record per solver. The harness versions must give the same global
# best and the same summary rows, float bits included.

def reference_select_global_best(records: list[ResultRecord]) -> str:
    combos = sorted({r.solver_id for r in records if r.solver_id in ALL_COMBOS})
    if len(combos) < 1:
        raise MetricError("no dispatching-rule rows to pick a global best from")
    if len(combos) == 1:
        return combos[0]
    by_instance: dict[str, dict[str, int]] = {}
    for rec in records:
        if rec.solver_id in ALL_COMBOS:
            by_instance.setdefault(rec.instance_id, {})[rec.solver_id] = rec.makespan
    wins = {c: 0 for c in combos}
    for makespans in by_instance.values():
        present = [c for c in combos if c in makespans]
        for c in present:
            for other in present:
                if other != c and makespans[c] < makespans[other]:
                    wins[c] += 1
    most_wins = max(wins.values())
    tied = [c for c in combos if wins[c] == most_wins]
    if PREFERRED_GLOBAL_BEST in tied:
        return PREFERRED_GLOBAL_BEST
    return tied[0]


def reference_summarize_results(records: list[ResultRecord]):
    if not records:
        raise MetricError("cannot summarize an empty results table")
    global_best = reference_select_global_best(records)
    best_per_instance: dict[str, int] = {}
    global_per_instance: dict[str, int] = {}
    for rec in records:
        if rec.solver_id in ALL_COMBOS:
            prev = best_per_instance.get(rec.instance_id)
            if prev is None or rec.makespan < prev:
                best_per_instance[rec.instance_id] = rec.makespan
        if rec.solver_id == global_best:
            global_per_instance[rec.instance_id] = rec.makespan

    solvers = sorted({r.solver_id for r in records})
    rows = []
    for solver_id in solvers:
        mine = [r for r in records if r.solver_id == solver_id]
        rpis_best = [
            rpi(r.makespan, best_per_instance[r.instance_id])
            for r in mine
            if r.instance_id in best_per_instance
        ]
        rpis_global = [
            rpi(r.makespan, global_per_instance[r.instance_id])
            for r in mine
            if r.instance_id in global_per_instance
        ]
        wins = [
            win(r.makespan, global_per_instance[r.instance_id])
            for r in mine
            if r.instance_id in global_per_instance
        ]
        rows.append(
            {
                "solver": solver_id,
                "instances": len(mine),
                "mean_makespan": _reference_mean(r.makespan for r in mine),
                "mean_rpi_vs_best": _reference_mean(rpis_best),
                "ci95_rpi_vs_best": _reference_half_width(rpis_best),
                "mean_rpi_vs_global": _reference_mean(rpis_global),
                "ci95_rpi_vs_global": _reference_half_width(rpis_global),
                "win_rate_vs_global": _reference_mean(wins),
                "global_best": global_best,
            }
        )
    rows.sort(key=lambda r: (-r["mean_rpi_vs_best"], r["solver"]))
    return rows, global_best


def _reference_mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else float("nan")


def _reference_half_width(values) -> float:
    values = list(values)
    if len(values) < 2:
        return 0.0
    return aggregate_ci(values)[1]


def reference_vif(regressors) -> list[float]:
    """Each regressor's variance inflation factor by its definition,
    1 / (1 - R2) = TSS / RSS of the least-squares fit of that column on the
    others plus an intercept. `regressors` holds no intercept column."""
    x = np.asarray(regressors, dtype=float)
    out = []
    for j in range(x.shape[1]):
        target = x[:, j]
        others = np.column_stack([np.ones(len(x)), np.delete(x, j, axis=1)])
        resid = target - others @ np.linalg.lstsq(others, target, rcond=None)[0]
        centered = target - target.mean()
        out.append(float(centered @ centered / (resid @ resid)))
    return out
