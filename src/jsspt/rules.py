"""Greedy dispatching rules and the 10 x 4 combo solvers.

Operation rules score each unfinished job's next operation; AGV rules score
vehicles on raw transport times for the already-chosen operation. All ties
break toward the lowest index so benchmark tables are reproducible; only the
RANDOM rules consume the seeded stream. `play` draws every RANDOM vehicle of
an X+RANDOM episode (X deterministic) in one sized call; RANDOM+Y pairs draw
per step, since the operation draw's bound is the frontier's length.

`select_operation` finds each non-RANDOM rule's scorer, and `min` or `max`,
in one dispatch table, `_OPERATION_DISPATCH`; the other rule checks compare
against module-level aliases, so no decision step loads an enum member. SMPT
and FDD/MWR read their scores from the instance's lazily built float rows,
`mean_work_suffix` and `flow_due_ratio`, so a step divides nothing.
`select_agv` checks the job itself, without a helper call.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .engine import ScheduleResult, ScheduleState, build_result
from .errors import ActionError, StateError
# Unused here; kept importable because the benchmark's traced run
# (perfbench/spans.py) wraps `rules.raw_transport_times`.
from .features import raw_transport_times  # noqa: F401
from .instances import LOAD, Instance


class OperationRule(str, Enum):
    SPT = "SPT"            # shortest processing time of the candidate
    SMPT = "SMPT"          # shortest mean remaining processing time
    LPT = "LPT"            # longest processing time of the candidate
    MWR = "MWR"            # most work remaining
    LWR = "LWR"            # least work remaining
    FDD_MWR = "FDD/MWR"    # flow due date / work remaining
    MOR = "MOR"            # most operations remaining
    LOR = "LOR"            # least operations remaining
    RANDOM = "RANDOM"
    FCFS = "FCFS"          # earliest-ready candidate


class AgvRule(str, Enum):
    RANDOM = "RANDOM"
    SPUT = "SPUT"          # soonest pick-up: min arrival at the source
    SCTA = "SCTA"          # soonest complete transport: min task finish
    SCPT = "SCPT"          # soonest completion of pending tasks: min release


# The operation rules' scorers: one score per job in `state.frontier`.

def _processing_time(state) -> list:
    times, nxt = state.instance.proc_times, state.next_op
    return [times[j][nxt[j] - 1] for j in state.frontier]


def _work_remaining(state) -> list:
    suffix, nxt = state.instance.work_suffix, state.next_op
    return [suffix[j][nxt[j] - 1] for j in state.frontier]


def _mean_work_remaining(state) -> list:
    rows, nxt = state.instance.mean_work_suffix, state.next_op
    return [rows[j][nxt[j] - 1] for j in state.frontier]


def _flow_due_ratio(state) -> list:
    rows, nxt = state.instance.flow_due_ratio, state.next_op
    return [rows[j][nxt[j] - 1] for j in state.frontier]


def _operations_done(state) -> list:
    # Fewer ops done means more remaining: MOR takes the least next_op.
    nxt = state.next_op
    return [nxt[j] for j in state.frontier]


def _predecessor_end(state) -> list:
    # FCFS: the candidate whose predecessor finished first.
    entries = state.entries
    return [entries[j][-1].end if entries[j] else 0 for j in state.frontier]


#: The dispatch table: each non-RANDOM operation rule's scorer and whether it
#: takes the least (min) or the greatest (max) score.
_OPERATION_DISPATCH = {
    OperationRule.SPT: (_processing_time, min),
    OperationRule.SMPT: (_mean_work_remaining, min),
    OperationRule.LPT: (_processing_time, max),
    OperationRule.MWR: (_work_remaining, max),
    OperationRule.LWR: (_work_remaining, min),
    OperationRule.FDD_MWR: (_flow_due_ratio, min),
    OperationRule.MOR: (_operations_done, min),
    OperationRule.LOR: (_operations_done, max),
    OperationRule.FCFS: (_predecessor_end, min),
}
# Loading an enum member costs about ten times as much as loading a global.
_RANDOM_OPERATION = OperationRule.RANDOM
_RANDOM_AGV = AgvRule.RANDOM
_SCPT = AgvRule.SCPT


def select_operation(rule, state, rng: np.random.Generator | None = None) -> int:
    """Pick a job from the valid frontier according to `rule`."""
    rule = rule if type(rule) is OperationRule else OperationRule(rule)
    candidates = state.frontier
    if not candidates:
        raise StateError("no unscheduled operations left")
    if rule is _RANDOM_OPERATION:
        if rng is None:
            raise ActionError("RANDOM operation rule needs a random generator")
        return candidates[int(rng.integers(len(candidates)))]
    # min, max and list.index all take the first extremum, so the lowest
    # index wins ties.
    score, pick = _OPERATION_DISPATCH[rule]
    scores = score(state)
    return candidates[scores.index(pick(scores))]


def select_agv(rule, state, job: int, rng: np.random.Generator | None = None) -> int:
    """Pick a vehicle for the chosen job's next operation according to `rule`."""
    rule = rule if type(rule) is AgvRule else AgvRule(rule)
    inst = state.instance
    if not 0 <= job < inst.n:
        raise ActionError(f"job index {job} out of range")
    op = state.next_op[job]
    if op > inst.m + 1:
        raise ActionError(f"job {job} has no unscheduled operation")
    if rule is _RANDOM_AGV:
        if rng is None:
            raise ActionError("RANDOM agv rule needs a random generator")
        return int(rng.integers(state.instance.k))
    free = state.agv_free
    if rule is _SCPT:  # release from pending tasks
        return free.index(min(free))
    # SPUT: arrival at the pickup machine. SCTA's task finish adds the loaded
    # leg, the same for every vehicle, so both rules take the same argmin.
    source = inst.op_machines[job][op - 2] if op > 1 else LOAD
    transport = inst.transport
    arrival = [f + transport[loc][source] for f, loc in zip(free, state.agv_location)]
    return arrival.index(min(arrival))


OPERATION_RULES: tuple[OperationRule, ...] = tuple(OperationRule)
AGV_RULES: tuple[AgvRule, ...] = tuple(AgvRule)

#: Canonical order of the 40 combo solver identifiers (operation rule major).
ALL_COMBOS: tuple[str, ...] = tuple(
    f"{o.value}+{a.value}" for o in OPERATION_RULES for a in AGV_RULES
)


def combo_id(op_rule, agv_rule) -> str:
    return f"{OperationRule(op_rule).value}+{AgvRule(agv_rule).value}"


def parse_combo(identifier: str) -> tuple[OperationRule, AgvRule]:
    try:
        op_part, agv_part = identifier.rsplit("+", 1)
        return OperationRule(op_part), AgvRule(agv_part)
    except ValueError as exc:
        raise ActionError(f"unknown solver identifier {identifier!r}") from exc


def play(instance: Instance, op_rule, agv_rule, seed=0) -> tuple[ScheduleState, list]:
    """Run one full construction episode with the rule pair, stepping one
    state in place; returns the terminal state and the decisions. An X+RANDOM
    pair with a deterministic X draws all its vehicles in one sized call,
    which gives the same values as one scalar draw per step; RANDOM+Y draws
    per step, since the operation draw's bound is the frontier's length."""
    op_rule = OperationRule(op_rule)
    agv_rule = AgvRule(agv_rule)
    # Only the RANDOM rules draw, so no other pair pays for a generator.
    rng = vehicles = None
    if op_rule is _RANDOM_OPERATION or agv_rule is _RANDOM_AGV:
        rng = np.random.default_rng(seed)
        if op_rule is not _RANDOM_OPERATION:
            vehicles = rng.integers(instance.k, size=instance.total_ops).tolist()
    state = ScheduleState(instance)
    decisions: list[tuple[int, int]] = []
    # One call per step through the global: perfbench wraps select_operation.
    for step in range(instance.total_ops):
        job = select_operation(op_rule, state, rng)
        agv = select_agv(agv_rule, state, job, rng) if vehicles is None else vehicles[step]
        state.advance(job, agv)
        decisions.append((job, agv))
    return state, decisions


def solve(instance: Instance, op_rule, agv_rule, seed=0) -> ScheduleResult:
    """Run one full construction episode with the rule pair."""
    state, decisions = play(instance, op_rule, agv_rule, seed)
    return build_result(state, combo_id(op_rule, agv_rule), decisions)


def sweep(instance: Instance, solver_ids=ALL_COMBOS, seed=0) -> list[int]:
    """The makespan of each combo in `solver_ids`, in order. Combo c plays
    with seed (seed, ALL_COMBOS.index(c)), so RANDOM streams are independent
    per combo and do not depend on which other combos run.

    Each distinct decision process is played once: a repeated combo, and
    X+SCTA beside X+SPUT for a non-RANDOM operation rule X, reuse one
    episode's makespan (select_agv gives SPUT and SCTA one argmin, and
    neither consumes the stream)."""
    played: dict[tuple[OperationRule, AgvRule], int] = {}
    makespans = []
    for ident in solver_ids:
        op_rule, agv_rule = parse_combo(ident)
        key = (op_rule, agv_rule)
        if agv_rule is AgvRule.SCTA and op_rule is not OperationRule.RANDOM:
            key = (op_rule, AgvRule.SPUT)
        if key not in played:
            state, _ = play(instance, op_rule, agv_rule, seed=(seed, ALL_COMBOS.index(ident)))
            played[key] = state.makespan()
        makespans.append(played[key])
    return makespans
