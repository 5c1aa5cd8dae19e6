"""Greedy dispatching rules and the 10 x 4 combo solvers.

Operation rules score each unfinished job's next operation; AGV rules score
vehicles on raw transport times for the already-chosen operation. All ties
break toward the lowest index so benchmark tables are reproducible; only the
RANDOM rules consume the seeded stream.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .engine import ScheduleResult, ScheduleState, build_result
from .errors import ActionError, StateError
from .features import _candidate_op
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


def select_operation(rule, state, rng: np.random.Generator | None = None) -> int:
    """Pick a job from the valid frontier according to `rule`."""
    rule = rule if type(rule) is OperationRule else OperationRule(rule)
    candidates = state.frontier
    if not candidates:
        raise StateError("no unscheduled operations left")
    if rule is OperationRule.RANDOM:
        if rng is None:
            raise ActionError("RANDOM operation rule needs a random generator")
        return candidates[int(rng.integers(len(candidates)))]

    # One score per candidate from the instance's work tables; min and
    # list.index both take the first extremum, so the lowest index wins ties.
    inst = state.instance
    nxt = state.next_op
    pick = min
    if rule is OperationRule.SPT or rule is OperationRule.LPT:
        times = inst.proc_times
        scores = [times[j][nxt[j] - 1] for j in candidates]
        if rule is OperationRule.LPT:
            pick = max
    elif rule is OperationRule.MWR or rule is OperationRule.LWR:
        suffix = inst.work_suffix
        scores = [suffix[j][nxt[j] - 1] for j in candidates]
        if rule is OperationRule.MWR:
            pick = max
    elif rule is OperationRule.SMPT:
        suffix = inst.work_suffix
        width = inst.m + 2
        scores = [suffix[j][nxt[j] - 1] / (width - nxt[j]) for j in candidates]
    elif rule is OperationRule.FDD_MWR:
        prefix, suffix = inst.work_prefix, inst.work_suffix
        scores = [
            prefix[j][nxt[j] - 1] / suffix[j][nxt[j] - 1] if suffix[j][nxt[j] - 1] else math.inf
            for j in candidates
        ]
    elif rule is OperationRule.MOR or rule is OperationRule.LOR:
        # Fewer ops done means more remaining: MOR takes the least next_op.
        scores = [nxt[j] for j in candidates]
        if rule is OperationRule.LOR:
            pick = max
    else:  # FCFS: the candidate whose predecessor finished first
        entries = state.entries
        scores = [entries[j][-1].end if entries[j] else 0 for j in candidates]
    return candidates[scores.index(pick(scores))]


def select_agv(rule, state, job: int, rng: np.random.Generator | None = None) -> int:
    """Pick a vehicle for the chosen job's next operation according to `rule`."""
    rule = rule if type(rule) is AgvRule else AgvRule(rule)
    op = _candidate_op(state, job)
    if rule is AgvRule.RANDOM:
        if rng is None:
            raise ActionError("RANDOM agv rule needs a random generator")
        return int(rng.integers(state.instance.k))
    free = state.agv_free
    if rule is AgvRule.SCPT:  # release from pending tasks
        return free.index(min(free))
    # SPUT: arrival at the pickup machine. SCTA's task finish adds the loaded
    # leg, the same for every vehicle, so both rules take the same argmin.
    inst = state.instance
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
    state in place; returns the terminal state and the decisions."""
    op_rule = OperationRule(op_rule)
    agv_rule = AgvRule(agv_rule)
    rng = np.random.default_rng(seed)
    state = ScheduleState(instance)
    decisions: list[tuple[int, int]] = []
    for _ in range(instance.total_ops):
        job = select_operation(op_rule, state, rng)
        agv = select_agv(agv_rule, state, job, rng)
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
    per combo and do not depend on which other combos run."""
    makespans = []
    for ident in solver_ids:
        op_rule, agv_rule = parse_combo(ident)
        state, _ = play(instance, op_rule, agv_rule, seed=(seed, ALL_COMBOS.index(ident)))
        makespans.append(state.makespan())
    return makespans
