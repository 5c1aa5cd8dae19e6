"""Greedy dispatching rules and the 10 x 4 combo solvers.

Operation rules score each unfinished job's next operation; AGV rules score
vehicles on raw transport times for the already-chosen operation. All ties
break toward the lowest index so benchmark tables are reproducible; only the
RANDOM rules consume the seeded stream. `play` draws every RANDOM vehicle of
an X+RANDOM episode (X deterministic) in one sized call; RANDOM+Y pairs draw
per step, since the operation draw's bound is the frontier's length.

`select_operation` finds each non-RANDOM rule's score row, and `min` or
`max`, in `_OPERATION_DISPATCH`: a job's score is `row[j][next_op[j] - 1]`
(FCFS reads the predecessor's end instead). A job's score changes only when
that job advances, so `select_operation` keeps its last pick's scores: called
on the same state and rule after exactly one `advance`, which moved that
pick, it re-reads only the pick's score, or drops it when the job finished;
any other call scores the frontier in full. Rule checks compare against
module-level aliases, so no decision step loads an enum member.
"""

from __future__ import annotations

from enum import Enum
from operator import attrgetter
from typing import TYPE_CHECKING

from .engine import ScheduleResult, ScheduleState, build_result
from .errors import ActionError, StateError
# Unused here; kept importable because the benchmark's traced run
# (perfbench/spans.py) wraps `rules.raw_transport_times`.
from .features import raw_transport_times  # noqa: F401
from .instances import LOAD, Instance

if TYPE_CHECKING:
    import numpy as np


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


# Each rule's score row, read as row[j][next_op[j] - 1] (SMPT's and FDD/MWR's
# are built on first use), and whether it takes the least or the greatest
# score. FCFS (None) scores a job by its predecessor's end.

def _operation_numbers(inst: Instance) -> tuple:
    # Fewer ops done means more remaining: MOR takes the least next_op.
    return (tuple(range(1, inst.m + 2)),) * inst.n


_OPERATION_DISPATCH = {
    OperationRule.SPT: (attrgetter("proc_times"), min),
    OperationRule.SMPT: (attrgetter("mean_work_suffix"), min),
    OperationRule.LPT: (attrgetter("proc_times"), max),
    OperationRule.MWR: (attrgetter("work_suffix"), max),
    OperationRule.LWR: (attrgetter("work_suffix"), min),
    OperationRule.FDD_MWR: (attrgetter("flow_due_ratio"), min),
    OperationRule.MOR: (_operation_numbers, min),
    OperationRule.LOR: (_operation_numbers, max),
    OperationRule.FCFS: (None, min),
}
# Loading an enum member costs about ten times as much as loading a global.
_RANDOM_OPERATION = OperationRule.RANDOM
_RANDOM_AGV = AgvRule.RANDOM
_SCPT = AgvRule.SCPT

#: The last deterministic pick: (state, rule, state.steps, the pick's place in
#: the frontier, the pick, its next_op, the rule's rows, the frontier's
#: scores). It holds the state itself, so no other state can take its id;
#: `play` clears it after its last step, so an episode's state, and with it
#: its instance, dies with the episode.
_NO_PICK = (None,) * 8
_last = _NO_PICK


def select_operation(rule, state, rng: np.random.Generator | None = None) -> int:
    """Pick a job from the valid frontier according to `rule`."""
    global _last
    rule = rule if type(rule) is OperationRule else OperationRule(rule)
    candidates = state.frontier
    if not candidates:
        raise StateError("no unscheduled operations left")
    if rule is _RANDOM_OPERATION:
        if rng is None:
            raise ActionError("RANDOM operation rule needs a random generator")
        return candidates[int(rng.integers(len(candidates)))]
    rows_of, pick = _OPERATION_DISPATCH[rule]
    nxt = state.next_op
    last, last_rule, steps, at, job, op, rows, scores = _last
    if last is state and last_rule is rule and steps + 1 == state.steps and nxt[job] == op + 1:
        # Exactly one advance ran since the last pick, and it moved the pick:
        # only the pick's score changed, or it left the frontier.
        if op > state.instance.m:
            del scores[at]
        elif rows is None:
            scores[at] = state.entries[job][-1].end
        else:
            scores[at] = rows[job][op]
    elif rows_of is None:
        rows, entries = None, state.entries
        scores = [entries[j][-1].end if entries[j] else 0 for j in candidates]
    else:
        rows = rows_of(state.instance)
        scores = [rows[j][nxt[j] - 1] for j in candidates]
    # min, max and list.index all take the first extremum, so the lowest
    # index wins ties.
    at = scores.index(pick(scores))
    job = candidates[at]
    _last = (state, rule, state.steps, at, job, nxt[job], rows, scores)
    return job


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
    global _last
    op_rule = OperationRule(op_rule)
    agv_rule = AgvRule(agv_rule)
    # Only the RANDOM rules draw, so no other pair pays for a generator.
    rng = vehicles = None
    if op_rule is _RANDOM_OPERATION or agv_rule is _RANDOM_AGV:
        import numpy as np

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
    _last = _NO_PICK
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
