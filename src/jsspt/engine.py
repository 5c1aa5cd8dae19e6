"""Deterministic construction-style schedule builder.

Each decision assigns one (job, AGV) pair: the AGV drives empty to the
pickup machine, carries the job's next operation to its target machine, and
the operation starts there as early as the machine allows. Everything is
scheduled at its earliest feasible time (semi-active construction), so a
fixed action sequence always reproduces the same schedule.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from .errors import ActionError, DocumentError, StateError
from .instances import LOAD, Instance, _document_int, _document_table
from .instances import read_document, write_text_atomic


class JointAction(NamedTuple):
    job: int
    agv: int


class OpSchedule(NamedTuple):
    """Times of one scheduled operation: transport interval then processing
    interval (start == end == transport_end for the final release)."""

    transport_start: int
    transport_end: int
    start: int
    end: int
    agv: int


class OpRow(NamedTuple):
    """One line of a schedule document."""

    job: int
    op: int
    machine: int
    agv: int
    transport_start: int
    transport_end: int
    start: int
    end: int


class ScheduleState:
    """Construction state, updated functionally or in place.

    apply() returns a fresh state and leaves its parent untouched, which keeps
    episode replay, rule evaluation on snapshots, and exhaustive search safe.
    advance() makes the same transition in place, without the copies, for
    loops that never revisit an earlier state.
    """

    __slots__ = (
        "instance",
        "next_op",
        "frontier",
        "entries",
        "machine_free",
        "machine_ops",
        "agv_location",
        "agv_free",
        "steps",
    )

    def __init__(self, instance: Instance):
        self.instance = instance
        self.next_op = [1] * instance.n
        # Unfinished jobs, ascending; replaced (never mutated) when one ends.
        self.frontier = list(range(instance.n))
        self.entries: list[list[OpSchedule]] = [[] for _ in range(instance.n)]
        self.machine_free = [0] * (instance.m + 2)
        self.machine_ops = [0] * (instance.m + 2)
        self.agv_location = [LOAD] * instance.k
        self.agv_free = [0] * instance.k
        self.steps = 0

    # -- queries ----------------------------------------------------------

    def is_terminal(self) -> bool:
        return self.steps == self.instance.total_ops

    def valid_operations(self) -> list[int]:
        """Jobs that still have an unscheduled operation, ascending."""
        return list(self.frontier)

    def predecessor_end(self, job: int) -> int:
        """Completion time of the job's most recently scheduled operation
        (0 before the first one)."""
        ent = self.entries[job]
        return ent[-1].end if ent else 0

    # -- transition --------------------------------------------------------

    def apply(self, action: JointAction) -> "ScheduleState":
        """Schedule the job's next operation with the chosen AGV; returns the
        successor state and leaves this one untouched."""
        new = ScheduleState.__new__(ScheduleState)
        new.instance = self.instance
        new.next_op = list(self.next_op)
        new.frontier = self.frontier
        new.entries = [list(ent) for ent in self.entries]
        new.machine_free = list(self.machine_free)
        new.machine_ops = list(self.machine_ops)
        new.agv_location = list(self.agv_location)
        new.agv_free = list(self.agv_free)
        new.steps = self.steps
        new.advance(*action)
        return new

    def advance(self, job: int, agv: int) -> None:
        """apply() in place: the same transition, without the copies. Masked
        or out-of-range actions are rejected without touching the state."""
        inst = self.instance
        if not 0 <= job < inst.n:
            raise ActionError(f"job index {job} out of range")
        if not 0 <= agv < inst.k:
            raise ActionError(f"agv index {agv} out of range")
        op = self.next_op[job]
        if op > inst.m + 1:
            raise ActionError(f"job {job} is already complete")

        machines = inst.op_machines[job]
        source = machines[op - 2] if op > 1 else LOAD
        target = machines[op - 1]
        transport = inst.transport
        prev_end = self.entries[job][-1].end if op > 1 else 0
        t_start = max(prev_end, self.agv_free[agv] + transport[self.agv_location[agv]][source])
        t_end = t_start + transport[source][target]
        if op <= inst.m:
            start = max(t_end, self.machine_free[target])
            end = start + inst.proc_times[job][op - 1]
        else:
            start = end = t_end
            # Replaced, not mutated: apply() shares the list with the parent.
            self.frontier = [j for j in self.frontier if j != job]

        self.next_op[job] = op + 1
        self.entries[job].append(OpSchedule(t_start, t_end, start, end, agv))
        if end > self.machine_free[target]:
            self.machine_free[target] = end
        self.machine_ops[target] += 1
        self.agv_location[agv] = target
        self.agv_free[agv] = t_end
        self.steps += 1

    def makespan(self) -> int:
        if not self.is_terminal():
            raise StateError(
                f"makespan undefined: {self.steps}/{self.instance.total_ops} operations scheduled"
            )
        return max(ent[-1].end for ent in self.entries)


def lower_bound(instance: Instance) -> int:
    """Contention-free critical path: for each job, all processing plus the
    full transport chain load -> M_(1) -> ... -> unload; maximum over jobs."""
    return max(row[0] for row in instance.path_suffix)


def terminal_reward(state: ScheduleState, scale: float = 5.0) -> float:
    """Sparse episode reward: -makespan / (lower_bound * scale) once the
    schedule is complete, 0 before that."""
    if scale <= 0:
        raise StateError(f"reward scale must be > 0, got {scale}")
    if not state.is_terminal():
        return 0.0
    return -state.makespan() / (lower_bound(state.instance) * scale)


# -- schedule results -------------------------------------------------------

@dataclass(frozen=True)
class ScheduleResult:
    """A complete schedule plus the decision trace that built it."""

    instance_id: str
    solver_id: str
    makespan: int
    rows: tuple[OpRow, ...]
    decisions: tuple[tuple[int, int], ...]


def build_result(
    state: ScheduleState, solver_id: str, decisions: list[tuple[int, int]]
) -> ScheduleResult:
    if not state.is_terminal():
        raise StateError("cannot build a result from a partial schedule")
    inst = state.instance
    rows = [
        OpRow(j, op, machine, agv, t_start, t_end, start, end)
        for j, (machines, ent) in enumerate(zip(inst.op_machines, state.entries))
        for op, (machine, (t_start, t_end, start, end, agv)) in enumerate(zip(machines, ent), 1)
    ]
    return ScheduleResult(
        instance_id=inst.id,
        solver_id=solver_id,
        makespan=state.makespan(),
        rows=tuple(rows),
        decisions=tuple(decisions),
    )


def result_to_document(result: ScheduleResult) -> dict:
    return {
        "instance": result.instance_id,
        "solver": result.solver_id,
        "makespan": result.makespan,
        "rows": [list(r) for r in result.rows],
        "decisions": [list(d) for d in result.decisions],
    }


def result_from_document(doc: dict) -> ScheduleResult:
    try:
        return ScheduleResult(
            instance_id=str(doc["instance"]),
            solver_id=str(doc["solver"]),
            makespan=_document_int(doc["makespan"], "makespan"),
            rows=tuple(OpRow(*r) for r in _document_table(doc["rows"], "rows")),
            decisions=tuple((a, b) for a, b in _document_table(doc["decisions"], "decisions")),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DocumentError(f"schedule document: malformed ({exc})") from exc


def save_result(result: ScheduleResult, path: str | Path) -> Path:
    path = Path(path)
    write_text_atomic(path, json.dumps(result_to_document(result), indent=2) + "\n")
    return path


def load_result(path: str | Path) -> ScheduleResult:
    return result_from_document(read_document(path))


# -- validation --------------------------------------------------------------

def validate_schedule(result: ScheduleResult, instance: Instance) -> list[str]:
    """Check a complete schedule against every constraint; returns the list of
    violations (empty means valid).

    Covers: coverage of all operations, job precedence, transport/processing
    arithmetic, machine exclusivity without preemption, AGV unit capacity
    including the empty approach leg, earliest-feasible (semi-active) starts
    along the decision trace, and makespan consistency.
    """
    inst = instance
    problems: list[str] = []
    by_op: dict[tuple[int, int], OpRow] = {}

    for row in result.rows:
        key = (row.job, row.op)
        if key in by_op:
            problems.append(f"duplicate row for job {row.job} op {row.op}")
        by_op[key] = row

    expected = {(j, i) for j in range(inst.n) for i in range(1, inst.m + 2)}
    missing = expected - set(by_op)
    extra = set(by_op) - expected
    for j, i in sorted(missing):
        problems.append(f"missing row for job {j} op {i}")
    for j, i in sorted(extra):
        problems.append(f"unknown operation job {j} op {i}")
    if missing or extra:
        return problems

    # Per-row arithmetic and job precedence.
    for j in range(inst.n):
        prev_end = 0
        for i in range(1, inst.m + 2):
            row = by_op[(j, i)]
            source = inst.op_source(j, i)
            target = inst.op_machine(j, i)
            if row.machine != target:
                problems.append(
                    f"job {j} op {i}: wrong machine {row.machine}, routing says {target}"
                )
            if not 0 <= row.agv < inst.k:
                problems.append(f"job {j} op {i}: agv {row.agv} out of range")
            if row.transport_start < prev_end:
                problems.append(
                    f"job {j} op {i}: pickup at {row.transport_start} before "
                    f"predecessor completion {prev_end}"
                )
            if row.transport_end != row.transport_start + inst.travel(source, target):
                problems.append(
                    f"job {j} op {i}: transport interval {row.transport_start}.."
                    f"{row.transport_end} does not match travel time "
                    f"{inst.travel(source, target)}"
                )
            if row.start < row.transport_end:
                problems.append(
                    f"job {j} op {i}: starts at {row.start} before delivery "
                    f"{row.transport_end}"
                )
            if i <= inst.m:
                if row.end != row.start + inst.proc_time(j, i):
                    problems.append(
                        f"job {j} op {i}: processing interval {row.start}..{row.end} "
                        f"does not match duration {inst.proc_time(j, i)} (preemption?)"
                    )
            elif not (row.start == row.end == row.transport_end):
                problems.append(
                    f"job {j} op {i}: release must coincide with delivery, got "
                    f"start {row.start} end {row.end}"
                )
            if row.transport_start < 0:
                problems.append(f"job {j} op {i}: negative pickup time")
            prev_end = row.end

    # Machine exclusivity (processing machines only; load/unload have no capacity).
    by_machine: dict[int, list[OpRow]] = {}
    for row in result.rows:
        if row.op <= inst.m:
            by_machine.setdefault(row.machine, []).append(row)
    for machine, rows in sorted(by_machine.items()):
        rows.sort(key=lambda r: (r.start, r.end))
        for a, b in zip(rows, rows[1:]):
            if b.start < a.end:
                problems.append(
                    f"machine {machine}: job {a.job} op {a.op} ({a.start}..{a.end}) "
                    f"overlaps job {b.job} op {b.op} ({b.start}..{b.end})"
                )

    # AGV unit capacity including empty approach legs, in task order.
    by_agv: dict[int, list[OpRow]] = {}
    for row in result.rows:
        by_agv.setdefault(row.agv, []).append(row)
    for agv, rows in sorted(by_agv.items()):
        rows.sort(key=lambda r: (r.transport_start, r.transport_end))
        location, free = LOAD, 0
        for row in rows:
            source = inst.op_source(row.job, row.op)
            departure = row.transport_start - inst.travel(location, source)
            if departure < free:
                problems.append(
                    f"agv {agv}: job {row.job} op {row.op} needs to leave "
                    f"{location} at {departure} but is busy until {free}"
                )
            location = inst.op_machine(row.job, row.op)
            free = row.transport_end

    # Semi-active property along the decision trace: every pickup and start
    # sits at its earliest feasible time given the prior decisions.
    trace_jobs = sorted(d[0] for d in result.decisions)
    full_trace = trace_jobs == sorted(
        j for j in range(inst.n) for _ in range(inst.m + 1)
    )
    if full_trace:
        next_op = [1] * inst.n
        agv_location = [LOAD] * inst.k
        agv_free = [0] * inst.k
        machine_free = [0] * (inst.m + 2)
        prev_end = [0] * inst.n
        for step, (j, u) in enumerate(result.decisions):
            if not (0 <= j < inst.n and 0 <= u < inst.k) or next_op[j] > inst.m + 1:
                problems.append(f"decision {step}: invalid pair (job {j}, agv {u})")
                break
            i = next_op[j]
            row = by_op[(j, i)]
            source = inst.op_source(j, i)
            target = inst.op_machine(j, i)
            want_pickup = max(prev_end[j], agv_free[u] + inst.travel(agv_location[u], source))
            if row.agv != u:
                problems.append(
                    f"decision {step}: trace assigns agv {u} to job {j} op {i} "
                    f"but row says agv {row.agv}"
                )
            if row.transport_start != want_pickup:
                problems.append(
                    f"job {j} op {i}: pickup {row.transport_start} is not the "
                    f"earliest feasible time {want_pickup} (not semi-active)"
                )
            if i <= inst.m:
                want_start = max(row.transport_end, machine_free[target])
                if row.start != want_start:
                    problems.append(
                        f"job {j} op {i}: start {row.start} is not the earliest "
                        f"feasible time {want_start} (not semi-active)"
                    )
            machine_free[target] = max(machine_free[target], row.end)
            agv_location[u] = target
            agv_free[u] = row.transport_end
            prev_end[j] = row.end
            next_op[j] = i + 1
    else:
        problems.append("decision trace does not cover every operation exactly once")

    true_makespan = max(by_op[(j, inst.m + 1)].end for j in range(inst.n))
    if result.makespan != true_makespan:
        problems.append(
            f"recorded makespan {result.makespan} != completion {true_makespan}"
        )
    return problems
