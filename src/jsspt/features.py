"""Observation builders for the two decision phases.

The operation phase sees a disjunctive graph over operation and machine
vertices (precedence edges along each job chain, bidirectional assignment
edges between operations and their machines). The AGV phase sees six scalars
per vehicle, conditioned on the operation just selected. Raw integer times
are kept next to their [0,1]-scaled counterparts so greedy rules can use real
times while learned policies consume the scaled view.
"""

from __future__ import annotations

from dataclasses import dataclass

from .engine import ScheduleState
from .errors import ActionError, StateError


def op_lower_bound(state: ScheduleState, job: int, op: int) -> int:
    """Remaining-work completion bound for one operation: the latest completion
    among the job's scheduled operations up to `op`, plus the processing time
    of its still-unscheduled operations up to `op`. Equals the operation's own
    completion time once it is scheduled, and the job's remaining-work estimate
    before that."""
    inst = state.instance
    if not (0 <= job < inst.n and 1 <= op <= inst.m + 1):
        raise StateError(f"no operation ({job}, {op}) in a {inst.n}x{inst.m} instance")
    entries = state.entries[job]
    done = len(entries)
    if op <= done:
        return entries[op - 1].end
    prefix = inst.work_prefix[job]
    return _open_offset(entries, prefix) + prefix[op - 1]


def _open_offset(entries: list, prefix: tuple[int, ...]) -> int:
    """Bound of an unscheduled operation i minus work_prefix[i-1]: the last
    completion of the job less the processing time already behind it."""
    done = len(entries)
    return entries[-1].end - prefix[done - 1] if done else 0


@dataclass(frozen=True)
class DisjunctiveGraph:
    """Vertex-feature tables plus edge lists; shape is constant across an
    episode, only the features change.

    Vertex ids: operation (job, op) -> job*(m+1) + op-1; machine t ->
    n*(m+1) + t with t in transport-index order (load, unload, M_1..M_m).
    machine_ratio[t] is the share of jobs whose operation on machine t is
    already scheduled.
    """

    n: int
    m: int
    op_scheduled: tuple[int, ...]
    op_bound_raw: tuple[int, ...]
    op_bound: tuple[float, ...]
    machine_ratio: tuple[float, ...]
    precedence_edges: tuple[tuple[int, int], ...]
    assignment_edges: tuple[tuple[int, int], ...]


def build_graph(state: ScheduleState) -> DisjunctiveGraph:
    """Snapshot the disjunctive graph for the operation-selection phase. The
    edge lists are the instance's own; only the vertex features are built."""
    inst = state.instance
    n, m = inst.n, inst.m
    scheduled: list[int] = []
    raw: list[int] = []
    for entries, prefix in zip(state.entries, inst.work_prefix):
        done = len(entries)
        scheduled += [1] * done
        scheduled += [0] * (m + 1 - done)
        raw += [e.end for e in entries]
        offset = _open_offset(entries, prefix)
        raw += [offset + p for p in prefix[done:]]
    lo, hi = min(raw), max(raw)
    if hi == lo:
        norm = [0.0] * len(raw)
    else:
        span = hi - lo
        norm = [(v - lo) / span for v in raw]
    precedence, assignment = inst.graph_edges
    return DisjunctiveGraph(
        n=n,
        m=m,
        op_scheduled=tuple(scheduled),
        op_bound_raw=tuple(raw),
        op_bound=tuple(norm),
        machine_ratio=tuple(c / n for c in state.machine_ops),
        precedence_edges=precedence,
        assignment_edges=assignment,
    )


@dataclass(frozen=True)
class AgvFeatureVector:
    """Six transport scalars for one AGV, raw and scaled.

    pickup_ready: completion time of the selected operation's predecessor.
    machine_ready: latest completion among operations already scheduled on the
        target machine.
    agv_ready: when the vehicle finishes its pending tasks.
    empty_travel: empty travel time from the vehicle's location to the pickup.
    arrival: agv_ready + empty_travel.
    task_finish: arrival + loaded travel to the target machine.
    """

    agv: int
    pickup_ready: int
    machine_ready: int
    agv_ready: int
    empty_travel: int
    arrival: int
    task_finish: int
    pickup_ready_scaled: float
    machine_ready_scaled: float
    agv_ready_scaled: float
    empty_travel_scaled: float
    arrival_scaled: float
    task_finish_scaled: float


def raw_transport_times(
    state: ScheduleState, job: int
) -> list[tuple[int, int, int, int]]:
    """Per AGV: (agv_ready, empty_travel, arrival, task_finish) for the job's
    next operation. Cheap helper shared with the AGV dispatching rules."""
    inst = state.instance
    op = _candidate_op(state, job)
    source = inst.op_source(job, op)
    target = inst.op_machine(job, op)
    transport = inst.transport
    out = []
    for u in range(inst.k):
        ready = state.agv_free[u]
        empty = transport[state.agv_location[u]][source]
        arrival = ready + empty
        out.append((ready, empty, arrival, arrival + transport[source][target]))
    return out


def agv_features(state: ScheduleState, job: int) -> list[AgvFeatureVector]:
    """Feature vectors for every AGV, conditioned on the selected job's next
    operation. Vehicle-side features are min-max scaled across the fleet;
    pickup_ready and machine_ready are scaled against the same quantities of
    all currently valid candidate operations (max == min collapses to 0)."""
    inst = state.instance
    op = _candidate_op(state, job)
    frontier = state.valid_operations()

    pickup_ready = state.predecessor_end(job)
    machine_ready = state.machine_free[inst.op_machine(job, op)]
    pickup_peers = [state.predecessor_end(j) for j in frontier]
    machine_peers = [
        state.machine_free[inst.op_machine(j, state.next_op[j])] for j in frontier
    ]
    pickup_scaled = _scale_against(pickup_ready, pickup_peers)
    machine_scaled = _scale_against(machine_ready, machine_peers)

    raw = raw_transport_times(state, job)
    ready_s = _minmax([r[0] for r in raw])
    empty_s = _minmax([r[1] for r in raw])
    arrival_s = _minmax([r[2] for r in raw])
    finish_s = _minmax([r[3] for r in raw])

    return [
        AgvFeatureVector(
            agv=u,
            pickup_ready=pickup_ready,
            machine_ready=machine_ready,
            agv_ready=raw[u][0],
            empty_travel=raw[u][1],
            arrival=raw[u][2],
            task_finish=raw[u][3],
            pickup_ready_scaled=pickup_scaled,
            machine_ready_scaled=machine_scaled,
            agv_ready_scaled=ready_s[u],
            empty_travel_scaled=empty_s[u],
            arrival_scaled=arrival_s[u],
            task_finish_scaled=finish_s[u],
        )
        for u in range(inst.k)
    ]


def _candidate_op(state: ScheduleState, job: int) -> int:
    inst = state.instance
    if not 0 <= job < inst.n:
        raise ActionError(f"job index {job} out of range")
    op = state.next_op[job]
    if op > inst.m + 1:
        raise ActionError(f"job {job} has no unscheduled operation")
    return op


def _minmax(values: list[int]) -> list[float]:
    lo, hi = min(values), max(values)
    if hi == lo:
        return [0.0] * len(values)
    span = hi - lo
    return [(v - lo) / span for v in values]


def _scale_against(value: int, peers: list[int]) -> float:
    lo, hi = min(peers), max(peers)
    if hi == lo:
        return 0.0
    return (value - lo) / (hi - lo)
