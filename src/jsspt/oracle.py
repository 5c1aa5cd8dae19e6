"""Exhaustive search over all valid decision sequences.

Small instances only: the tree has up to (n*k)^(n*(m+1)) leaves. Branches are
cut with a per-job remaining-path bound, which never removes an optimal leaf
because every remaining operation of a job still needs its full processing and
chained transport time. Used to certify heuristics and the engine itself.
"""

from __future__ import annotations

from dataclasses import dataclass

from .engine import ScheduleState
from .errors import OracleLimitError
from .instances import Instance


@dataclass(frozen=True)
class OracleResult:
    makespan: int
    decisions: tuple[tuple[int, int], ...]
    explored: int


DEFAULT_LIMIT = 8


def brute_force_oracle(instance: Instance, limit: int = DEFAULT_LIMIT) -> OracleResult:
    """Minimum makespan over every valid (operation, AGV) sequence, plus one
    witness trace (the first optimal sequence in lexicographic decision order).

    Refuses instances with more than `limit` decisions or AGVs.
    """
    decisions_needed = instance.total_ops
    if decisions_needed > limit or instance.k > limit:
        estimate = (instance.n * instance.k) ** decisions_needed
        raise OracleLimitError(
            f"instance {instance.id} needs {decisions_needed} decisions with "
            f"k={instance.k} (limit {limit}); search tree has up to "
            f"{estimate} sequences"
        )

    best_makespan: int | None = None
    best_trace: tuple[tuple[int, int], ...] = ()
    explored = 0
    path_suffix = instance.path_suffix
    k = instance.k

    def remaining_bound(state: ScheduleState) -> int:
        bound = 0
        for j, nxt in enumerate(state.next_op):
            if nxt <= instance.m + 1:
                t = state.predecessor_end(j) + path_suffix[j][nxt - 1]
            else:
                t = state.entries[j][-1].end
            if t > bound:
                bound = t
        return bound

    stack: list[tuple[ScheduleState, tuple[tuple[int, int], ...]]] = [(ScheduleState(instance), ())]
    # Depth-first with an explicit stack; children are pushed in reverse so the
    # lexicographically smallest decision sequence is explored first.
    while stack:
        state, trail = stack.pop()
        explored += 1
        if state.is_terminal():
            ms = state.makespan()
            if best_makespan is None or ms < best_makespan:
                best_makespan = ms
                best_trace = trail
            continue
        if best_makespan is not None and remaining_bound(state) >= best_makespan:
            continue
        for j in reversed(state.valid_operations()):
            for u in range(k - 1, -1, -1):
                stack.append((state.apply(j, u), trail + ((j, u),)))

    assert best_makespan is not None
    return OracleResult(best_makespan, best_trace, explored)
