import numpy as np
import pytest

from helpers import make_instance, random_small_instance, zero_transport
from jsspt.engine import ScheduleState
from jsspt.errors import ActionError, StateError
from jsspt.features import agv_features, build_graph, op_lower_bound
from jsspt.instances import LOAD


def test_op_lower_bound_at_reset(i1):
    state = ScheduleState(i1)
    assert op_lower_bound(state, 0, 1) == 5
    assert op_lower_bound(state, 0, 2) == 5  # release adds no processing time


def test_op_lower_bound_after_step(i1):
    state = ScheduleState(i1).apply(0, 0)
    assert op_lower_bound(state, 0, 2) == 7  # completion 7 plus zero-time release


def test_op_lower_bound_of_scheduled_op_is_its_completion(i1):
    state = ScheduleState(i1).apply(0, 0)
    assert op_lower_bound(state, 0, 1) == state.entries[0][0].end == 7


def test_op_lower_bound_bad_indices(i1):
    state = ScheduleState(i1)
    with pytest.raises(StateError):
        op_lower_bound(state, 0, 3)
    with pytest.raises(StateError):
        op_lower_bound(state, 1, 1)


def test_op_lower_bound_telescopes_to_completions():
    rng = np.random.default_rng(5)
    for _ in range(20):
        inst = random_small_instance(rng)
        state = ScheduleState(inst)
        while not state.is_terminal():
            jobs = state.valid_operations()
            job = jobs[int(rng.integers(len(jobs)))]
            state = state.apply(job, int(rng.integers(inst.k)))
        for j in range(inst.n):
            for i in range(1, inst.m + 2):
                assert op_lower_bound(state, j, i) == state.entries[j][i - 1].end


def _summed_bound(state, job, op):
    """Reference completion bound by direct summation over the job chain."""
    nxt = state.next_op[job]
    done_upto = min(op, nxt - 1)
    head = state.entries[job][done_upto - 1].end if done_upto >= 1 else 0
    return head + sum(state.instance.proc_times[job][i - 1] for i in range(nxt, op + 1))


def test_bounds_and_edges_match_direct_construction():
    rng = np.random.default_rng(17)
    for _ in range(30):
        inst = random_small_instance(rng)
        n, m = inst.n, inst.m
        ops = [(j, i) for j in range(n) for i in range(1, m + 2)]
        state = ScheduleState(inst)
        graph = build_graph(state)
        vertex = {op: v for v, op in enumerate(ops)}
        assert graph.precedence_edges == tuple(
            (vertex[j, i], vertex[j, i + 1]) for j in range(n) for i in range(1, m + 1)
        )
        machine = n * (m + 1)
        assignment = []
        for j, i in ops:
            assignment += [(vertex[j, i], machine + inst.op_machine(j, i)),
                           (machine + inst.op_machine(j, i), vertex[j, i])]
        assert graph.assignment_edges == tuple(assignment)
        while True:
            expected = [_summed_bound(state, j, i) for j, i in ops]
            assert [op_lower_bound(state, j, i) for j, i in ops] == expected
            graph = build_graph(state)
            assert list(graph.op_bound_raw) == expected
            assert graph.op_scheduled == tuple(int(i < state.next_op[j]) for j, i in ops)
            assert graph.machine_ratio == tuple(
                sum(inst.op_machine(j, i) == t for j, i in ops if i < state.next_op[j]) / n
                for t in range(m + 2)
            )
            if state.is_terminal():
                break
            jobs = state.valid_operations()
            job = jobs[int(rng.integers(len(jobs)))]
            state = state.apply(job, int(rng.integers(inst.k)))


def test_machine_ratio(i1):
    state = ScheduleState(i1)
    assert build_graph(state).machine_ratio == (0.0, 0.0, 0.0)
    stepped = state.apply(0, 0)
    assert build_graph(stepped).machine_ratio[2] == 1.0  # the single job hit M1


def test_machine_ratio_fraction():
    inst = make_instance([[0]] * 10, [[3]] * 10, zero_transport(1), k=1)
    state = ScheduleState(inst)
    for j in range(4):
        state = state.apply(j, 0)
    assert build_graph(state).machine_ratio[2] == pytest.approx(0.4)


def test_graph_shape(i1):
    graph = build_graph(ScheduleState(i1))
    assert len(graph.op_scheduled) + len(graph.machine_ratio) == 2 + 3  # n*(m+1) + m+2 vertices
    assert len(graph.op_scheduled) == 2
    assert len(graph.machine_ratio) == 3
    assert len(graph.precedence_edges) == 1  # n*m chain arcs
    assert len(graph.assignment_edges) == 4  # bidirectional pairs
    assert graph.op_bound_raw == (5, 5)
    assert graph.op_bound == (0.0, 0.0)  # degenerate normalization


def test_graph_normalization_and_flags():
    inst = make_instance([[0, 1], [1, 0]], [[3, 4], [2, 2]], zero_transport(2), k=1)
    graph = build_graph(ScheduleState(inst))
    assert all(s == 0 for s in graph.op_scheduled)
    assert all(0.0 <= b <= 1.0 for b in graph.op_bound)
    assert max(graph.op_bound) == 1.0 and min(graph.op_bound) == 0.0
    assert graph.machine_ratio == (0.0, 0.0, 0.0, 0.0)


def test_graph_edges_fixed_across_episode():
    inst = make_instance([[0, 1], [1, 0]], [[3, 4], [2, 2]], zero_transport(2), k=2)
    state = ScheduleState(inst)
    initial = build_graph(state)
    assert len(initial.precedence_edges) == inst.n * inst.m  # job-chain arcs
    state = state.apply(0, 0).apply(1, 1)
    later = build_graph(state)
    assert initial.precedence_edges == later.precedence_edges
    assert initial.assignment_edges == later.assignment_edges
    assert later.op_scheduled.count(1) == 2


def test_fully_scheduled_bookkeeping():
    inst = make_instance([[0, 1], [1, 0]], [[3, 4], [2, 2]], zero_transport(2), k=1)
    state = ScheduleState(inst)
    while not state.is_terminal():
        state = state.apply(state.valid_operations()[0], 0)
    graph = build_graph(state)
    assert all(s == 1 for s in graph.op_scheduled)
    assert sum(graph.machine_ratio) == pytest.approx(inst.m + 1)


def test_agv_features_micro_reset(i1):
    vecs = agv_features(ScheduleState(i1), 0)
    assert len(vecs) == 1
    f = vecs[0]
    assert (f.pickup_ready, f.machine_ready, f.agv_ready, f.empty_travel, f.arrival, f.task_finish) == (0, 0, 0, 0, 0, 2)
    # single AGV and single candidate: all scalings are degenerate
    assert f.pickup_ready_scaled == 0.0
    assert f.task_finish_scaled == 0.0


def test_agv_feature_identities_random():
    rng = np.random.default_rng(11)
    for _ in range(20):
        inst = random_small_instance(rng)
        state = ScheduleState(inst)
        for _ in range(min(5, inst.total_ops)):
            jobs = state.valid_operations()
            job = jobs[int(rng.integers(len(jobs)))]
            for f in agv_features(state, job):
                assert f.arrival == f.agv_ready + f.empty_travel
                source = inst.op_source(job, state.next_op[job])
                target = inst.op_machine(job, state.next_op[job])
                assert f.task_finish == f.arrival + inst.travel(source, target)
                for scaled in (
                    f.pickup_ready_scaled, f.machine_ready_scaled, f.agv_ready_scaled,
                    f.empty_travel_scaled, f.arrival_scaled, f.task_finish_scaled,
                ):
                    assert 0.0 <= scaled <= 1.0
            state = state.apply(job, int(rng.integers(inst.k)))


def test_minmax_scaling_endpoints():
    inst = make_instance([[0]], [[4]], zero_transport(1), k=2)
    state = ScheduleState(inst)
    state.agv_free = [2, 6]
    vecs = agv_features(state, 0)
    assert [f.agv_ready_scaled for f in vecs] == [0.0, 1.0]


def test_identical_raw_values_scale_to_zero():
    inst = make_instance([[0]], [[4]], zero_transport(1), k=3)
    vecs = agv_features(ScheduleState(inst), 0)
    assert all(f.agv_ready_scaled == 0.0 for f in vecs)
    assert all(f.arrival_scaled == 0.0 for f in vecs)


def test_scaling_preserves_argmin():
    rng = np.random.default_rng(23)
    for _ in range(20):
        inst = random_small_instance(rng)
        if inst.k < 2:
            continue
        state = ScheduleState(inst)
        steps = int(rng.integers(0, min(6, inst.total_ops)))
        for _ in range(steps):
            jobs = state.valid_operations()
            state = state.apply(jobs[int(rng.integers(len(jobs)))], int(rng.integers(inst.k)))
        job = state.valid_operations()[0]
        vecs = agv_features(state, job)
        raw_finish = [f.task_finish for f in vecs]
        scaled_finish = [f.task_finish_scaled for f in vecs]
        assert raw_finish.index(min(raw_finish)) == scaled_finish.index(min(scaled_finish))


def test_pickup_ready_scaled_against_frontier():
    # Two jobs whose first ops complete at 4 and 2: the later job scales to 1.
    transport = zero_transport(2)
    transport[LOAD][2] = 1
    transport[LOAD][3] = 1
    inst = make_instance([[0, 1], [1, 0]], [[3, 4], [1, 2]], transport, k=2)
    state = ScheduleState(inst).apply(0, 0).apply(1, 1)
    assert state.entries[0][0].end == 4
    assert state.entries[1][0].end == 2
    assert agv_features(state, 0)[0].pickup_ready_scaled == 1.0
    assert agv_features(state, 1)[0].pickup_ready_scaled == 0.0


def test_machine_ready_scaled_against_frontier_targets():
    # After both first ops, the frontier targets are M2 (free at 2) and
    # M1 (free at 4): the busier target scales to 1.
    transport = zero_transport(2)
    transport[LOAD][2] = 1
    transport[LOAD][3] = 1
    inst = make_instance([[0, 1], [1, 0]], [[3, 4], [1, 2]], transport, k=2)
    state = ScheduleState(inst).apply(0, 0).apply(1, 1)
    assert state.machine_free[3] == 2  # M2, job 1's first stop
    assert state.machine_free[2] == 4  # M1, job 0's first stop
    assert agv_features(state, 0)[0].machine_ready_scaled == 0.0  # job 0 -> M2
    assert agv_features(state, 1)[0].machine_ready_scaled == 1.0  # job 1 -> M1


def test_agv_features_rejects_finished_job(i1):
    state = ScheduleState(i1).apply(0, 0).apply(0, 0)
    with pytest.raises(ActionError):
        agv_features(state, 0)
    # A job that does not exist is refused as well.
    with pytest.raises(ActionError, match="^job index 1 out of range$"):
        agv_features(ScheduleState(i1), 1)
