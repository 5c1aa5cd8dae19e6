"""Shared builders for hand-crafted instances and random episodes, the
reference operation-line encoder, and a decider that records the protocol v1
lines it is sent."""

from __future__ import annotations

import hashlib

import numpy as np

from jsspt.bridge import RulePolicy, encode_message
from jsspt.engine import JointAction, ScheduleResult, ScheduleState
from jsspt.features import build_graph
from jsspt.instances import GenerationConfig, Instance, generate_instance
from jsspt.rules import solve


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


def random_episode(instance: Instance, rng: np.random.Generator) -> ScheduleResult:
    """Drive the engine with uniformly random valid actions to completion:
    RANDOM+RANDOM draws a job from the frontier, then a vehicle, from `rng`."""
    return solve(instance, "RANDOM", "RANDOM", seed=rng)


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
                yield from expand(state.apply(JointAction(job, agv)), trail + ((job, agv),))

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
