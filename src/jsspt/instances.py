"""Problem instances: immutable definition, random generation, serialization.

An instance couples n jobs with m processing machines, a load and an unload
machine, and a fleet of k AGVs. Every job visits all m processing machines in
a job-specific order and is finally released to the unload machine by a
zero-time operation. Travel times live in a (m+2) x (m+2) integer matrix whose
row/column order is fixed as (load, unload, M_1 .. M_m); that order is
normative for all index arithmetic in this package.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, DocumentError

# Transport-matrix indices of the two anchor machines.
LOAD = 0
UNLOAD = 1

# Global time bounds of the sampling universe (all durations are DU draws
# from sub-ranges of [TIME_MIN, TIME_MAX]).
TIME_MIN = 1
TIME_MAX = 100

# The ten consecutive decade bins [1,10], [11,20], ..., [91,100].
GRID_BINS: tuple[tuple[int, int], ...] = tuple(
    (lo, lo + 9) for lo in range(1, TIME_MAX, 10)
)


def check_seed(seed: int, name: str = "seed") -> None:
    """numpy's generators take only non-negative seeds."""
    if seed < 0:
        raise ConfigurationError(f"{name} must be >= 0, got {seed}")


def plain_file_stem(name) -> bool:
    """Whether `name` can name <name>.json directly in a directory, on one
    line: a non-empty string without NUL, line breaks or a directory part."""
    return (
        type(name) is str
        and name not in ("", "..")
        and Path(name).name == name
        and not any(c in name for c in "\0\r\n")
    )


def machine_index(machine: int) -> int:
    """Transport-matrix index of 0-based processing machine `machine`."""
    return 2 + machine


@dataclass(frozen=True)
class Instance:
    """Immutable problem definition.

    routings hold 0-based processing-machine indices; proc_times carry m+1
    entries per job, the last of which is the zero-time release to the unload
    machine. Operations are addressed 1-based: op i of job j runs on
    routings[j][i-1] for i <= m and on the unload machine for i == m+1.
    """

    id: str
    n: int
    m: int
    k: int
    routings: tuple[tuple[int, ...], ...]
    proc_times: tuple[tuple[int, ...], ...]
    transport: tuple[tuple[int, ...], ...]
    seed: int

    def __post_init__(self) -> None:
        _check_instance_fields(
            self.n, self.m, self.k, self.routings, self.proc_times, self.transport
        )

    # -- operation/machine index arithmetic ------------------------------

    @property
    def total_ops(self) -> int:
        return self.n * (self.m + 1)

    def op_machine(self, job: int, op: int) -> int:
        """Transport index of the machine processing (job, op); op is 1-based,
        op == m+1 maps to the unload machine."""
        return self.op_machines[job][op - 1]

    def op_source(self, job: int, op: int) -> int:
        """Transport index of the machine the item is picked up from before
        (job, op); the load machine for op == 1."""
        return self.op_machines[job][op - 2] if op > 1 else LOAD

    def travel(self, a: int, b: int) -> int:
        return self.transport[a][b]

    def proc_time(self, job: int, op: int) -> int:
        return self.proc_times[job][op - 1]

    # -- cached work tables (used by dispatching rules & the oracle) -----

    @cached_property
    def work_suffix(self) -> tuple[tuple[int, ...], ...]:
        """work_suffix[j][i-1] = total processing time of ops i..m+1 of job j."""
        rows = []
        for j in range(self.n):
            acc = 0
            rev = []
            for p in reversed(self.proc_times[j]):
                acc += p
                rev.append(acc)
            rows.append(tuple(reversed(rev)))
        return tuple(rows)

    @cached_property
    def work_prefix(self) -> tuple[tuple[int, ...], ...]:
        """work_prefix[j][i-1] = total processing time of ops 1..i of job j."""
        rows = []
        for j in range(self.n):
            acc = 0
            row = []
            for p in self.proc_times[j]:
                acc += p
                row.append(acc)
            rows.append(tuple(row))
        return tuple(rows)

    @cached_property
    def op_machines(self) -> tuple[tuple[int, ...], ...]:
        """op_machines[j][i-1] = op_machine(j, i) for ops 1..m+1 of job j."""
        return tuple(
            tuple(machine_index(x) for x in row) + (UNLOAD,) for row in self.routings
        )

    @cached_property
    def graph_edges(self) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]:
        """(precedence, assignment) edge lists of the disjunctive graph, with
        operation (j, i) as vertex j*(m+1) + i-1 and transport index t as
        vertex n*(m+1) + t: job-chain edges in order, then each operation's
        edge to its machine followed by the reverse edge."""
        width = self.m + 1
        machine_base = self.n * width
        precedence = []
        assignment = []
        for j, machines in enumerate(self.op_machines):
            base = j * width
            precedence.extend((base + i, base + i + 1) for i in range(self.m))
            for i, t in enumerate(machines):
                assignment.append((base + i, machine_base + t))
                assignment.append((machine_base + t, base + i))
        return tuple(precedence), tuple(assignment)

    @cached_property
    def path_suffix(self) -> tuple[tuple[int, ...], ...]:
        """path_suffix[j][i-1] = processing plus chained transport time of ops
        i..m+1 of job j (pickup at the machine of op i-1), contention-free."""
        rows = []
        for j in range(self.n):
            acc = 0
            rev = []
            for i in range(self.m + 1, 0, -1):
                acc += self.proc_time(j, i) + self.travel(
                    self.op_source(j, i), self.op_machine(j, i)
                )
                rev.append(acc)
            rows.append(tuple(reversed(rev)))
        return tuple(rows)

    # -- realized duration averages ---------------------------------------

    @cached_property
    def mean_proc_time(self) -> float:
        """Average over all true processing operations (the zero-time unload
        releases are excluded)."""
        total = sum(sum(row[: self.m]) for row in self.proc_times)
        return total / (self.n * self.m)

    @cached_property
    def mean_transport_time(self) -> float:
        """Average over the full off-diagonal transport matrix."""
        size = self.m + 2
        total = sum(
            self.transport[a][b] for a in range(size) for b in range(size) if a != b
        )
        return total / (size * (size - 1))


@dataclass(frozen=True)
class GenerationConfig:
    """Parameters for one random instance. k=None samples the fleet size from
    DU(3, n), matching the training-style generation."""

    n: int
    m: int
    proc_range: tuple[int, int] = (TIME_MIN, TIME_MAX)
    transport_range: tuple[int, int] = (TIME_MIN, TIME_MAX)
    k: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "proc_range", tuple(self.proc_range))
        object.__setattr__(self, "transport_range", tuple(self.transport_range))
        if self.n < 1 or self.m < 1:
            raise ConfigurationError(f"need n >= 1 and m >= 1, got {self.n}x{self.m}")
        for name, (lo, hi) in (
            ("proc_range", self.proc_range),
            ("transport_range", self.transport_range),
        ):
            if not (TIME_MIN <= lo <= hi <= TIME_MAX):
                raise ConfigurationError(
                    f"{name} must satisfy {TIME_MIN} <= lo <= hi <= {TIME_MAX}, got {lo}..{hi}"
                )
        if self.k is None:
            if self.n < 3:
                raise ConfigurationError(
                    f"sampled fleet size DU(3, n) needs n >= 3, got n={self.n}"
                )
        elif self.k < 1:
            raise ConfigurationError(f"need k >= 1, got {self.k}")
        check_seed(self.seed)


def generate_instance(config: GenerationConfig, *, id_override: str | None = None) -> Instance:
    """Draw one instance. Deterministic under (config, seed): routings first,
    then processing times, then the off-diagonal transport entries row-major,
    then k. Each duration table is one sized draw, which numpy's bounded
    integer stream makes equal to one scalar draw per entry."""
    rng = np.random.default_rng(config.seed)
    n, m = config.n, config.m
    routings = tuple(tuple(rng.permutation(m).tolist()) for _ in range(n))
    plo, phi = config.proc_range
    proc_times = tuple(
        tuple(row) + (0,) for row in rng.integers(plo, phi + 1, size=(n, m)).tolist()
    )
    tlo, thi = config.transport_range
    size = m + 2
    transport = np.zeros((size, size), dtype=np.int64)
    transport[~np.eye(size, dtype=bool)] = rng.integers(tlo, thi + 1, size=size * (size - 1))
    k = config.k if config.k is not None else int(rng.integers(3, n + 1))
    ident = id_override or f"{n}x{m}x{k}-seed{config.seed}"
    return Instance(
        id=ident,
        n=n,
        m=m,
        k=k,
        routings=routings,
        proc_times=proc_times,
        transport=tuple(map(tuple, transport.tolist())),
        seed=config.seed,
    )


# -- serialization --------------------------------------------------------

def instance_to_document(inst: Instance) -> dict:
    return {
        "id": inst.id,
        "n": inst.n,
        "m": inst.m,
        "k": inst.k,
        "routings": [list(r) for r in inst.routings],
        "proc_times": [list(r) for r in inst.proc_times],
        "transport": [list(r) for r in inst.transport],
        "seed": inst.seed,
    }


def instance_from_document(doc: dict) -> Instance:
    if not isinstance(doc, dict):
        raise DocumentError("document: expected an object")
    required = ("id", "n", "m", "k", "routings", "proc_times", "transport", "seed")
    for field in required:
        if field not in doc:
            raise DocumentError(f"{field}: missing required field")
    # The id names the instance's file and its results-table rows.
    if not plain_file_stem(doc["id"]):
        raise DocumentError(f"id: must be a plain file stem on one line, got {doc['id']!r}")
    try:
        inst = Instance(
            id=doc["id"],
            n=_document_int(doc["n"], "n"),
            m=_document_int(doc["m"], "m"),
            k=_document_int(doc["k"], "k"),
            routings=_document_table(doc["routings"], "routings"),
            proc_times=_document_table(doc["proc_times"], "proc_times"),
            transport=_document_table(doc["transport"], "transport"),
            seed=_document_int(doc["seed"], "seed"),
        )
    except DocumentError:
        raise
    except (TypeError, ValueError) as exc:
        raise DocumentError(f"document: malformed field value ({exc})") from exc
    _check_time_bounds(inst)
    return inst


def save_instance(inst: Instance, path: str | Path) -> Path:
    """Write the instance document (UTF-8 JSON) and return the path written.
    A directory target gets a file named <id>.json."""
    path = Path(path)
    if path.is_dir():
        path = path / f"{inst.id}.json"
    write_text_atomic(path, json.dumps(instance_to_document(inst), indent=2) + "\n")
    return path


def load_instance(path: str | Path) -> Instance:
    return instance_from_document(read_document(path))


def write_text_atomic(path: Path, text: str) -> None:
    """Write to `<path>.tmp`, then rename: a failed write keeps the old file."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_document(path: str | Path):
    """The JSON value of a UTF-8 document; DocumentError if it is not JSON."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DocumentError(f"document: not valid JSON ({exc})") from exc


# -- invariant checks ------------------------------------------------------

def _document_int(value, field: str, *index: int) -> int:
    """An integer field of a document, or entry `index` of one. Bools,
    fractional numbers and strings are rejected rather than truncated or
    parsed."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    name = field + "".join(f"[{i}]" for i in index)
    raise DocumentError(f"{name}: must be an integer, got {value!r}")


def _document_table(rows, field: str) -> tuple[tuple[int, ...], ...]:
    # Plain ints (type(True) is bool, not int) skip the call: a 15x10
    # instance document holds about 460 of them.
    return tuple(
        tuple(x if type(x) is int else _document_int(x, field, a, b) for b, x in enumerate(row))
        for a, row in enumerate(rows)
    )


def _check_time_bounds(inst: Instance) -> None:
    """Documents stay inside the sampling universe, the domain the metrics
    are defined on, so a loaded instance also records and summarizes: every
    time is at most TIME_MAX, and every transport leg between two machines at
    least TIME_MIN. Instances built in code may still have zero legs."""
    for name, rows in (("proc_times", inst.proc_times), ("transport", inst.transport)):
        for a, row in enumerate(rows):
            for b, t in enumerate(row):
                if t > TIME_MAX:
                    raise DocumentError(f"{name}[{a}][{b}]: must be <= {TIME_MAX}, got {t}")
    for a, row in enumerate(inst.transport):
        for b, t in enumerate(row):
            if t < TIME_MIN and a != b:
                raise DocumentError(f"transport[{a}][{b}]: must be >= {TIME_MIN}, got {t}")


def _check_instance_fields(n, m, k, routings, proc_times, transport) -> None:
    if n < 1:
        raise DocumentError(f"n: must be >= 1, got {n}")
    if m < 1:
        raise DocumentError(f"m: must be >= 1, got {m}")
    if k < 1:
        raise DocumentError(f"k: must be >= 1, got {k}")
    if len(routings) != n:
        raise DocumentError(f"routings: expected {n} rows, got {len(routings)}")
    for j, row in enumerate(routings):
        if sorted(row) != list(range(m)):
            raise DocumentError(
                f"routings[{j}]: not a permutation of 0..{m - 1}: {list(row)}"
            )
    if len(proc_times) != n:
        raise DocumentError(f"proc_times: expected {n} rows, got {len(proc_times)}")
    for j, row in enumerate(proc_times):
        if len(row) != m + 1:
            raise DocumentError(
                f"proc_times[{j}]: expected {m + 1} entries, got {len(row)}"
            )
        for i, p in enumerate(row[:-1]):
            if p < 1:
                raise DocumentError(
                    f"proc_times[{j}][{i}]: processing times must be >= 1, got {p}"
                )
        if row[-1] != 0:
            raise DocumentError(
                f"proc_times[{j}][{m}]: final release must take time 0, got {row[-1]}"
            )
    size = m + 2
    if len(transport) != size:
        raise DocumentError(f"transport: expected {size} rows, got {len(transport)}")
    for a, row in enumerate(transport):
        if len(row) != size:
            raise DocumentError(
                f"transport[{a}]: expected {size} entries, got {len(row)}"
            )
        for b, t in enumerate(row):
            if t < 0:
                raise DocumentError(f"transport[{a}][{b}]: must be >= 0, got {t}")
            if a == b and t != 0:
                raise DocumentError(f"transport[{a}][{b}]: diagonal must be 0, got {t}")
