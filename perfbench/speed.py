"""Machine-speed probe: every timing the benchmark reports is scaled to one
reference speed.

The 2-vCPU virtual machine this benchmark was built on changes speed by a
third or more within seconds, as the load of its host moves: the same
pure-Python loop took from 44 ms to 100 ms in fresh processes a few seconds
apart, and process CPU time moved with wall time, so the slowdown is not
time stolen from the process but slower execution. Best-of-rounds and
medians over a run cannot remove a drift that lasts as long as a run.

So the benchmark times a fixed pure-Python kernel (`probe`) that does the
kind of work jsspt does (list copies, indexing, small tuples, comparisons,
dict updates) every `INTERVAL_S` of timed work and at the end of every
round. Each stretch of work between two probes is scaled by
`REFERENCE_S / mean(probe before, probe after)`. The figures are then the
times of a machine on which the probe takes `REFERENCE_S`, which is about
what it took on the build machine when that machine was quiet. The probe
never calls jsspt, so a change to the program changes the work timed and
not the scale.
"""

from __future__ import annotations

from array import array
from time import perf_counter

# Probe time of the reference machine, in seconds (the median of many
# probes on the build machine; see README.md).
REFERENCE_S = 0.00113
# Timed work between two probes, in seconds.
INTERVAL_S = 0.05
REPEATS = 3


def _kernel(steps: int = 600) -> int:
    free = [0] * 12
    rows = [[(7 * i + 3 * j) % 13 + 1 for j in range(10)] for i in range(10)]
    seen: dict[int, int] = {}
    acc = 0
    for step in range(steps):
        j = step % 10
        row = rows[j]
        ready = [r for r, t in enumerate(free[:10]) if t <= free[j] + row[step % 10]]
        new = list(free)
        end = max(new[j], new[10]) + row[(step + 3) % 10]
        new[j] = end
        new[10] = end - row[0]
        free = new
        entry = (step, j, end, len(ready))
        seen[entry[2] % 97] = entry[3]
        acc += entry[1] + entry[3]
    return acc + len(seen)


def probe() -> float:
    """Seconds the kernel takes now: the fastest of `REPEATS` runs, so an
    interrupt inside one run does not count."""
    best = float("inf")
    for _ in range(REPEATS):
        started = perf_counter()
        _kernel()
        best = min(best, perf_counter() - started)
    return best


def scale(raw_s: float, probes) -> float:
    """A stretch of `raw_s` seconds scaled by the median of the probes
    taken around it."""
    ordered = sorted(probes)
    mid = len(ordered) // 2
    median = ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2
    return raw_s * REFERENCE_S / median


class Pacer:
    """Scaled time of the timed phase, probed every `INTERVAL_S`.

    The workload's step hook calls a `ticker`, which records raw step
    intervals and closes a stretch with a probe once `interval` has passed;
    `close` also ends every round. Step samples are scaled with the stretch
    they fall in and move to `samples`; `scaled` and `raw` add up the
    stretches' scaled and raw seconds.
    """

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.last_probe = probe()
        self.probes = [self.last_probe]
        self.started = perf_counter()
        self.scaled = 0.0
        self.raw = 0.0
        self.pending = array("d")
        self.samples = array("d")

    def restart(self) -> None:
        """Start a stretch of work now, leaving untimed what came before."""
        self.started = perf_counter()
        del self.pending[:]

    def close(self) -> float:
        """End the current stretch with a probe; returns the clock after the
        probe, where the next stretch starts."""
        ended = perf_counter()
        p = probe()
        factor = REFERENCE_S / ((self.last_probe + p) / 2)
        self.scaled += (ended - self.started) * factor
        self.raw += ended - self.started
        self.samples.extend(s * factor for s in self.pending)
        del self.pending[:]
        self.last_probe = p
        self.probes.append(p)
        self.started = perf_counter()
        return self.started

    def ticker(self):
        """A step hook's clock: `tick(first)` at every decision step records
        the interval since the previous step (unless `first`, the first step
        of an episode) and probes when due, outside the recorded interval."""
        pending, last = self.pending, [0.0]

        def tick(first: bool) -> None:
            now = perf_counter()
            if not first:
                pending.append(now - last[0])
            if now - self.started >= self.interval:
                now = self.close()
            last[0] = now

        return tick
