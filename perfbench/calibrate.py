"""Machine-speed calibration: a fixed kernel of the benchmark's own, timed
between operations, by which every timed operation is scaled.

On a shared virtual machine, the speed of the same thread's CPU time swung
by up to 1.8x within seconds, with the load of the host's other guests, so
raw timings of two runs of the same code disagreed by up to a third. The
kernel does the kind of work the program's read path does (list scans over
sample times, dict lookups of access point levels, set intersections) on a
fixed synthetic history, never through the program's code, so a change to
the program does not move it. An operation's
time is scaled by REF_NS over the kernel's median time in the probes around
the operation: times are reported at the reference speed, the speed at which
the kernel takes REF_NS.
"""

from __future__ import annotations

import random
import statistics
from array import array
from bisect import bisect_left, bisect_right
from time import thread_time_ns as clock_ns

REF_NS = 2_000_000  # the kernel's time at the reference speed
EVERY_NS = 20_000_000  # timed work between two probes
NEIGHBOURS = 2  # probes taken on each side of an operation

_DEVICES = 300
_SAMPLES = 30


def _history():
    rng = random.Random(20130321)
    bssids = [f"0a:00:00:00:00:{k:02x}" for k in range(64)]
    history = []
    for _ in range(_DEVICES):
        times = sorted(rng.uniform(0.0, 150.0) for _ in range(_SAMPLES))
        levels = [{b: rng.randint(-90, -40) for b in rng.sample(bssids, 3)} for _ in times]
        history.append((times, levels))
    probes = [(rng.uniform(20.0, 150.0), {b: rng.randint(-90, -40) for b in rng.sample(bssids, 3)}) for _ in range(2)]
    return history, probes


_HISTORY, _PROBES = _history()


def kernel() -> int:
    """Seed scans of two fixed queries over the synthetic history."""
    hits = 0
    for t0, e0 in _PROBES:
        for times, levels in _HISTORY:
            latest = None
            for i in range(len(times)):
                if times[i] > t0:
                    break
                if times[i] >= t0 - 5.0:
                    latest = levels[i]
            if latest is not None and any(abs(latest[b] - e0[b]) < 4.0 for b in latest.keys() & e0.keys()):
                hits += 1
    return hits


class Speed:
    """The probes of one run, as (thread time, kernel time) in time order."""

    def __init__(self):
        self.at = array("q")
        self.took = array("q")
        self.due = 0

    def probe(self) -> None:
        start = clock_ns()
        kernel()
        end = clock_ns()
        self.at.append((start + end) // 2)
        self.took.append(end - start)
        self.due = end + EVERY_NS

    def tick(self) -> None:
        """Probe if EVERY_NS of thread time have passed since the last probe."""
        if clock_ns() >= self.due:
            self.probe()

    def scaled(self, start: int, end: int) -> float:
        """The nanoseconds from start to end, at the reference speed."""
        lo = max(0, bisect_left(self.at, start) - NEIGHBOURS)
        hi = min(len(self.at), bisect_right(self.at, end) + NEIGHBOURS)
        return (end - start) * REF_NS / statistics.median(self.took[lo:hi])

    def median_ns(self) -> float:
        return statistics.median(self.took)
