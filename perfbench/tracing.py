"""Run-time span recording around the calls each layer makes into the next.

Tracer.install replaces the public functions and methods at the names the
calling module binds (convoylog.groups.comparable, ProximityTrack.
nearest_in_window, ...) with wrappers that record one span per call, and
Tracer.uninstall puts the originals back. Nothing in the program's files
changes. Spans are kept in memory as columns (name, parent span, request,
start ns, end ns) and written out once, at the end of the run.

A layer's self time is its spans' durations minus the parts covered by its
child spans. The tracer's own bookkeeping for a child lands in the parent's
self time; the trace.overhead metrics report how much the tracing costs in
total.
"""

from __future__ import annotations

import json
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter_ns

from convoylog import groups, proximity, rules, trajectories
from convoylog.proximity import ProximityLog, ProximityTrack
from convoylog.trajectories import TrajectoryDb

_VISIT_NODES = (rules.FirstVisit, rules.FollowUpVisit)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counters: Counter[str] = Counter()
        self._open: list[int] = []
        self._request = -1
        self._patches: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _begin(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.request.append(self._request)
        self.end.append(0)
        self._open.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def _finish(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self._open.pop()

    def call(self, name: str, fn, *args):
        """Run one benchmark operation as the root span of a new request."""
        self._request += 1
        idx = self._begin(self._id(name))
        try:
            return fn(*args)
        finally:
            self._finish(idx)

    def wrap(self, owner, attr: str, name, observe=None) -> None:
        """Trace owner.attr. name is a span name, or a function of the call's
        arguments that returns one; observe(counters, args, kwargs, result) counts."""
        original = getattr(owner, attr)
        fixed = None if callable(name) else self._id(name)
        begin, finish, counters, ids = self._begin, self._finish, self.counters, self._id

        def traced(*args, **kwargs):
            idx = begin(fixed if fixed is not None else ids(name(args)))
            try:
                result = original(*args, **kwargs)
            finally:
                finish(idx)
            if observe is not None:
                observe(counters, args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def install(self) -> None:
        def window(c, args, kwargs, result):
            # The excluded querying device is always in the log here, and
            # every other device is scanned.
            excluded = kwargs.get("exclude", args[3] if len(args) > 3 else None) is not None
            c["window.scanned"] += len(args[0]) - excluded
            c["window.returned"] += len(result)

        def compared(c, args, kwargs, result):
            c["comparable.true"] += bool(result)

        def scanned(c, args, kwargs, result):
            c["group.steps"] += result.steps_processed
            c["group.members"] += len(result.members)

        def fired(c, args, kwargs, result):
            c["rules.fired"] += len(result)

        def points(c, args, kwargs, result):
            c["traj.points"] += len(result)

        def convoys(c, args, kwargs, result):
            c["traj.convoys"] += len(result)

        def predicate(args):
            return "rules.visit_checks" if isinstance(args[0], _VISIT_NODES) else "rules.eval_predicate"

        self.wrap(proximity, "read_log_jsonl", "proximity.read_log_jsonl")
        self.wrap(ProximityLog, "ingest", "proximity.ingest")
        self.wrap(ProximityLog, "track", "proximity.track")
        self.wrap(ProximityLog, "measurements_in_window", "proximity.measurements_in_window", window)
        self.wrap(ProximityTrack, "nearest_in_window", "proximity.nearest_in_window")
        self.wrap(groups, "comparable", "comparability.comparable", compared)
        self.wrap(groups, "discover_group", "groups.discover_group", scanned)
        self.wrap(rules, "in_group_of", "rules.in_group_of")
        self.wrap(rules, "eval_predicate", predicate)
        self.wrap(rules, "eval_rules", "rules.eval_rules", fired)
        self.wrap(TrajectoryDb, "positions_at", "trajectories.positions_at", points)
        self.wrap(trajectories, "density_clusters", "trajectories.density_clusters")
        self.wrap(trajectories, "discover_convoys", "trajectories.discover_convoys", convoys)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def totals(self) -> tuple[Counter, Counter]:
        """(calls, self ns) per span name."""
        calls: Counter[str] = Counter()
        self_ns: Counter[int] = Counter()
        name, parent, start, end = self.name, self.parent, self.start, self.end
        for i in range(len(start)):
            d = end[i] - start[i]
            self_ns[name[i]] += d
            if parent[i] >= 0:
                self_ns[name[parent[i]]] -= d
        for nid in name:
            calls[nid] += 1
        return (
            Counter({self.names[k]: v for k, v in calls.items()}),
            Counter({self.names[k]: v for k, v in self_ns.items()}),
        )

    def write(self, path: Path) -> None:
        """One JSON header line, then the five columns as raw native arrays."""
        columns = [("name", self.name), ("parent", self.parent), ("request", self.request),
                   ("start_ns", self.start), ("end_ns", self.end)]
        header = {
            "spans": len(self.start),
            "names": self.names,
            "columns": [[col, arr.typecode, arr.itemsize] for col, arr in columns],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for _, arr in columns:
                arr.tofile(fh)
