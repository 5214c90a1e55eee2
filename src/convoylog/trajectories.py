"""Coordinate-based convoy discovery, the classical baseline.

Works on a trajectory database: per object, positions sampled on a shared
integer timestamp grid (missing samples allowed). A convoy is a set of at
least m objects that stay density-connected, within distance e, for at
least k consecutive grid timestamps.

The database is stored by timestamp, the order in which the miner reads
it: for each sampled grid timestamp, three columns hold the object ids in
ascending order and their xs and ys as plain floats. `add` checks its
sample before it changes anything, then appends it when its id sorts last
at that timestamp (the simulator adds each step's objects in id order) and
inserts it at its bisected place otherwise. `positions_at(t)` reads one
timestamp's columns; `positions(obj)` bisects every timestamp's ids, so it
costs O(timestamps * log objects) per call, and the JSONL writer
transposes the whole store once instead of calling it per object. The
miner hands each timestamp's columns straight to the clustering, with no
per-object lookup, id sort or coordinate check: on the benchmark's
long-history workload this raised median convoy_samples_per_s from
281k to 346k samples/s (+23.1 %, ten seeds) against the
one-dict-per-object store it replaced (BENCH_timestamp_columns.json).

Mining has two parts: per-timestamp clustering (once per sampled
timestamp, over that timestamp's columns) and one chaining pass over the
sequence of (timestamp, clusters) pairs, which owns candidate
intersection, run emission and the domination filter. The chaining sees
only clusters, so any miner that clusters objects per timestamp can reuse
it. The public density_clusters checks labeled points, lays them out as
the same columns and runs the same clustering.

Per timestamp, objects are grouped by density clustering: an object is a
core when at least m objects (itself included) lie within distance e of it
(inclusive); clusters grow from cores through overlapping neighborhoods,
non-core edge objects join the first cluster that reaches them, and objects
in no cluster are noise and are omitted. Clusters are grown to completion
one at a time from seed cores taken in ascending object id, which pins down
the one free choice in the textbook procedure: an edge object reachable
from two clusters lands in the cluster whose seed core has the smallest id.
The order in which one cluster's growth visits its objects does not change
its members. Results are therefore a pure function of the input.

The clustering works on plain index lists: the columns are in id order,
so index order is id order, and each index has its coordinates, its list
of neighbor indices and an assigned flag. Seeds are taken in index order,
which is the ascending-id order above.

Neighborhoods are found by a sweep along x, the fixed-radius near-neighbor
search of Bentley, Stanat and Williams (1977): objects are sorted by x, and
each object is tested against the objects after it in that order until the
first whose x exceeds its own by more than e. The sweep finds exactly the
pairs that comparing all pairs with the same `hypot(dx, dy) <= e` test
finds. For a fixed x, the rounded difference `q.x - p.x` never decreases as
`q.x` grows, and `hypot(dx, dy) >= |dx|`, so no object after the stopping
one can lie within e. A grid of e-sized cells would not be exact: with
e = 1.0, the points (1.0, 0) and (-1e-20, 0) are neighbors, since their
distance rounds to exactly 1.0, yet they fall in cells 1 and -1.

Across timestamps, candidate groups are intersected with the clusters of
the next timestamp and survive while the intersection keeps at least m
members; a candidate whose run just ended is emitted when it lasted at
least k timestamps. This is the candidate-cluster intersection of CMC
(Jeung et al., "Discovery of convoys in trajectory databases", VLDB 2008).
Each timestamp's clusters are labeled by index, each object mapped to its
cluster's label, and a candidate is intersected only with the clusters
that hold one of its members, in ascending label order. Skipping the other
clusters changes nothing: a cluster that shares no member with the
candidate leaves an empty intersection, which never reaches m >= 1. A
missing sample drops the object from that timestamp's clustering, which
breaks any run it was part of; no interpolation is done.

Finally, results dominated by another result (member subset, same or wider
time interval) are discarded. A convoy can only be dominated by one that
holds all of its members, in particular its rarest member, the one that
fewest results contain, so each result is tested only against those.

On-disk format is JSONL, one position per line:

    {"object": "o1", "t": 3, "x": 12.5, "y": -4.0}
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from typing import IO, Iterable, NamedTuple

from .errors import NonMonotoneTimestampError, UnknownDeviceError, check_count
from .jsonio import read_jsonl, require, write_jsonl

ObjectId = str


class Point(NamedTuple):
    """Planar position in meters."""

    x: float
    y: float

    def distance_to(self, other: "Point") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


def _coordinates(p: Point) -> tuple[float, float]:
    try:
        x, y = float(p[0]), float(p[1])
    except OverflowError:
        raise ValueError("coordinates out of float range") from None
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError(f"coordinates must be finite, got {Point(x, y)}")
    return x, y


@dataclass(frozen=True)
class ConvoyParams:
    """Thresholds for convoy discovery.

    e: distance threshold in meters for the density neighborhood.
    m: minimum objects per dense group (and minimum convoy size).
    k: minimum lifetime in consecutive grid timestamps.
    """

    e: float
    m: int
    k: int

    def __post_init__(self):
        if not self.e > 0:
            raise ValueError(f"e must be positive, got {self.e}")
        check_count(self.m, "m")
        check_count(self.k, "k")


@dataclass(frozen=True)
class Convoy:
    """A maximal group that stayed density-connected over a time interval."""

    members: frozenset[ObjectId]
    t_start: int
    t_end: int

    def __post_init__(self):
        if self.t_end < self.t_start:
            raise ValueError("convoy interval is empty")

    @property
    def lifetime(self) -> int:
        return self.t_end - self.t_start + 1


class TrajectoryDb:
    """Positions of identified objects on a shared integer timestamp grid,
    stored as per-timestamp columns (see the module docstring)."""

    def __init__(self):
        # t -> (object ids ascending, their xs, their ys)
        self._steps: dict[int, tuple[list[ObjectId], list[float], list[float]]] = {}
        self._objects: set[ObjectId] = set()

    def add(self, obj: ObjectId, t: int, point: Point) -> None:
        if isinstance(t, bool) or not isinstance(t, int):
            raise ValueError(f"grid timestamp must be an integer, got {t!r}")
        if not isinstance(obj, str):
            raise ValueError(f"object id must be a str, got {obj!r}")
        if not obj:
            raise ValueError("object id must be non-empty")
        x, y = _coordinates(point)
        step = self._steps.get(t)
        if step is None:
            self._steps[t] = ([obj], [x], [y])
        else:
            ids, xs, ys = step
            if ids[-1] < obj:
                ids.append(obj)
                xs.append(x)
                ys.append(y)
            else:
                i = bisect_left(ids, obj)
                if ids[i] == obj:
                    raise NonMonotoneTimestampError(f"object {obj}: duplicate sample at t={t}")
                ids.insert(i, obj)
                xs.insert(i, x)
                ys.insert(i, y)
        self._objects.add(obj)

    @property
    def objects(self) -> list[ObjectId]:
        return sorted(self._objects)

    def __len__(self) -> int:
        return len(self._objects)

    def __contains__(self, obj: ObjectId) -> bool:
        return obj in self._objects

    def positions(self, obj: ObjectId) -> dict[int, Point]:
        """The object's samples in time order."""
        if obj not in self._objects:
            raise UnknownDeviceError(f"no trajectory for object {obj}")
        out = {}
        for t, ids, xs, ys in self._columns():
            i = bisect_left(ids, obj)
            if i < len(ids) and ids[i] == obj:
                out[t] = Point(xs[i], ys[i])
        return out

    def positions_at(self, t: int) -> list[tuple[ObjectId, Point]]:
        """Objects present at grid time t, sorted by object id."""
        step = self._steps.get(t)
        if step is None:
            return []
        return [(obj, Point(x, y)) for obj, x, y in zip(*step)]

    def timestamps(self) -> list[int]:
        """Grid timestamps with any sample, in increasing order."""
        return sorted(self._steps)

    def time_range(self) -> tuple[int, int] | None:
        """(earliest, latest) grid timestamp with any sample, or None."""
        steps = self._steps
        return (min(steps), max(steps)) if steps else None

    def _columns(self):
        """(t, ids, xs, ys) for each sampled timestamp, in time order."""
        steps = self._steps
        for t in sorted(steps):
            yield (t, *steps[t])


def density_clusters(
    points: Iterable[tuple[ObjectId, Point]], e: float, m: int
) -> list[frozenset[ObjectId]]:
    """Cluster labeled points by density; noise objects are omitted.

    Deterministic: clusters come out ordered by their smallest-id core, and
    contested edge objects always land in the earlier cluster. Raises
    ValueError for a non-positive or NaN e and for a non-finite coordinate.
    """
    if not e > 0:
        raise ValueError(f"e must be positive, got {e}")
    if m < 1:
        raise ValueError(f"m must be at least 1, got {m}")
    items = sorted(points, key=itemgetter(0))
    ids: list[ObjectId] = []
    xs: list[float] = []
    ys: list[float] = []
    for obj, p in items:
        if ids and obj == ids[-1]:
            raise ValueError(f"duplicate object id {obj!r}")
        x, y = p
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError(f"coordinates must be finite, got {p}")
        ids.append(obj)
        xs.append(x)
        ys.append(y)
    return _clusters(ids, xs, ys, e, m)


def _clusters(
    ids: list[ObjectId], xs: list[float], ys: list[float], e: float, m: int
) -> list[frozenset[ObjectId]]:
    """density_clusters over columns whose ids ascend with no repeat and
    whose coordinates are finite; e > 0 and m >= 1."""
    n = len(ids)

    # near[i]: indices within e of index i, i itself included
    near = [[i] for i in range(n)]
    by_x = sorted(range(n), key=xs.__getitem__)
    hypot = math.hypot
    for a, i in enumerate(by_x):
        xi, yi, near_i = xs[i], ys[i], near[i]
        for b in range(a + 1, n):
            j = by_x[b]
            dx = xs[j] - xi
            if dx > e:
                break
            if hypot(dx, ys[j] - yi) <= e:
                near_i.append(j)
                near[j].append(i)

    assigned = bytearray(n)
    clusters: list[frozenset[ObjectId]] = []
    for seed in range(n):
        if assigned[seed] or len(near[seed]) < m:
            continue
        assigned[seed] = 1
        members = [seed]
        stack = [seed]
        while stack:
            cur = near[stack.pop()]
            if len(cur) >= m:
                for other in cur:
                    if not assigned[other]:
                        assigned[other] = 1
                        members.append(other)
                        stack.append(other)
        clusters.append(frozenset([ids[i] for i in members]))
    return clusters


def discover_convoys(db: TrajectoryDb, params: ConvoyParams) -> list[Convoy]:
    """All maximal convoys of at least m objects lasting at least k steps.

    Scans the grid once, carrying candidate groups forward by intersection
    with each timestamp's clusters. Only timestamps with samples are visited;
    a gap with no data between two of them ends all runs, as a visited empty
    timestamp would.
    """
    e, m = params.e, params.m
    steps = ((t, _clusters(ids, xs, ys, e, m)) for t, ids, xs, ys in db._columns())
    return _chain(steps, m, params.k)


def _chain(
    steps: Iterable[tuple[int, list[frozenset[ObjectId]]]], m: int, k: int
) -> list[Convoy]:
    """The maximal convoys of at least m objects lasting at least k steps,
    from each sampled timestamp's clusters in increasing time order."""
    found: set[tuple[frozenset[ObjectId], int, int]] = set()

    def end_runs(cands: dict[frozenset[ObjectId], int], end: int) -> None:
        for members, start in cands.items():
            if end - start + 1 >= k:
                found.add((members, start, end))

    cands: dict[frozenset[ObjectId], int] = {}
    prev = None
    for t, clusters in steps:
        if cands and t != prev + 1:
            end_runs(cands, prev)
            cands = {}
        nxt: dict[frozenset[ObjectId], int] = {}
        if cands:
            label: dict[ObjectId, int] = {}
            for i, cluster in enumerate(clusters):
                label.update(dict.fromkeys(cluster, i))
            for members, start in cands.items():
                survived_whole = False
                hit = set(map(label.get, members))
                hit.discard(None)
                for i in sorted(hit):
                    kept = members & clusters[i]
                    if len(kept) >= m:
                        prior = nxt.get(kept)
                        nxt[kept] = start if prior is None else min(prior, start)
                        if len(kept) == len(members):
                            survived_whole = True
                if not survived_whole and (t - 1) - start + 1 >= k:
                    found.add((members, start, t - 1))
        for cluster in clusters:
            if cluster not in nxt:
                nxt[cluster] = t
        cands = nxt
        prev = t
    end_runs(cands, prev)

    containing: dict[ObjectId, list[tuple[frozenset[ObjectId], int, int]]] = {}
    for c in found:
        for obj in c[0]:
            containing.setdefault(obj, []).append(c)

    def dominated(c: tuple[frozenset[ObjectId], int, int]) -> bool:
        members, start, end = c
        rarest = min(members, key=lambda obj: len(containing[obj]))
        return any(
            o != c and members <= o[0] and o[1] <= start and end <= o[2]
            for o in containing[rarest]
        )

    kept = [Convoy(*c) for c in found if not dominated(c)]
    kept.sort(key=lambda c: (c.t_start, c.t_end, sorted(c.members)))
    return kept


# --- JSONL serialization ---------------------------------------------------


def read_trajectories_jsonl(source: str | Path | IO[str]) -> TrajectoryDb:
    """Read a JSONL trajectory file; malformed lines raise line-numbered errors."""
    db = TrajectoryDb()
    read_jsonl(
        source,
        lambda obj: db.add(
            require(obj, "object", str, "record"),
            require(obj, "t", int, "record"),
            Point(require(obj, "x", (int, float), "record"), require(obj, "y", (int, float), "record")),
        ),
    )
    return db


def write_trajectories_jsonl(db: TrajectoryDb, dest: str | Path | IO[str]) -> None:
    """Write objects sorted by id, samples in time order."""
    tracks: dict[ObjectId, list[tuple[int, float, float]]] = {obj: [] for obj in db.objects}
    for t, ids, xs, ys in db._columns():
        for obj, x, y in zip(ids, xs, ys):
            tracks[obj].append((t, x, y))
    write_jsonl(
        dest,
        ({"object": obj, "t": t, "x": x, "y": y} for obj, samples in tracks.items() for t, x, y in samples),
    )
