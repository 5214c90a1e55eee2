"""Coordinate-based convoy discovery, the classical baseline.

Works on a trajectory database: per object, positions sampled on a shared
integer timestamp grid (missing samples allowed). A convoy is a set of at
least m objects that stay density-connected, within distance e, for at
least k consecutive grid timestamps.

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

Neighborhoods are found by a sweep along x, the fixed-radius near-neighbor
search of Bentley, Stanat and Williams (1977): objects are sorted by x, and
each object is tested against the objects after it in that order until the
first whose x exceeds its own by more than e. The sweep finds exactly the
pairs that comparing all pairs with the same `distance_to(...) <= e` test
finds. For a fixed x, the rounded difference `q.x - p.x` never decreases as
`q.x` grows, and `hypot(dx, dy) >= |dx|`, so no object after the stopping
one can lie within e. A grid of e-sized cells would not be exact: with
e = 1.0, the points (1.0, 0) and (-1e-20, 0) are neighbors, since their
distance rounds to exactly 1.0, yet they fall in cells 1 and -1.

Across timestamps, candidate groups are intersected with the clusters of
the next timestamp and survive while the intersection keeps at least m
members; a candidate whose run just ended is emitted when it lasted at
least k timestamps. A missing sample drops the object from that timestamp's
clustering, which breaks any run it was part of; no interpolation is done.
Finally, results dominated by another result (member subset, same or wider
time interval) are discarded.

On-disk format is JSONL, one position per line:

    {"object": "o1", "t": 3, "x": 12.5, "y": -4.0}
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, NamedTuple

from .errors import NonMonotoneTimestampError, UnknownDeviceError
from .jsonio import read_jsonl, require, write_jsonl

ObjectId = str


class Point(NamedTuple):
    """Planar position in meters."""

    x: float
    y: float

    def distance_to(self, other: "Point") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


def _check_point(p: Point) -> Point:
    try:
        p = Point(float(p[0]), float(p[1]))
    except OverflowError:
        raise ValueError("coordinates out of float range") from None
    if not (math.isfinite(p.x) and math.isfinite(p.y)):
        raise ValueError(f"coordinates must be finite, got {p}")
    return p


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
        if self.m < 1:
            raise ValueError(f"m must be at least 1, got {self.m}")
        if self.k < 1:
            raise ValueError(f"k must be at least 1, got {self.k}")


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
    """Positions of identified objects on a shared integer timestamp grid."""

    def __init__(self):
        self._objects: dict[ObjectId, dict[int, Point]] = {}

    def add(self, obj: ObjectId, t: int, point: Point) -> None:
        if isinstance(t, bool) or not isinstance(t, int):
            raise ValueError(f"grid timestamp must be an integer, got {t!r}")
        if not obj:
            raise ValueError("object id must be non-empty")
        samples = self._objects.setdefault(obj, {})
        if t in samples:
            raise NonMonotoneTimestampError(f"object {obj}: duplicate sample at t={t}")
        samples[t] = _check_point(point)

    @property
    def objects(self) -> list[ObjectId]:
        return sorted(self._objects)

    def __len__(self) -> int:
        return len(self._objects)

    def __contains__(self, obj: ObjectId) -> bool:
        return obj in self._objects

    def positions(self, obj: ObjectId) -> dict[int, Point]:
        try:
            return dict(self._objects[obj])
        except KeyError:
            raise UnknownDeviceError(f"no trajectory for object {obj}") from None

    def positions_at(self, t: int) -> list[tuple[ObjectId, Point]]:
        """Objects present at grid time t, sorted by object id."""
        out = []
        for obj in sorted(self._objects):
            p = self._objects[obj].get(t)
            if p is not None:
                out.append((obj, p))
        return out

    def timestamps(self) -> list[int]:
        """Grid timestamps with any sample, in increasing order."""
        return sorted({t for samples in self._objects.values() for t in samples})

    def time_range(self) -> tuple[int, int] | None:
        """(earliest, latest) grid timestamp with any sample, or None."""
        times = self.timestamps()
        return (times[0], times[-1]) if times else None


def neighborhood(
    center: Point, points: Iterable[tuple[ObjectId, Point]], e: float
) -> list[ObjectId]:
    """Ids of points within distance e of center, inclusive, sorted."""
    if not e > 0:
        raise ValueError(f"e must be positive, got {e}")
    return sorted(obj for obj, p in points if center.distance_to(p) <= e)


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
    pos: dict[ObjectId, Point] = {}
    for obj, p in points:
        if obj in pos:
            raise ValueError(f"duplicate object id {obj!r}")
        if not (math.isfinite(p.x) and math.isfinite(p.y)):
            raise ValueError(f"coordinates must be finite, got {p}")
        pos[obj] = p
    near: dict[ObjectId, list[ObjectId]] = {obj: [obj] for obj in pos}
    by_x = sorted(pos.items(), key=lambda item: item[1].x)
    for i, (a, p) in enumerate(by_x):
        for j in range(i + 1, len(by_x)):
            b, q = by_x[j]
            if q.x - p.x > e:
                break
            if p.distance_to(q) <= e:
                near[a].append(b)
                near[b].append(a)
    cores = {obj for obj, nbrs in near.items() if len(nbrs) >= m}

    assigned: set[ObjectId] = set()
    clusters: list[frozenset[ObjectId]] = []
    for seed in sorted(cores):
        if seed in assigned:
            continue
        cluster: set[ObjectId] = set()
        queue = deque([seed])
        assigned.add(seed)
        while queue:
            cur = queue.popleft()
            cluster.add(cur)
            if cur in cores:
                for other in near[cur]:
                    if other not in assigned:
                        assigned.add(other)
                        queue.append(other)
        clusters.append(frozenset(cluster))
    return clusters


def discover_convoys(db: TrajectoryDb, params: ConvoyParams) -> list[Convoy]:
    """All maximal convoys of at least m objects lasting at least k steps.

    Scans the grid once, carrying candidate groups forward by intersection
    with each timestamp's clusters. Only timestamps with samples are visited;
    a gap with no data between two of them ends all runs, as a visited empty
    timestamp would.
    """
    found: set[tuple[frozenset[ObjectId], int, int]] = set()

    def end_runs(cands: dict[frozenset[ObjectId], int], end: int) -> None:
        for members, start in cands.items():
            if end - start + 1 >= params.k:
                found.add((members, start, end))

    cands: dict[frozenset[ObjectId], int] = {}
    prev = None
    for t in db.timestamps():
        if cands and t != prev + 1:
            end_runs(cands, prev)
            cands = {}
        clusters = density_clusters(db.positions_at(t), params.e, params.m)
        nxt: dict[frozenset[ObjectId], int] = {}
        for members, start in cands.items():
            survived_whole = False
            for cluster in clusters:
                kept = members & cluster
                if len(kept) >= params.m:
                    prior = nxt.get(kept)
                    nxt[kept] = start if prior is None else min(prior, start)
                    if kept == members:
                        survived_whole = True
            if not survived_whole and (t - 1) - start + 1 >= params.k:
                found.add((members, start, t - 1))
        for cluster in clusters:
            if cluster not in nxt:
                nxt[cluster] = t
        cands = nxt
        prev = t
    end_runs(cands, prev)

    def dominated(c: tuple[frozenset[ObjectId], int, int]) -> bool:
        members, start, end = c
        return any(
            o != c and members <= o[0] and o[1] <= start and end <= o[2]
            for o in found
        )

    kept = [Convoy(m, a, b) for (m, a, b) in found if not dominated((m, a, b))]
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
    samples = ((obj, t, p) for obj in db.objects for t, p in sorted(db.positions(obj).items()))
    write_jsonl(dest, ({"object": obj, "t": t, "x": p.x, "y": p.y} for obj, t, p in samples))
