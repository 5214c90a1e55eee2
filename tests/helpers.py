"""Shared builders and reference implementations for the test suite.

The oracles here are deliberately written as brute-force re-derivations,
independent of the library's scan/cluster implementations, so tests compare
two different routes to the same answer.
"""

from __future__ import annotations

import json
import math
import random
from bisect import bisect_left, bisect_right
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

from hypothesis import strategies as st

from convoylog import (
    And,
    ApObservation,
    CloseThan,
    Convoy,
    ConvoyParams,
    ConvoylogError,
    DuplicateBssidError,
    EnvironmentSnapshot,
    EvalContext,
    Fingerprint,
    FirstVisit,
    FollowUpVisit,
    GroundTruthRecord,
    GroupQueryParams,
    InGroupOf,
    IsVisible,
    LogFormatError,
    MobilityScenario,
    Not,
    NotVisible,
    Or,
    ProximityLog,
    ProximityTrack,
    Rule,
    TimeCompare,
    TimeWithin,
    canonical_id,
    comparable,
    density_clusters,
    groups,
    in_group_of,
    looks_like_hw_addr,
)
from convoylog.trajectories import Point, TrajectoryDb

AP_POOL = tuple(f"0a:00:00:00:00:{i:02x}" for i in range(1, 7))
DEVICE_POOL = tuple(f"02:00:00:00:00:{i:02x}" for i in range(1, 9))

# Lines no JSON reader may let through as anything but a LogFormatError:
# nesting deeper than the interpreter's stack, and a byte that is not UTF-8.
UNDECODABLE_LINES = {"deep": b"[" * 100_000, "not-utf8": b"\xff{}"}


def json_values(keys: tuple[str, ...]):
    """Arbitrary JSON values. Object keys are mostly the given field names and
    strings are sometimes field names too, so decoders get past their first
    checks; numbers include NaN, infinities and an integer beyond float range."""
    scalars = (
        st.none()
        | st.booleans()
        | st.integers()
        | st.just(10**400)
        | st.floats()
        | st.text(max_size=4)
        | st.sampled_from(keys)
    )
    return st.recursive(
        scalars,
        lambda kids: st.lists(kids, max_size=4)
        | st.dictionaries(st.sampled_from(keys) | st.text(max_size=2), kids, max_size=len(keys) + 1),
        max_leaves=24,
    )


def jsonl_text(keys: tuple[str, ...]):
    """JSONL text whose lines are arbitrary JSON values or arbitrary text."""
    line = json_values(keys).map(json.dumps) | st.text(max_size=30)
    return st.lists(line, max_size=5).map("\n".join)


def jsonl_ending_with(tmp_path, good_lines: list[str], bad: bytes):
    """A JSONL file of good_lines followed by one bad line; returns its path."""
    path = tmp_path / "input.jsonl"
    path.write_bytes("".join(line + "\n" for line in good_lines).encode() + bad + b"\n")
    return path


def snapshot(levels: dict[str, int]) -> EnvironmentSnapshot:
    return EnvironmentSnapshot(tuple(ApObservation(b, r) for b, r in levels.items()))


def put(log: ProximityLog, device: str, t: float, levels: dict[str, int]) -> None:
    log.ingest(device, Fingerprint(t, snapshot(levels)))


def random_snapshot(rng: random.Random, max_aps: int = 3) -> EnvironmentSnapshot:
    bssids = rng.sample(AP_POOL, rng.randint(1, max_aps))
    return snapshot({b: rng.randint(-90, -30) for b in bssids})


def random_case(
    rng: random.Random, *, disjoint: bool
) -> tuple[ProximityLog, str, float, EnvironmentSnapshot, GroupQueryParams]:
    """One randomized group query: a log, a querying device, and params.

    With disjoint=True every device's inter-sample spacing exceeds 2*delta,
    so each matching window holds at most one sample.
    """
    delta = rng.uniform(0.5, 3.0)
    devices = list(DEVICE_POOL[: rng.randint(3, 6)])
    log = ProximityLog()
    for device in devices:
        t = rng.uniform(0.0, 30.0)
        for _ in range(rng.randint(3, 6)):
            log.ingest(device, Fingerprint(t, random_snapshot(rng)))
            if disjoint:
                t += rng.uniform(2.1 * delta, 5.0 * delta)
            else:
                t += rng.uniform(0.2 * delta, 3.0 * delta)
    user = devices[0]
    last = log.track(user).last()
    t0, e0 = last.t, last.env
    span = t0 - log.track(user).samples[0].t
    params = GroupQueryParams(
        delta=delta,
        omega=rng.choice([5.0, 8.0, 12.0, 20.0]),
        t_max=max(rng.uniform(0.3, 1.3) * max(span, 1.0), 0.5),
        n=2,
        min_steps=rng.choice([1, 2, 3]),
    )
    return log, user, t0, e0, params


def processed_user_steps(
    log: ProximityLog, user: str, t0: float, e0: EnvironmentSnapshot, params: GroupQueryParams
) -> list[Fingerprint]:
    """The user samples a full backward walk would process, oldest first."""
    steps = [Fingerprint(t0, e0)]
    if user in log:
        horizon = t0 - params.t_max
        steps += [fp for fp in log.track(user).samples if horizon <= fp.t < t0]
    return sorted(steps, key=lambda fp: fp.t)


# --- Log reader reference ----------------------------------------------------


def _reference_require(obj: Mapping, key: str, kinds, where: str):
    try:
        value = obj[key]
    except KeyError:
        raise LogFormatError(f"{where}: missing field {key!r}") from None
    except TypeError:
        raise LogFormatError(f"{where} must be a JSON object") from None
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise LogFormatError(f"{where}: field {key!r} has wrong type")
    return value


def reference_fingerprint(obj) -> tuple[str, Fingerprint]:
    """fingerprint_from_json as a plain decoder: every field checked through
    isinstance and Mapping in record order, one ApObservation per reading."""
    if not isinstance(obj, Mapping):
        raise LogFormatError("record must be a JSON object")
    device = _reference_require(obj, "device", str, "record")
    t = _reference_require(obj, "t", (int, float), "record")
    aps = _reference_require(obj, "aps", list, "record")
    try:
        observations = []
        for ap in aps:
            if not isinstance(ap, Mapping):
                raise LogFormatError("record: each ap must be a JSON object")
            bssid = _reference_require(ap, "bssid", str, "ap")
            rssi = _reference_require(ap, "rssi", (int, float), "ap")
            if isinstance(rssi, float):
                if not rssi.is_integer():
                    raise LogFormatError(f"ap: rssi must be integer dBm, got {rssi}")
                rssi = int(rssi)
            ssid = ap.get("ssid", "")
            if not isinstance(ssid, str):
                raise LogFormatError("ap: field 'ssid' has wrong type")
            observations.append(ApObservation(bssid, rssi, ssid))
        env = EnvironmentSnapshot(tuple(observations))
        return canonical_id(device), Fingerprint(t=t, env=env)
    except (ValueError, DuplicateBssidError) as exc:
        raise LogFormatError(str(exc)) from None


def _reference_loads(line: str):
    try:
        return json.loads(line)
    except json.JSONDecodeError as exc:
        raise LogFormatError(f"invalid JSON: {exc.msg}") from None
    except ValueError:
        raise LogFormatError("number has too many digits") from None
    except RecursionError:
        raise LogFormatError("JSON nested too deeply") from None


def reference_read_log(source) -> ProximityLog:
    """read_log_jsonl as a plain loop: each line of a path decoded as UTF-8
    on its own, stripped, passed to json.loads and reference_fingerprint,
    and ingested. A fault on a line raises the LogFormatError, numbered with
    the line, that read_log_jsonl must raise for it."""
    log = ProximityLog()
    fh = open(source, "rb") if isinstance(source, (str, Path)) else source
    try:
        for lineno, line in enumerate(fh, start=1):
            try:
                if isinstance(line, bytes):
                    line = line.decode("utf-8")
                line = line.strip()
                if line:
                    log.ingest(*reference_fingerprint(_reference_loads(line)))
            except (ConvoylogError, ValueError) as exc:
                raise LogFormatError(str(exc), line=lineno) from None
    finally:
        if fh is not source:
            fh.close()
    return log


# --- Track matching oracle ---------------------------------------------------


class EmptyTrackError(ConvoylogError):
    """A track comparison was asked to match an empty reference track."""


@dataclass(frozen=True)
class ComparabilityParams:
    """Thresholds for snapshot and track matching.

    omega: RSSI comparability threshold in dB; pairs must differ by less
        than this at some shared access point.
    delta: time alignment tolerance in seconds; matched samples may be at
        most this far apart.
    """

    omega: float
    delta: float

    def __post_init__(self):
        if not self.omega > 0:
            raise ValueError(f"omega must be positive, got {self.omega}")
        if not self.delta >= 0:
            raise ValueError(f"delta must be non-negative, got {self.delta}")


def _time_ordered(track: Sequence[Fingerprint]) -> bool:
    return all(track[i].t < track[i + 1].t for i in range(len(track) - 1))


def tracks_similar(
    reference: Sequence[Fingerprint],
    other: Sequence[Fingerprint],
    params: ComparabilityParams,
) -> bool:
    """Test for an order-preserving full matching of reference into other.

    Every reference sample must find a partner in other within params.delta
    seconds whose snapshot is comparable within params.omega; partner times
    never decrease as the reference advances. Matching is directional: other
    may have unmatched samples and may lend one sample to several reference
    samples. Raises EmptyTrackError when the reference track has no samples
    (an empty reference has no movement to confirm, so the question is
    ill-posed).

    One backward pass decides this exactly: each reference sample, from the
    last to the first, takes the latest admissible partner at or before the
    one its successor took. Taking the latest partner leaves the earlier
    reference samples the most room, so the pass fails only when no
    order-preserving matching exists.
    """
    if len(reference) == 0:
        raise EmptyTrackError("reference track has no samples")
    if not _time_ordered(reference) or not _time_ordered(other):
        raise ValueError("tracks must be in strictly increasing time order")

    j = len(other) - 1
    for fp in reversed(reference):
        while j >= 0 and not (
            abs(other[j].t - fp.t) <= params.delta
            and comparable(fp.env, other[j].env, params.omega)
        ):
            j -= 1
        if j < 0:
            return False
    return True


def oracle_members(
    log: ProximityLog, user: str, t0: float, e0: EnvironmentSnapshot, params: GroupQueryParams
) -> frozenset[str]:
    """Members by exhaustive track matching over the scan's windows.

    Valid as an exact oracle only in the disjoint-window regime, where the
    nearest-sample choice and any order-preserving matching coincide.
    """
    user = canonical_id(user)
    steps = processed_user_steps(log, user, t0, e0, params)
    if len(steps) < params.min_steps:
        return frozenset()
    windows = [
        (fp.t - params.delta, fp.t if fp.t == t0 else fp.t + params.delta) for fp in steps
    ]
    cp = ComparabilityParams(omega=params.omega, delta=params.delta)
    members = set()
    for device in log.devices:
        if device == user:
            continue
        restricted = [
            fp
            for fp in log.track(device).samples
            if any(lo <= fp.t <= hi for lo, hi in windows)
        ]
        if restricted and tracks_similar(steps, restricted, cp):
            members.add(device)
    return frozenset(members)


def previous_before(track: ProximityTrack, t: float) -> Fingerprint | None:
    """The track's latest sample strictly earlier than t, or None."""
    i = bisect_left(track.samples, t, key=lambda fp: fp.t)
    return track.samples[i - 1] if i > 0 else None


def witness_violations(
    log: ProximityLog,
    user: str,
    t0: float,
    e0: EnvironmentSnapshot,
    params: GroupQueryParams,
    members: frozenset[str],
) -> list[tuple[str, float]]:
    """(device, step time) pairs where a member lacks any comparable sample
    in the step's window. Soundness demands this list be empty."""
    user = canonical_id(user)
    steps: list[tuple[float, EnvironmentSnapshot, bool]] = [(t0, e0, True)]
    if user in log:
        track = log.track(user)
        t = t0
        while t > t0 - params.t_max:
            prev = previous_before(track, t)
            if prev is None or prev.t < t0 - params.t_max:
                break
            t = prev.t
            steps.append((prev.t, prev.env, False))
    out = []
    for device in members:
        for t, env, seed in steps:
            lo = t - params.delta
            hi = t if seed else t + params.delta
            if not any(
                lo <= fp.t <= hi and comparable(fp.env, env, params.omega)
                for fp in log.track(device).samples
            ):
                out.append((device, t))
    return out


def reference_walk(
    log: ProximityLog,
    user: str,
    t0: float,
    e0: EnvironmentSnapshot,
    delta: float,
    omega: float,
    horizon: float,
) -> groups._Walk:
    """groups._walk as written before its seed scan and steps read the track
    columns: seeds from measurements_in_window, one nearest_in_window and one
    comparable call per candidate at each step through previous_before.

    Takes and returns what groups._walk does, so it can stand in for it;
    seeded counts the window's devices and compared counts the comparable
    calls made.
    """
    walk = groups._Walk()

    def counted(a: EnvironmentSnapshot, b: EnvironmentSnapshot) -> bool:
        walk.compared += 1
        return comparable(a, b, omega)

    cands = {}
    window = log.measurements_in_window(t0 - delta, t0, exclude=user)
    walk.seeded = len(window)
    for device, fp in window:
        if counted(fp.env, e0):
            cands[device] = log.track(device)
    if cands and user in log:
        user_track = log.track(user)
        t = t0
        while t > horizon:
            prev = previous_before(user_track, t)
            if prev is None or prev.t < horizon:
                break
            t, env = prev.t, prev.env
            walk.steps.append(t)
            for device, track in list(cands.items()):
                fp = track.nearest_in_window(t, delta)
                if fp is None or not counted(fp.env, env):
                    del cands[device]
                    walk.dropped[device] = t
            if not cands:
                break
    walk.survivors = list(cands)
    return walk


def _reference_levels(network: str, env: EnvironmentSnapshot) -> list[int]:
    """RSSI values of the observations a network reference matches, the
    reference's form worked out at each call."""
    if looks_like_hw_addr(network):
        level = env.rssi(network)
        return [] if level is None else [level]
    return [o.rssi for o in env.observations if o.ssid == network]


def reference_previous_visit(ctx: EvalContext) -> bool:
    """Whether a visible access point was seen on an earlier visit, the
    visit's start found by stepping back one sample at a time."""
    current_ids = ctx.current.bssids
    if not current_ids or ctx.device not in ctx.log:
        return False
    samples = ctx.log.track(ctx.device).samples
    i = bisect_right(samples, ctx.now, key=lambda fp: fp.t) - 1
    edge = ctx.now
    while i >= 0 and edge - samples[i].t <= ctx.session_gap:
        edge = samples[i].t
        i -= 1
    return any(o.bssid in current_ids for fp in samples[: i + 1] for o in fp.env.observations)


def reference_eval_predicate(p, ctx: EvalContext) -> bool:
    """eval_predicate as a chain of isinstance tests that works everything
    out at every node and shares nothing: a network reference's form at each
    use, the visit check by reference_previous_visit, and each IN_GROUP_OF by
    a group scan of its own lookback."""
    if isinstance(p, And):
        return reference_eval_predicate(p.left, ctx) and reference_eval_predicate(p.right, ctx)
    if isinstance(p, Or):
        return reference_eval_predicate(p.left, ctx) or reference_eval_predicate(p.right, ctx)
    if isinstance(p, Not):
        return not reference_eval_predicate(p.operand, ctx)
    if isinstance(p, IsVisible):
        return bool(_reference_levels(p.network, ctx.current))
    if isinstance(p, NotVisible):
        return not _reference_levels(p.network, ctx.current)
    if isinstance(p, CloseThan):
        near = _reference_levels(p.near, ctx.current)
        if not near:
            return False
        far = _reference_levels(p.far, ctx.current)
        return not far or max(near) > max(far)
    if isinstance(p, FirstVisit):
        return not reference_previous_visit(ctx)
    if isinstance(p, FollowUpVisit):
        return reference_previous_visit(ctx)
    if isinstance(p, TimeWithin):
        tod = ctx.minutes_of_day()
        if p.start <= p.end:
            return p.start <= tod < p.end
        return tod >= p.start or tod < p.end
    if isinstance(p, TimeCompare):
        tod = ctx.minutes_of_day()
        return {
            "<": tod < p.minutes,
            "<=": tod <= p.minutes,
            "=": tod == p.minutes,
            ">=": tod >= p.minutes,
            ">": tod > p.minutes,
        }[p.relation]
    if isinstance(p, InGroupOf):
        config = ctx.config
        params = GroupQueryParams(config.delta, config.omega, float(p.t), p.n, config.min_steps)
        return len(ctx.current) > 0 and in_group_of(ctx.log, ctx.device, ctx.now, ctx.current, params)
    raise TypeError(f"not a predicate: {p!r}")


def reference_eval_rules(rules: Sequence[Rule], ctx: EvalContext) -> list[tuple[str, str]]:
    """eval_rules through reference_eval_predicate."""
    return [(r.rule_id, r.content) for r in rules if reference_eval_predicate(r.condition, ctx)]


def rebuild_without(log: ProximityLog, device: str, index: int) -> ProximityLog:
    """A copy of the log with one sample of one device removed."""
    out = ProximityLog()
    for d in log.devices:
        for i, fp in enumerate(log.track(d).samples):
            if d == device and i == index:
                continue
            out.ingest(d, fp)
    return out


# --- Trajectory oracles ------------------------------------------------------


def neighborhood(center: Point, points, e: float) -> list[str]:
    """Ids of points within distance e of center, inclusive, sorted."""
    if not e > 0:
        raise ValueError(f"e must be positive, got {e}")
    return sorted(obj for obj, p in points if center.distance_to(p) <= e)


def dbscan_oracle(
    points: list[tuple[str, Point]], e: float, m: int
) -> set[frozenset[str]]:
    """Clusters by transitive closure of direct density reachability.

    Independent route: computes each core's reachable set, dedupes them into
    components, then resolves contested edge objects to the component whose
    smallest core id is smallest.
    """
    pos = dict(points)
    ids = sorted(pos)
    nh = {a: set(neighborhood(pos[a], pos.items(), e)) for a in ids}
    cores = {a for a in ids if len(nh[a]) >= m}
    reach: dict[str, set[str]] = {}
    for seed in cores:
        seen = {seed}
        frontier = [seed]
        while frontier:
            cur = frontier.pop()
            if cur in cores:
                for nxt in nh[cur]:
                    if nxt not in seen:
                        seen.add(nxt)
                        frontier.append(nxt)
        reach[seed] = seen
    components: dict[frozenset[str], set[str]] = {}
    for seed, seen in reach.items():
        key = frozenset(seen & cores)
        components.setdefault(key, set()).update(seen)
    claimed: dict[str, frozenset[str]] = {}
    for key in sorted(components, key=min):
        for obj in components[key]:
            if obj not in claimed:
                claimed[obj] = key
    out: dict[frozenset[str], set[str]] = {key: set() for key in components}
    for obj, key in claimed.items():
        out[key].add(obj)
    return {frozenset(objs) for objs in out.values() if objs}


def convoy_oracle(db: TrajectoryDb, e: float, m: int, k: int) -> set[tuple[frozenset[str], int, int]]:
    """Convoys by enumerating every subset and its co-clustered runs."""
    span = db.time_range()
    if span is None:
        return set()
    t_lo, t_hi = span
    clusters_at = {
        t: density_clusters(db.positions_at(t), e, m) for t in range(t_lo, t_hi + 1)
    }
    found: set[tuple[frozenset[str], int, int]] = set()
    objects = db.objects
    for size in range(m, len(objects) + 1):
        for combo in combinations(objects, size):
            group = frozenset(combo)
            start: int | None = None
            for t in range(t_lo, t_hi + 1):
                if any(group <= c for c in clusters_at[t]):
                    if start is None:
                        start = t
                else:
                    if start is not None and (t - 1) - start + 1 >= k:
                        found.add((group, start, t - 1))
                    start = None
            if start is not None and t_hi - start + 1 >= k:
                found.add((group, start, t_hi))
    return {
        c
        for c in found
        if not any(
            o != c and c[0] <= o[0] and o[1] <= c[1] and c[2] <= o[2] for o in found
        )
    }


def reference_convoys(db: TrajectoryDb, params: ConvoyParams) -> list[Convoy]:
    """discover_convoys as the plain CMC loop: every candidate is intersected
    with every cluster of the next timestamp, and every pair of results is
    tested for domination. Clusters come from dbscan_oracle, so no part of
    the library's mining is used. A cluster that lost a contested edge
    object to an earlier one can hold fewer than m members; it starts no
    candidate."""
    found: set[tuple[frozenset[str], int, int]] = set()

    def end_runs(cands: dict[frozenset[str], int], end: int) -> None:
        for members, start in cands.items():
            if end - start + 1 >= params.k:
                found.add((members, start, end))

    cands: dict[frozenset[str], int] = {}
    prev = None
    for t in db.timestamps():
        if cands and t != prev + 1:
            end_runs(cands, prev)
            cands = {}
        clusters = dbscan_oracle(db.positions_at(t), params.e, params.m)
        nxt: dict[frozenset[str], int] = {}
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
            if len(cluster) >= params.m and cluster not in nxt:
                nxt[cluster] = t
        cands = nxt
        prev = t
    end_runs(cands, prev)

    def dominated(c: tuple[frozenset[str], int, int]) -> bool:
        members, start, end = c
        return any(
            o != c and members <= o[0] and o[1] <= start and end <= o[2]
            for o in found
        )

    kept = [Convoy(*c) for c in found if not dominated(c)]
    kept.sort(key=lambda c: (c.t_start, c.t_end, sorted(c.members)))
    return kept


def regrouping_db(rng: random.Random) -> tuple[TrajectoryDb, float]:
    """A random database of 20-60 objects and its distance threshold e.

    Objects ride a few moving group centres at most e/2 apart from them, and
    now and then one leaves its group for another or walks alone for a
    while, so groups split and regroup. Each object misses some samples, and
    a few grid timestamps have no sample at all.
    """
    e = 3.0
    n_groups = rng.randint(2, 6)
    centres = [Point(rng.uniform(0, 40), rng.uniform(0, 40)) for _ in range(n_groups)]
    home = [rng.randrange(n_groups + 1) for _ in range(rng.randint(20, 60))]
    empty = set(rng.sample(range(25), rng.randint(0, 3)))
    db = TrajectoryDb()
    for t in range(rng.randint(8, 25)):
        centres = [Point(c.x + rng.uniform(-2, 2), c.y + rng.uniform(-2, 2)) for c in centres]
        for i, g in enumerate(home):
            if rng.random() < 0.1:
                home[i] = g = rng.randrange(n_groups + 1)
            if t in empty or rng.random() < 0.08:
                continue
            # g == n_groups: walking alone, anywhere
            c = centres[g] if g < n_groups else Point(rng.uniform(0, 40), rng.uniform(0, 40))
            r, a = rng.uniform(0, e / 2), rng.uniform(0, 2 * math.pi)
            db.add(f"o{i:02d}", t, Point(c.x + r * math.cos(a), c.y + r * math.sin(a)))
    return db, e


# --- Simulator reference -----------------------------------------------------


def reference_simulate(
    scenario: MobilityScenario,
) -> tuple[TrajectoryDb, ProximityLog, tuple[GroundTruthRecord, ...]]:
    """simulate's outputs from a plain loop: one rider at a time, its path
    walked from the first waypoint with every leg measured again, and the
    path-loss formula evaluated for one access point at a time.

    It makes the same random draws and float operations in the same order
    (devices in declaration order, groups before loners, access points in
    declaration order), so the outputs must be identical, not close.
    """
    radio = scenario.radio

    def position(path, t: float) -> Point:
        remaining = path.speed * t
        pos = path.waypoints[0]
        for nxt in path.waypoints[1:]:
            leg = pos.distance_to(nxt)
            if leg <= 0:
                pos = nxt
                continue
            if remaining < leg:
                f = remaining / leg
                return Point(pos.x + (nxt.x - pos.x) * f, pos.y + (nxt.y - pos.y) * f)
            remaining -= leg
            pos = nxt
        return pos

    def level(ap, pos: Point, rng: random.Random) -> float | None:
        d = max(Point(*pos).distance_to(ap.position), 1.0)
        value = ap.tx_power_dbm - 10.0 * radio.path_loss_exponent * math.log10(d / 1.0)
        if radio.noise_sigma_db > 0:
            value += rng.gauss(0.0, radio.noise_sigma_db)
        return None if value < ap.detection_floor_dbm else value

    riders = [
        (device, group.group_id, group.path, offset)
        for group in scenario.groups
        for device, offset in zip(group.members, group.offsets)
    ] + [(loner.device, None, loner.path, None) for loner in scenario.loners]
    rng = random.Random(radio.seed)
    dt = scenario.sample_interval
    steps = int(math.floor(scenario.duration / dt + 1e-9)) + 1
    trajectories = TrajectoryDb()
    log = ProximityLog()
    for i in range(steps):
        t = i * dt
        for device, _, path, offset in riders:
            if scenario.dropout_rate > 0 and rng.random() < scenario.dropout_rate:
                continue
            pos = position(path, t)
            if offset is not None:
                pos = Point(pos.x + offset.x, pos.y + offset.y)
            trajectories.add(device, i, pos)
            observations = []
            for ap in scenario.aps:
                value = level(ap, pos, rng)
                if value is not None:
                    observations.append(ApObservation(ap.bssid, round(value), ap.ssid))
            log.ingest(device, Fingerprint(t, EnvironmentSnapshot(tuple(observations))))
    truth = tuple(
        GroundTruthRecord(device, group, 0.0, (steps - 1) * dt) for device, group, _, _ in riders
    )
    return trajectories, log, truth
