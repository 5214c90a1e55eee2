"""Checks computed apart from the program.

Each check re-derives an answer from the documented semantics with its own
code (plain scans over the generated records, its own comparability test,
its own rule evaluator, its own union-find clustering, its own JSONL writer)
and returns a list of problems, empty when the program's output agrees.
None of them calls into convoylog except to read the generated inputs.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from datetime import datetime, timezone

from workloads import RULESET, SESSION_GAP_S, Inputs, Record, record_json

MIN_STEPS = 2  # GroupQueryParams and EngineConfig default, used by every workload


# --- plain views of the generated records ------------------------------------


class History:
    """Per-device samples in time order: times, levels (bssid -> rssi) and
    arrival sequence numbers.

    With limit set, samples that arrive after sequence number `limit` are
    invisible, which replays a growing log.
    """

    def __init__(self, records: list[Record]):
        self.times: dict[str, list[float]] = {}
        self.levels: dict[str, list[dict[str, int]]] = {}
        self.seqs: dict[str, list[int]] = {}
        for r in records:
            self.times.setdefault(r.device, []).append(r.fp.t)
            self.levels.setdefault(r.device, []).append(levels_of(r))
            self.seqs.setdefault(r.device, []).append(r.seq)

    def count(self, device: str, limit: int | None) -> int:
        """How many of the device's samples are visible."""
        seqs = self.seqs.get(device, [])
        return len(seqs) if limit is None else bisect_right(seqs, limit)


def levels_of(r: Record) -> dict[str, int]:
    return {o.bssid: o.rssi for o in r.fp.env.observations}


def comparable(a: dict[str, int], b: dict[str, int], omega: float) -> bool:
    """Some access point heard in both with levels less than omega apart."""
    return any(abs(a[bssid] - b[bssid]) < omega for bssid in a.keys() & b.keys())


class GroupOracle:
    """Backward-scan group discovery written from the groups module's
    documented semantics, with linear scans instead of bisection."""

    def __init__(self, history: History, delta: float, omega: float):
        self.history = history
        self.delta = delta
        self.omega = omega

    def scan(self, user, t0, e0, t_max, limit=None):
        """(members, steps_processed, oldest_step_time) of one query."""
        h, delta, omega = self.history, self.delta, self.omega
        visible = {}
        for device in h.times:
            if device == user:
                continue
            times, levels = h.times[device], h.levels[device]
            latest = None
            for i in range(h.count(device, limit)):
                if times[i] > t0:
                    break
                if times[i] >= t0 - delta:
                    latest = levels[i]
            if latest is not None and comparable(latest, e0, omega):
                visible[device] = h.count(device, limit)
        steps, oldest = 1, t0
        # Each candidate's samples are scanned backwards in step with the
        # walk: `upper` only ever moves down, and past it lie samples more
        # than 2 * delta after the current step.
        upper = dict(visible)
        if visible:
            own_times, own_levels = h.times.get(user, []), h.levels.get(user, [])
            own = [i for i in range(h.count(user, limit)) if own_times[i] < t0]
            for i in reversed(own):
                t, env = own_times[i], own_levels[i]
                if t < t0 - t_max:
                    break
                steps, oldest = steps + 1, t
                for device in sorted(upper):
                    times, levels = h.times[device], h.levels[device]
                    j = upper[device]
                    while j > 0 and times[j - 1] > t + 2 * delta:
                        j -= 1
                    upper[device] = j
                    best, best_d = None, None
                    while j > 0 and times[j - 1] >= t - 2 * delta:
                        j -= 1
                        d = abs(times[j] - t)
                        if d <= delta and (best_d is None or d <= best_d):  # ties: earlier
                            best, best_d = levels[j], d
                    if best is None or not comparable(best, env, omega):
                        del upper[device]
                if not upper:
                    break
        members = frozenset(upper) if steps >= MIN_STEPS else frozenset()
        return members, steps, oldest


# --- group queries --------------------------------------------------------------


def check_queries(inputs: Inputs, oracle: GroupOracle, results, limits=None) -> list[str]:
    """Every discover_group answer equals the oracle's, and every member has a
    comparable witness sample within delta at every processed step."""
    problems = []
    spec = inputs.spec
    for i, (q, got) in enumerate(zip(inputs.queries, results)):
        if got is None:  # a failed query is counted as failed, not checked
            continue
        limit = limits[i] if limits is not None else None
        want = oracle.scan(q.device, q.fp.t, levels_of(q), spec.t_max, limit)
        have = (got.members, got.steps_processed, got.oldest_step_time)
        if have != want:
            problems.append(f"query {i} ({q.device} at {q.fp.t}): got {have}, oracle {want}")
        problems += check_witnesses(oracle, q, got, limit)
        if len(problems) > 20:
            break
    if len(results) != len(inputs.queries):
        problems.append(f"{len(results)} query results for {len(inputs.queries)} queries")
    return problems


def check_witnesses(oracle: GroupOracle, q: Record, got, limit=None) -> list[str]:
    """Every member has a comparable sample within delta of every processed
    step: the query snapshot and the steps_processed - 1 samples before it."""
    h, delta, omega = oracle.history, oracle.delta, oracle.omega
    n = h.count(q.device, limit)
    own_times, own_levels = h.times[q.device][:n], h.levels[q.device][:n]
    first = bisect_left(own_times, q.fp.t)  # samples before the query snapshot
    steps = [(q.fp.t, levels_of(q), True)]
    steps += [(own_times[i], own_levels[i], False) for i in range(first - 1, -1, -1)]
    steps = steps[: got.steps_processed]
    problems = []
    if len(steps) != got.steps_processed:
        problems.append(f"{q.device} at {q.fp.t}: {got.steps_processed} steps, history has {len(steps)}")
    elif steps[-1][0] != got.oldest_step_time:
        problems.append(f"{q.device} at {q.fp.t}: oldest step {got.oldest_step_time}, expected {steps[-1][0]}")
    for member in sorted(got.members):
        times, levels = h.times.get(member, []), h.levels.get(member, [])
        n = h.count(member, limit)
        for t, env, is_query in steps:
            lo = bisect_left(times, t - delta, 0, n)
            hi = bisect_right(times, t if is_query else t + delta, 0, n)
            if not any(comparable(levels[j], env, omega) for j in range(lo, hi)):
                problems.append(f"{q.device} at {q.fp.t}: member {member} has no witness at step {t}")
                break
    return problems


# --- rules ----------------------------------------------------------------------


class RuleOracle:
    """Evaluates workloads.RULESET with its own code; keep the two in step."""

    def __init__(self, oracle: GroupOracle):
        self.groups = oracle

    def fired(self, r: Record, limit: int | None = None) -> list[str]:
        current = levels_of(r)
        by_ssid: dict[str, list[int]] = {}
        for o in r.fp.env.observations:
            by_ssid.setdefault(o.ssid, []).append(o.rssi)
        clock = datetime.fromtimestamp(r.fp.t, timezone.utc)
        minute = clock.hour * 60 + clock.minute
        returning = self._returning(r, current, limit)
        scans: dict[int, int] = {}

        def group(n: int, lookback: int) -> bool:
            if not current:
                return False
            if lookback not in scans:
                members, _, _ = self.groups.scan(r.device, r.fp.t, current, float(lookback), limit)
                scans[lookback] = len(members) + 1
            return scans[lookback] >= n

        def closer(near: str, far: str) -> bool:
            if near not in by_ssid:
                return False
            return far not in by_ssid or max(by_ssid[near]) > max(by_ssid[far])

        verdicts = [
            ("seen", "shop-3" in by_ssid),
            ("unseen", "shop-3" not in by_ssid),
            ("nearer", closer("shop-1", "shop-2") and 8 * 60 <= minute < 20 * 60),
            ("gate", "0a:00:00:00:00:05" in current or minute >= 18 * 60),
            ("welcome", not returning),
            ("back", returning),
            ("coupon", returning and "shop-5" in by_ssid),
            ("squad", group(3, 60)),
            ("pair", group(2, 60) and not group(4, 60)),
            ("crew", group(3, 300) and minute < 22 * 60),
        ]
        return [rule for rule, holds in verdicts if holds]

    def _returning(self, r: Record, current: dict[str, int], limit) -> bool:
        """Some currently heard access point was heard on an earlier visit.

        Visits are maximal runs of samples with gaps of at most the session
        gap; the current one is the run that ends at r.
        """
        if not current:
            return False
        h = self.groups.history
        times, levels = h.times[r.device], h.levels[r.device]
        end = h.count(r.device, limit)
        while end > 0 and times[end - 1] > r.fp.t:
            end -= 1
        visit_start = 0
        for i in range(1, end):
            if times[i] - times[i - 1] > SESSION_GAP_S:
                visit_start = i
        return any(current.keys() & levels[i].keys() for i in range(visit_start))


COMPLEMENTS = (("seen", "unseen"), ("welcome", "back"))


def check_rules(inputs: Inputs, oracle: RuleOracle, results, limits=None) -> list[str]:
    """eval_rules fires exactly the oracle's rules with their contents."""
    problems = []
    contents = _rule_contents()
    for i, (ctx, got) in enumerate(zip(inputs.contexts, results)):
        if got is None:  # a failed evaluation is counted as failed, not checked
            continue
        limit = limits[i] if limits is not None else None
        want = [(rule, contents[rule]) for rule in oracle.fired(ctx, limit)]
        if list(got) != want:
            problems.append(f"eval {i} ({ctx.device} at {ctx.fp.t}): got {got}, oracle {want}")
        if len(problems) > 20:
            break
    if len(results) != len(inputs.contexts):
        problems.append(f"{len(results)} rule results for {len(inputs.contexts)} contexts")
    return problems + check_complements(results)


def check_complements(results) -> list[str]:
    """IS_VISIBLE/NOT_VISIBLE and FIRST_VISIT/FOLLOW_UP_VISIT are exact
    complements: of each pair, exactly one rule fires."""
    problems = []
    for i, got in enumerate(results):
        ids = {rule for rule, _ in got or ()}
        for a, b in COMPLEMENTS:
            if (a in ids) == (b in ids):
                problems.append(f"eval {i}: exactly one of {a}/{b} must fire, got {sorted(ids)}")
    return problems[:20]


def _rule_contents() -> dict[str, str]:
    contents = {}
    for line in RULESET.splitlines():
        rule = line.split()[1].rstrip(":")
        contents[rule] = line.rsplit(" THEN ", 1)[1].strip()[1:-1]
    return contents


# --- convoys --------------------------------------------------------------------


class Closure:
    """Density clusters as reachability closure: cores (at least m objects
    within e, itself included) joined by union-find when within e; a non-core
    object belongs to every closure that has a core within e of it."""

    def __init__(self, points: dict[str, tuple[float, float]], e: float, m: int):
        ids = sorted(points)
        near = {a: [b for b in ids if _dist(points[a], points[b]) <= e] for a in ids}
        cores = [a for a in ids if len(near[a]) >= m]
        parent = {a: a for a in cores}

        def root(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for a in cores:
            for b in near[a]:
                if b in parent:
                    parent[root(a)] = root(b)
        self.closures: dict[str, set[str]] = {}
        for a in ids:
            roots = {root(c) for c in near[a] if c in parent}
            self.closures[a] = roots

    def together(self, members) -> bool:
        common = None
        for obj in members:
            roots = self.closures.get(obj, set())
            common = roots if common is None else common & roots
            if not common:
                return False
        return True


def _dist(a, b) -> float:
    return math.hypot(a[0] - b[0], a[1] - b[1])


def check_convoys(inputs: Inputs, convoys, require_planted: bool) -> list[str]:
    """Every reported convoy holds together in one closure at every grid time
    of its interval, has at least m members and lasts at least k; none is
    dominated by another. With require_planted, every planted group sits in
    a convoy spanning the whole run."""
    spec = inputs.spec
    e, m, k = spec.convoy.e, spec.convoy.m, spec.convoy.k
    db = inputs.trajectories
    at: dict[int, dict[str, tuple[float, float]]] = {}
    for obj in db.objects:
        for t, p in db.positions(obj).items():
            at.setdefault(t, {})[obj] = (p.x, p.y)
    closures: dict[int, Closure] = {}
    problems = []
    for c in convoys:
        if len(c.members) < m or c.t_end - c.t_start + 1 < k:
            problems.append(f"convoy {sorted(c.members)} [{c.t_start}, {c.t_end}] is below m or k")
            continue
        for t in range(c.t_start, c.t_end + 1):
            if t not in closures:
                closures[t] = Closure(at.get(t, {}), e, m)
            if not closures[t].together(c.members):
                problems.append(f"convoy {sorted(c.members)} [{c.t_start}, {c.t_end}] splits at t={t}")
                break
    for a in convoys:
        for b in convoys:
            if a is not b and a.members <= b.members and b.t_start <= a.t_start and a.t_end <= b.t_end:
                problems.append(f"convoy {sorted(a.members)} [{a.t_start}, {a.t_end}] is dominated")
    if require_planted:
        t_lo, t_hi = min(at), max(at)
        for gid, members in sorted(inputs.planted.items()):
            if not any(
                set(members) <= c.members and c.t_start == t_lo and c.t_end == t_hi for c in convoys
            ):
                problems.append(f"planted group {gid} is in no convoy spanning [{t_lo}, {t_hi}]")
    return problems


# --- ingest ---------------------------------------------------------------------


def expected_log_text(records: list[Record]) -> str:
    """What write_log_jsonl must print for a log of these records: tracks
    sorted by device id, samples in time order, one JSON object per line."""
    by_device: dict[str, list[Record]] = {}
    for r in records:
        by_device.setdefault(r.device, []).append(r)
    return "".join(
        record_json(device, r.fp) + "\n"
        for device in sorted(by_device)
        for r in sorted(by_device[device], key=lambda r: r.fp.t)
    )


def check_log_text(expected: str, written: str) -> list[str]:
    if written == expected:
        return []
    exp, got = expected.splitlines(), written.splitlines()
    for i, (a, b) in enumerate(zip(exp, got)):
        if a != b:
            return [f"written log differs at line {i + 1}: {b[:120]!r}, expected {a[:120]!r}"]
    return [f"written log has {len(got)} lines, expected {len(exp)}"]
