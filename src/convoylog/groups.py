"""Co-travel group discovery by backward scan over a proximity log.

Starting from one device's current snapshot, the scan asks: which other
devices have been seeing approximately the same radio environment for the
recent past? It walks the querying device's own track backwards and drops
the candidate companions that stop matching.

    1. Seed candidates with every other device's latest sample in the
       window [t0 - delta, t0]; drop those not comparable with the query
       snapshot. An empty set here ends the scan.
    2. Walk back: while t > t0 - t_max, move (t, env) to the querying
       device's previous sample. For each surviving candidate, take its
       sample nearest to the new t within delta, ties going to the earlier
       sample; candidates with no such sample, or with one that is not
       comparable with env, are dropped. The walk stops early when the
       candidate set empties, and also processes the sample sitting exactly
       on the t0 - t_max boundary.

The walk is one pass over the log's columns (ProximityTrack keeps each
device's sample times apart from its samples). Each step turns its own
snapshot into a level map (bssid -> rssi) once and probes it with every
candidate's sample (comparability._matches), so a test costs one dict
lookup per access point of the candidate's sample. The seed step bisects
each device's time column for its latest sample at or before t0; a walk
step steps through the user's time column by index. A candidate's nearest
sample is found by a bisect bounded by where its previous bisect landed:
the steps only move back in time, so the insertion point never moves
forward.

Candidates must match at every processed step, so the result only contains
devices whose visibility history tracked the querying device's history over
the whole lookback. A result is trusted only when enough of the device's own
history was seen: fewer than min_steps processed samples yields an empty
member set (steps_processed still reports the evidence count).

Lookbacks nest: a shorter lookback's walk is a prefix of a longer one's,
with the same seeds and the same decision at every step. So the walk records
the time of each step it processed and of the step at which each candidate
dropped, and one walk answers every shorter lookback too (_Walk.members,
or _Walk.count for their number).
discover_group makes one walk per call and keeps no record. The rule engine
makes one walk per evaluation, at the ruleset's longest IN_GROUP_OF
lookback, even when only a shorter one is asked; the walk still stops when
its candidates run out.

The scan never raises for a device absent from the log; an absent device
simply has no previous samples, so the walk ends at the seed step.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

# groups.comparable stays bound because perfbench/tracing.py wraps it by that
# name; the walk tests snapshots through _matches.
from .comparability import _matches, comparable
from .errors import EmptyEnvironmentError, check_count, check_threshold, finite
from .proximity import DeviceId, EnvironmentSnapshot, ProximityLog, canonical_id


def check_thresholds(delta: float, omega: float, min_steps: int) -> None:
    """ValueError unless the tolerances and the evidence floor are usable.

    Shared by GroupQueryParams and the rule engine's EngineConfig.
    """
    check_threshold(delta, "delta", zero_ok=True)
    check_threshold(omega, "omega")
    check_count(min_steps, "min_steps")


@dataclass(frozen=True)
class GroupQueryParams:
    """Thresholds for one group query.

    delta: time alignment tolerance in seconds for matching samples.
    omega: RSSI comparability threshold in dB.
    t_max: lookback horizon in seconds; companionship must hold over
        [t0 - t_max, t0].
    n: group size threshold used by in_group_of (querying device included).
    min_steps: minimum processed samples of the device's own history for a
        non-empty answer; guards against declaring a group from a single
        snapshot.
    """

    delta: float
    omega: float
    t_max: float
    n: int
    min_steps: int = 2

    def __post_init__(self):
        check_thresholds(self.delta, self.omega, self.min_steps)
        check_threshold(self.t_max, "t_max")
        check_count(self.n, "n")


@dataclass(frozen=True)
class GroupResult:
    """Outcome of one scan.

    members: companion devices (querying device excluded); empty when the
        scan saw fewer than min_steps samples.
    steps_processed: samples of the device's own history that were matched
        against, counting the query snapshot itself.
    oldest_step_time: timestamp of the earliest processed sample (t0 when
        the scan never left the seed step).
    """

    members: frozenset[DeviceId]
    steps_processed: int
    oldest_step_time: float


class _Walk:
    """What one backward walk saw, enough to answer any lookback up to its own.

    survivors: candidates that matched at every processed step, sorted by
        id (the walk meets devices in the log's insertion order).
    dropped: each other seeded candidate, with the time of the step at which
        it dropped.
    steps: times of the processed own samples after the seed step, newest
        first.
    seeded: devices other than the user with a sample in the seed window.
    compared: snapshot tests made, one per seeded device and one per
        candidate at each step at which it had a sample within delta.
    """

    __slots__ = ("survivors", "dropped", "steps", "seeded", "compared")

    def __init__(self) -> None:
        self.survivors: list[DeviceId] = []
        self.dropped: dict[DeviceId, float] = {}
        self.steps: list[float] = []
        self.seeded = 0
        self.compared = 0

    def members(self, horizon: float, min_steps: int) -> frozenset[DeviceId]:
        """The members of a scan from the same t0 back to horizon, which must
        not lie before the walk's own.

        Such a scan processes the steps at or after horizon and makes the same
        decision at each, so it keeps the survivors and every candidate that
        dropped before horizon, unless it saw fewer than min_steps samples.
        """
        if not self._seen_enough(horizon, min_steps):
            return frozenset()
        return frozenset(self.survivors).union(
            device for device, t in self.dropped.items() if t < horizon
        )

    def count(self, horizon: float, min_steps: int) -> int:
        """len(self.members(horizon, min_steps)), counted without building
        the set: the survivors and the dropped candidates are distinct
        devices."""
        if not self._seen_enough(horizon, min_steps):
            return 0
        n = len(self.survivors)
        for t in self.dropped.values():
            if t < horizon:
                n += 1
        return n

    def _seen_enough(self, horizon: float, min_steps: int) -> bool:
        """Whether a scan back to horizon saw at least min_steps samples:
        the (min_steps - 1)-th step lies at or after horizon."""
        k = min_steps - 1
        return k <= 0 or (len(self.steps) >= k and self.steps[k - 1] >= horizon)


def _walk(
    log: ProximityLog,
    user: DeviceId,
    t0: float,
    e0: EnvironmentSnapshot,
    delta: float,
    omega: float,
    horizon: float,
) -> _Walk:
    """Seed candidates around (t0, e0), then walk the user's own samples back
    to horizon, dropping candidates as the module docstring describes.

    user must be canonical, e0 non-empty, delta non-negative and omega
    positive.
    """
    walk = _Walk()
    dropped, steps = walk.dropped, walk.steps
    seeded = 0
    tracks = log._tracks
    own = tracks.get(user)
    # One entry per candidate: [device, times, samples, hi], where hi bounds
    # the bisect for the candidate's nearest sample at the next step.
    cands: list[list] = []
    levels = {o.bssid: o.rssi for o in e0.observations}
    lo = t0 - delta
    # A list, not the dict itself: ingest may add a track while this runs.
    for track in list(tracks.values()):
        if track is own:
            continue
        times = track._times
        hi = bisect_right(times, t0)
        if hi and times[hi - 1] >= lo:
            seeded += 1
            if _matches(track._samples[hi - 1].env, levels, omega):
                cands.append([track.device, times, track._samples, hi])
    compared = seeded

    if cands and own is not None:
        own_times, own_samples = own._times, own._samples
        k = bisect_left(own_times, t0)
        t = t0
        while k and t > horizon:
            k -= 1
            t = own_times[k]
            if t < horizon:
                break
            steps.append(t)
            levels = {o.bssid: o.rssi for o in own_samples[k].env.observations}
            compared += len(cands)
            kept = []
            for cand in cands:
                _, times, samples, hi = cand
                # The nearest sample to t, as ProximityTrack.nearest_in_window
                # finds it. t is below every earlier step's time, so its
                # insertion point lies at or before hi.
                i = bisect_left(times, t, 0, hi)
                cand[3] = i
                # Samples before i lie before t and the rest do not, so each
                # difference below, taken in that order, is exactly
                # abs(times[j] - t).
                if i == len(times) or (i and t - times[i - 1] < times[i] - t):
                    i -= 1
                    d = t - times[i]
                else:
                    d = times[i] - t
                if d > delta:
                    compared -= 1
                    dropped[cand[0]] = t
                    continue
                # Ties go to the earlier sample; rounding can tie more than one.
                while i and t - times[i - 1] == d:
                    i -= 1
                if _matches(samples[i].env, levels, omega):
                    kept.append(cand)
                else:
                    dropped[cand[0]] = t
            cands = kept
            if not cands:
                break
    walk.survivors = sorted(cand[0] for cand in cands)
    walk.seeded, walk.compared = seeded, compared
    return walk


def discover_group(
    log: ProximityLog,
    user: DeviceId,
    t0: float,
    e0: EnvironmentSnapshot,
    params: GroupQueryParams,
) -> GroupResult:
    """Backward scan for devices that shared the user's radio environment.

    t0 is the query time, which errors.finite must take (ValueError
    otherwise), and e0 the user's snapshot at that time; e0 must be non-empty
    (EmptyEnvironmentError otherwise) since an empty snapshot is comparable
    with nothing. A logged sample used as e0 must be queried at its own
    time, or the walk counts it again as a history step.
    """
    if len(e0) == 0:
        raise EmptyEnvironmentError("query snapshot has no visible networks")
    t0 = finite(t0, "t0")
    horizon = t0 - params.t_max
    walk = _walk(log, canonical_id(user), t0, e0, params.delta, params.omega, horizon)
    return GroupResult(
        members=walk.members(horizon, params.min_steps),
        steps_processed=1 + len(walk.steps),
        oldest_step_time=walk.steps[-1] if walk.steps else t0,
    )


def in_group_of(
    log: ProximityLog,
    user: DeviceId,
    t0: float,
    e0: EnvironmentSnapshot,
    params: GroupQueryParams,
) -> bool:
    """True when the device moved in a group of at least params.n devices.

    The querying device counts towards the group size, so n=1 is trivially
    true whenever the query itself is well-formed.
    """
    result = discover_group(log, user, t0, e0, params)
    return len(result.members) + 1 >= params.n
