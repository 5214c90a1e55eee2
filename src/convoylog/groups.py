"""Co-travel group discovery by backward scan over a proximity log.

Starting from one device's current snapshot, the scan asks: which other
devices have been seeing approximately the same radio environment for the
recent past? It walks the querying device's own track backwards and keeps a
shrinking map from each candidate companion to its track; a candidate's
track is looked up once, when it is seeded.

    1. Seed candidates with every other device's latest sample in the
       window [t0 - delta, t0]; drop those not comparable with the query
       snapshot. An empty set here ends the scan.
    2. Walk back: while t > t0 - t_max, move (t, env) to the querying
       device's previous sample. For each surviving candidate, take its
       sample nearest to the new t within delta; candidates with no such
       sample, or with one that is not comparable with env, are dropped.
       The walk stops early when the candidate set empties, and also
       processes the sample sitting exactly on the t0 - t_max boundary.

Candidates must match at every processed step, so the result only contains
devices whose visibility history tracked the querying device's history over
the whole lookback. A result is trusted only when enough of the device's own
history was seen: fewer than min_steps processed samples yields an empty
member set (steps_processed still reports the evidence count).

Lookbacks nest: a shorter lookback's walk is a prefix of a longer one's,
with the same seeds and the same decision at every step. So the walk records
the time of each step it processed and of the step at which each candidate
dropped, and one walk answers every shorter lookback too (_Walk.members).
discover_group makes one walk per call and keeps no record. The rule engine
makes one walk per evaluation, at the ruleset's longest IN_GROUP_OF
lookback, even when only a shorter one is asked; the walk still stops when
its candidates run out.

The scan never raises for a device absent from the log; an absent device
simply has no previous samples, so the walk ends at the seed step.
"""

from __future__ import annotations

from dataclasses import dataclass

from .comparability import comparable
from .errors import EmptyEnvironmentError
from .proximity import (
    DeviceId,
    EnvironmentSnapshot,
    ProximityLog,
    ProximityTrack,
    canonical_id,
    finite_time,
)


def check_thresholds(delta: float, omega: float, min_steps: int) -> None:
    """ValueError unless the tolerances and the evidence floor are usable.

    Shared by GroupQueryParams and the rule engine's EngineConfig.
    """
    if not delta >= 0:
        raise ValueError(f"delta must be non-negative, got {delta}")
    if not omega > 0:
        raise ValueError(f"omega must be positive, got {omega}")
    if min_steps < 1:
        raise ValueError(f"min_steps must be at least 1, got {min_steps}")


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
        if not self.t_max > 0:
            raise ValueError(f"t_max must be positive, got {self.t_max}")
        if self.n < 1:
            raise ValueError(f"n must be at least 1, got {self.n}")


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

    survivors: candidates that matched at every processed step.
    dropped: each other seeded candidate, with the time of the step at which
        it dropped.
    steps: times of the processed own samples after the seed step, newest
        first.
    """

    __slots__ = ("survivors", "dropped", "steps")

    def __init__(self) -> None:
        self.survivors: dict[DeviceId, ProximityTrack] = {}
        self.dropped: dict[DeviceId, float] = {}
        self.steps: list[float] = []

    def members(self, horizon: float, min_steps: int) -> frozenset[DeviceId]:
        """The members of a scan from the same t0 back to horizon, which must
        not lie before the walk's own.

        Such a scan processes the steps at or after horizon and makes the same
        decision at each, so it keeps the survivors and every candidate that
        dropped before horizon. It saw fewer than min_steps samples unless
        the (min_steps - 1)-th step lies at or after horizon.
        """
        k = min_steps - 1
        if k > 0 and (len(self.steps) < k or self.steps[k - 1] < horizon):
            return frozenset()
        return frozenset(self.survivors).union(
            device for device, t in self.dropped.items() if t < horizon
        )


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

    user must be canonical and e0 non-empty.
    """
    walk = _Walk()
    cands, dropped, steps = walk.survivors, walk.dropped, walk.steps
    for device, fp in log.measurements_in_window(t0 - delta, t0, exclude=user):
        if comparable(fp.env, e0, omega):
            cands[device] = log.track(device)

    if cands and user in log:
        user_track = log.track(user)
        t = t0
        while t > horizon:
            prev = user_track.previous_before(t)
            if prev is None or prev.t < horizon:
                break
            t, env = prev.t, prev.env
            steps.append(t)
            for device, track in list(cands.items()):
                fp = track.nearest_in_window(t, delta)
                if fp is None or not comparable(fp.env, env, omega):
                    del cands[device]
                    dropped[device] = t
            if not cands:
                break
    return walk


def discover_group(
    log: ProximityLog,
    user: DeviceId,
    t0: float,
    e0: EnvironmentSnapshot,
    params: GroupQueryParams,
) -> GroupResult:
    """Backward scan for devices that shared the user's radio environment.

    t0 is the query time, which must be finite (ValueError otherwise), and
    e0 the user's snapshot at that time; e0 must be non-empty
    (EmptyEnvironmentError otherwise) since an empty snapshot is comparable
    with nothing. A logged sample used as e0 must be queried at its own
    time, or the walk counts it again as a history step.
    """
    if len(e0) == 0:
        raise EmptyEnvironmentError("query snapshot has no visible networks")
    t0 = finite_time(t0, "t0")
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
