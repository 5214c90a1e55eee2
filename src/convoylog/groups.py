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
)


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
        if not self.delta >= 0:
            raise ValueError(f"delta must be non-negative, got {self.delta}")
        if not self.omega > 0:
            raise ValueError(f"omega must be positive, got {self.omega}")
        if not self.t_max > 0:
            raise ValueError(f"t_max must be positive, got {self.t_max}")
        if self.n < 1:
            raise ValueError(f"n must be at least 1, got {self.n}")
        if self.min_steps < 1:
            raise ValueError(f"min_steps must be at least 1, got {self.min_steps}")


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


def discover_group(
    log: ProximityLog,
    user: DeviceId,
    t0: float,
    e0: EnvironmentSnapshot,
    params: GroupQueryParams,
) -> GroupResult:
    """Backward scan for devices that shared the user's radio environment.

    t0 is the query time and e0 the user's snapshot at that time; e0 must
    be non-empty (EmptyEnvironmentError otherwise) since an empty snapshot
    is comparable with nothing. A logged sample used as e0 must be queried
    at its own time, or the walk counts it again as a history step.
    """
    if len(e0) == 0:
        raise EmptyEnvironmentError("query snapshot has no visible networks")
    user = canonical_id(user)
    horizon = t0 - params.t_max

    cands: dict[DeviceId, ProximityTrack] = {}
    for device, fp in log.measurements_in_window(t0 - params.delta, t0, exclude=user):
        if comparable(fp.env, e0, params.omega):
            cands[device] = log.track(device)

    steps = 1
    oldest = t0
    if cands:
        t = t0
        user_track = log.track(user) if user in log else None
        while t > horizon:
            prev = user_track.previous_before(t) if user_track is not None else None
            if prev is None or prev.t < horizon:
                break
            t, env = prev.t, prev.env
            steps += 1
            oldest = t
            for device, track in list(cands.items()):
                fp = track.nearest_in_window(t, params.delta)
                if fp is None or not comparable(fp.env, env, params.omega):
                    del cands[device]
            if not cands:
                break

    members = frozenset(cands) if steps >= params.min_steps else frozenset()
    return GroupResult(members=members, steps_processed=steps, oldest_step_time=oldest)


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
