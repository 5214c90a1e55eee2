"""Snapshot comparability and track similarity.

Two network snapshots are comparable when at least one access point is
visible in both and the received signal strengths there differ by less than
the threshold omega (strict inequality):

    comparable(a, b)  iff  exists bssid in both with |rssi_a - rssi_b| < omega

Two tracks are similar over a reference track when every reference sample
can be matched, in order, to a sample of the other track taken at
approximately the same time (|t' - t| <= delta, inclusive) with comparable
snapshots. Matching is directional: every sample of the first track needs a
partner, the second track may have unmatched samples and may lend one sample
to several reference samples. Matched partner times must be non-decreasing.

tracks_similar decides this exactly in one backward pass: each reference
sample, from the last to the first, takes the latest admissible partner at
or before the one its successor took. Taking the latest partner leaves the
earlier reference samples the most room, so the pass fails only when no
order-preserving matching exists. It is meant as the trusted reference for
window-based group scans, not as the fast path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import EmptyTrackError
from .proximity import EnvironmentSnapshot, Fingerprint


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


def comparable(a: EnvironmentSnapshot, b: EnvironmentSnapshot, omega: float) -> bool:
    """True when some shared access point differs by less than omega dB."""
    if omega <= 0:
        raise ValueError(f"omega must be positive, got {omega}")
    if len(b) < len(a):
        a, b = b, a
    levels = b.levels
    for o in a.observations:
        other = levels.get(o.bssid)
        if other is not None and abs(o.rssi - other) < omega:
            return True
    return False


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
    never decrease as the reference advances. Raises EmptyTrackError when
    the reference track has no samples (an empty reference has no movement
    to confirm, so the question is ill-posed).
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
