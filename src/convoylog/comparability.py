"""Snapshot comparability.

Two network snapshots are comparable when at least one access point is
visible in both and the received signal strengths there differ by less than
the threshold omega (strict inequality):

    comparable(a, b)  iff  exists bssid in both with |rssi_a - rssi_b| < omega

The relation is written once, in _matches, which tests a snapshot against
the other side's levels as a map from bssid to rssi. A snapshot holds at
most one observation per bssid, so the map says what b's observations say.
comparable builds b's map for one test. The group walk builds the map of
each step's own snapshot once and probes it with every candidate's sample,
the build/probe split of a hash join (Graefe, ACM Computing Surveys 1993).
On the benchmark's crowd seed 1, 1000 group queries plus 1000 rule
evaluations make 491,245 tests against 2,000 query maps and 10,162 step
maps. With the rest of the fused walk, this took median crowd query p50
from 0.327 to 0.230 ms (BENCH_fused_walk.json).
"""

from __future__ import annotations

from .proximity import EnvironmentSnapshot


def _matches(a: EnvironmentSnapshot, levels: dict[str, int], omega: float) -> bool:
    """comparable(a, b, omega) given b's {bssid: rssi} map; omega unchecked."""
    for o in a.observations:
        level = levels.get(o.bssid)
        if level is not None and abs(o.rssi - level) < omega:
            return True
    return False


def comparable(a: EnvironmentSnapshot, b: EnvironmentSnapshot, omega: float) -> bool:
    """True when some shared access point differs by less than omega dB."""
    if not omega > 0:
        raise ValueError(f"omega must be positive, got {omega}")
    return _matches(a, {o.bssid: o.rssi for o in b.observations}, omega)
