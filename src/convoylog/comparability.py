"""Snapshot comparability.

Two network snapshots are comparable when at least one access point is
visible in both and the received signal strengths there differ by less than
the threshold omega (strict inequality):

    comparable(a, b)  iff  exists bssid in both with |rssi_a - rssi_b| < omega
"""

from __future__ import annotations

from .proximity import EnvironmentSnapshot


def comparable(a: EnvironmentSnapshot, b: EnvironmentSnapshot, omega: float) -> bool:
    """True when some shared access point differs by less than omega dB."""
    if not omega > 0:
        raise ValueError(f"omega must be positive, got {omega}")
    for o in a.observations:
        for other in b.observations:
            if other.bssid == o.bssid:
                if abs(o.rssi - other.rssi) < omega:
                    return True
                break
    return False
