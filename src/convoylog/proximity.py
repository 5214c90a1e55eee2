"""Timestamped Wi-Fi visibility logs.

A fingerprint is one snapshot of the wireless environment a device saw at a
point in time: which access points were audible and at what received signal
strength. A track collects one device's fingerprints in strictly increasing
time order, and the log keeps one track per device. Access points are
identified by their hardware address (bssid); network names (ssid) are
carried along for display and rule matching but are never used as identity.

Time is seconds on a shared clock (epoch seconds work, any consistent origin
does). Signal strength is integer dBm, more negative meaning weaker.

The on-disk format is JSONL, one fingerprint per line:

    {"device": "aa:bb:cc:dd:ee:ff", "t": 1357000000.0,
     "aps": [{"ssid": "mycafe", "bssid": "00:11:22:33:44:55", "rssi": -55}]}

Lines need not be globally time-sorted, but each device's lines must appear
in increasing time order. The writer emits tracks sorted by device id and
samples in time order, so a write/read cycle is lossless and deterministic.

Device and access-point ids are stored in canonical form (canonical_id).
An id already in that form, as the writer emits it, costs one regex
fullmatch and comes back as the same object; only other spellings pay for
the full normalization. Decoding a record canonicalises its device id once,
and ingest looks a str id up as given before it canonicalises, so a record
read from a log pays for one canonical_id on its device, not two.

Decoding checks a record in one pass, field by field in record order, so
a record with several faults reports the first. Each field is tested first
for the exact type json gives a valid one (a dict record, a str device, a
float or int t, a list of dict aps, a str bssid, an int rssi, a str ssid);
only a field that misses (a Mapping that is not a dict, an rssi of -50.0,
any fault) takes the general check and its error message.

Scans repeat the same readings: an access point heard at the same integer
level under the same ssid. Observations are immutable, so every decoder (a
log read, a record decoded alone, a simulation) takes equal (bssid, rssi,
ssid) readings from one bounded table per process (_observation) as one
ApObservation. A reading dropped from the table is built anew, equal to the
one it replaces, so the table changes no answer.

The log keeps one dict of tracks keyed by device id and sorts the ids only
when a read asks for them in order. Reads are pure and never mutate the
store. A log may serve many concurrent readers beside at most one writer
calling ingest: each read takes the track table in one call (its sorted
keys, or a list of its values), so a device added meanwhile is not part of
that read. Those calls make no object per entry; copying the items would,
and a collection run by one of those allocations may switch to the writer
while the dict is half read. Threads that decode share the table of
readings; lru_cache keeps it coherent, though two may build one reading twice.
"""

from __future__ import annotations

import functools
import re
from bisect import bisect_left, bisect_right
from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from pathlib import Path
from typing import IO

from .errors import (
    DuplicateBssidError,
    LogFormatError,
    NonMonotoneTimestampError,
    UnknownDeviceError,
    check_threshold,
    finite,
)
from .jsonio import read_jsonl, require, write_jsonl

DeviceId = str

_HW_ADDR = re.compile(r"^[0-9a-f]{12}$")
_is_canonical_hw_addr = re.compile(r"[0-9a-f]{2}(?::[0-9a-f]{2}){5}").fullmatch
_SEPARATORS = str.maketrans("", "", ":-.")


def looks_like_hw_addr(value: str) -> bool:
    """True when value is 12 hex digits, ignoring :, - and . separators."""
    return bool(_HW_ADDR.match(value.strip().lower().translate(_SEPARATORS)))


def canonical_id(value: str) -> str:
    """Normalize a device or access-point identifier.

    Identifiers that look like hardware addresses come out as lowercase
    colon-separated octet pairs ("AA-BB-CC-DD-EE-FF" -> "aa:bb:cc:dd:ee:ff");
    anything else is only stripped and lowercased. Idempotent, so stored ids
    can be compared byte-for-byte.

    A str already in that canonical address form is returned as is, the same
    object, after one fullmatch; only other input pays for the normalization.
    """
    # type, not isinstance: anything else, str subclasses included, takes the
    # full path, so it fails or comes back as a plain str.
    if type(value) is str and _is_canonical_hw_addr(value):
        return value
    v = value.strip().lower()
    if not v:
        raise ValueError("identifier must be non-empty")
    if looks_like_hw_addr(v):
        digits = v.translate(_SEPARATORS)
        return ":".join(digits[i : i + 2] for i in range(0, 12, 2))
    return v


@dataclass(frozen=True, slots=True)
class ApObservation:
    """One access point heard in a snapshot: identity plus signal strength."""

    bssid: str
    rssi: int
    ssid: str = ""

    def __post_init__(self):
        object.__setattr__(self, "bssid", canonical_id(self.bssid))
        if isinstance(self.rssi, bool) or not isinstance(self.rssi, int):
            raise ValueError(f"rssi must be an integer dBm value, got {self.rssi!r}")
        if not isinstance(self.ssid, str):
            raise ValueError(f"ssid must be a string, got {self.ssid!r}")


@dataclass(frozen=True, slots=True)
class EnvironmentSnapshot:
    """The set of access points visible in one measurement.

    At most one observation per bssid; an empty snapshot means the device
    heard nothing, which is valid data.
    """

    observations: tuple[ApObservation, ...] = ()

    def __post_init__(self):
        obs = tuple(self.observations)
        object.__setattr__(self, "observations", obs)
        seen: set[str] = set()
        for o in obs:
            if o.bssid in seen:
                raise DuplicateBssidError(f"duplicate access point {o.bssid}")
            seen.add(o.bssid)

    def rssi(self, bssid: str) -> int | None:
        """Signal strength of one access point, or None if it is not visible."""
        bssid = canonical_id(bssid)
        for o in self.observations:
            if o.bssid == bssid:
                return o.rssi
        return None

    @property
    def bssids(self) -> frozenset[str]:
        return frozenset(o.bssid for o in self.observations)

    def __len__(self) -> int:
        return len(self.observations)


@dataclass(frozen=True, slots=True)
class Fingerprint:
    """A snapshot stamped with the time it was taken, t, a float that
    errors.finite takes (ValueError otherwise)."""

    t: float
    env: EnvironmentSnapshot

    def __post_init__(self):
        object.__setattr__(self, "t", finite(self.t, "timestamp"))


class ProximityTrack:
    """One device's fingerprints in strictly increasing time order.

    _times holds the sample times, parallel to _samples. Besides this
    module, only the group walk (groups._walk) reads both lists and
    ProximityLog's _tracks directly, so a change to this layout must change
    the walk with it.
    """

    __slots__ = ("device", "_samples", "_times")

    def __init__(self, device: DeviceId):
        self.device = canonical_id(device)
        self._samples: list[Fingerprint] = []
        self._times: list[float] = []

    @property
    def samples(self) -> list[Fingerprint]:
        """Time-ordered samples. Treat as read-only; use append to add."""
        return self._samples

    def append(self, fp: Fingerprint) -> None:
        if self._times and fp.t <= self._times[-1]:
            raise NonMonotoneTimestampError(
                f"device {self.device}: sample at t={fp.t} does not follow t={self._times[-1]}"
            )
        self._samples.append(fp)
        self._times.append(fp.t)

    def __len__(self) -> int:
        return len(self._samples)

    def __iter__(self) -> Iterator[Fingerprint]:
        return iter(self._samples)

    def last(self) -> Fingerprint | None:
        return self._samples[-1] if self._samples else None

    def nearest_in_window(self, t: float, delta: float) -> Fingerprint | None:
        """The sample closest in time to t with |sample.t - t| <= delta.

        Ties between an earlier and a later sample at equal distance go to
        the earlier one. None when the window holds no sample.
        """
        t = finite(t, "t")
        check_threshold(delta, "delta", zero_ok=True)
        times = self._times
        if not times:
            return None
        i = bisect_left(times, t)
        if i == len(times) or (i > 0 and abs(times[i - 1] - t) < abs(times[i] - t)):
            i -= 1
        d = abs(times[i] - t)
        # Ties go to the earlier sample; rounding can tie more than one.
        while i > 0 and abs(times[i - 1] - t) == d:
            i -= 1
        return self._samples[i] if d <= delta else None


class ProximityLog:
    """Store of per-device proximity tracks with window queries.

    Ingest keeps per-device time order; everything else is a pure read.
    """

    def __init__(self):
        self._tracks: dict[DeviceId, ProximityTrack] = {}

    def ingest(self, device: DeviceId, fp: Fingerprint) -> None:
        """Append one fingerprint to the device's track, creating it if new."""
        # A stored key is canonical, so a str equal to one needs no
        # canonicalising; only a miss pays for canonical_id.
        track = self._tracks.get(device) if type(device) is str else None
        if track is None:
            key = canonical_id(device)
            track = self._tracks.get(key)
            if track is None:
                track = self._tracks[key] = ProximityTrack(key)
        track.append(fp)

    @property
    def devices(self) -> list[DeviceId]:
        """Device ids in sorted order."""
        return sorted(self._tracks)

    def __contains__(self, device: DeviceId) -> bool:
        return canonical_id(device) in self._tracks

    def __len__(self) -> int:
        return len(self._tracks)

    def track(self, device: DeviceId) -> ProximityTrack:
        key = canonical_id(device)
        try:
            return self._tracks[key]
        except KeyError:
            raise UnknownDeviceError(f"no track for device {key}") from None

    def measurements_in_window(
        self, t_lo: float, t_hi: float, exclude: DeviceId | None = None
    ) -> list[tuple[DeviceId, Fingerprint]]:
        """Per device, the sample in [t_lo, t_hi] nearest to t_hi.

        Equivalently the latest in-window sample, since nearer to t_hi means
        later. Devices with no sample in the window are omitted; exclude
        drops one device entirely. Results are sorted by device id.
        """
        if t_lo > t_hi:
            raise ValueError(f"empty window: [{t_lo}, {t_hi}]")
        skip = canonical_id(exclude) if exclude is not None else None
        out: list[tuple[DeviceId, Fingerprint]] = []
        tracks = self._tracks
        # The keys, not the items: see the module docstring.
        for device in sorted(tracks):
            if device == skip:
                continue
            track = tracks[device]
            i = bisect_right(track._times, t_hi) - 1
            if i >= 0 and track._times[i] >= t_lo:
                out.append((device, track._samples[i]))
        return out


# --- JSONL serialization ---------------------------------------------------


def fingerprint_to_json(device: DeviceId, fp: Fingerprint) -> dict:
    return {
        "device": device,
        "t": fp.t,
        "aps": [
            {"ssid": o.ssid, "bssid": o.bssid, "rssi": o.rssi}
            for o in fp.env.observations
        ],
    }


_READINGS = 4096


@functools.lru_cache(maxsize=_READINGS)
def _observation(bssid: str, rssi: int, ssid: str) -> ApObservation:
    """The shared ApObservation of a reading whose values passed their type
    checks: an rssi of True or 1.0 would find the entry for 1, and an
    unhashable ssid would fail as a TypeError. The table keeps the 4,096 most
    recently used readings, where a perfbench log has 570 to 1,550; full, it
    takes 1.6 MB (tracemalloc, Python 3.11) with 17-character bssids and
    32-character ssids, 802.11's longest."""
    return ApObservation(bssid, rssi, ssid)


def fingerprint_from_json(obj: Mapping) -> tuple[DeviceId, Fingerprint]:
    """Decode one record (module docstring); LogFormatError on shape problems."""
    if type(obj) is not dict and not isinstance(obj, Mapping):
        raise LogFormatError("record must be a JSON object")
    device = obj.get("device")
    if type(device) is not str:
        device = require(obj, "device", str, "record")
    t = obj.get("t")
    if type(t) is not float and type(t) is not int:
        t = require(obj, "t", (int, float), "record")
    aps = obj.get("aps")
    if type(aps) is not list:
        aps = require(obj, "aps", list, "record")
    try:
        observations = []
        for ap in aps:
            if type(ap) is not dict and not isinstance(ap, Mapping):
                raise LogFormatError("record: each ap must be a JSON object")
            bssid = ap.get("bssid")
            if type(bssid) is not str:
                bssid = require(ap, "bssid", str, "ap")
            rssi = ap.get("rssi")
            if type(rssi) is not int:
                rssi = require(ap, "rssi", (int, float), "ap")
                if isinstance(rssi, float):
                    if not rssi.is_integer():
                        raise LogFormatError(f"ap: rssi must be integer dBm, got {rssi}")
                    rssi = int(rssi)
            ssid = ap.get("ssid", "")
            if not isinstance(ssid, str):
                raise LogFormatError("ap: field 'ssid' has wrong type")
            observations.append(_observation(bssid, rssi, ssid))
        env = EnvironmentSnapshot(tuple(observations))
        return canonical_id(device), Fingerprint(t, env)
    except (ValueError, DuplicateBssidError) as exc:
        raise LogFormatError(str(exc)) from None


def read_log_jsonl(source: str | Path | IO[str]) -> ProximityLog:
    """Read a JSONL proximity log; malformed lines raise line-numbered errors."""
    log = ProximityLog()
    read_jsonl(source, lambda obj: log.ingest(*fingerprint_from_json(obj)))
    return log


def write_log_jsonl(log: ProximityLog, dest: str | Path | IO[str]) -> None:
    """Write tracks sorted by device id, samples in time order."""
    write_jsonl(dest, (fingerprint_to_json(d, fp) for d in log.devices for fp in log.track(d)))
