"""Synthetic mobility and radio traces with planted co-travel groups.

Produces paired views of the same walk: the coordinate trajectories a
tracking system would see, and the Wi-Fi proximity log the devices
themselves would record. Ground-truth labels say which devices were planted
as a group, so discovery quality can be scored.

Radio propagation is log-distance path loss with optional Gaussian noise:

    rssi(d) = tx_power_dbm - 10 * gamma * log10(max(d, d0) / d0) + N(0, sigma)

with reference distance d0 = 1 m; tx_power_dbm is the level at d0 and the
distance clamp avoids the singularity at d = 0. An access point is listed
in a fingerprint only when the (noisy) level reaches its detection floor,
and levels are rounded to integer dBm like real scan APIs report.

Devices move along waypoint paths at constant speed and hold the final
waypoint once reached. Each device samples every sample_interval seconds;
sample i lands at grid timestamp i in the trajectory database and at
t = i * sample_interval seconds in the proximity log. dropout_rate is the
probability that a device skips one sampling cycle entirely (no trajectory
point, no fingerprint), modeling patchy collection.

Everything random (noise, dropout) is driven by one generator seeded from
the radio model, drawn in a fixed order (devices in declaration order,
groups before loners, access points in declaration order), so the same
scenario always yields bit-identical outputs. The float operations keep
one order too: the tests require the outputs of a reference loop that
computes each device's position and each access point's level by separate
calls (tests/helpers.py) to be identical, not close.

One time step costs one path position per group or loner, shared by the
group's members: a walk over the path's leg lengths, measured once when the
path is built, up to the current leg. Each device not dropped then takes one
pass over all access points. An access point in reach costs a hypot, a log10
and, with noise, one Gaussian draw; one beyond reach costs a squared
distance. Reach is the distance beyond which the level stays below the floor
at any noise: noise is z * sigma with |z| <= sqrt(-2 ln 2**-53), about 8.57,
since random.Random.gauss takes the log of 1 - random() >= 2**-53. With
noise, every draw is still taken in order, heard or not, but only the draws
of access points in reach are computed: a draw beyond reach only takes its
uniforms from the generator (_noise), so the outputs are those of one gauss
call per access point and sample.
"""

from __future__ import annotations

import functools
import json
import math
import random
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO

from .errors import InvalidScenarioError, LogFormatError, finite
from .jsonio import loads, number, opened, read_jsonl, read_text, require, write_jsonl
from .proximity import (
    DeviceId,
    EnvironmentSnapshot,
    Fingerprint,
    ProximityLog,
    _observation,
    canonical_id,
)
from .trajectories import Point, TrajectoryDb

REFERENCE_DISTANCE_M = 1.0

# The most samples (time steps x devices) a scenario may ask for: about 1 GB
# of fingerprints and trajectory points. A runaway sample_interval such as
# 1e-300 is then an error, not a loop that never ends.
MAX_SAMPLES = 1_000_000

# errors.finite, failing as an InvalidScenarioError.
_finite = functools.partial(finite, error=InvalidScenarioError)


@dataclass(frozen=True)
class ApNode:
    """A fixed omni-directional access point."""

    bssid: str
    ssid: str
    position: Point
    tx_power_dbm: float
    detection_floor_dbm: float

    def __post_init__(self):
        object.__setattr__(self, "bssid", canonical_id(self.bssid))
        if not isinstance(self.ssid, str):
            raise InvalidScenarioError(f"ap {self.bssid}: ssid must be a string")
        position = _finite_points((self.position,), f"ap {self.bssid}: position")[0]
        object.__setattr__(self, "position", position)
        floor = _finite(self.detection_floor_dbm, f"ap {self.bssid}: detection floor")
        tx = _finite(self.tx_power_dbm, f"ap {self.bssid}: tx power")
        if not floor < tx:
            raise InvalidScenarioError(f"ap {self.bssid}: detection floor must sit below tx power")
        object.__setattr__(self, "tx_power_dbm", tx)
        object.__setattr__(self, "detection_floor_dbm", floor)


@dataclass(frozen=True)
class RadioModel:
    """Path-loss and noise parameters plus the seed for all randomness."""

    path_loss_exponent: float = 2.5
    noise_sigma_db: float = 0.0
    seed: int = 0

    def __post_init__(self):
        exponent = _finite(self.path_loss_exponent, "path_loss_exponent")
        if not exponent > 0:
            raise InvalidScenarioError("path_loss_exponent must be positive and finite")
        sigma = _finite(self.noise_sigma_db, "noise_sigma_db")
        if not sigma >= 0:
            raise InvalidScenarioError("noise_sigma_db must be non-negative and finite")
        # Written as a JSON integer, which like every number must fit a float.
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise InvalidScenarioError(f"seed must be an integer, got {self.seed!r}")
        _finite(self.seed, "seed")
        object.__setattr__(self, "path_loss_exponent", exponent)
        object.__setattr__(self, "noise_sigma_db", sigma)


def _finite_points(points: Iterable, what: str) -> tuple[Point, ...]:
    """points as Points of floats; InvalidScenarioError unless finite."""
    return tuple(Point(*(_finite(c, f"{what} coordinates") for c in p)) for p in points)


@dataclass(frozen=True)
class WaypointPath:
    """Piecewise-linear motion at constant speed, holding the last waypoint."""

    waypoints: tuple[Point, ...]
    speed: float
    # legs[i] is the length from waypoints[i] to waypoints[i + 1].
    legs: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pts = _finite_points(self.waypoints, "waypoint")
        object.__setattr__(self, "waypoints", pts)
        if not pts:
            raise InvalidScenarioError("path needs at least one waypoint")
        speed = _finite(self.speed, "speed")
        if not speed > 0:
            raise InvalidScenarioError(f"speed must be positive and finite, got {self.speed}")
        object.__setattr__(self, "speed", speed)
        object.__setattr__(self, "legs", tuple(a.distance_to(b) for a, b in zip(pts, pts[1:])))

    def position_at(self, t: float) -> Point:
        if not finite(t, "time") >= 0:
            raise ValueError(f"time must be non-negative, got {t}")
        remaining = self.speed * t
        for i, leg in enumerate(self.legs):
            if leg <= 0:
                continue
            if remaining < leg:
                pos, nxt = self.waypoints[i], self.waypoints[i + 1]
                f = remaining / leg
                return Point(pos.x + (nxt.x - pos.x) * f, pos.y + (nxt.y - pos.y) * f)
            remaining -= leg
        return self.waypoints[-1]


def path_through(waypoints: Iterable[tuple[float, float]], travel_time: float) -> WaypointPath:
    """A path covering the given waypoints in exactly travel_time seconds."""
    pts = _finite_points(waypoints, "waypoint")
    if not _finite(travel_time, "travel_time") > 0:
        raise InvalidScenarioError("travel_time must be positive")
    length = sum(a.distance_to(b) for a, b in zip(pts, pts[1:]))
    if length <= 0:
        raise InvalidScenarioError("path has no length to travel")
    return WaypointPath(pts, length / travel_time)


@dataclass(frozen=True)
class GroupSpec:
    """Devices planted to walk one shared path.

    Each member follows the group path displaced by its own fixed offset,
    so members stay in formation without sitting on identical coordinates.
    """

    group_id: str
    members: tuple[DeviceId, ...]
    path: WaypointPath
    offsets: tuple[Point, ...] = ()

    def __post_init__(self):
        if not isinstance(self.group_id, str):
            raise InvalidScenarioError(f"group id must be a string, got {self.group_id!r}")
        if not self.group_id:
            raise InvalidScenarioError("group id must be non-empty")
        members = tuple(canonical_id(d) for d in self.members)
        object.__setattr__(self, "members", members)
        if not members:
            raise InvalidScenarioError(f"group {self.group_id} has no members")
        offsets = _finite_points(self.offsets, f"group {self.group_id}: offset")
        if not offsets:
            offsets = tuple(Point(0.0, 0.0) for _ in members)
        object.__setattr__(self, "offsets", offsets)
        if len(offsets) != len(members):
            raise InvalidScenarioError(
                f"group {self.group_id}: offsets must match members one-to-one"
            )


@dataclass(frozen=True)
class LonerSpec:
    """An independent walker, planted as convoy noise."""

    device: DeviceId
    path: WaypointPath

    def __post_init__(self):
        object.__setattr__(self, "device", canonical_id(self.device))


@dataclass(frozen=True)
class MobilityScenario:
    name: str
    aps: tuple[ApNode, ...]
    groups: tuple[GroupSpec, ...]
    loners: tuple[LonerSpec, ...]
    radio: RadioModel
    sample_interval: float
    duration: float
    dropout_rate: float = 0.0

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise InvalidScenarioError(f"scenario name must be a string, got {self.name!r}")
        for name in ("aps", "groups", "loners"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        for name in ("sample_interval", "duration", "dropout_rate"):
            object.__setattr__(self, name, _finite(getattr(self, name), name))

    def validate(self) -> None:
        """InvalidScenarioError unless the scenario can be simulated: its
        numbers in range, its ids unique and its samples within MAX_SAMPLES."""
        if not self.sample_interval > 0:
            raise InvalidScenarioError("sample_interval must be positive and finite")
        if not self.duration >= 0:
            raise InvalidScenarioError("duration must be non-negative and finite")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise InvalidScenarioError("dropout_rate must be in [0, 1)")
        riders = sum(len(g.members) for g in self.groups) + len(self.loners)
        if (self.duration / self.sample_interval + 1) * max(riders, 1) > MAX_SAMPLES:
            raise InvalidScenarioError(f"more than {MAX_SAMPLES} samples (steps x devices)")
        seen_bssids: set[str] = set()
        for ap in self.aps:
            if ap.bssid in seen_bssids:
                raise InvalidScenarioError(f"duplicate access point {ap.bssid}")
            seen_bssids.add(ap.bssid)
        seen_groups: set[str] = set()
        seen_devices: set[str] = set()
        for group in self.groups:
            if group.group_id in seen_groups:
                raise InvalidScenarioError(f"duplicate group id {group.group_id}")
            seen_groups.add(group.group_id)
            for device in group.members:
                if device in seen_devices:
                    raise InvalidScenarioError(f"device {device} appears twice")
                seen_devices.add(device)
        for loner in self.loners:
            if loner.device in seen_devices:
                raise InvalidScenarioError(f"device {loner.device} appears twice")
            seen_devices.add(loner.device)


@dataclass(frozen=True)
class GroundTruthRecord:
    """Planted label for one device: its group (None for loners) and the
    interval, in seconds, as floats that errors.finite takes (ValueError
    otherwise), so that every record can be written and read back."""

    device: DeviceId
    group: str | None
    t_start: float
    t_end: float

    def __post_init__(self):
        for name in ("t_start", "t_end"):
            object.__setattr__(self, name, finite(getattr(self, name), name))


@dataclass(frozen=True)
class SimulationResult:
    trajectories: TrajectoryDb
    proximity: ProximityLog
    ground_truth: tuple[GroundTruthRecord, ...]


# The largest |z| a Box-Muller pair can give: cos and sin are at most 1 and
# 1 - random() is at least 2**-53, so sqrt(-2 * ln(1 - random())) <= this.
_Z_BOUND = math.sqrt(-2.0 * math.log(2.0**-53))


def _noise(rng: random.Random, sigma: float) -> tuple[Callable[[], float], Callable[[], None]]:
    """(draw, skip): draw() returns rng.gauss(0.0, sigma), draw for draw, and
    skip() takes one such draw without computing it.

    random.Random.gauss makes its draws in pairs (Box-Muller): two uniforms
    give a cos half, returned, and a sin half, kept for the next call. draw()
    does the same from rng.random(), with the same float operations, but
    keeps the pair's uniforms rather than the sin half, so skip() only takes
    a pair's uniforms or drops its pending half. Every rng.random() call
    therefore comes in the same order as with gauss. Nothing else may call
    rng.gauss meanwhile.
    """
    uniform = rng.random
    cos, sin, sqrt, log, tau = math.cos, math.sin, math.sqrt, math.log, math.tau
    u1 = u2 = None  # the pair's uniforms while its sin half is pending

    def draw() -> float:
        nonlocal u1, u2
        if u1 is None:
            u1 = uniform()
            u2 = uniform()
            x, half = u1, cos
        else:
            x, u1, half = u1, None, sin
        return 0.0 + half(x * tau) * sqrt(-2.0 * log(1.0 - u2)) * sigma

    def skip() -> None:
        nonlocal u1, u2
        if u1 is None:
            u1 = uniform()
            u2 = uniform()
        else:
            u1 = None

    return draw, skip


def _receiver(
    aps: Sequence[ApNode],
    model: RadioModel,
    draw: Callable[[], float],
    skip: Callable[[], object],
) -> Callable[[float, float], list[tuple[ApNode, float]]]:
    """A function from a position (x, y) to the (ap, level) pairs heard there,
    in the order of aps: the path-loss formula of the module docstring.

    When the model has noise, each call takes one noise draw per access
    point, in order, heard or not: draw() where the access point is in
    reach, skip() beyond it. 10 * gamma is taken once: the formula
    multiplies left to right, so (10 * gamma) * log10(x) is the same float.
    """
    d0 = REFERENCE_DISTANCE_M
    ten_gamma = 10.0 * model.path_loss_exponent
    noisy = model.noise_sigma_db > 0
    noise_bound = _Z_BOUND * model.noise_sigma_db

    def reach2(tx: float, floor: float) -> float:
        # Beyond this squared distance tx - ten_gamma * log10(d / d0) + noise
        # stays below floor for any noise. The 1e-9 terms are far wider than
        # the rounding of either side.
        span = tx - floor + noise_bound
        span += 1e-9 * (abs(tx) + abs(floor) + span)
        try:
            reach = d0 * 10.0 ** (span / ten_gamma) * (1.0 + 1e-9)
        except OverflowError:
            return math.inf
        return reach * reach

    nodes = tuple(
        (
            ap.position.x,
            ap.position.y,
            ap.tx_power_dbm,
            ap.detection_floor_dbm,
            reach2(ap.tx_power_dbm, ap.detection_floor_dbm),
            ap,
        )
        for ap in aps
    )
    hypot, log10 = math.hypot, math.log10

    def heard_at(x: float, y: float) -> list[tuple[ApNode, float]]:
        heard = []
        for ax, ay, tx, floor, far2, ap in nodes:
            dx = x - ax
            dy = y - ay
            if dx * dx + dy * dy > far2:
                if noisy:
                    skip()
                continue
            d = hypot(dx, dy)
            if d < d0:
                d = d0
            level = tx - ten_gamma * log10(d / d0)
            if noisy:
                level += draw()
            if level >= floor:
                heard.append((ap, level))
        return heard

    return heard_at


def rssi_at(
    ap: ApNode, pos: Point, model: RadioModel, rng: random.Random | None = None
) -> float | None:
    """Modeled received level at pos, or None when below the detection floor.

    Noise is drawn from rng (the module-level generator when omitted), so
    pass the scenario generator for reproducible traces; with noise, each
    call makes exactly one rng.gauss call, heard or not. Each coordinate of
    pos must be finite as the errors module defines it, or ValueError.
    """
    x, y = finite(pos[0], "position"), finite(pos[1], "position")
    gauss = (rng if rng is not None else random).gauss
    noise = functools.partial(gauss, 0.0, model.noise_sigma_db)
    heard = _receiver((ap,), model, noise, noise)(x, y)
    return heard[0][1] if heard else None


def simulate(scenario: MobilityScenario) -> SimulationResult:
    """Run one scenario; deterministic for a fixed scenario (seed included).

    Trajectory samples land on grid timestamps 0..steps-1; the fingerprint
    for grid timestamp i carries t = i * sample_interval seconds, so the two
    views of one sample are index-aligned. Equal readings (bssid, rounded
    level, ssid) share one ApObservation (proximity._observation).
    """
    scenario.validate()
    rng = random.Random(scenario.radio.seed)
    dt = scenario.sample_interval
    steps = int(math.floor(scenario.duration / dt + 1e-9)) + 1
    dropout = scenario.dropout_rate
    heard_at = _receiver(scenario.aps, scenario.radio, *_noise(rng, scenario.radio.noise_sigma_db))
    # One entry per path: its group (None for a loner) and its riders, each
    # with its offset from the path (None for a loner, who rides the path).
    walkers: list[tuple[WaypointPath, str | None, tuple[tuple[DeviceId, Point | None], ...]]] = [
        (g.path, g.group_id, tuple(zip(g.members, g.offsets))) for g in scenario.groups
    ]
    walkers += [(l.path, None, ((l.device, None),)) for l in scenario.loners]

    trajectories = TrajectoryDb()
    log = ProximityLog()
    for i in range(steps):
        t = i * dt
        for path, _, riders in walkers:
            p = path.position_at(t)
            for device, off in riders:
                if dropout > 0 and rng.random() < dropout:
                    continue
                pos = p if off is None else Point(p.x + off.x, p.y + off.y)
                trajectories.add(device, i, pos)
                observations = tuple(
                    [_observation(ap.bssid, round(level), ap.ssid) for ap, level in heard_at(*pos)]
                )
                log.ingest(device, Fingerprint(t=t, env=EnvironmentSnapshot(observations)))

    end_t = (steps - 1) * dt
    truth = tuple(
        GroundTruthRecord(device=device, group=group, t_start=0.0, t_end=end_t)
        for _, group, riders in walkers
        for device, _ in riders
    )
    return SimulationResult(trajectories=trajectories, proximity=log, ground_truth=truth)


# --- Built-in scenarios ------------------------------------------------------


def fig4_scenario(seed: int = 7) -> MobilityScenario:
    """Two mirrored pairs approach one access point from opposite sides.

    The geometry makes the radio views of the two pairs coincide: a walker
    at x and its mirror twin at -x are equidistant from the antenna at the
    origin, so with zero noise their RSSI sequences are identical sample by
    sample. Radio-only group discovery therefore sees one big group, while
    the coordinate baseline keeps the two pairs (which stay 20 m apart or
    more) in separate convoys.
    """
    duration = 50.0
    approach_left = path_through([(-80.0, 0.0), (-10.0, 0.0)], duration)
    approach_right = path_through([(80.0, 0.0), (10.0, 0.0)], duration)
    pair_offsets = (Point(0.0, 0.5), Point(0.0, -0.5))
    return MobilityScenario(
        name="fig4",
        aps=(
            ApNode(
                bssid="0a:00:00:00:00:01",
                ssid="crossing",
                position=Point(0.0, 0.0),
                tx_power_dbm=-40.0,
                detection_floor_dbm=-95.0,
            ),
        ),
        groups=(
            GroupSpec(
                group_id="g1",
                members=("02:00:00:00:01:01", "02:00:00:00:01:02"),
                path=approach_left,
                offsets=pair_offsets,
            ),
            GroupSpec(
                group_id="g2",
                members=("02:00:00:00:02:01", "02:00:00:00:02:02"),
                path=approach_right,
                offsets=pair_offsets,
            ),
        ),
        loners=(),
        radio=RadioModel(path_loss_exponent=2.5, noise_sigma_db=0.0, seed=seed),
        sample_interval=5.0,
        duration=duration,
        dropout_rate=0.0,
    )


_CORRIDOR_DURATION = 60.0

# Loner walks: start in range of the corridor, wander far off it mid-run
# (beyond any access point's detection range), and return by the final
# sample. The off-corridor stretch guarantees steps where a loner's radio
# view is empty, so no loner can track the planted group over the full run.
_CORRIDOR_LONERS: tuple[tuple[str, tuple[tuple[float, float], ...]], ...] = (
    ("03:00:00:00:00:01", ((120.0, 6.0), (60.0, 40.0), (0.0, 6.0))),
    ("03:00:00:00:00:02", ((0.0, 16.0), (30.0, 40.0), (90.0, 16.0))),
    ("03:00:00:00:00:03", ((70.0, 3.0), (85.0, 40.0), (100.0, 3.0))),
    ("03:00:00:00:00:04", ((100.0, 18.0), (45.0, 40.0), (10.0, 18.0))),
    ("03:00:00:00:00:05", ((120.0, 14.0), (95.0, 40.0), (60.0, 14.0))),
    ("03:00:00:00:00:06", ((90.0, 4.0), (45.0, 40.0), (30.0, 4.0))),
    ("03:00:00:00:00:07", ((10.0, 19.0), (25.0, 40.0), (40.0, 19.0))),
)


def corridor_scenario(seed: int = 7, noise_sigma_db: float = 0.0) -> MobilityScenario:
    """A planted group of three walks a corridor of access points; seven
    loners move independently around the same corridor.

    Access points line the corridor every 20 m with a detection range of
    about 25 m, so a device's radio view is dominated by its nearest one or
    two access points and changes as it walks.
    """
    aps = tuple(
        ApNode(
            bssid=f"0a:00:00:00:00:{i + 1:02x}",
            ssid="corridor",
            position=Point(20.0 * i, 0.0),
            tx_power_dbm=-40.0,
            detection_floor_dbm=-78.0,
        )
        for i in range(7)
    )
    group = GroupSpec(
        group_id="g1",
        members=("02:00:00:00:01:01", "02:00:00:00:01:02", "02:00:00:00:01:03"),
        path=path_through([(0.0, 10.0), (120.0, 10.0)], _CORRIDOR_DURATION),
        offsets=(Point(0.0, 0.8), Point(0.0, 0.0), Point(0.0, -0.8)),
    )
    loners = tuple(
        LonerSpec(device=device, path=path_through(waypoints, _CORRIDOR_DURATION))
        for device, waypoints in _CORRIDOR_LONERS
    )
    return MobilityScenario(
        name="corridor",
        aps=aps,
        groups=(group,),
        loners=loners,
        radio=RadioModel(path_loss_exponent=2.5, noise_sigma_db=noise_sigma_db, seed=seed),
        sample_interval=5.0,
        duration=_CORRIDOR_DURATION,
        dropout_rate=0.0,
    )


# --- Scenario and ground-truth serialization --------------------------------


def scenario_to_json(scenario: MobilityScenario) -> dict:
    return {
        "name": scenario.name,
        "sample_interval": scenario.sample_interval,
        "duration": scenario.duration,
        "dropout_rate": scenario.dropout_rate,
        "radio": {
            "path_loss_exponent": scenario.radio.path_loss_exponent,
            "noise_sigma_db": scenario.radio.noise_sigma_db,
            "seed": scenario.radio.seed,
        },
        "aps": [
            {
                "bssid": ap.bssid,
                "ssid": ap.ssid,
                "x": ap.position.x,
                "y": ap.position.y,
                "tx_power_dbm": ap.tx_power_dbm,
                "detection_floor_dbm": ap.detection_floor_dbm,
            }
            for ap in scenario.aps
        ],
        "groups": [
            {
                "group": g.group_id,
                "members": list(g.members),
                "speed": g.path.speed,
                "waypoints": [[p.x, p.y] for p in g.path.waypoints],
                "offsets": [[p.x, p.y] for p in g.offsets],
            }
            for g in scenario.groups
        ],
        "loners": [
            {
                "device": l.device,
                "speed": l.path.speed,
                "waypoints": [[p.x, p.y] for p in l.path.waypoints],
            }
            for l in scenario.loners
        ],
    }


def _list_of(obj: Mapping, key: str, kind, where: str) -> list:
    items = require(obj, key, list, where)
    if not all(isinstance(item, kind) for item in items):
        raise LogFormatError(f"{where}: field {key!r} has an item of wrong type")
    return items


def _points(obj: Mapping, key: str, where: str) -> tuple[Point, ...]:
    pairs = _list_of(obj, key, list, where)
    if any(len(pair) != 2 for pair in pairs):
        raise LogFormatError(f"{where}: {key} must be [x, y] pairs")
    return tuple(Point(number(p, 0, f"{where}: {key}"), number(p, 1, f"{where}: {key}")) for p in pairs)


def scenario_from_json(obj: Mapping) -> MobilityScenario:
    """Decode a scenario; a missing, mistyped or non-finite field raises
    InvalidScenarioError."""
    try:
        radio = require(obj, "radio", Mapping, "scenario")
        aps = tuple(
            ApNode(
                bssid=require(ap, "bssid", str, "ap"),
                ssid=require(ap, "ssid", str, "ap") if "ssid" in ap else "",
                position=Point(number(ap, "x", "ap"), number(ap, "y", "ap")),
                tx_power_dbm=number(ap, "tx_power_dbm", "ap"),
                detection_floor_dbm=number(ap, "detection_floor_dbm", "ap"),
            )
            for ap in require(obj, "aps", list, "scenario")
        )
        groups = tuple(
            GroupSpec(
                group_id=require(g, "group", str, "group"),
                members=tuple(_list_of(g, "members", str, "group")),
                path=WaypointPath(_points(g, "waypoints", "group"), number(g, "speed", "group")),
                offsets=_points(g, "offsets", "group") if "offsets" in g else (),
            )
            for g in require(obj, "groups", list, "scenario")
        )
        loners = tuple(
            LonerSpec(
                device=require(l, "device", str, "loner"),
                path=WaypointPath(_points(l, "waypoints", "loner"), number(l, "speed", "loner")),
            )
            for l in require(obj, "loners", list, "scenario")
        )
        return MobilityScenario(
            name=require(obj, "name", str, "scenario"),
            aps=aps,
            groups=groups,
            loners=loners,
            radio=RadioModel(
                path_loss_exponent=number(radio, "path_loss_exponent", "radio"),
                noise_sigma_db=number(radio, "noise_sigma_db", "radio"),
                seed=require(radio, "seed", int, "radio"),
            ),
            sample_interval=number(obj, "sample_interval", "scenario"),
            duration=number(obj, "duration", "scenario"),
            dropout_rate=number(obj, "dropout_rate", "scenario") if "dropout_rate" in obj else 0.0,
        )
    except (LogFormatError, ValueError) as exc:  # ValueError: an empty identifier
        raise InvalidScenarioError(str(exc)) from None


def read_scenario(source: str | Path | IO[str]) -> MobilityScenario:
    try:
        scenario = scenario_from_json(loads(read_text(source)))
    except LogFormatError as exc:
        raise InvalidScenarioError(f"scenario: {exc}") from None
    scenario.validate()
    return scenario


def write_scenario(scenario: MobilityScenario, dest: str | Path | IO[str]) -> None:
    with opened(dest, "w") as fh:
        json.dump(scenario_to_json(scenario), fh, indent=2)
        fh.write("\n")


def write_ground_truth_jsonl(
    records: Iterable[GroundTruthRecord], dest: str | Path | IO[str]
) -> None:
    write_jsonl(
        dest,
        ({"device": r.device, "group": r.group, "t_start": r.t_start, "t_end": r.t_end} for r in records),
    )


def read_ground_truth_jsonl(source: str | Path | IO[str]) -> tuple[GroundTruthRecord, ...]:
    records: list[GroundTruthRecord] = []
    read_jsonl(
        source,
        lambda obj: records.append(
            GroundTruthRecord(
                device=require(obj, "device", str, "record"),
                group=require(obj, "group", (str, type(None)), "record"),
                t_start=number(obj, "t_start", "record"),
                t_end=number(obj, "t_end", "record"),
            )
        ),
    )
    return tuple(records)
