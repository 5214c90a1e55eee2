"""Workload definitions and seeded input generation.

Every workload is a city grid of access points walked by planted groups and
loners, rendered through convoylog.simulation. The simulator samples every
device at the same instants, so the generator then gives each device its own
clock phase (less than the query delta) and cuts out the workload's off
periods. Off periods model a phone whose scanner is switched off: they remove
proximity samples only, while the trajectory database keeps the location
system's full view of the walk.

Everything is drawn from one random.Random seeded from the workload seed, so
the same seed always yields the same inputs.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass

from convoylog import simulation
from convoylog.proximity import Fingerprint
from convoylog.trajectories import ConvoyParams, Point, TrajectoryDb

# One fixed ruleset, evaluated unchanged on every workload. It mixes every
# predicate family; seen/unseen and welcome/back are complementary pairs,
# and the IN_GROUP_OF predicates share one lookback (60 s) or use their own
# (300 s), so an evaluation runs three or four group scans.
RULESET = """\
RULE seen: IF IS_VISIBLE('shop-3') THEN 'shop 3 is in range'
RULE unseen: IF NOT_VISIBLE('shop-3') THEN 'shop 3 is out of range'
RULE nearer: IF CLOSE_THAN('shop-1', 'shop-2') AND TIME_WITHIN('08:00', '20:00') THEN 'shop 1 is closer'
RULE gate: IF IS_VISIBLE('0a:00:00:00:00:05') OR TIME() >= '18:00' THEN 'gate or evening'
RULE welcome: IF FIRST_VISIT() THEN 'welcome'
RULE back: IF FOLLOW_UP_VISIT() THEN 'welcome back'
RULE coupon: IF FOLLOW_UP_VISIT() AND IS_VISIBLE('shop-5') THEN 'returning customer coupon'
RULE squad: IF IN_GROUP_OF(3, 60) THEN 'squad deal'
RULE pair: IF IN_GROUP_OF(2, 60) AND NOT IN_GROUP_OF(4, 60) THEN 'pair deal'
RULE crew: IF IN_GROUP_OF(3, 300) AND TIME() < '22:00' THEN 'crew deal'
"""

SSID_COUNT = 8  # access point k carries ssid "shop-<k mod 8>"
SESSION_GAP_S = 1800.0  # EvalContext default: a longer gap starts a new visit
ROAM_SPACINGS = 1.5  # walkers roam this many grid spacings around their home
DAY_ORIGIN = 1357000000.0 - 1357000000.0 % 86400.0  # a midnight, epoch seconds


@dataclass(frozen=True)
class Spec:
    """The make-up of one workload; README.md tabulates these."""

    name: str
    grid: int  # access points per side of the square grid
    spacing_m: float
    floor_dbm: float  # access point detection floor; sets how many are heard
    groups: int
    loners: int
    duration_s: float
    interval_s: float
    dropout: float
    off_periods: int  # per group or loner, each longer than SESSION_GAP_S
    off_min_s: float
    off_max_s: float
    speed_mps: float
    noise_db: float
    start_of_day_s: float  # clock time of the first sample
    delta: float
    omega: float
    t_max: float
    n: int
    convoy: ConvoyParams
    queries: int  # group queries per round (crowd, long-history)
    evals: int  # rule evaluations per round (crowd, long-history)
    replay: bool = False  # live-replay: every arrival is followed by a query and an evaluation


WORKLOADS = {
    spec.name: spec
    for spec in (
        Spec(
            name="crowd",
            grid=8,
            spacing_m=30.0,
            floor_dbm=-75.0,
            groups=34,
            loners=100,
            duration_s=150.0,
            interval_s=5.0,
            dropout=0.1,
            off_periods=0,
            off_min_s=0.0,
            off_max_s=0.0,
            speed_mps=0.8,
            noise_db=1.5,
            start_of_day_s=12 * 3600.0,
            delta=5.0,
            omega=4.0,
            t_max=20.0,
            n=3,
            convoy=ConvoyParams(e=3.0, m=3, k=5),
            queries=1000,
            evals=1000,
        ),
        Spec(
            name="long-history",
            grid=4,
            spacing_m=30.0,
            floor_dbm=-78.0,
            groups=5,
            loners=3,
            duration_s=3 * 3600.0,
            interval_s=10.0,
            dropout=0.0,
            off_periods=2,
            off_min_s=2100.0,
            off_max_s=2700.0,
            speed_mps=0.3,
            noise_db=0.5,
            start_of_day_s=7.5 * 3600.0,
            delta=10.0,
            omega=5.0,
            t_max=300.0,
            n=3,
            convoy=ConvoyParams(e=3.0, m=3, k=30),
            queries=1000,
            evals=1000,
        ),
        Spec(
            name="live-replay",
            grid=8,
            spacing_m=30.0,
            floor_dbm=-75.0,
            groups=12,
            loners=30,
            duration_s=150.0,
            interval_s=5.0,
            dropout=0.05,
            off_periods=0,
            off_min_s=0.0,
            off_max_s=0.0,
            speed_mps=0.8,
            noise_db=1.5,
            start_of_day_s=17 * 3600.0 + 59 * 60.0,
            delta=5.0,
            omega=4.0,
            t_max=60.0,
            n=3,
            convoy=ConvoyParams(e=3.0, m=3, k=5),
            queries=0,
            evals=0,
            replay=True,
        ),
    )
}


@dataclass(frozen=True)
class Record:
    """One fingerprint as generated: arrival sequence number, device, sample."""

    seq: int
    device: str
    fp: Fingerprint


@dataclass
class Inputs:
    """Everything one run consumes, generated from (spec, seed)."""

    spec: Spec
    records: list[Record]  # arrival order: by time, then device
    lines: list[str]  # the records as JSONL, same order
    text: str  # the lines joined, the batch-ingest input
    trajectories: TrajectoryDb
    planted: dict[str, tuple[str, ...]]  # group id -> member devices
    queries: list[Record]  # query points, at the querying device's own samples
    contexts: list[Record]  # rule evaluation points, likewise
    simulated_fingerprints: int
    simulate_s: float


def record_json(device: str, fp: Fingerprint) -> str:
    """One JSONL line in the format documented in convoylog.proximity.

    Written here rather than taken from the program, so the byte-for-byte
    comparison against write_log_jsonl checks the program's writer too.
    """
    aps = ", ".join(
        '{"ssid": %s, "bssid": %s, "rssi": %d}' % (_jstr(o.ssid), _jstr(o.bssid), o.rssi)
        for o in fp.env.observations
    )
    return '{"device": %s, "t": %r, "aps": [%s]}' % (_jstr(device), fp.t, aps)


def _jstr(value: str) -> str:
    # Identifiers here are plain ASCII without quotes or backslashes.
    if any(c in value for c in '"\\') or not value.isascii() or not value.isprintable():
        raise ValueError(f"identifier needs escaping: {value!r}")
    return f'"{value}"'


def _city(spec: Spec) -> tuple[simulation.ApNode, ...]:
    aps = []
    for row in range(spec.grid):
        for col in range(spec.grid):
            k = row * spec.grid + col
            aps.append(
                simulation.ApNode(
                    bssid=f"0a:00:00:00:{(k + 1) // 256:02x}:{(k + 1) % 256:02x}",
                    ssid=f"shop-{k % SSID_COUNT}",
                    position=Point(col * spec.spacing_m, row * spec.spacing_m),
                    tx_power_dbm=-40.0,
                    detection_floor_dbm=spec.floor_dbm,
                )
            )
    return tuple(aps)


def _walk(rng: random.Random, spec: Spec, home: Point) -> simulation.WaypointPath:
    """A random walk at spec.speed_mps between points near home.

    Homes sit on a lattice over the city, so the crowd is spread evenly and
    no seed piles most walkers into one spot by chance.
    """
    side = (spec.grid - 1) * spec.spacing_m
    roam = ROAM_SPACINGS * spec.spacing_m

    def near_home() -> Point:
        return Point(
            min(side, max(0.0, home.x + rng.uniform(-roam, roam))),
            min(side, max(0.0, home.y + rng.uniform(-roam, roam))),
        )

    pts = [near_home()]
    walked = 0.0
    while walked < spec.speed_mps * spec.duration_s:
        pts.append(near_home())
        walked += pts[-2].distance_to(pts[-1])
    return simulation.WaypointPath(tuple(pts), spec.speed_mps)


def _homes(spec: Spec) -> list[Point]:
    """One home per walker (group or loner), on a lattice over the city."""
    walkers = spec.groups + spec.loners
    cols = math.ceil(math.sqrt(walkers))
    cell = (spec.grid - 1) * spec.spacing_m / cols
    return [Point((k % cols + 0.5) * cell, (k // cols + 0.5) * cell) for k in range(walkers)]


def _scenario(spec: Spec, rng: random.Random, seed: int) -> simulation.MobilityScenario:
    homes = _homes(spec)
    rng.shuffle(homes)
    groups = []
    serial = 0
    for g in range(spec.groups):
        size = 3 + g % 4  # sizes 3 to 6 in turn, so every seed has the same population
        members = []
        offsets = []
        for _ in range(size):
            serial += 1
            members.append(f"02:00:00:00:{serial // 256:02x}:{serial % 256:02x}")
            # sub-metre formation offsets keep members within convoy distance e
            offsets.append(Point(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)))
        groups.append(
            simulation.GroupSpec(f"g{g:03d}", tuple(members), _walk(rng, spec, homes.pop()), tuple(offsets))
        )
    loners = []
    for _ in range(spec.loners):
        serial += 1
        loners.append(
            simulation.LonerSpec(f"02:00:00:00:{serial // 256:02x}:{serial % 256:02x}", _walk(rng, spec, homes.pop()))
        )
    return simulation.MobilityScenario(
        name=spec.name,
        aps=_city(spec),
        groups=tuple(groups),
        loners=tuple(loners),
        radio=simulation.RadioModel(path_loss_exponent=2.5, noise_sigma_db=spec.noise_db, seed=seed),
        sample_interval=spec.interval_s,
        duration=spec.duration_s,
        dropout_rate=spec.dropout,
    )


def _off_windows(rng: random.Random, spec: Spec) -> list[tuple[float, float]]:
    """spec.off_periods disjoint off windows, in seconds since the first sample."""
    windows: list[tuple[float, float]] = []
    slot = spec.duration_s / max(spec.off_periods, 1)
    for i in range(spec.off_periods):
        length = rng.uniform(spec.off_min_s, spec.off_max_s)
        start = i * slot + rng.uniform(0.1 * slot, max(0.1 * slot, slot - length))
        windows.append((start, start + length))
    return windows


def generate(spec: Spec, seed: int) -> Inputs:
    """Build every input of one run from (spec, seed)."""
    rng = random.Random(f"{spec.name}/{seed}")
    scenario = _scenario(spec, rng, seed)
    t0 = time.thread_time()
    sim = simulation.simulate(scenario)
    simulate_s = time.thread_time() - t0

    # Off periods are drawn per group (all members leave together, so their
    # walks stay aligned) and per loner.
    off: dict[str, list[tuple[float, float]]] = {}
    for group in scenario.groups:
        windows = _off_windows(rng, spec)
        for device in group.members:
            off[device] = windows
    for loner in scenario.loners:
        off[loner.device] = _off_windows(rng, spec)

    origin = DAY_ORIGIN + spec.start_of_day_s
    samples: list[tuple[float, str, Fingerprint]] = []
    simulated = 0
    for device in sim.proximity.devices:
        phase = rng.uniform(0.0, spec.delta)
        windows = off[device]
        for fp in sim.proximity.track(device):
            simulated += 1
            if any(a <= fp.t < b for a, b in windows):
                continue
            t = origin + fp.t + phase
            samples.append((t, device, Fingerprint(t=t, env=fp.env)))
    samples.sort(key=lambda s: (s[0], s[1]))
    records = [Record(i, device, fp) for i, (_, device, fp) in enumerate(samples)]
    lines = [record_json(r.device, r.fp) for r in records]

    audible = [r for r in records if len(r.fp.env) > 0]  # a query needs a snapshot
    if spec.replay:
        # the serving model: a phone's scan arrives, its rules are evaluated
        queries, contexts = audible, records
    else:
        # Every device takes its turn, at a random sample of its own, so the
        # mix of group members and loners is the same for every seed.
        queries = _spread_over_devices(rng, audible, spec.queries)
        contexts = _spread_over_devices(rng, records, spec.evals)
    return Inputs(
        spec=spec,
        records=records,
        lines=lines,
        text="".join(line + "\n" for line in lines),
        trajectories=sim.trajectories,
        planted={g.group_id: g.members for g in scenario.groups},
        queries=queries,
        contexts=contexts,
        simulated_fingerprints=simulated,
        simulate_s=simulate_s,
    )


def _spread_over_devices(rng: random.Random, records: list[Record], count: int) -> list[Record]:
    by_device: dict[str, list[Record]] = {}
    for r in records:
        by_device.setdefault(r.device, []).append(r)
    devices = sorted(by_device)
    return [rng.choice(by_device[devices[i % len(devices)]]) for i in range(count)]
