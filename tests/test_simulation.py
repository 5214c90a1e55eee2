import dataclasses
import io
import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from convoylog import (
    ApNode,
    GroundTruthRecord,
    GroupQueryParams,
    GroupSpec,
    InvalidScenarioError,
    LogFormatError,
    LonerSpec,
    MobilityScenario,
    Point,
    RadioModel,
    SimulationResult,
    WaypointPath,
    corridor_scenario,
    fig4_scenario,
    in_group_of,
    path_through,
    read_ground_truth_jsonl,
    read_scenario,
    rssi_at,
    scenario_from_json,
    scenario_to_json,
    simulate,
    write_ground_truth_jsonl,
    write_log_jsonl,
    write_scenario,
    write_trajectories_jsonl,
)
from convoylog.simulation import MAX_SAMPLES, REFERENCE_DISTANCE_M, _noise
from helpers import (
    UNDECODABLE_LINES,
    json_values,
    jsonl_ending_with,
    jsonl_text,
    oracle_members,
    reference_simulate,
)


def ap(x=0.0, y=0.0, tx=-40.0, floor=-95.0, bssid="0a:00:00:00:00:01") -> ApNode:
    return ApNode(bssid=bssid, ssid="lab", position=Point(x, y), tx_power_dbm=tx, detection_floor_dbm=floor)


class TestRadio:
    def test_log_distance_formula(self):
        model = RadioModel(path_loss_exponent=2.0, noise_sigma_db=0.0)
        assert rssi_at(ap(), Point(10.0, 0.0), model) == pytest.approx(-60.0)
        assert rssi_at(ap(), Point(1.0, 0.0), model) == pytest.approx(-40.0)

    def test_distance_clamped_at_reference(self):
        model = RadioModel(path_loss_exponent=2.0, noise_sigma_db=0.0)
        assert rssi_at(ap(), Point(0.0, 0.0), model) == pytest.approx(-40.0)
        assert rssi_at(ap(), Point(0.3, 0.0), model) == pytest.approx(-40.0)

    def test_below_floor_is_absent(self):
        model = RadioModel(path_loss_exponent=2.0, noise_sigma_db=0.0)
        assert rssi_at(ap(), Point(1000.0, 0.0), model) is None  # -100 < -95

    def test_monotone_decay_with_distance(self):
        model = RadioModel(path_loss_exponent=2.5, noise_sigma_db=0.0)
        node = ap(floor=-200.0)
        levels = [rssi_at(node, Point(d, 0.0), model) for d in (1, 2, 5, 10, 50, 200)]
        assert all(a > b for a, b in zip(levels, levels[1:]))

    def test_noise_uses_given_generator(self):
        model = RadioModel(path_loss_exponent=2.0, noise_sigma_db=3.0)
        a = rssi_at(ap(), Point(10.0, 0.0), model, random.Random(5))
        b = rssi_at(ap(), Point(10.0, 0.0), model, random.Random(5))
        assert a == b
        assert a != pytest.approx(-60.0)  # noise actually applied

    def test_model_validation(self):
        with pytest.raises(InvalidScenarioError):
            RadioModel(path_loss_exponent=0.0)
        with pytest.raises(InvalidScenarioError):
            RadioModel(noise_sigma_db=-1.0)
        with pytest.raises(InvalidScenarioError):
            ap(tx=-40.0, floor=-40.0)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(InvalidScenarioError):
                RadioModel(path_loss_exponent=bad)
            with pytest.raises(InvalidScenarioError):
                RadioModel(noise_sigma_db=bad)
            with pytest.raises(InvalidScenarioError):
                ap(tx=bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_position_rejected(self, bad):
        model = RadioModel(path_loss_exponent=2.0, noise_sigma_db=0.0)
        for pos in (Point(bad, 0.0), Point(0.0, bad)):
            with pytest.raises(ValueError):
                rssi_at(ap(), pos, model)


class TestNoise:
    """simulate's noise source against random.Random.gauss, draw for draw."""

    @pytest.mark.parametrize("sigma", [0.5, 1.5, 4.0])
    def test_draws_match_gauss(self, sigma):
        # draw() and skip() stand for gauss calls whose value is kept or not;
        # plain random() calls, as dropout makes, fall in between.
        ops = random.Random(int(sigma * 10))
        skipped_with_pending = set()
        for seed in (0, 1, 2):
            rng, want = random.Random(seed), random.Random(seed)
            draw, skip = _noise(rng, sigma)
            gauss_calls = 0
            for _ in range(400):
                op = ops.choice(("draw", "skip", "random"))
                if op == "random":
                    assert rng.random() == want.random()
                    continue
                if op == "draw":
                    assert draw() == want.gauss(0.0, sigma)
                else:
                    skipped_with_pending.add(gauss_calls % 2 == 1)
                    skip()
                    want.gauss(0.0, sigma)
                gauss_calls += 1
            assert rng.random() == want.random()
        assert skipped_with_pending == {False, True}  # both pair parities skipped

    @pytest.mark.parametrize("x, heard", [(3.0, True), (5000.0, False)], ids=["near", "far"])
    def test_rssi_at_makes_one_gauss_call(self, x, heard):
        model = RadioModel(path_loss_exponent=2.5, noise_sigma_db=1.5)
        rng, want = random.Random(4), random.Random(4)
        for _ in range(3):  # with and without a pending half
            assert (rssi_at(ap(), Point(x, 0.0), model, rng) is not None) == heard
            want.gauss(0.0, 1.5)
            assert rng.getstate() == want.getstate()


class TestPaths:
    def test_piecewise_motion_and_hold(self):
        path = WaypointPath((Point(0, 0), Point(10, 0), Point(10, 5)), speed=1.0)
        assert path.position_at(0) == Point(0, 0)
        assert path.position_at(4) == Point(4, 0)
        assert path.position_at(12) == Point(10, 2)
        assert path.position_at(15) == Point(10, 5)
        assert path.position_at(400) == Point(10, 5)  # holds the last waypoint

    def test_zero_length_leg_skipped(self):
        path = WaypointPath((Point(0, 0), Point(0, 0), Point(4, 0)), speed=2.0)
        assert path.position_at(1) == Point(2, 0)

    def test_path_through_fits_duration(self):
        path = path_through([(0, 0), (30, 40)], travel_time=10.0)
        assert path.speed == pytest.approx(5.0)
        assert path.position_at(10.0) == Point(30, 40)

    def test_validation(self):
        with pytest.raises(InvalidScenarioError):
            WaypointPath((), speed=1.0)
        for speed in (0.0, float("nan"), float("inf")):
            with pytest.raises(InvalidScenarioError):
                WaypointPath((Point(0, 0),), speed=speed)
        with pytest.raises(InvalidScenarioError):
            path_through([(0, 0), (1, 1)], travel_time=0.0)
        with pytest.raises(InvalidScenarioError):
            path_through([(2, 2), (2, 2)], travel_time=5.0)
        for waypoints in ((Point(0, 0),), (Point(0, 0), Point(1, 0))):
            for t in (-1, -math.inf, math.nan):
                with pytest.raises(ValueError):
                    WaypointPath(waypoints, speed=1.0).position_at(t)


def tiny_scenario(**overrides) -> MobilityScenario:
    fields = dict(
        name="tiny",
        aps=(ap(),),
        groups=(
            GroupSpec(
                group_id="g1",
                members=("02:00:00:00:00:01",),
                path=WaypointPath((Point(2, 0), Point(8, 0)), speed=1.0),
            ),
        ),
        loners=(),
        radio=RadioModel(path_loss_exponent=2.0, noise_sigma_db=0.0, seed=1),
        sample_interval=1.0,
        duration=2.0,
        dropout_rate=0.0,
    )
    fields.update(overrides)
    return MobilityScenario(**fields)


# A usable value for each field of a scenario's parts, as Python may hand
# it: numbers as floats, ints (beyond 2**53 too) or Fractions.
def _numbers(low, high):
    return (
        st.floats(low, high)
        | st.integers(math.ceil(low), math.floor(high))
        | st.fractions(Fraction(str(low)), Fraction(str(high)), max_denominator=1000)
    )


_COORDINATES = _numbers(-1e30, 1e30)
SCENARIO_FIELDS = {
    "name": st.text(max_size=4),
    "ssid": st.text(max_size=4),
    "seed": st.integers(),
    "coordinate": _COORDINATES,
    "speed": _numbers(1e-3, 1e3),
    "tx_power_dbm": _numbers(-50, 0),
    "detection_floor_dbm": _numbers(-120, -60),
    "path_loss_exponent": _numbers(1e-3, 10),
    "noise_sigma_db": _numbers(0, 10),
    "sample_interval": _numbers(1, 100),
    "duration": _numbers(0, 1000),
    "dropout_rate": _numbers(0, 0.99),
}
# Usable ids (bssid, device, group_id), made distinct by a serial number k
# so that most scenarios validate: any text, or a hardware address that
# canonical_id rewrites.
ID_FIELDS = ("bssid", "device", "group_id")


def _ids(k: int):
    return st.text(max_size=4).map(lambda text: f"{text}#{k}") | st.just(f"0A-00-00-00-00-{k:02X}")


# Ids no part may hold: not text, or blank.
HOSTILE_IDS = [None, True, 5, 1.5, b"g", ["g"], "", " ", "\t"]
# Any value, of any field: wrong types, unusable numbers, usable ones.
HOSTILE = st.one_of(
    st.sampled_from([None, True, 1.5, "abc", b"g", ["g"], math.nan, math.inf, -1, 0, 10**400, Fraction(1, 3)]),
    st.text(max_size=3),
    st.integers(),
    st.floats(),
    st.fractions(),
)


_STILL = WaypointPath((Point(0.0, 0.0),), 1.0)


class TestScenarioValidation:
    def test_full_dropout_rejected(self):
        with pytest.raises(InvalidScenarioError):
            simulate(tiny_scenario(dropout_rate=1.0))

    def test_duplicate_device_rejected(self):
        loner = LonerSpec(device="02:00:00:00:00:01", path=WaypointPath((Point(0, 0),), 1.0))
        with pytest.raises(InvalidScenarioError, match="^duplicate device 02:00:00:00:00:01$"):
            tiny_scenario(loners=(loner,))

    def test_duplicate_ap_rejected(self):
        with pytest.raises(InvalidScenarioError):
            simulate(tiny_scenario(aps=(ap(), ap(x=50.0))))

    def test_bad_interval_rejected(self):
        with pytest.raises(InvalidScenarioError):
            simulate(tiny_scenario(sample_interval=0.0))
        for interval in (float("nan"), float("inf")):
            with pytest.raises(InvalidScenarioError):
                tiny_scenario(sample_interval=interval)

    @pytest.mark.parametrize("duration", [-1.0, float("nan"), float("inf")])
    def test_bad_duration_rejected(self, duration):
        with pytest.raises(InvalidScenarioError):
            tiny_scenario(duration=duration)

    def test_sample_cap(self):
        # Construction only: a scenario at the cap would take minutes to run.
        # tiny_scenario has one device, so duration d at interval 1 asks for
        # d + 1 samples.
        tiny_scenario(duration=MAX_SAMPLES - 1.0)
        for over in (dict(duration=MAX_SAMPLES), dict(sample_interval=1e-300)):
            with pytest.raises(InvalidScenarioError, match="samples"):
                tiny_scenario(**over)
        with pytest.raises(InvalidScenarioError):  # no devices still counts the steps
            tiny_scenario(groups=(), sample_interval=1e-300)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: tiny_scenario(radio=RadioModel(noise_sigma_db=6.9e307)),
            lambda: LonerSpec("a", WaypointPath(((-1e308, 0.0), (1e308, 0.0)), 1.0)),
            lambda: GroupSpec("g", ("a",), WaypointPath(((1e308, 0.0),), 1.0), ((1e308, 0.0),)),
        ],
        ids=["loud-noise", "overflowing-leg", "overflowing-offset"],
    )
    def test_scenario_whose_samples_would_overflow_is_not_built(self, build):
        # Each was built, and simulate then failed on an infinite level
        # (OverflowError) or position (ValueError).
        with pytest.raises(InvalidScenarioError, match="must be finite, got inf$"):
            build()

    def test_exponent_whose_slope_overflows_is_not_built(self):
        # Built, 10 * 1e308 was infinite, and a loner standing on the access
        # point recorded empty fingerprints, where the formula gives -40 dBm.
        with pytest.raises(InvalidScenarioError, match=r"^10 \* path_loss_exponent must be finite, got inf$"):
            RadioModel(path_loss_exponent=1e308)
        loner = LonerSpec("03:00:00:00:00:01", _STILL)
        scenario = tiny_scenario(groups=(), loners=(loner,), radio=RadioModel(path_loss_exponent=1e307))
        for fp in simulate(scenario).proximity.track(loner.device).samples:
            assert [(o.bssid, o.rssi) for o in fp.env.observations] == [("0a:00:00:00:00:01", -40)]

    @pytest.mark.parametrize(
        "build",
        [
            lambda: GroupSpec("g", 5, _STILL),
            lambda: GroupSpec("g", "abc", _STILL),
            lambda: GroupSpec("g", ("a",), 5),
            lambda: LonerSpec("a", None),
            lambda: MobilityScenario("x", 5, (), (), RadioModel(), 1.0, 1.0),
            lambda: tiny_scenario(aps=(None,)),
            lambda: tiny_scenario(groups="g"),
            lambda: tiny_scenario(loners=(5,)),
            lambda: tiny_scenario(radio=None),
        ],
        ids=[
            "numeric-members", "string-members", "numeric-path", "no-loner-path", "numeric-aps",
            "null-ap", "string-groups", "numeric-loner", "no-radio",
        ],
    )
    def test_part_of_the_wrong_kind_is_not_built(self, build):
        # Each raised TypeError or AttributeError, or was built: a str of
        # members as its characters, a missing path or radio to fail later.
        with pytest.raises(InvalidScenarioError, match="must be a"):
            build()

    def test_parts_may_come_as_lists(self):
        group = GroupSpec("g", ["02:00:00:00:00:01"], _STILL)
        scenario = tiny_scenario(aps=[ap()], groups=[group], loners=[])
        assert group.members == ("02:00:00:00:00:01",)
        assert (scenario.aps, scenario.groups, scenario.loners) == ((ap(),), (group,), ())

    def test_offsets_must_match_members(self):
        with pytest.raises(InvalidScenarioError):
            GroupSpec(
                group_id="g1",
                members=("02:00:00:00:00:01",),
                path=WaypointPath((Point(0, 0),), 1.0),
                offsets=(Point(0, 0), Point(0, 1)),
            )

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_coordinates_rejected(self, bad):
        # The part checks its numbers, for the scenario reader too.
        with pytest.raises(InvalidScenarioError):
            WaypointPath((Point(0, 0), Point(bad, 1.0)), 1.0)
        with pytest.raises(InvalidScenarioError):
            GroupSpec(
                group_id="g1",
                members=("02:00:00:00:00:01", "02:00:00:00:00:02"),
                path=WaypointPath((Point(0, 0),), 1.0),
                offsets=(Point(0, 0), Point(0.0, bad)),
            )
        with pytest.raises(InvalidScenarioError):
            ap(x=bad)

    @pytest.mark.parametrize("ssid", [None, 5, b"lab"])
    def test_non_str_ssid_rejected(self, ssid):
        # Built from Python: simulate would write "ssid": null, which the
        # log reader rejects. The scenario reader hands the field to this check.
        with pytest.raises(InvalidScenarioError, match="ssid must be a string"):
            ApNode(bssid="0a:00:00:00:00:01", ssid=ssid, position=Point(0.0, 0.0),
                   tx_power_dbm=-40.0, detection_floor_dbm=-95.0)


class TestSimulate:
    def test_single_device_three_samples(self):
        res = simulate(tiny_scenario())
        assert res.trajectories.objects == ["02:00:00:00:00:01"]
        assert sorted(res.trajectories.positions("02:00:00:00:00:01")) == [0, 1, 2]
        samples = res.proximity.track("02:00:00:00:00:01").samples
        assert [fp.t for fp in samples] == [0.0, 1.0, 2.0]
        assert all(fp.env.rssi("0a:00:00:00:00:01") is not None for fp in samples)

    def test_views_time_aligned(self):
        res = simulate(tiny_scenario())
        pos = res.trajectories.positions("02:00:00:00:00:01")
        assert pos[0] == Point(2, 0)
        assert pos[1] == Point(3, 0)
        assert pos[2] == Point(4, 0)

    def test_fingerprints_hold_exactly_detectable_aps(self):
        near = ap(bssid="0a:00:00:00:00:01", floor=-50.0)  # audible within ~3.2 m
        far = ap(bssid="0a:00:00:00:00:02", x=1000.0)
        res = simulate(tiny_scenario(aps=(near, far)))
        for fp in res.proximity.track("02:00:00:00:00:01").samples:
            model = RadioModel(path_loss_exponent=2.0, noise_sigma_db=0.0)
            pos = Point(2.0 + fp.t, 0.0)
            expect = {
                node.bssid
                for node in (near, far)
                if rssi_at(node, pos, model) is not None
            }
            assert fp.env.bssids == expect

    def test_ground_truth_records(self):
        scenario = tiny_scenario(
            loners=(LonerSpec(device="03:00:00:00:00:01", path=WaypointPath((Point(0, 0),), 1.0)),)
        )
        res = simulate(scenario)
        assert res.ground_truth == (
            GroundTruthRecord("02:00:00:00:00:01", "g1", 0.0, 2.0),
            GroundTruthRecord("03:00:00:00:00:01", None, 0.0, 2.0),
        )

    def test_deterministic_bytes(self):
        def render(scenario) -> str:
            res = simulate(scenario)
            out = io.StringIO()
            write_trajectories_jsonl(res.trajectories, out)
            write_log_jsonl(res.proximity, out)
            write_ground_truth_jsonl(res.ground_truth, out)
            return out.getvalue()

        noisy = corridor_scenario(seed=13, noise_sigma_db=2.0)
        assert render(noisy) == render(corridor_scenario(seed=13, noise_sigma_db=2.0))
        assert render(noisy) != render(corridor_scenario(seed=14, noise_sigma_db=2.0))

    def test_one_object_per_distinct_reading(self):
        log = simulate(corridor_scenario()).proximity
        observations = [o for d in log.devices for fp in log.track(d) for o in fp.env.observations]
        readings = {(o.bssid, o.rssi, o.ssid) for o in observations}
        assert len(observations) > len(readings)
        assert len({id(o) for o in observations}) == len(readings)

    def test_dropout_skips_cycles_deterministically(self):
        scenario = tiny_scenario(duration=30.0, dropout_rate=0.4)
        first = simulate(scenario)
        second = simulate(scenario)
        kept = sorted(first.trajectories.positions("02:00:00:00:00:01"))
        assert 0 < len(kept) < 31
        assert kept == sorted(second.trajectories.positions("02:00:00:00:00:01"))
        times = [fp.t for fp in first.proximity.track("02:00:00:00:00:01").samples]
        assert times == [i * 1.0 for i in kept]


def random_scenario(rng: random.Random) -> MobilityScenario:
    """A small valid scenario with noise, dropout, group offsets, repeated
    waypoints (zero-length legs) and one-waypoint paths."""

    def path() -> WaypointPath:
        pts = [Point(rng.uniform(0, 60), rng.uniform(0, 60)) for _ in range(rng.randint(1, 5))]
        if len(pts) > 1 and rng.random() < 0.5:
            k = rng.randrange(len(pts))
            pts.insert(k, pts[k])  # a zero-length leg
        return WaypointPath(tuple(pts), rng.uniform(0.3, 3.0))

    aps = tuple(
        ap(
            x=rng.uniform(0, 60),
            y=rng.uniform(0, 60),
            tx=rng.uniform(-45.0, -35.0),
            floor=rng.uniform(-85.0, -60.0),
            bssid=f"0a:00:00:00:00:{k + 1:02x}",
        )
        for k in range(rng.randint(1, 5))
    )
    serial = iter(range(1, 256))
    groups = []
    for g in range(rng.randint(1, 3)):
        members = tuple(f"02:00:00:00:00:{next(serial):02x}" for _ in range(rng.randint(1, 4)))
        offsets = () if rng.random() < 0.3 else tuple(
            Point(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in members
        )
        groups.append(GroupSpec(f"g{g}", members, path(), offsets))
    loners = tuple(
        LonerSpec(f"03:00:00:00:00:{next(serial):02x}", path()) for _ in range(rng.randint(0, 3))
    )
    return MobilityScenario(
        name="random",
        aps=aps,
        groups=tuple(groups),
        loners=loners,
        radio=RadioModel(
            path_loss_exponent=rng.uniform(1.8, 3.5),
            noise_sigma_db=rng.choice([0.0, 1.5, 4.0]),
            seed=rng.randrange(1000),
        ),
        sample_interval=rng.choice([0.7, 1.0, 2.5]),
        duration=rng.uniform(0.0, 60.0),
        dropout_rate=rng.choice([0.0, 0.3, 0.7]),
    )


def assert_matches_reference(scenario: MobilityScenario) -> SimulationResult:
    res = simulate(scenario)
    trajectories, log, truth = reference_simulate(scenario)
    for got, want, write in (
        (res.trajectories, trajectories, write_trajectories_jsonl),
        (res.proximity, log, write_log_jsonl),
    ):
        got_out, want_out = io.StringIO(), io.StringIO()
        write(got, got_out)
        write(want, want_out)
        assert got_out.getvalue() == want_out.getvalue()
    assert res.ground_truth == truth
    return res


def sparse_city(seed: int) -> MobilityScenario:
    """A 3 x 3 grid of access points 300 m apart, walked by two groups and
    three loners from access point to access point, with sigma 4 and dropout
    0.3. Without noise an access point is heard out to about 15 m (path loss
    exponent 3, floor 35 dB below tx); noise can stretch that to about 200 m,
    so a device is in reach of at most four of the nine at a time."""
    rng = random.Random(seed)
    grid = [(300.0 * (k % 3), 300.0 * (k // 3)) for k in range(9)]

    def walk() -> WaypointPath:
        stops = rng.sample(grid, 4)
        return path_through([(x + rng.uniform(-5, 5), y + rng.uniform(-5, 5)) for x, y in stops], 120.0)

    aps = tuple(
        ap(x=x, y=y, floor=-75.0, bssid=f"0a:00:00:00:00:{k + 1:02x}") for k, (x, y) in enumerate(grid)
    )
    groups = (
        GroupSpec("g1", ("02:00:00:00:00:01", "02:00:00:00:00:02", "02:00:00:00:00:03"), walk(),
                  (Point(0.0, 0.5), Point(0.0, 0.0), Point(0.0, -0.5))),
        GroupSpec("g2", ("02:00:00:00:00:04", "02:00:00:00:00:05"), walk()),
    )
    loners = tuple(LonerSpec(f"03:00:00:00:00:{i:02x}", walk()) for i in (1, 2, 3))
    return MobilityScenario(
        name="sparse",
        aps=aps,
        groups=groups,
        loners=loners,
        radio=RadioModel(path_loss_exponent=3.0, noise_sigma_db=4.0, seed=seed),
        sample_interval=1.0,
        duration=120.0,
        dropout_rate=0.3,
    )


def unhearable(seed: int) -> MobilityScenario:
    """The sparse city with one access point, placed where group g1 starts,
    that no noise can lift to its floor even at d0. ApNode requires a floor
    below tx_power_dbm, where the access point is heard at d0 without noise,
    so the floor is raised after construction."""
    city = sparse_city(seed)
    node = ap(x=city.groups[0].path.waypoints[0].x, y=city.groups[0].path.waypoints[0].y)
    object.__setattr__(node, "detection_floor_dbm", node.tx_power_dbm + 40.0)
    return dataclasses.replace(city, name="unhearable", aps=(node,))


def reach(node: ApNode, radio: RadioModel) -> float:
    """A distance beyond which node stays below its floor at any noise: a
    Gaussian draw of random.Random is at most about 8.57 sigma from the mean."""
    span = node.tx_power_dbm - node.detection_floor_dbm + 8.6 * radio.noise_sigma_db
    return REFERENCE_DISTANCE_M * 10 ** (span / (10.0 * radio.path_loss_exponent))


def computed_levels(scenario: MobilityScenario, monkeypatch) -> int:
    """How many levels simulate computes for scenario (its log10 calls)."""
    log10 = math.log10
    calls = 0

    def counting(x):
        nonlocal calls
        calls += 1
        return log10(x)

    with monkeypatch.context() as m:
        m.setattr(math, "log10", counting)
        simulate(scenario)
    return calls


class TestReference:
    @pytest.mark.parametrize("seed", [0, 7, 13, 99])
    def test_builtin_scenarios_match_reference(self, seed):
        assert_matches_reference(fig4_scenario(seed=seed))
        assert_matches_reference(corridor_scenario(seed=seed))
        assert_matches_reference(corridor_scenario(seed=seed, noise_sigma_db=2.0))

    def test_random_scenarios_match_reference(self):
        rng = random.Random(20)
        whole_group_dropped = False
        for _ in range(40):
            scenario = random_scenario(rng)
            db = assert_matches_reference(scenario).trajectories
            present = {(d, i) for d in db.objects for i in db.positions(d)}
            steps = int(math.floor(scenario.duration / scenario.sample_interval + 1e-9)) + 1
            whole_group_dropped |= any(
                len(g.members) > 1 and not any((d, i) in present for d in g.members)
                for g in scenario.groups
                for i in range(steps)
            )
        assert whole_group_dropped  # the case is covered, not just possible

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("build", [sparse_city, unhearable])
    def test_access_points_out_of_reach_match_reference(self, build, seed, monkeypatch):
        scenario = build(seed)
        res = assert_matches_reference(scenario)
        db = res.trajectories
        positions = [p for d in db.objects for p in db.positions(d).values()]
        pairs = len(positions) * len(scenario.aps)
        in_reach = sum(
            p.distance_to(node.position) <= reach(node, scenario.radio)
            for node in scenario.aps
            for p in positions
        )
        # Most pairs lie beyond reach, and simulate computes no level there,
        # so the skipped draws are exercised, not just possible.
        assert in_reach < pairs / 2
        assert computed_levels(scenario, monkeypatch) <= in_reach
        if build is unhearable:
            assert reach(scenario.aps[0], scenario.radio) < REFERENCE_DISTANCE_M
            assert not any(fp.env.observations for d in res.proximity.devices for fp in res.proximity.track(d))
        else:
            assert any(fp.env.observations for d in res.proximity.devices for fp in res.proximity.track(d))


class TestBuiltinScenarios:
    def test_fig4_mirrored_rssi_identity(self):
        res = simulate(fig4_scenario())
        left = res.proximity.track("02:00:00:00:01:01").samples
        right = res.proximity.track("02:00:00:00:02:01").samples
        assert len(left) == len(right) == 11
        for a, b in zip(left, right):
            assert a.t == b.t
            assert a.env == b.env

    def test_fig4_pairs_stay_far_apart(self):
        res = simulate(fig4_scenario())
        g1 = res.trajectories.positions("02:00:00:00:01:01")
        g2 = res.trajectories.positions("02:00:00:00:02:01")
        assert min(g1[i].distance_to(g2[i]) for i in g1) >= 20.0

    def test_corridor_loners_lose_coverage_mid_run(self):
        res = simulate(corridor_scenario())
        for loner in (r.device for r in res.ground_truth if r.group is None):
            sizes = [len(fp.env) for fp in res.proximity.track(loner).samples]
            assert sizes[0] > 0 and sizes[-1] > 0
            assert 0 in sizes

    def test_corridor_members_always_covered(self):
        res = simulate(corridor_scenario())
        for member in (r.device for r in res.ground_truth if r.group == "g1"):
            assert all(len(fp.env) > 0 for fp in res.proximity.track(member).samples)

    def test_corridor_group_query_matches_oracle(self):
        scenario = corridor_scenario()
        res = simulate(scenario)
        params = GroupQueryParams(
            delta=scenario.sample_interval / 4,
            omega=3.0,
            t_max=scenario.duration,
            n=3,
        )
        members = [r.device for r in res.ground_truth if r.group == "g1"]
        for device in members:
            last = res.proximity.track(device).last()
            assert in_group_of(res.proximity, device, last.t, last.env, params)
            got = oracle_members(res.proximity, device, last.t, last.env, params)
            assert got == frozenset(m for m in members if m != device)


class TestSerialization:
    def test_scenario_round_trip(self):
        for scenario in (fig4_scenario(), corridor_scenario(seed=3, noise_sigma_db=1.5)):
            assert scenario_from_json(scenario_to_json(scenario)) == scenario

    def test_scenario_file_round_trip(self, tmp_path):
        path = tmp_path / "scenario.json"
        write_scenario(corridor_scenario(), path)
        assert read_scenario(path) == corridor_scenario()

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: RadioModel(seed=1.5), r"^seed must be an integer, got 1\.5$"),
            (lambda: RadioModel(seed=True), r"^seed must be an integer, got True$"),
            (lambda: RadioModel(seed="abc"), r"^seed must be an integer, got 'abc'$"),
            (lambda: RadioModel(seed=10**400), r"^seed out of float range$"),
            (lambda: tiny_scenario(name=5), r"^scenario name must be a string, got 5$"),
            (lambda: GroupSpec(7, ("a",), WaypointPath(((0, 0),), 1.0)), r"^group id must be a string, got 7$"),
        ],
        ids=["fractional-seed", "bool-seed", "text-seed", "huge-seed", "numeric-name", "numeric-group-id"],
    )
    def test_part_that_could_not_be_read_back_is_not_built(self, build, message):
        # Each of these was built and written, and read_scenario then
        # rejected what was written.
        with pytest.raises(InvalidScenarioError, match=message):
            build()

    def test_numbers_are_stored_as_floats(self):
        # A Fraction, or an int beyond 2**53, could be built but written as
        # no JSON number, or as one that read back as another float.
        big = 2**53 + 1
        path = WaypointPath(((Fraction(1, 3), big),), Fraction(1, 2))
        scenario = MobilityScenario(
            name="n",
            aps=(ApNode("0a:00:00:00:00:01", "", (big, 0), Fraction(-81, 2), -95),),
            groups=(GroupSpec("g", ("02:00:00:00:00:01",), path, ((Fraction(1, 3), 0),)),),
            loners=[LonerSpec("02:00:00:00:00:02", path)],
            radio=RadioModel(Fraction(5, 2), Fraction(1, 3), big),
            sample_interval=Fraction(5),
            duration=Fraction(120),
            dropout_rate=Fraction(1, 10),
        )
        assert scenario.groups[0].path.waypoints == ((1 / 3, float(big)),)
        assert type(scenario.loners) is tuple
        buf = io.StringIO()
        write_scenario(scenario, buf)
        assert read_scenario(io.StringIO(buf.getvalue())) == scenario

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_every_scenario_that_can_be_built_reads_back_equal(self, data):
        # At most one field takes a value from HOSTILE; the others take
        # usable values, so that most examples build. A scenario that is
        # built can be simulated; those of at most 2,000 samples are.
        hostile = data.draw(st.sampled_from([None, *SCENARIO_FIELDS, *ID_FIELDS]))
        serial = itertools.count()

        def value(field):
            if field == hostile:
                return data.draw(HOSTILE)
            return data.draw(_ids(next(serial)) if field in ID_FIELDS else SCENARIO_FIELDS[field])

        def path():
            return WaypointPath(
                tuple((value("coordinate"), value("coordinate")) for _ in range(data.draw(st.integers(1, 3)))),
                value("speed"),
            )

        try:
            scenario = MobilityScenario(
                name=value("name"),
                aps=tuple(
                    ApNode(value("bssid"), value("ssid"), (value("coordinate"), value("coordinate")),
                           value("tx_power_dbm"), value("detection_floor_dbm"))
                    for _ in range(data.draw(st.integers(1, 2)))
                ),
                groups=tuple(
                    GroupSpec(value("group_id"), (value("device"), value("device")), path(),
                              ((value("coordinate"), value("coordinate")),) * 2)
                    for _ in range(data.draw(st.integers(1, 2)))
                ),
                loners=tuple(LonerSpec(value("device"), path()) for _ in range(data.draw(st.integers(0, 2)))),
                radio=RadioModel(value("path_loss_exponent"), value("noise_sigma_db"), value("seed")),
                sample_interval=value("sample_interval"),
                duration=value("duration"),
                dropout_rate=value("dropout_rate"),
            )
        except (InvalidScenarioError, ValueError):
            return  # a scenario that cannot be built
        buf = io.StringIO()
        write_scenario(scenario, buf)
        assert read_scenario(io.StringIO(buf.getvalue())) == scenario
        devices = sum(len(g.members) for g in scenario.groups) + len(scenario.loners)
        if (scenario.duration / scenario.sample_interval + 1) * devices <= 2000:
            simulate(scenario)

    def test_invalid_scenario_json(self, tmp_path):
        with pytest.raises(InvalidScenarioError):
            read_scenario(io.StringIO("{not json"))
        with pytest.raises(InvalidScenarioError):
            scenario_from_json({"name": "x"})
        for text in ("[" * 100_000, '{"name": 1' + "0" * 5000 + "}"):
            with pytest.raises(InvalidScenarioError):
                read_scenario(io.StringIO(text))
        (tmp_path / "s.json").write_bytes(b"\xff" + json.dumps(scenario_to_json(fig4_scenario())).encode())
        with pytest.raises(InvalidScenarioError):
            read_scenario(tmp_path / "s.json")
        with pytest.raises(InvalidScenarioError, match="not UTF-8"):
            read_scenario(io.BytesIO(b"\xff{}"))

    # One malformed value for each field, and the one error it raises: the
    # reader checks only the document's shape, and the part that holds a
    # value checks it.
    MALFORMED_FIELDS = {
        "numeric-name": (("name",), 5, "scenario name must be a string, got 5"),
        "runaway-interval": (("sample_interval",), 1e-300, "more than 1000000 samples (steps x devices)"),
        "infinite-duration": (("duration",), float("inf"), "duration must be finite, got inf"),
        "full-dropout": (("dropout_rate",), 1.0, "dropout_rate must be in [0, 1)"),
        "list-radio": (("radio",), [1], "scenario: field 'radio' has wrong type"),
        "null-exponent": (("radio", "path_loss_exponent"), None, "path_loss_exponent must be a number, got None"),
        "negative-sigma": (("radio", "noise_sigma_db"), -1, "noise_sigma_db must be non-negative and finite"),
        "string-seed": (("radio", "seed"), "z", "seed must be an integer, got 'z'"),
        "fractional-seed": (("radio", "seed"), 1.5, "seed must be an integer, got 1.5"),
        "numeric-aps": (("aps",), 5, "scenario: field 'aps' has wrong type"),
        "numeric-ap": (("aps",), [5], "ap must be a JSON object"),
        "numeric-bssid": (("aps", 0, "bssid"), 5, "identifier must be a string, got 5"),
        "numeric-ssid": (("aps", 0, "ssid"), 5, "ap 0a:00:00:00:00:01: ssid must be a string"),
        "string-x": (("aps", 0, "x"), "q", "ap 0a:00:00:00:00:01: position coordinates must be a number, got 'q'"),
        "overflowing-x": (("aps", 0, "x"), 10**400, "ap 0a:00:00:00:00:01: position coordinates out of float range"),
        "bool-tx": (("aps", 0, "tx_power_dbm"), True, "ap 0a:00:00:00:00:01: tx power must be a number, got True"),
        "floor-above-tx": (
            ("aps", 0, "detection_floor_dbm"), 0, "ap 0a:00:00:00:00:01: detection floor must sit below tx power"
        ),
        "object-groups": (("groups",), {}, "scenario: field 'groups' has wrong type"),
        "text-group": (("groups", 0), "g", "group must be a JSON object"),
        "numeric-group-id": (("groups", 0, "group"), 3, "group id must be a string, got 3"),
        "string-members": (("groups", 0, "members"), "abc", "group: field 'members' has wrong type"),
        "numeric-member": (("groups", 0, "members"), [5], "identifier must be a string, got 5"),
        "nan-speed": (("groups", 0, "speed"), float("nan"), "speed must be finite, got nan"),
        "numeric-waypoints": (("groups", 0, "waypoints"), 5, "group: field 'waypoints' has wrong type"),
        "nan-waypoint": (
            ("groups", 0, "waypoints"), [[float("nan"), 0.0], [1.0, 1.0]], "waypoint coordinates must be finite, got nan"
        ),
        "waypoint-triple": (("groups", 0, "waypoints"), [[0.0, 0.0, 0.0]], "waypoint must be an (x, y) pair"),
        "one-offset": (("groups", 0, "offsets"), [[0, 0]], "group g1: offsets must match members one-to-one"),
        "null-offset": (("groups", 0, "offsets", 0), [None, 0], "group g1: offset coordinates must be a number, got None"),
        "null-loners": (("loners",), None, "scenario: field 'loners' has wrong type"),
        "numeric-loner": (("loners", 0), 1, "loner must be a JSON object"),
        "list-device": (("loners", 0, "device"), ["a"], "identifier must be a string, got ['a']"),
        "zero-speed": (("loners", 0, "speed"), 0, "speed must be positive and finite, got 0"),
        "no-waypoints": (("loners", 0, "waypoints"), [], "path needs at least one waypoint"),
        "text-waypoint": (("loners", 0, "waypoints", 0), "ab", "waypoint coordinates must be a number, got 'a'"),
    }

    @pytest.mark.parametrize("path, value, message", MALFORMED_FIELDS.values(), ids=MALFORMED_FIELDS.keys())
    def test_malformed_field_rejected(self, path, value, message):
        doc = scenario_to_json(corridor_scenario())
        *parents, last = path
        target = doc
        for key in parents:
            target = target[key]
        target[last] = value
        with pytest.raises(InvalidScenarioError) as err:
            read_scenario(io.StringIO(json.dumps(doc)))
        assert str(err.value) == message

    def test_missing_field_rejected(self):
        doc = scenario_to_json(corridor_scenario())
        del doc["loners"][0]["speed"]
        with pytest.raises(InvalidScenarioError, match=r"^loner: missing field 'speed'$"):
            read_scenario(io.StringIO(json.dumps(doc)))

    @given(st.data())
    def test_arbitrary_field_values_raise_only_scenario_errors(self, data):
        doc = scenario_to_json(corridor_scenario())
        slots = []  # (container, key) for every value in the document

        def walk(node):
            for key, child in node.items() if isinstance(node, dict) else enumerate(node):
                slots.append((node, key))
                if isinstance(child, (dict, list)):
                    walk(child)

        walk(doc)
        container, key = data.draw(st.sampled_from(slots))
        container[key] = data.draw(json_values(tuple(sorted({k for _, k in slots if isinstance(k, str)}))))
        try:
            read_scenario(io.StringIO(json.dumps(doc)))
        except InvalidScenarioError:
            pass

    @given(st.text())
    def test_arbitrary_text_raises_only_scenario_errors(self, text):
        try:
            read_scenario(io.StringIO(text))
        except InvalidScenarioError:
            pass

    def test_ground_truth_round_trip(self):
        records = (
            GroundTruthRecord("02:00:00:00:00:01", "g1", 0.0, 60.0),
            GroundTruthRecord("03:00:00:00:00:01", None, 0.0, 60.0),
        )
        buf = io.StringIO()
        write_ground_truth_jsonl(records, buf)
        assert read_ground_truth_jsonl(io.StringIO(buf.getvalue())) == records

    def test_every_record_can_be_written_and_read_back(self):
        # A Fraction sample interval gives Fraction times, and an int time
        # is read back as a float: both are stored as floats.
        truth = simulate(dataclasses.replace(corridor_scenario(), sample_interval=Fraction(5))).ground_truth
        records = (*truth, GroundTruthRecord("a", None, 0, 60))
        assert all(type(r.t_start) is type(r.t_end) is float for r in records)
        buf = io.StringIO()
        write_ground_truth_jsonl(records, buf)
        assert read_ground_truth_jsonl(io.StringIO(buf.getvalue())) == records
        with pytest.raises(ValueError, match=r"^t_start must be finite, got nan$"):
            GroundTruthRecord("a", None, math.nan, 1.0)
        with pytest.raises(ValueError, match=r"^t_end must be a number, got '60'$"):
            GroundTruthRecord("a", None, 0.0, "60")

    @pytest.mark.parametrize(
        "bad",
        [
            b'{"device": "a", "group": "g", "t_start": 1' + b"0" * 5000 + b', "t_end": 1}',
            b'{"device": "a", "group": "g", "t_start": 1' + b"0" * 400 + b', "t_end": 1}',
            b'{"device": 5, "group": 7, "t_start": 0, "t_end": 1}',
            *UNDECODABLE_LINES.values(),
        ],
        ids=["5000-digits", "400-digits", "numeric-ids", *UNDECODABLE_LINES.keys()],
    )
    def test_malformed_ground_truth_reports_line_number(self, tmp_path, bad):
        good = ['{"device": "a", "group": null, "t_start": 0.0, "t_end": 1.0}']
        with pytest.raises(LogFormatError) as err:
            read_ground_truth_jsonl(jsonl_ending_with(tmp_path, good, bad))
        assert err.value.line == 2

    # One malformed value per field of a record, and the one error it
    # raises: the reader checks only that a record is an object holding the
    # field, and GroundTruthRecord checks each value.
    MALFORMED_RECORDS = {
        "not-an-object": ('"a"', "record must be a JSON object"),
        "missing-group": ('{"device": "a", "t_start": 0, "t_end": 1}', "record: missing field 'group'"),
        "numeric-device": ('{"device": 5, "group": "g", "t_start": 0, "t_end": 1}', "identifier must be a string, got 5"),
        "blank-device": ('{"device": " ", "group": "g", "t_start": 0, "t_end": 1}', "identifier must be non-empty"),
        "numeric-group": ('{"device": "a", "group": 7, "t_start": 0, "t_end": 1}', "group id must be a string, got 7"),
        "empty-group": ('{"device": "a", "group": "", "t_start": 0, "t_end": 1}', "group id must be non-empty"),
        "text-t-start": ('{"device": "a", "group": "g", "t_start": "0", "t_end": 1}', "t_start must be a number, got '0'"),
        "infinite-t-end": ('{"device": "a", "group": "g", "t_start": 0, "t_end": Infinity}', "t_end must be finite, got inf"),
    }

    @pytest.mark.parametrize("bad, message", MALFORMED_RECORDS.values(), ids=MALFORMED_RECORDS.keys())
    def test_malformed_ground_truth_field_is_one_numbered_error(self, bad, message):
        text = '{"device": "a", "group": null, "t_start": 0.0, "t_end": 1.0}\n' + bad + "\n"
        with pytest.raises(LogFormatError) as err:
            read_ground_truth_jsonl(io.StringIO(text))
        assert (err.value.line, str(err.value)) == (2, f"line 2: {message}")

    @given(
        device=st.one_of(_ids(1), st.sampled_from(HOSTILE_IDS)),
        group=st.one_of(st.none(), _ids(2), st.sampled_from(HOSTILE_IDS)),
        t_start=st.one_of(_numbers(-1e30, 1e30), HOSTILE),
        t_end=st.one_of(_numbers(-1e30, 1e30), HOSTILE),
    )
    @example(device=5, group=7, t_start=0.0, t_end=1.0)
    def test_every_record_that_can_be_built_reads_back_equal(self, device, group, t_start, t_end):
        try:
            record = GroundTruthRecord(device, group, t_start, t_end)
        except (InvalidScenarioError, ValueError):
            return  # a record that cannot be built
        buf = io.StringIO()
        write_ground_truth_jsonl([record], buf)
        assert read_ground_truth_jsonl(io.StringIO(buf.getvalue())) == (record,)

    @given(jsonl_text(("device", "group", "t_start", "t_end")))
    def test_arbitrary_ground_truth_raises_only_log_format_errors(self, text):
        try:
            read_ground_truth_jsonl(io.StringIO(text))
        except LogFormatError:
            pass
