"""Every public constructor or call that takes a coordinate, a time or a
threshold accepts exactly the numbers errors.py accepts for it, and turns
anything else into its own error: ValueError, or its module's
ConvoylogError. None of them lets a TypeError or an OverflowError out.

Each slot names one argument of one call, and says what the call adds to the
errors module's rule (a range such as "positive") and which error it raises.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from convoylog import (
    ConvoyParams,
    EngineConfig,
    EvalContext,
    Fingerprint,
    GroupQueryParams,
    InvalidScenarioError,
    ProximityLog,
    density_clusters,
    discover_group,
    in_group_of,
)
from convoylog.errors import check_count, check_threshold, finite
from convoylog.rules import InGroupOf
from convoylog.simulation import (
    MAX_SAMPLES,
    ApNode,
    GroupSpec,
    MobilityScenario,
    RadioModel,
    WaypointPath,
    path_through,
    rssi_at,
    simulate,
)
from convoylog.trajectories import Point, TrajectoryDb

from helpers import put, snapshot

A = "02:00:00:00:00:01"
X = "0a:00:00:00:00:01"
ENV = snapshot({X: -50})
PARAMS = GroupQueryParams(delta=1.0, omega=5.0, t_max=10.0, n=2)


def takes(check, value, *args, **kwargs) -> bool:
    try:
        check(value, "value", *args, **kwargs)
    except ValueError:
        return False
    return True


def finite_and(test=lambda x: True):
    """Accepts a value that errors.finite takes and whose float passes test."""
    return lambda v: takes(finite, v) and test(finite(v, "value"))


def threshold(zero_ok=False):
    return lambda v: takes(check_threshold, v, zero_ok=zero_ok)


def count(v) -> bool:
    return takes(check_count, v) and takes(finite, v)


def logged() -> ProximityLog:
    log = ProximityLog()
    put(log, A, 1.0, {X: -50})
    put(log, "02:00:00:00:00:02", 1.0, {X: -52})
    return log


def ap(x=0.0, tx=-40.0, floor=-90.0) -> ApNode:
    return ApNode(X, "", Point(x, 0.0), tx, floor)


def path(waypoints=((0.0, 0.0), (10.0, 0.0)), speed=1.0) -> WaypointPath:
    return WaypointPath(waypoints, speed)


def scenario(**overrides) -> MobilityScenario:
    # Duration 0 by default: one step, whatever the interval.
    fields = dict(
        name="n",
        aps=(ap(),),
        groups=(GroupSpec("g", (A,), path()),),
        loners=(),
        radio=RadioModel(),
        sample_interval=1.0,
        duration=0.0,
    )
    return MobilityScenario(**{**fields, **overrides})


# name -> (call with the value in that slot, does errors.py accept it, error)
SLOTS = {
    # thresholds
    "GroupQueryParams.delta": (
        lambda v: GroupQueryParams(delta=v, omega=1.0, t_max=1.0, n=2), threshold(zero_ok=True), ValueError
    ),
    "GroupQueryParams.omega": (lambda v: GroupQueryParams(delta=1.0, omega=v, t_max=1.0, n=2), threshold(), ValueError),
    "GroupQueryParams.t_max": (lambda v: GroupQueryParams(delta=1.0, omega=1.0, t_max=v, n=2), threshold(), ValueError),
    "EngineConfig.delta": (lambda v: EngineConfig(delta=v), threshold(zero_ok=True), ValueError),
    "EngineConfig.omega": (lambda v: EngineConfig(omega=v), threshold(), ValueError),
    "EvalContext.session_gap": (lambda v: EvalContext(A, 1.0, ENV, logged(), session_gap=v), threshold(), ValueError),
    "ConvoyParams.e": (lambda v: ConvoyParams(e=v, m=2, k=2), threshold(), ValueError),
    "density_clusters.e": (
        lambda v: density_clusters([("a", Point(0.0, 0.0)), ("b", Point(1.0, 0.0))], v, 1), threshold(), ValueError
    ),
    "nearest_in_window.delta": (
        lambda v: logged().track(A).nearest_in_window(1.0, v), threshold(zero_ok=True), ValueError
    ),
    # times
    "Fingerprint.t": (lambda v: Fingerprint(v, ENV), finite_and(), ValueError),
    "discover_group.t0": (lambda v: discover_group(logged(), A, v, ENV, PARAMS), finite_and(), ValueError),
    "in_group_of.t0": (lambda v: in_group_of(logged(), A, v, ENV, PARAMS), finite_and(), ValueError),
    "EvalContext.now": (lambda v: EvalContext(A, v, ENV, logged()), finite_and(), ValueError),
    "nearest_in_window.t": (lambda v: logged().track(A).nearest_in_window(v, 1.0), finite_and(), ValueError),
    "WaypointPath.position_at": (lambda v: path().position_at(v), finite_and(lambda x: x >= 0), ValueError),
    # coordinates
    "TrajectoryDb.add.x": (lambda v: TrajectoryDb().add("a", 0, Point(v, 2.0)), finite_and(), ValueError),
    "TrajectoryDb.add.y": (lambda v: TrajectoryDb().add("a", 0, Point(2.0, v)), finite_and(), ValueError),
    "density_clusters.x": (
        lambda v: density_clusters([("a", Point(v, 0.0)), ("b", Point(0.0, 0.0))], 1.0, 1), finite_and(), ValueError
    ),
    "rssi_at.x": (lambda v: rssi_at(ap(), Point(v, 0.0), RadioModel()), finite_and(), ValueError),
    "rssi_at.y": (lambda v: rssi_at(ap(), Point(0.0, v), RadioModel()), finite_and(), ValueError),
    "ApNode.position": (lambda v: ap(x=v), finite_and(), InvalidScenarioError),
    "WaypointPath.waypoint": (lambda v: path(((v, 0.0), (0.0, 1.0))), finite_and(), InvalidScenarioError),
    "path_through.waypoint": (
        # the path is |v| long, so its speed is |v| / 5, which must not round to 0
        lambda v: path_through([(0.0, 0.0), (0.0, v)], 5.0),
        finite_and(lambda x: abs(x) / 5.0 > 0),
        InvalidScenarioError,
    ),
    "GroupSpec.offset": (lambda v: GroupSpec("g", (A,), path(), offsets=((v, 0.0),)), finite_and(), InvalidScenarioError),
    # the other numbers of a scenario
    "RadioModel.path_loss_exponent": (
        # the formula multiplies by 10 * exponent, which must be finite too
        lambda v: RadioModel(path_loss_exponent=v),
        finite_and(lambda x: x > 0 and takes(finite, 10 * x)),
        InvalidScenarioError,
    ),
    "RadioModel.noise_sigma_db": (lambda v: RadioModel(noise_sigma_db=v), finite_and(lambda x: x >= 0), InvalidScenarioError),
    "ApNode.tx_power_dbm": (lambda v: ap(tx=v), finite_and(lambda x: x > -90.0), InvalidScenarioError),
    "ApNode.detection_floor_dbm": (lambda v: ap(floor=v), finite_and(lambda x: x < -40.0), InvalidScenarioError),
    "WaypointPath.speed": (lambda v: path(speed=v), finite_and(lambda x: x > 0), InvalidScenarioError),
    "path_through.travel_time": (
        # the path is 1 m long, so its speed is 1 / travel_time
        lambda v: path_through([(0.0, 0.0), (1.0, 0.0)], v),
        finite_and(lambda x: x > 0 and takes(finite, 1.0 / x)),
        InvalidScenarioError,
    ),
    "MobilityScenario.sample_interval": (
        lambda v: simulate(scenario(sample_interval=v)), finite_and(lambda x: x > 0), InvalidScenarioError
    ),
    "MobilityScenario.duration": (
        # construction only: an accepted duration may ask for up to MAX_SAMPLES samples
        lambda v: scenario(duration=v),
        finite_and(lambda x: x >= 0 and x / 1.0 + 1 <= MAX_SAMPLES),
        InvalidScenarioError,
    ),
    "MobilityScenario.dropout_rate": (
        lambda v: simulate(scenario(dropout_rate=v)), finite_and(lambda x: 0 <= x < 1), InvalidScenarioError
    ),
    # counts that must also fit a float
    "InGroupOf.n": (lambda v: InGroupOf(v, 10), count, ValueError),
    "InGroupOf.t": (lambda v: InGroupOf(2, v), count, ValueError),
}

VALUES = (
    st.none()
    | st.booleans()
    | st.text(max_size=3)
    | st.binary(max_size=3)
    | st.sampled_from([10**400, -(10**400), float("nan"), float("inf"), float("-inf")])
    | st.floats()
    | st.fractions()
    | st.integers()
)


@settings(max_examples=400, deadline=None)
@given(slot=st.sampled_from(sorted(SLOTS)), value=VALUES)
# Each of these raised TypeError or OverflowError, or was accepted, before
# every module asked errors.py.
@example(slot="GroupQueryParams.delta", value="1")
@example(slot="ConvoyParams.e", value="3")
@example(slot="EngineConfig.omega", value="x")
@example(slot="EvalContext.session_gap", value="9")
@example(slot="RadioModel.path_loss_exponent", value="2")
@example(slot="ApNode.tx_power_dbm", value="-40")
@example(slot="WaypointPath.speed", value="1")
@example(slot="path_through.travel_time", value="5")
@example(slot="MobilityScenario.sample_interval", value="5")
@example(slot="WaypointPath.waypoint", value="a")
@example(slot="GroupSpec.offset", value=None)
@example(slot="rssi_at.x", value="1")
@example(slot="nearest_in_window.delta", value="1")
@example(slot="density_clusters.x", value=10**400)
@example(slot="rssi_at.x", value=10**400)
@example(slot="Fingerprint.t", value=True)
@example(slot="EvalContext.now", value=True)
@example(slot="discover_group.t0", value=True)
@example(slot="TrajectoryDb.add.x", value="1")
@example(slot="TrajectoryDb.add.x", value=b"3")
@example(slot="TrajectoryDb.add.x", value=True)
@example(slot="WaypointPath.waypoint", value=10**400)
@example(slot="RadioModel.path_loss_exponent", value=True)
@example(slot="RadioModel.noise_sigma_db", value=False)
@example(slot="nearest_in_window.delta", value=True)
# A Fraction is a number; an int beyond float range is not, not even as a
# threshold, which may be infinite.
@example(slot="MobilityScenario.sample_interval", value=Fraction(1, 3))
@example(slot="GroupQueryParams.t_max", value=10**400)
@example(slot="path_through.waypoint", value=5e-324)
@example(slot="RadioModel.path_loss_exponent", value=1e308)
def test_accepts_exactly_what_errors_accepts(slot, value):
    call, accepts, error = SLOTS[slot]
    if accepts(value):
        call(value)
    else:
        with pytest.raises(error):
            call(value)


@pytest.mark.parametrize("value", [1.5, 2, Fraction(3, 2)])
def test_stored_coordinates_and_times_are_floats(value):
    db = TrajectoryDb()
    db.add("a", 0, Point(value, 0.0))
    [stored] = db.positions("a").values()
    assert type(stored.x) is float and stored.x == value
    t = Fingerprint(value, ENV).t
    assert type(t) is float and t == value


# Positions that are not (x, y) pairs. A triple was taken as its first two
# coordinates, and bytes or a dict keyed 0 and 1 as a pair; the others
# raised IndexError or TypeError, or ValueError for a str's characters.
NOT_PAIRS = [(1.0, 2.0, 3.0), (1.0,), (), [1.0, 2.0, 3.0], 5, None, "ab", b"ab", {0: 1.0, 1: 2.0}, {1.0, 2.0}]
POSITION_CALLS = {
    "TrajectoryDb.add": lambda p: TrajectoryDb().add("b", 0, p),
    "density_clusters": lambda p: density_clusters([("a", p)], 1.0, 1),
    "rssi_at": lambda p: rssi_at(ap(), p, RadioModel()),
}


@pytest.mark.parametrize("call", sorted(POSITION_CALLS))
@pytest.mark.parametrize("position", NOT_PAIRS, ids=repr)
def test_a_position_that_is_not_a_pair_is_a_value_error(call, position):
    with pytest.raises(ValueError, match=r"^position must be an \(x, y\) pair"):
        POSITION_CALLS[call](position)


@pytest.mark.parametrize("call", sorted(POSITION_CALLS))
@pytest.mark.parametrize("position", [(1.0, 2.0), [1.0, 2.0], Point(1.0, 2.0)], ids=repr)
def test_a_pair_is_a_position(call, position):
    POSITION_CALLS[call](position)
