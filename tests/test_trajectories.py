import io
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from convoylog import (
    Convoy,
    ConvoyParams,
    ConvoylogError,
    LogFormatError,
    NonMonotoneTimestampError,
    Point,
    TrajectoryDb,
    UnknownDeviceError,
    density_clusters,
    discover_convoys,
    read_trajectories_jsonl,
    write_trajectories_jsonl,
)
from convoylog import trajectories
from helpers import (
    UNDECODABLE_LINES,
    convoy_oracle,
    dbscan_oracle,
    jsonl_ending_with,
    jsonl_text,
    neighborhood,
    reference_convoys,
    regrouping_db,
)


def db_from(rows) -> TrajectoryDb:
    db = TrajectoryDb()
    for obj, t, x, y in rows:
        db.add(obj, t, Point(x, y))
    return db


class TestTypes:
    def test_point_distance(self):
        assert Point(0, 0).distance_to(Point(3, 4)) == 5.0

    def test_params_validation(self):
        ConvoyParams(e=1.0, m=1, k=1)
        with pytest.raises(ValueError):
            ConvoyParams(e=0.0, m=2, k=1)
        with pytest.raises(ValueError):
            ConvoyParams(e=float("nan"), m=2, k=1)
        with pytest.raises(ValueError, match="e must be a number"):
            ConvoyParams(e=True, m=2, k=1)
        with pytest.raises(ValueError):
            ConvoyParams(e=1.0, m=0, k=1)
        with pytest.raises(ValueError):
            ConvoyParams(e=1.0, m=2, k=0)
        nan = float("nan")
        for m, k in ((nan, 1), (2, nan), (2.0, 1), (2, 1.5), (True, 1), (2, True)):
            with pytest.raises(ValueError):
                ConvoyParams(e=1.0, m=m, k=k)

    def test_convoy_lifetime(self):
        c = Convoy(frozenset({"a", "b"}), 3, 7)
        assert c.lifetime == 5
        with pytest.raises(ValueError):
            Convoy(frozenset({"a"}), 7, 3)


class TestDb:
    def test_duplicate_grid_sample_rejected(self):
        db = TrajectoryDb()
        db.add("o1", 0, Point(0, 0))
        with pytest.raises(NonMonotoneTimestampError):
            db.add("o1", 0, Point(1, 1))

    def test_grid_times_must_be_integers(self):
        db = TrajectoryDb()
        with pytest.raises(ValueError):
            db.add("o1", 0.5, Point(0, 0))
        with pytest.raises(ValueError):
            db.add("o1", True, Point(0, 0))

    @pytest.mark.parametrize("t, point", [(0, Point(float("nan"), 0)), (0.5, Point(0, 0))])
    def test_rejected_sample_registers_no_object(self, t, point):
        db = TrajectoryDb()
        with pytest.raises(ValueError):
            db.add("a", t, point)
        assert db.objects == []
        assert len(db) == 0
        assert "a" not in db

    @pytest.mark.parametrize("obj", [5, b"b", ("b",)], ids=["int", "bytes", "tuple"])
    def test_non_str_object_id_rejected_without_trace(self, obj):
        db = TrajectoryDb()
        db.add("a", 0, Point(0, 0))
        for t in (0, 1):
            with pytest.raises(ValueError, match="object id must be a str"):
                db.add(obj, t, Point(0, 0))
        assert db.objects == ["a"]
        assert len(db) == 1
        assert obj not in db
        assert db.positions_at(0) == [("a", Point(0, 0))]
        assert db.timestamps() == [0]

    def test_positions_unknown_object(self):
        with pytest.raises(UnknownDeviceError):
            TrajectoryDb().positions("ghost")

    def test_positions_at_sorted_and_sparse(self):
        db = db_from([("b", 0, 1, 1), ("a", 0, 0, 0), ("a", 2, 5, 5)])
        assert db.positions_at(0) == [("a", Point(0, 0)), ("b", Point(1, 1))]
        assert db.positions_at(1) == []
        assert db.positions_at(2) == [("a", Point(5, 5))]

    def test_time_range(self):
        assert TrajectoryDb().time_range() is None
        db = db_from([("a", 3, 0, 0), ("b", 7, 0, 0)])
        assert db.time_range() == (3, 7)


# Ids and timestamps are drawn from small pools so that sequences revisit
# them: duplicates, out-of-order timestamps and ids sorting anywhere.
MODEL_IDS = ("b", "a", "d", "c", "", 5, b"a", None)
MODEL_TIMES = (st.integers(-3, 3), st.sampled_from([0.5, True, None]))
MODEL_COORDS = (st.floats(-10, 10), st.integers(-10, 10), st.sampled_from([float("nan"), float("inf"), 10**400]))


def model_add(model: dict, obj, t, x, y) -> bool:
    """Whether TrajectoryDb.add must accept the sample; records it if so."""
    if isinstance(t, bool) or not isinstance(t, int) or not isinstance(obj, str) or not obj:
        return False
    try:
        x, y = float(x), float(y)
    except OverflowError:
        return False
    if not (math.isfinite(x) and math.isfinite(y)) or t in model.get(obj, {}):
        return False
    model.setdefault(obj, {})[t] = Point(x, y)
    return True


class TestDbModel:
    """TrajectoryDb against a dict of per-object dicts."""

    @settings(max_examples=300)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(MODEL_IDS),
                st.one_of(*MODEL_TIMES),
                st.one_of(*MODEL_COORDS),
                st.one_of(*MODEL_COORDS),
            ),
            max_size=40,
        )
    )
    def test_matches_dict_model(self, ops):
        db = TrajectoryDb()
        model: dict[str, dict[int, Point]] = {}
        for obj, t, x, y in ops:
            if model_add(model, obj, t, x, y):
                db.add(obj, t, Point(x, y))
            else:
                with pytest.raises((ValueError, ConvoylogError)):
                    db.add(obj, t, Point(x, y))

        assert db.objects == sorted(model)
        assert len(db) == len(model)
        for obj in MODEL_IDS:
            assert (obj in db) == (obj in model)
            if obj in model:
                got = db.positions(obj)
                assert list(got) == sorted(model[obj])
                assert got == model[obj]
            else:
                with pytest.raises(UnknownDeviceError):
                    db.positions(obj)
        times = sorted({t for samples in model.values() for t in samples})
        for t in range(-4, 5):
            want = [(obj, model[obj][t]) for obj in sorted(model) if t in model[obj]]
            assert db.positions_at(t) == want
        assert db.timestamps() == times
        assert db.time_range() == ((times[0], times[-1]) if times else None)

        first = io.StringIO()
        write_trajectories_jsonl(db, first)
        again = io.StringIO()
        write_trajectories_jsonl(read_trajectories_jsonl(io.StringIO(first.getvalue())), again)
        assert first.getvalue() == again.getvalue()
        assert first.getvalue().count("\n") == sum(map(len, model.values()))


class TestNeighborhood:
    """The brute-force neighbour search dbscan_oracle is built on."""

    def test_basic_distances(self):
        points = [("a", Point(0, 0)), ("b", Point(1, 0)), ("c", Point(3, 0))]
        assert neighborhood(Point(0, 0), points, 1.0) == ["a", "b"]

    def test_empty(self):
        assert neighborhood(Point(0, 0), [], 5.0) == []

    def test_boundary_inclusive(self):
        assert neighborhood(Point(0, 0), [("a", Point(0, 2.0))], 2.0) == ["a"]

    def test_nan_e_rejected(self):
        with pytest.raises(ValueError):
            neighborhood(Point(0, 0), [], float("nan"))


E_VALUES = (1e-300, 1e-12, 0.3, 1.0, 3.0, 1e12, 1e300)
OFFSETS = (0.0, 1e-20, -1e-20, 1e-12, -1e-12)


@st.composite
def boundary_layouts(draw):
    """Points whose coordinates sit on, or a rounding step off, multiples of e.

    Such points put many pairs at distance exactly e, where a neighbor
    search that reasons about cells or bands rather than the distance test
    itself goes wrong; some coordinates are arbitrary floats up to 1e308.
    """
    e = draw(st.one_of(st.sampled_from(E_VALUES), st.floats(min_value=1e-300, max_value=1e300)))
    coordinate = st.one_of(
        st.tuples(st.integers(-4, 4), st.sampled_from(OFFSETS)).map(lambda ko: ko[0] * e + ko[1]),
        st.floats(min_value=-1e308, max_value=1e308),
    )
    n = draw(st.integers(0, 12))
    points = [(f"o{i:02d}", Point(draw(coordinate), draw(coordinate))) for i in range(n)]
    return points, e, draw(st.integers(1, 4))


class TestDensityClusters:
    def test_chain_becomes_one_cluster(self):
        points = [("a", Point(0, 0)), ("b", Point(1, 0)), ("c", Point(2, 0))]
        assert density_clusters(points, e=1.5, m=2) == [frozenset({"a", "b", "c"})]

    def test_distant_pairs_stay_separate(self):
        points = [
            ("a", Point(0, 0)),
            ("b", Point(1, 0)),
            ("c", Point(100, 0)),
            ("d", Point(101, 0)),
        ]
        assert density_clusters(points, e=1.5, m=2) == [
            frozenset({"a", "b"}),
            frozenset({"c", "d"}),
        ]

    def test_noise_omitted(self):
        points = [("a", Point(0, 0)), ("b", Point(1, 0)), ("z", Point(50, 50))]
        assert density_clusters(points, e=1.5, m=2) == [frozenset({"a", "b"})]

    def test_contested_border_goes_to_smaller_seed(self):
        def layout(left_ids, right_ids):
            (l1, l2, l3, l4), (r1, r2, r3, r4) = left_ids, right_ids
            return [
                (l1, Point(0, 0)),
                (l2, Point(1, 0)),
                (l3, Point(2, 0)),
                (l4, Point(1, 1)),
                (r1, Point(8, 0)),
                (r2, Point(9, 0)),
                (r3, Point(10, 0)),
                (r4, Point(9, 1)),
                ("g", Point(5, 0)),
            ]

        # "g" is 3 m from both cluster edges and not a core itself (m=4)
        got = density_clusters(layout("abch", "defi"), e=3.0, m=4)
        assert got == [frozenset("abchg"), frozenset("defi")]
        got = density_clusters(layout("wxyz", "defi"), e=3.0, m=4)
        assert got == [frozenset("defi" + "g"), frozenset("wxyz")]

    def test_permutation_invariant(self):
        rng = random.Random(31)
        for _ in range(50):
            points = [
                (f"o{i:02d}", Point(rng.uniform(0, 30), rng.uniform(0, 30)))
                for i in range(rng.randint(0, 15))
            ]
            e = rng.uniform(1, 8)
            m = rng.randint(1, 4)
            base = density_clusters(points, e, m)
            shuffled = points[:]
            rng.shuffle(shuffled)
            assert density_clusters(shuffled, e, m) == base

    def test_matches_reachability_closure(self):
        rng = random.Random(32)
        for _ in range(150):
            points = [
                (f"o{i:02d}", Point(rng.uniform(0, 40), rng.uniform(0, 40)))
                for i in range(rng.randint(0, 20))
            ]
            e = rng.uniform(2, 12)
            m = rng.randint(1, 5)
            got = set(density_clusters(points, e, m))
            assert got == dbscan_oracle(points, e, m)

    @settings(max_examples=300)
    @given(case=boundary_layouts())
    # (1.0, 0) and (-1e-20, 0) are exactly e apart after rounding, but fall
    # in e-sized grid cells 1 and -1
    @example(case=([("a", Point(1.0, 0.0)), ("b", Point(-1e-20, 0.0))], 1.0, 2))
    @example(case=([("a", Point(0.0, 1.0)), ("b", Point(0.0, -1e-20))], 1.0, 2))
    def test_matches_reachability_closure_at_boundaries(self, case):
        points, e, m = case
        got = density_clusters(points, e, m)
        assert len(got) == len(set(got))
        assert set(got) == dbscan_oracle(points, e, m)

    def test_rounded_boundary_pair_is_one_cluster(self):
        points = [("a", Point(1.0, 0.0)), ("b", Point(-1e-20, 0.0))]
        assert density_clusters(points, e=1.0, m=2) == [frozenset({"a", "b"})]

    def test_duplicate_id_rejected_wherever_it_stands(self):
        points = [("b", Point(0.0, 0.0)), ("a", Point(1.0, 0.0)), ("c", Point(2.0, 0.0)), ("b", Point(3.0, 0.0))]
        with pytest.raises(ValueError, match="duplicate object id 'b'"):
            density_clusters(points, 1.0, 1)

    def test_m_is_a_count(self):
        # a NaN m fails every `len(near) < m` test, so each object would seed
        # a cluster of its own
        points = [("a", Point(0, 0)), ("b", Point(0.5, 0)), ("c", Point(9, 9))]
        for m in (float("nan"), 1.5, 2.0, True, 0):
            with pytest.raises(ValueError, match="m must be"):
                density_clusters(points, 1.0, m)
        with pytest.raises(ValueError, match="e must be a number"):
            density_clusters(points, True, 2)
        assert density_clusters(points, 1.0, 2) == [frozenset({"a", "b"})]

    def test_nan_e_and_non_finite_coordinates_rejected(self):
        with pytest.raises(ValueError):
            density_clusters([("a", Point(0.0, 0.0))], float("nan"), 1)
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError):
                density_clusters([("a", Point(bad, 0.0))], 1.0, 1)
            with pytest.raises(ValueError):
                density_clusters([("a", Point(0.0, bad))], 1.0, 1)


class TestDiscoverConvoys:
    def test_identical_paths(self):
        rows = []
        for t in range(5):
            rows.append(("a", t, float(t), 0.0))
            rows.append(("b", t, float(t), 0.0))
        got = discover_convoys(db_from(rows), ConvoyParams(e=10, m=2, k=3))
        assert got == [Convoy(frozenset({"a", "b"}), 0, 4)]

    def test_teleport_breaks_persistence(self):
        rows = []
        for t in range(5):
            rows.append(("a", t, float(t), 0.0))
            rows.append(("b", t, float(t), 1000.0 if t == 3 else 0.0))
        db = db_from(rows)
        assert discover_convoys(db, ConvoyParams(e=10, m=2, k=4)) == []
        got = discover_convoys(db, ConvoyParams(e=10, m=2, k=3))
        assert got == [Convoy(frozenset({"a", "b"}), 0, 2)]

    def test_missing_sample_breaks_run(self):
        rows = []
        for t in range(5):
            rows.append(("a", t, 0.0, 0.0))
            if t != 2:
                rows.append(("b", t, 1.0, 0.0))
        got = discover_convoys(db_from(rows), ConvoyParams(e=5, m=2, k=2))
        assert got == [
            Convoy(frozenset({"a", "b"}), 0, 1),
            Convoy(frozenset({"a", "b"}), 3, 4),
        ]

    def test_grid_gap_breaks_run(self):
        # nobody is sampled at t=2; the empty grid step still elapses
        rows = []
        for t in (0, 1, 3, 4):
            rows.append(("a", t, 0.0, 0.0))
            rows.append(("b", t, 1.0, 0.0))
        got = discover_convoys(db_from(rows), ConvoyParams(e=5, m=2, k=3))
        assert got == []

    def test_wide_gap_visits_only_sampled_timestamps(self, monkeypatch):
        far = 10**15
        sampled = (0, 1, 2, far, far + 1)
        db = db_from([(obj, t, 0.0, 0.0) for obj in "ab" for t in sampled])
        assert db.timestamps() == list(sampled)

        class SampledOnly(dict):
            """The store's per-timestamp columns, failing on any other key."""

            def _check(self, t):
                assert t in sampled, f"visited empty timestamp {t}"

            def __getitem__(self, t):
                self._check(t)
                return dict.__getitem__(self, t)

            def get(self, t, default=None):
                self._check(t)
                return dict.get(self, t, default)

            def __contains__(self, t):
                self._check(t)
                return dict.__contains__(self, t)

        db._steps = SampledOnly(db._steps)
        swept = []
        near = trajectories._near

        def counted(xs, ys, e):
            swept.append(list(xs))
            assert len(swept) <= len(sampled), "swept more steps than were sampled"
            return near(xs, ys, e)

        monkeypatch.setattr(trajectories, "_near", counted)
        got = discover_convoys(db, ConvoyParams(e=5, m=2, k=2))
        assert got == [
            Convoy(frozenset({"a", "b"}), 0, 2),
            Convoy(frozenset({"a", "b"}), far, far + 1),
        ]
        assert swept == [[0.0, 0.0]] * len(sampled)

    def test_regrouping_yields_two_convoys(self):
        got = discover_convoys(
            db_from(
                [("a", t, 0.0, 0.0) for t in range(6)]
                + [("b", t, (500.0 if t == 2 else 1.0), 0.0) for t in range(6)]
            ),
            ConvoyParams(e=5, m=2, k=2),
        )
        assert got == [
            Convoy(frozenset({"a", "b"}), 0, 1),
            Convoy(frozenset({"a", "b"}), 3, 5),
        ]

    def test_empty_db(self):
        assert discover_convoys(TrajectoryDb(), ConvoyParams(e=5, m=2, k=2)) == []

    def test_planted_convoy_among_walkers(self):
        rng = random.Random(33)
        db = TrajectoryDb()
        for t in range(10):
            base = Point(10.0 * t, 0.0)
            for i, name in enumerate(["p1", "p2", "p3"]):
                db.add(name, t, Point(base.x + rng.uniform(-1, 1), base.y + 2.0 * i))
        for w in range(7):
            x = 500.0 + 200.0 * w
            y = 500.0
            for t in range(10):
                x += rng.uniform(-2, 2)
                y += rng.uniform(-2, 2)
                db.add(f"w{w}", t, Point(x, y))
        got = discover_convoys(db, ConvoyParams(e=6, m=2, k=5))
        assert got == [Convoy(frozenset({"p1", "p2", "p3"}), 0, 9)]

    def test_matches_subset_enumeration(self):
        rng = random.Random(34)
        for _ in range(100):
            db = TrajectoryDb()
            n_obj = rng.randint(2, 5)
            for i in range(n_obj):
                for t in range(rng.randint(3, 7)):
                    if rng.random() < 0.15:
                        continue
                    db.add(f"o{i}", t, Point(rng.uniform(0, 20), rng.uniform(0, 20)))
            params = ConvoyParams(e=rng.uniform(3, 10), m=2, k=rng.randint(1, 3))
            got = {(c.members, c.t_start, c.t_end) for c in discover_convoys(db, params)}
            assert got == convoy_oracle(db, params.e, params.m, params.k)

    def test_matches_reference_miner_on_regrouping_crowds(self):
        rng = random.Random(36)
        found = 0
        for _ in range(40):
            db, e = regrouping_db(rng)
            params = ConvoyParams(e=e, m=rng.randint(2, 4), k=rng.randint(1, 4))
            got = discover_convoys(db, params)
            assert got == reference_convoys(db, params)
            found += len(got)
        assert found > 200

    def test_reported_convoys_satisfy_invariants(self):
        rng = random.Random(35)
        for _ in range(50):
            db = TrajectoryDb()
            for i in range(rng.randint(2, 6)):
                for t in range(8):
                    if rng.random() < 0.1:
                        continue
                    db.add(f"o{i}", t, Point(rng.uniform(0, 25), rng.uniform(0, 25)))
            params = ConvoyParams(e=rng.uniform(3, 9), m=2, k=rng.randint(1, 4))
            convoys = discover_convoys(db, params)
            for c in convoys:
                assert len(c.members) >= params.m
                assert c.lifetime >= params.k
                for t in range(c.t_start, c.t_end + 1):
                    clusters = density_clusters(db.positions_at(t), params.e, params.m)
                    assert any(c.members <= cl for cl in clusters)
                for other in convoys:
                    if other is c:
                        continue
                    dominated = (
                        c.members <= other.members
                        and other.t_start <= c.t_start
                        and c.t_end <= other.t_end
                    )
                    assert not dominated


def frames(*steps):
    """Rows from (t, {object: (x, y)}) steps."""
    return [(obj, t, float(x), float(y)) for t, at in steps for obj, (x, y) in at.items()]


# Steps whose clustering inputs repeat the previous step's, or nearly.
PAIR = {"a": (0, 0), "b": (1, 0)}
LINE = {"a": (0, 0), "b": (1, 0), "c": (2, 0)}
# a and c trade x: the same graph, but b's neighbour list comes out in
# another order
LINE_SWAPPED = {"a": (2, 0), "b": (1, 0), "c": (0, 0)}
# b leaves and bx takes its place and its index: the same neighbour lists
# over other ids
PAIR_REPLACED = {"a": (0, 0), "bx": (1, 0)}
# With e = 1 and m = 4, c is an edge object of both a's cluster and b's:
# the earlier cluster {a, c, d, g} takes it, so b's cluster {b, f1, f2}
# holds fewer than m members, and no convoy may be made of it.
CONTESTED = {"a": (0, 0), "b": (2, 0), "c": (1, 0), "d": (-1, 0), "g": (0, 1), "f1": (3, 0), "f2": (2, 1)}
STATIC = frames(*((t, {"a": (0, 0), "b": (1, 0), "c": (9, 9), "d": (9, 10), "e": (30, 30)}) for t in range(10)))
REUSE_CASES = {
    "static": (STATIC, 1),
    "far object appears": (frames((0, PAIR), (1, PAIR), (2, {**PAIR, "z": (1000, 1000)}), (3, PAIR)), 3),
    "x order swapped": (frames((0, LINE), (1, LINE), (2, LINE_SWAPPED), (3, LINE_SWAPPED)), 2),
    "object replaced": (frames((0, PAIR), (1, PAIR), (2, PAIR_REPLACED), (3, PAIR_REPLACED)), 2),
    "time gap": (frames((0, PAIR), (1, PAIR), (5, PAIR), (6, PAIR), (7, PAIR)), 1),
}


@st.composite
def repeating_rows(draw):
    """Rows whose steps often repeat the previous step's neighbour graph.

    Each step first makes one move: hold still; move every object by the
    same integer offset; let one far object come or go; swap two objects'
    positions; replace one object by a new id at its place, which sorts
    right after it; skip a time gap; or move one object anywhere. Integer
    coordinates put many pairs at distance exactly e.
    """
    pos = {f"o{i}": (draw(st.integers(0, 6)), draw(st.integers(0, 3))) for i in range(draw(st.integers(2, 7)))}
    rows, t = [], 0
    for _ in range(draw(st.integers(1, 12))):
        move = draw(st.sampled_from(["hold", "shift", "far", "swap", "replace", "gap", "jump"]))
        if move == "shift":
            dx, dy = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
            pos = {obj: (x + dx, y + dy) for obj, (x, y) in pos.items()}
        elif move == "far":
            if pos.pop("zz", None) is None:
                pos["zz"] = (1000, 1000)
        elif move == "swap":
            a, b = draw(st.sampled_from(sorted(pos))), draw(st.sampled_from(sorted(pos)))
            pos[a], pos[b] = pos[b], pos[a]
        elif move == "replace":
            obj = draw(st.sampled_from(sorted(pos)))
            pos[obj + "x"] = pos.pop(obj)
        elif move == "gap":
            t += draw(st.integers(1, 3))
        elif move == "jump":
            pos[draw(st.sampled_from(sorted(pos)))] = (draw(st.integers(0, 6)), draw(st.integers(0, 3)))
        rows += [(obj, t, float(x), float(y)) for obj, (x, y) in pos.items()]
        t += 1
    return rows


class TestStepReuse:
    """discover_convoys grows a timestamp's clusters only when its ids or
    neighbour lists differ from the previous timestamp's, and chaining
    passes over a step that repeats the previous one's clusters."""

    @settings(max_examples=300, deadline=None)
    @given(
        rows=repeating_rows(),
        e=st.sampled_from([1.0, 1.5, 2.5]),
        m=st.integers(1, 4),
        k=st.integers(1, 4),
    )
    @example(rows=frames((0, CONTESTED), (1, CONTESTED)), e=1.0, m=4, k=2)
    @example(rows=frames((0, CONTESTED), (1, CONTESTED)), e=1.0, m=4, k=1)
    @example(rows=REUSE_CASES["far object appears"][0], e=1.5, m=2, k=2)
    @example(rows=REUSE_CASES["far object appears"][0], e=1.5, m=1, k=2)
    @example(rows=REUSE_CASES["x order swapped"][0], e=1.5, m=2, k=2)
    @example(rows=REUSE_CASES["x order swapped"][0], e=1.5, m=3, k=1)
    @example(rows=REUSE_CASES["object replaced"][0], e=1.5, m=2, k=2)
    @example(rows=REUSE_CASES["time gap"][0], e=1.5, m=2, k=2)
    def test_matches_reference_miners(self, rows, e, m, k):
        db = db_from(rows)
        params = ConvoyParams(e=e, m=m, k=k)
        got = discover_convoys(db, params)
        assert got == reference_convoys(db, params)
        if len(db) <= 7:
            assert {(c.members, c.t_start, c.t_end) for c in got} == convoy_oracle(db, e, m, k)

    @pytest.mark.parametrize("case", REUSE_CASES.values(), ids=REUSE_CASES.keys())
    def test_counts_the_steps_grown(self, monkeypatch, case):
        rows, want = case
        grown = []
        grow = trajectories._grow

        def counted(ids, near, m):
            grown.append(list(ids))
            return grow(ids, near, m)

        monkeypatch.setattr(trajectories, "_grow", counted)
        db = db_from(rows)
        params = ConvoyParams(e=1.5, m=2, k=2)
        assert discover_convoys(db, params) == reference_convoys(db, params)
        assert len(grown) == want


class TestJsonl:
    def test_round_trip_bytes(self):
        db = db_from([("b", 1, 2.5, -4.0), ("a", 0, 0.0, 0.0), ("a", 3, 1.0, 1.0)])
        first = io.StringIO()
        write_trajectories_jsonl(db, first)
        again = io.StringIO()
        write_trajectories_jsonl(read_trajectories_jsonl(io.StringIO(first.getvalue())), again)
        assert first.getvalue() == again.getvalue()

    def test_malformed_line_number(self):
        text = '{"object": "a", "t": 0, "x": 1.0, "y": 2.0}\n{"object": "a", "t": 0}\n'
        with pytest.raises(LogFormatError) as err:
            read_trajectories_jsonl(io.StringIO(text))
        assert "line 2" in str(err.value)

    def test_duplicate_sample_line_number(self):
        text = (
            '{"object": "a", "t": 0, "x": 1.0, "y": 2.0}\n'
            '{"object": "a", "t": 0, "x": 3.0, "y": 4.0}\n'
        )
        with pytest.raises(LogFormatError) as err:
            read_trajectories_jsonl(io.StringIO(text))
        assert "line 2" in str(err.value)

    @pytest.mark.parametrize("digits", [400, 5000])
    def test_oversized_coordinate_reports_line_number(self, digits):
        text = (
            '{"object": "a", "t": 0, "x": 1.0, "y": 2.0}\n'
            f'{{"object": "a", "t": 1, "x": 1{"0" * digits}, "y": 2.0}}\n'
        )
        with pytest.raises(LogFormatError) as err:
            read_trajectories_jsonl(io.StringIO(text))
        assert err.value.line == 2

    def test_fractional_grid_time_rejected(self):
        with pytest.raises(LogFormatError):
            read_trajectories_jsonl(io.StringIO('{"object": "a", "t": 0.5, "x": 1, "y": 2}\n'))

    @pytest.mark.parametrize("bad", UNDECODABLE_LINES.values(), ids=UNDECODABLE_LINES.keys())
    def test_undecodable_line_reports_line_number(self, tmp_path, bad):
        good = [f'{{"object": "a", "t": {t}, "x": 1.0, "y": 2.0}}' for t in range(300)]
        with pytest.raises(LogFormatError) as err:
            read_trajectories_jsonl(jsonl_ending_with(tmp_path, good, bad))
        assert err.value.line == 301

    @given(jsonl_text(("object", "t", "x", "y")))
    def test_arbitrary_input_raises_only_log_format_errors(self, text):
        try:
            read_trajectories_jsonl(io.StringIO(text))
        except LogFormatError:
            pass
