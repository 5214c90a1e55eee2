import io
import random
import sys
import threading
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from convoylog import (
    EmptyEnvironmentError,
    EngineConfig,
    EnvironmentSnapshot,
    EvalContext,
    GroupQueryParams,
    ProximityLog,
    discover_group,
    eval_rules,
    groups,
    in_group_of,
    parse_rules,
    write_log_jsonl,
)
from helpers import (
    AP_POOL,
    DEVICE_POOL,
    oracle_members,
    put,
    random_case,
    rebuild_without,
    reference_walk,
    snapshot,
    witness_violations,
)

X = "0a:00:00:00:00:01"
Y = "0a:00:00:00:00:02"
A, B, C, D = (f"02:00:00:00:00:{i:02x}" for i in range(1, 5))


def example_log() -> ProximityLog:
    log = ProximityLog()
    put(log, A, 80, {Y: -60})
    put(log, A, 90, {X: -52})
    put(log, A, 100, {X: -50})
    put(log, B, 80, {Y: -65})
    put(log, B, 90, {X: -55})
    put(log, B, 100, {X: -53})
    put(log, C, 80, {Y: -61})
    put(log, C, 90, {X: -80})
    put(log, C, 100, {X: -54})
    return log


def example_params(**overrides) -> GroupQueryParams:
    base = dict(delta=2.0, omega=10.0, t_max=20.0, n=2)
    base.update(overrides)
    return GroupQueryParams(**base)


class TestDiscoverGroup:
    def test_three_device_walk(self):
        log = example_log()
        res = discover_group(log, A, 100.0, snapshot({X: -50}), example_params())
        assert res.members == frozenset({B})
        assert res.steps_processed == 3
        assert res.oldest_step_time == 80.0

    def test_tight_omega_empties_seed(self):
        log = example_log()
        res = discover_group(log, A, 100.0, snapshot({X: -50}), example_params(omega=2.0))
        assert res.members == frozenset()
        assert res.steps_processed == 1
        assert res.oldest_step_time == 100.0

    def test_boundary_sample_is_processed(self):
        # the user sample at exactly t0 - t_max still counts as a step
        log = example_log()
        res = discover_group(log, A, 100.0, snapshot({X: -50}), example_params(t_max=20.0))
        assert res.oldest_step_time == 100.0 - 20.0

    def test_shorter_horizon_stops_earlier(self):
        log = example_log()
        res = discover_group(log, A, 100.0, snapshot({X: -50}), example_params(t_max=15.0))
        assert res.members == frozenset({B})
        assert res.steps_processed == 2
        assert res.oldest_step_time == 90.0

    def test_lone_user(self):
        log = ProximityLog()
        put(log, A, 100, {X: -50})
        res = discover_group(log, A, 100.0, snapshot({X: -50}), example_params())
        assert res.members == frozenset()
        assert res.steps_processed == 1

    def test_empty_query_snapshot_rejected(self):
        with pytest.raises(EmptyEnvironmentError):
            discover_group(example_log(), A, 100.0, EnvironmentSnapshot(()), example_params())

    def test_min_steps_gates_members_not_count(self):
        log = example_log()
        res = discover_group(log, A, 100.0, snapshot({X: -50}), example_params(min_steps=4))
        assert res.members == frozenset()
        assert res.steps_processed == 3

    def test_user_without_track_is_seed_only(self):
        log = example_log()
        params = example_params()
        res = discover_group(log, D, 100.0, snapshot({X: -52}), params)
        assert res.steps_processed == 1
        assert res.members == frozenset()
        res = discover_group(log, D, 100.0, snapshot({X: -52}), example_params(min_steps=1))
        assert res.members == frozenset({A, B, C})

    def test_user_id_canonicalized(self):
        log = example_log()
        res = discover_group(log, "02-00-00-00-00-01", 100.0, snapshot({X: -50}), example_params())
        assert res.members == frozenset({B})

    def test_rematch_uses_nearest_sample_tie_earlier(self):
        # user steps at t=10 (seed) and t=5; candidate has samples at 3 and 7,
        # both 2 seconds from the step at 5. The earlier one wins the tie, so
        # the candidate survives or dies on the t=3 snapshot alone.
        def build(level_at_3: int, level_at_7: int) -> ProximityLog:
            log = ProximityLog()
            put(log, A, 5, {X: -50})
            put(log, A, 10, {X: -50})
            put(log, B, 3, {X: level_at_3})
            put(log, B, 7, {X: level_at_7})
            put(log, B, 10, {X: -50})
            return log

        params = example_params(delta=2.0, omega=10.0, t_max=5.0)
        survive = discover_group(build(-52, -90), A, 10.0, snapshot({X: -50}), params)
        assert survive.members == frozenset({B})
        perish = discover_group(build(-90, -52), A, 10.0, snapshot({X: -50}), params)
        assert perish.members == frozenset()

    def test_candidate_without_window_sample_dropped(self):
        log = ProximityLog()
        put(log, A, 5, {X: -50})
        put(log, A, 10, {X: -50})
        put(log, B, 10, {X: -50})  # nothing near t=5
        res = discover_group(log, A, 10.0, snapshot({X: -50}), example_params(t_max=10.0))
        assert res.members == frozenset()
        assert res.steps_processed == 2

    def test_walk_stops_when_candidates_empty(self):
        log = ProximityLog()
        for t in (2, 4, 6, 8, 10):
            put(log, A, t, {X: -50})
        put(log, B, 8, {X: -90})  # fails at the first walked step
        put(log, B, 10, {X: -50})
        res = discover_group(log, A, 10.0, snapshot({X: -50}), example_params(t_max=9.0))
        assert res.members == frozenset()
        assert res.steps_processed == 2
        assert res.oldest_step_time == 8.0

    def test_seed_window_is_past_only(self):
        # B's only sample near t0 sits in the future; the seed window must
        # not admit it
        log = ProximityLog()
        put(log, A, 10, {X: -50})
        put(log, B, 11, {X: -50})
        res = discover_group(log, A, 10.0, snapshot({X: -50}), example_params(min_steps=1))
        assert res.members == frozenset()

    def test_params_validation(self):
        with pytest.raises(ValueError):
            GroupQueryParams(delta=-1, omega=10, t_max=20, n=2)
        with pytest.raises(ValueError):
            GroupQueryParams(delta=1, omega=0, t_max=20, n=2)
        with pytest.raises(ValueError):
            GroupQueryParams(delta=1, omega=10, t_max=0, n=2)
        with pytest.raises(ValueError):
            GroupQueryParams(delta=1, omega=10, t_max=20, n=0)
        with pytest.raises(ValueError):
            GroupQueryParams(delta=1, omega=10, t_max=20, n=2, min_steps=0)
        nan = float("nan")
        # n and min_steps are counts: a float, even a NaN, or a bool is refused
        for bad in (
            dict(delta=nan),
            dict(omega=nan),
            dict(t_max=nan),
            dict(n=nan),
            dict(n=2.0),
            dict(n=True),
            dict(min_steps=1.5),
            dict(min_steps=nan),
            dict(min_steps=True),
        ):
            with pytest.raises(ValueError):
                GroupQueryParams(**{"delta": 1, "omega": 10, "t_max": 20, "n": 2, **bad})
        for t0 in (nan, float("inf"), float("-inf"), 10**400):
            with pytest.raises(ValueError):
                discover_group(example_log(), A, t0, snapshot({X: -50}), example_params())


class TestInGroupOf:
    def test_threshold_counts_the_user(self):
        log = example_log()
        e0 = snapshot({X: -50})
        assert in_group_of(log, A, 100.0, e0, example_params(n=2))
        assert not in_group_of(log, A, 100.0, e0, example_params(n=3))

    def test_group_of_one_is_trivially_true(self):
        log = ProximityLog()
        put(log, A, 100, {X: -50})
        assert in_group_of(log, A, 100.0, snapshot({X: -50}), example_params(n=1))


class TestAgainstOracle:
    def test_disjoint_windows_match_exhaustive_matching(self):
        rng = random.Random(21)
        for _ in range(150):
            log, user, t0, e0, params = random_case(rng, disjoint=True)
            res = discover_group(log, user, t0, e0, params)
            assert res.members == oracle_members(log, user, t0, e0, params)

    def test_members_witness_every_step(self):
        rng = random.Random(22)
        for _ in range(150):
            log, user, t0, e0, params = random_case(rng, disjoint=False)
            res = discover_group(log, user, t0, e0, params)
            assert witness_violations(log, user, t0, e0, params, res.members) == []

    def test_deleting_member_samples_never_promotes(self):
        rng = random.Random(23)
        checked = 0
        while checked < 60:
            log, user, t0, e0, params = random_case(rng, disjoint=False)
            before = discover_group(log, user, t0, e0, params)
            if not before.members:
                continue
            checked += 1
            victim = rng.choice(sorted(before.members))
            index = rng.randrange(len(log.track(victim).samples))
            after = discover_group(rebuild_without(log, victim, index), user, t0, e0, params)
            assert after.members <= before.members
            assert before.members - after.members <= {victim}


# Times, tolerances and lookbacks on a 0.5 s grid are exact binary fractions,
# so samples tie exactly for nearest, sit exactly at t - delta and t + delta,
# and user samples sit exactly on the horizon. A user drawn with no samples
# is absent from the log.
GRID = 0.5
_grid_times = st.lists(st.integers(0, 12), unique=True, max_size=8).map(
    lambda ks: sorted(k * GRID for k in ks)
)
# Two access points and three levels 3, 5 and 8 dB apart, so that the choice
# between two samples often decides a comparison.
_levels = st.tuples(*[st.sampled_from([None, -50, -53, -58])] * 2).map(
    lambda levels: {ap: level for ap, level in zip(AP_POOL, levels) if level is not None}
)
_WALK_RULES = parse_rules(
    "RULE a: IF IN_GROUP_OF(2, 1) THEN 'a'\n"
    "RULE b: IF IN_GROUP_OF(3, 2) AND NOT IN_GROUP_OF(4, 4) THEN 'b'\n"
    "RULE c: IF IN_GROUP_OF(2, 6) THEN 'c'"
)


@st.composite
def walk_cases(draw):
    """(log, user, t0, e0, delta, omega, t_max, min_steps) on the grid."""
    log = ProximityLog()
    devices = DEVICE_POOL[: draw(st.integers(2, 5))]
    for device in devices:
        for t in draw(_grid_times):
            put(log, device, t, draw(_levels))
    return (
        log,
        devices[0],
        draw(st.integers(0, 12)) * GRID,
        snapshot(draw(_levels.filter(bool))),
        draw(st.sampled_from([0.0, 0.5, 1.0, 1.5])),
        draw(st.sampled_from([1.0, 4.0, 6.0, 9.0])),
        draw(st.integers(1, 12)) * GRID,
        draw(st.integers(1, 3)),
    )


def grid_case(samples: dict[str, list[tuple[float, dict[str, int]]]], t0, delta, omega, t_max):
    """A walk_cases tuple for A querying at t0 with {X: -50}, min_steps 1."""
    log = ProximityLog()
    for device, track in samples.items():
        for t, levels in track:
            put(log, device, t, levels)
    return log, A, t0, snapshot({X: -50}), delta, omega, t_max, 1


# B's samples at 3 and 7 tie for the step at 5; only the earlier one matches.
TIE_CASE = grid_case(
    {A: [(5, {X: -50}), (10, {X: -50})], B: [(3, {X: -50}), (7, {X: -58}), (10, {X: -50})]},
    10.0, 2.0, 4.0, 5.0,
)
# A's sample at 5 lies exactly on the horizon.
HORIZON_CASE = grid_case(
    {A: [(5, {X: -50}), (10, {X: -50})], B: [(5, {X: -50}), (10, {X: -50})]}, 10.0, 0.0, 4.0, 5.0
)


class TestAgainstReferenceWalk:
    """The walk makes the reference walk's decisions with windows that
    overlap, where oracle_members is not exact."""

    @settings(max_examples=400, deadline=None)
    @given(case=walk_cases())
    @example(case=TIE_CASE)
    @example(case=HORIZON_CASE)
    def test_walk_matches_reference(self, case):
        log, user, t0, e0, delta, omega, t_max, _ = case
        args = (log, user, t0, e0, delta, omega, t0 - t_max)
        got, want = groups._walk(*args), reference_walk(*args)
        assert got.survivors == want.survivors
        assert got.dropped == want.dropped
        assert got.steps == want.steps
        assert (got.seeded, got.compared) == (want.seeded, want.compared)

    @settings(max_examples=200, deadline=None)
    @given(case=walk_cases())
    @example(case=TIE_CASE)
    @example(case=HORIZON_CASE)
    def test_answers_match_reference(self, case):
        log, user, t0, e0, delta, omega, t_max, min_steps = case
        params = GroupQueryParams(delta=delta, omega=omega, t_max=t_max, n=2, min_steps=min_steps)
        ctx = EvalContext(
            device=user, now=t0, current=e0, log=log,
            config=EngineConfig(delta=delta, omega=omega, min_steps=min_steps),
        )
        got = discover_group(log, user, t0, e0, params), eval_rules(_WALK_RULES, ctx)
        with patch.object(groups, "_walk", reference_walk):
            want = discover_group(log, user, t0, e0, params), eval_rules(_WALK_RULES, ctx)
        assert got == want

    def test_counts_on_a_known_walk(self):
        # Seeds B and C (D's sample lies outside the seed window); C drops at
        # t=90. At t=80, B is the only candidate left.
        log = example_log()
        put(log, D, 50, {X: -50})
        walk = groups._walk(log, A, 100.0, snapshot({X: -50}), 2.0, 10.0, 80.0)
        assert walk.survivors == [B]
        assert walk.dropped == {C: 90.0}
        assert walk.steps == [90.0, 80.0]
        assert (walk.seeded, walk.compared) == (2, 5)


def reingested(log: ProximityLog, order: list[str]) -> ProximityLog:
    """A copy of log whose devices are first seen in the given order."""
    out = ProximityLog()
    for device in order:
        for fp in log.track(device):
            out.ingest(device, fp)
    return out


class TestIngestOrder:
    """The log keeps its tracks in the order devices were first seen, and the
    walk meets them in that order; no read may show it."""

    @staticmethod
    def answers(log, user, t0, e0, delta, omega, t_max, min_steps):
        text = io.StringIO()
        write_log_jsonl(log, text)
        walk = groups._walk(log, user, t0, e0, delta, omega, t0 - t_max)
        ctx = EvalContext(
            device=user, now=t0, current=e0, log=log,
            config=EngineConfig(delta=delta, omega=omega, min_steps=min_steps),
        )
        return (
            log.devices,
            text.getvalue().encode(),
            log.measurements_in_window(t0 - delta, t0),
            log.measurements_in_window(t0 - t_max, t0, exclude=user),
            walk.survivors,
            walk.dropped,
            walk.steps,
            walk.seeded,
            walk.compared,
            eval_rules(_WALK_RULES, ctx),
        )

    @settings(max_examples=300, deadline=None)
    @given(case=walk_cases(), data=st.data())
    def test_answers_do_not_depend_on_which_device_came_first(self, case, data):
        log, *query = case
        shuffled = reingested(log, data.draw(st.permutations(log.devices)))
        assert self.answers(shuffled, *query) == self.answers(log, *query)


def test_reads_run_beside_one_writer():
    # A read takes the track table in one call, so ingesting new devices while
    # walks and window reads run neither raises nor shows a device twice.
    log = example_log()
    new = [f"02:00:01:00:{i >> 8:02x}:{i & 255:02x}" for i in range(3000)]
    random.Random(5).shuffle(new)
    errors = []
    written = threading.Event()

    def write():
        try:
            for i, device in enumerate(new):
                put(log, device, 95.0 + (i % 10), {X: -50 - i % 7})
        finally:
            written.set()

    def read():
        try:
            while not written.is_set():
                groups._walk(log, A, 100.0, snapshot({X: -50}), 2.0, 10.0, 80.0)
                devices = log.devices
                window = [device for device, _ in log.measurements_in_window(90.0, 100.0)]
                assert devices == sorted(set(devices))
                assert window == sorted(set(window))
        except Exception as exc:  # handed to the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=write)] + [threading.Thread(target=read) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(log) == 3 + len(new)
