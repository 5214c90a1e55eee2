import random

import pytest

from convoylog import (
    EmptyEnvironmentError,
    EnvironmentSnapshot,
    GroupQueryParams,
    ProximityLog,
    discover_group,
    in_group_of,
)
from helpers import (
    oracle_members,
    put,
    random_case,
    rebuild_without,
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
        for bad in (dict(delta=nan), dict(omega=nan), dict(t_max=nan)):
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
