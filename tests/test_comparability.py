import random
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from convoylog import (
    ComparabilityParams,
    EmptyTrackError,
    EnvironmentSnapshot,
    Fingerprint,
    comparable,
    tracks_similar,
)
from helpers import random_snapshot, snapshot

X = "0a:00:00:00:00:01"
Y = "0a:00:00:00:00:02"

env_strategy = st.dictionaries(
    st.sampled_from([f"0a:00:00:00:00:{i:02x}" for i in range(1, 5)]),
    st.integers(min_value=-95, max_value=-30),
    max_size=4,
).map(snapshot)


class TestComparable:
    def test_shared_ap_within_threshold(self):
        assert comparable(snapshot({X: -50}), snapshot({X: -55}), 10)

    def test_no_shared_ap(self):
        assert not comparable(snapshot({X: -50}), snapshot({Y: -50}), 20)

    def test_threshold_is_strict(self):
        assert not comparable(snapshot({X: -50}), snapshot({X: -60}), 10)
        assert comparable(snapshot({X: -50}), snapshot({X: -60}), 10.001)

    def test_one_qualifying_ap_suffices(self):
        a = snapshot({X: -50, Y: -70})
        b = snapshot({X: -90, Y: -66})
        assert comparable(a, b, 10)

    def test_empty_snapshot_never_comparable(self):
        empty = EnvironmentSnapshot(())
        assert not comparable(empty, snapshot({X: -50}), 100)
        assert not comparable(empty, empty, 100)

    def test_omega_must_be_positive(self):
        with pytest.raises(ValueError):
            comparable(snapshot({X: -50}), snapshot({X: -50}), 0)

    @given(a=env_strategy, b=env_strategy, omega=st.floats(min_value=0.5, max_value=50))
    def test_symmetric(self, a, b, omega):
        assert comparable(a, b, omega) == comparable(b, a, omega)

    @given(a=env_strategy, b=env_strategy, omega=st.floats(min_value=0.5, max_value=25))
    def test_monotone_in_omega(self, a, b, omega):
        if comparable(a, b, omega):
            assert comparable(a, b, omega * 2)

    @given(a=env_strategy)
    def test_self_comparable_iff_non_empty(self, a):
        assert comparable(a, a, 1) == (len(a) > 0)


class TestParams:
    def test_validation(self):
        ComparabilityParams(omega=1.0, delta=0.0)
        with pytest.raises(ValueError):
            ComparabilityParams(omega=0.0, delta=1.0)
        with pytest.raises(ValueError):
            ComparabilityParams(omega=1.0, delta=-0.1)
        with pytest.raises(ValueError):
            ComparabilityParams(omega=float("nan"), delta=1.0)
        with pytest.raises(ValueError):
            ComparabilityParams(omega=1.0, delta=float("nan"))


def track(*points: tuple[float, dict[str, int]]) -> list[Fingerprint]:
    return [Fingerprint(t, snapshot(levels)) for t, levels in points]


class TestTracksSimilar:
    def test_identity_mapping(self):
        t1 = track((0, {X: -50}), (10, {X: -52}))
        assert tracks_similar(t1, t1, ComparabilityParams(omega=5, delta=1))

    def test_time_gap_beyond_delta(self):
        t1 = track((0, {X: -50}))
        t2 = track((5, {X: -50}))
        assert not tracks_similar(t1, t2, ComparabilityParams(omega=5, delta=2))
        assert tracks_similar(t1, t2, ComparabilityParams(omega=5, delta=5))

    def test_order_preserving_match_across_nearby_samples(self):
        t1 = track((0, {X: -50}), (10, {Y: -60}))
        t2 = track((1, {X: -51}), (9, {Y: -61}))
        assert tracks_similar(t1, t2, ComparabilityParams(omega=5, delta=2))

    def test_crossing_assignment_rejected(self):
        # the only comparable partners would map 0 -> 10 and 10 -> 0,
        # which is not order preserving
        t1 = track((0, {X: -50}), (10, {Y: -50}))
        t2 = track((0, {Y: -50}), (10, {X: -50}))
        assert not tracks_similar(t1, t2, ComparabilityParams(omega=5, delta=12))

    def test_directional(self):
        short = track((0, {X: -50}))
        long = track((0, {X: -50}), (5, {Y: -60}))
        params = ComparabilityParams(omega=5, delta=1)
        assert tracks_similar(short, long, params)
        assert not tracks_similar(long, short, params)

    def test_one_partner_may_serve_many(self):
        t1 = track((0, {X: -50}), (1, {X: -50}))
        t2 = track((0.5, {X: -51}))
        assert tracks_similar(t1, t2, ComparabilityParams(omega=5, delta=1))

    def test_empty_reference_rejected(self):
        with pytest.raises(EmptyTrackError):
            tracks_similar([], track((0, {X: -50})), ComparabilityParams(omega=5, delta=1))

    def test_empty_partner_track_is_false(self):
        t1 = track((0, {X: -50}))
        assert not tracks_similar(t1, [], ComparabilityParams(omega=5, delta=1))

    def test_unordered_input_rejected(self):
        bad = [Fingerprint(5, snapshot({X: -50})), Fingerprint(0, snapshot({X: -50}))]
        with pytest.raises(ValueError):
            tracks_similar(bad, bad, ComparabilityParams(omega=5, delta=1))

    def test_self_similarity_random_tracks(self):
        rng = random.Random(3)
        for _ in range(50):
            t = 0.0
            samples = []
            for _ in range(rng.randint(1, 8)):
                samples.append(Fingerprint(t, random_snapshot(rng)))
                t += rng.uniform(0.5, 5.0)
            assert tracks_similar(samples, samples, ComparabilityParams(omega=1, delta=0))

    def test_long_track_matches_itself(self):
        samples = track(*((float(i), {X: -50 - i % 7}) for i in range(1200)))
        assert tracks_similar(samples, samples, ComparabilityParams(omega=1, delta=0))

    def test_monotone_in_delta_and_omega(self):
        rng = random.Random(4)
        for _ in range(150):
            ref = _random_track(rng, rng.randint(1, 5))
            other = _random_track(rng, rng.randint(0, 6))
            params = ComparabilityParams(omega=rng.uniform(2, 15), delta=rng.uniform(0.2, 3))
            if tracks_similar(ref, other, params):
                looser_d = ComparabilityParams(omega=params.omega, delta=params.delta * 2)
                looser_o = ComparabilityParams(omega=params.omega * 2, delta=params.delta)
                assert tracks_similar(ref, other, looser_d)
                assert tracks_similar(ref, other, looser_o)

    def test_matches_naive_enumeration(self):
        rng = random.Random(5)
        for _ in range(200):
            ref = _random_track(rng, rng.randint(1, 5))
            other = _random_track(rng, rng.randint(0, 5))
            params = ComparabilityParams(omega=rng.uniform(2, 15), delta=rng.uniform(0.2, 3))
            assert tracks_similar(ref, other, params) == _naive_similar(ref, other, params)


def _random_track(rng: random.Random, size: int) -> list[Fingerprint]:
    t = rng.uniform(0, 3)
    out = []
    for _ in range(size):
        out.append(Fingerprint(t, random_snapshot(rng)))
        t += rng.uniform(0.3, 3.0)
    return out


def _naive_similar(ref, other, params) -> bool:
    """Reference route: try every full assignment tuple, no pruning."""
    rows = []
    for fp in ref:
        row = [
            j
            for j, cand in enumerate(other)
            if abs(cand.t - fp.t) <= params.delta
            and comparable(fp.env, cand.env, params.omega)
        ]
        rows.append(row)
    return any(
        all(pick[i] <= pick[i + 1] for i in range(len(pick) - 1))
        for pick in product(*rows)
    )
