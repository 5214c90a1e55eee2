import gc
import io
import json
import random
import re
import sys
import threading
import types

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from convoylog import (
    ApObservation,
    DuplicateBssidError,
    EnvironmentSnapshot,
    Fingerprint,
    LogFormatError,
    NonMonotoneTimestampError,
    ProximityLog,
    ProximityTrack,
    UnknownDeviceError,
    canonical_id,
    looks_like_hw_addr,
    read_log_jsonl,
    write_log_jsonl,
)
from convoylog.proximity import _READINGS, _observation, fingerprint_from_json
from convoylog.simulation import corridor_scenario, simulate
from helpers import (
    UNDECODABLE_LINES,
    jsonl_ending_with,
    jsonl_text,
    previous_before,
    put,
    reference_fingerprint,
    reference_read_log,
    snapshot,
)

RECORD_KEYS = ("device", "t", "aps", "bssid", "rssi", "ssid")
A, B = "02:00:00:00:00:01", "02:00:00:00:00:02"
X, Y = "0a:00:00:00:00:01", "0a:00:00:00:00:02"

CANONICAL = r"[0-9a-f]{2}(?::[0-9a-f]{2}){5}"
NEAR_CANONICAL = r"\s?[0-9a-fA-F\u0661]{2}(?:[:.-]?[0-9a-fA-F]{2}){4,6}[:.-]?\s?"


def full_normalization(value):
    """canonical_id without its fast path: strip, lowercase, and rejoin the
    hex digits of anything that reads as a hardware address."""
    v = value.strip().lower()
    if not v:
        raise ValueError("identifier must be non-empty")
    digits = v.translate(str.maketrans("", "", ":-."))
    if re.match(r"^[0-9a-f]{12}$", digits):
        return ":".join(digits[i : i + 2] for i in range(0, 12, 2))
    return v


class TestCanonicalId:
    def test_hex_pairs_are_normalized(self):
        assert canonical_id("AA-BB-CC-00-11-22") == "aa:bb:cc:00:11:22"
        assert canonical_id("aabbcc001122") == "aa:bb:cc:00:11:22"
        assert canonical_id("AA:BB:cc:00:11:22") == "aa:bb:cc:00:11:22"

    def test_non_address_ids_keep_their_shape(self):
        assert canonical_id("Phone-7") == "phone-7"
        assert canonical_id("  kiosk ") == "kiosk"

    def test_empty_id_rejected(self):
        with pytest.raises(ValueError):
            canonical_id("   ")

    def test_idempotent(self):
        for raw in ["AA-BB-CC-00-11-22", "Phone-7", "0a:00:00:00:00:01"]:
            once = canonical_id(raw)
            assert canonical_id(once) == once

    @given(st.one_of(st.text(), st.from_regex(NEAR_CANONICAL, fullmatch=True)))
    @example("AA:BB:CC:DD:EE:FF")
    @example(" aa:bb:cc:dd:ee:ff ")
    @example("aa:bb:cc:dd:ee:ff\n")
    @example("aa-bb-cc-dd-ee-ff")
    @example("aa.bb.cc.dd.ee.ff")
    @example("aa:bb:cc:dd:ee")
    @example("aa:bb:cc:dd:ee:ff:00")
    @example("\u0661\u0661:bb:cc:dd:ee:ff")  # Arabic-Indic digit one
    @example("aabbccddeeff\n.")
    def test_fast_path_matches_full_normalization(self, raw):
        try:
            expected = full_normalization(raw)
        except ValueError:
            with pytest.raises(ValueError):
                canonical_id(raw)
            return
        got = canonical_id(raw)
        assert got == expected
        assert canonical_id(got) == got
        if re.fullmatch(CANONICAL, raw):
            assert got is raw

    @pytest.mark.parametrize("raw", [5, 1.5, None, ["a"], b"", b"  ", b"aa:bb:cc:dd:ee:ff", b"AA-BB"])
    def test_non_str_ids_fail_as_the_full_normalization_does(self, raw):
        with pytest.raises(Exception) as expected:
            full_normalization(raw)
        with pytest.raises(expected.type):
            canonical_id(raw)

    def test_looks_like_hw_addr(self):
        assert looks_like_hw_addr("aa:bb:cc:00:11:22")
        assert looks_like_hw_addr("AABBCC001122")
        assert not looks_like_hw_addr("cafe-wifi")
        assert not looks_like_hw_addr("aa:bb:cc:00:11")


class TestSnapshots:
    def test_observation_requires_integer_rssi(self):
        with pytest.raises(ValueError):
            ApObservation("aa:bb:cc:00:11:22", -60.5)

    @pytest.mark.parametrize("ssid", [None, 5, ["lobby"]])
    def test_observation_requires_str_ssid(self, ssid):
        # A non-str ssid would be written as a field the reader rejects.
        with pytest.raises(ValueError, match="ssid must be a string"):
            ApObservation("aa:bb:cc:00:11:22", -60, ssid)

    def test_duplicate_bssid_rejected(self):
        obs = (
            ApObservation("aa:bb:cc:00:11:22", -60),
            ApObservation("AA-BB-CC-00-11-22", -70),
        )
        with pytest.raises(DuplicateBssidError):
            EnvironmentSnapshot(obs)

    def test_rssi_lookup_uses_canonical_form(self):
        env = snapshot({"aa:bb:cc:00:11:22": -60})
        assert env.rssi("AA-BB-CC-00-11-22") == -60
        assert env.rssi("aa:bb:cc:00:11:33") is None

    def test_levels_map_is_derived(self):
        a = snapshot({"aa:bb:cc:00:11:22": -60, "aa:bb:cc:00:11:33": -70})
        b = snapshot({"aa:bb:cc:00:11:22": -60, "aa:bb:cc:00:11:33": -70})
        assert a.bssids == {"aa:bb:cc:00:11:22", "aa:bb:cc:00:11:33"}
        assert a == b and hash(a) == hash(b)
        assert repr(a) == f"EnvironmentSnapshot(observations={a.observations!r})"

    def test_empty_snapshot_is_valid(self):
        env = EnvironmentSnapshot(())
        assert len(env) == 0
        assert env.bssids == frozenset()

    def test_fingerprint_requires_finite_time(self):
        env = snapshot({"aa:bb:cc:00:11:22": -60})
        with pytest.raises(ValueError):
            Fingerprint(float("nan"), env)
        with pytest.raises(ValueError):
            Fingerprint(float("inf"), env)
        with pytest.raises(ValueError):
            Fingerprint(10**400, env)


class TestTrack:
    def test_append_enforces_strictly_increasing_time(self):
        track = ProximityTrack("02:00:00:00:00:01")
        track.append(Fingerprint(1.0, snapshot({"0a:00:00:00:00:01": -50})))
        with pytest.raises(NonMonotoneTimestampError):
            track.append(Fingerprint(1.0, snapshot({"0a:00:00:00:00:01": -51})))
        with pytest.raises(NonMonotoneTimestampError):
            track.append(Fingerprint(0.5, snapshot({"0a:00:00:00:00:01": -51})))

    def test_last_and_len(self):
        track = ProximityTrack("02:00:00:00:00:01")
        assert track.last() is None
        track.append(Fingerprint(1.0, snapshot({"0a:00:00:00:00:01": -50})))
        track.append(Fingerprint(2.0, snapshot({"0a:00:00:00:00:01": -55})))
        assert track.last().t == 2.0
        assert len(track) == 2

    def test_nearest_in_window_tie_prefers_earlier(self):
        track = ProximityTrack("02:00:00:00:00:01")
        track.append(Fingerprint(8.0, snapshot({"0a:00:00:00:00:01": -50})))
        track.append(Fingerprint(12.0, snapshot({"0a:00:00:00:00:01": -60})))
        hit = track.nearest_in_window(10.0, 5.0)
        assert hit.t == 8.0

    def test_nearest_in_window_none_outside(self):
        track = ProximityTrack("02:00:00:00:00:01")
        track.append(Fingerprint(8.0, snapshot({"0a:00:00:00:00:01": -50})))
        assert track.nearest_in_window(20.0, 5.0) is None
        assert track.nearest_in_window(20.0, 12.0).t == 8.0

    @pytest.mark.parametrize("delta", [-1.0, float("nan")])
    def test_nearest_in_window_rejects_bad_delta(self, delta):
        track = ProximityTrack("02:00:00:00:00:01")
        track.append(Fingerprint(1.0, snapshot({"0a:00:00:00:00:01": -50})))
        with pytest.raises(ValueError):
            track.nearest_in_window(1.0, delta)

    def test_previous_before_is_strict(self):
        track = ProximityTrack("02:00:00:00:00:01")
        track.append(Fingerprint(5.0, snapshot({"0a:00:00:00:00:01": -50})))
        track.append(Fingerprint(9.0, snapshot({"0a:00:00:00:00:01": -55})))
        assert previous_before(track, 9.0).t == 5.0
        assert previous_before(track, 5.0) is None
        assert previous_before(track, 100.0).t == 9.0

    @given(
        times=st.lists(
            st.floats(min_value=0, max_value=100, allow_nan=False), min_size=1, max_size=20, unique=True
        ),
        center=st.floats(min_value=-10, max_value=110, allow_nan=False),
        delta=st.floats(min_value=0, max_value=30, allow_nan=False),
    )
    @example(times=[0.0, 2.2250738585072014e-308], center=1.0, delta=1.0)
    def test_nearest_in_window_matches_linear_scan(self, times, center, delta):
        track = ProximityTrack("02:00:00:00:00:01")
        for t in sorted(times):
            track.append(Fingerprint(t, snapshot({"0a:00:00:00:00:01": -50})))
        hit = track.nearest_in_window(center, delta)
        eligible = [t for t in sorted(times) if abs(t - center) <= delta]
        if not eligible:
            assert hit is None
        else:
            best = min(eligible, key=lambda t: (abs(t - center), t))
            assert hit.t == best


class TestLog:
    def test_ingest_and_devices_sorted(self):
        log = ProximityLog()
        put(log, "02:00:00:00:00:02", 1.0, {"0a:00:00:00:00:01": -50})
        put(log, "02:00:00:00:00:01", 1.0, {"0a:00:00:00:00:01": -52})
        assert log.devices == ["02:00:00:00:00:01", "02:00:00:00:00:02"]
        assert "02:00:00:00:00:01" in log
        assert "02:00:00:00:00:09" not in log

    def test_new_device_leaves_the_old_order_alone(self):
        # A device whose id sorts first leaves what an earlier read returned
        # as it was.
        log = ProximityLog()
        put(log, "02:00:00:00:00:02", 1.0, {"0a:00:00:00:00:01": -50})
        devices = log.devices
        window = log.measurements_in_window(0.0, 5.0)
        put(log, "02:00:00:00:00:01", 2.0, {"0a:00:00:00:00:01": -50})
        assert devices == ["02:00:00:00:00:02"]
        assert [device for device, _ in window] == ["02:00:00:00:00:02"]
        assert log.devices == ["02:00:00:00:00:01", "02:00:00:00:00:02"]

    def test_reader_sees_each_device_once_across_a_new_device(self):
        # A read takes the devices present at its call; ingesting a device
        # that sorts first or last meanwhile neither shifts nor repeats any.
        log = ProximityLog()
        for device in ("02:00:00:00:00:02", "02:00:00:00:00:03"):
            put(log, device, 1.0, {"0a:00:00:00:00:01": -50})
        devices = iter(log.devices)
        window = (device for device, _ in log.measurements_in_window(0.0, 5.0))
        seen_devices, seen_window = [next(devices)], [next(window)]
        put(log, "02:00:00:00:00:04", 2.0, {"0a:00:00:00:00:01": -50})
        seen_devices.append(next(devices))
        seen_window.append(next(window))
        put(log, "02:00:00:00:00:01", 3.0, {"0a:00:00:00:00:01": -50})
        seen_devices += devices
        seen_window += window
        assert seen_devices == seen_window == ["02:00:00:00:00:02", "02:00:00:00:00:03"]
        assert log.devices == ["02:00:00:00:00:0" + k for k in "1234"]

    def test_reads_survive_a_collection_that_adds_a_device(self):
        # A collection inside a read may switch to the writer; a finalizer
        # that ingests a device stands in for it, deterministically.
        log = ProximityLog()
        fp = Fingerprint(1.0, snapshot({X: -50}))
        for i in range(200):
            log.ingest(f"02:00:00:00:00:{i:02x}", fp)
        live = [True]

        class Cycle:
            def __init__(self):
                self.me = self

            def __del__(self):
                if live[0]:
                    log.ingest(f"02:00:00:01:{len(log) >> 8:02x}:{len(log) & 255:02x}", fp)
                    Cycle()  # garbage for the next collection inside the read

        threshold, enabled = gc.get_threshold(), gc.isenabled()
        try:
            for read in (lambda: log.devices, lambda: log.measurements_in_window(0.0, 5.0)):
                # Held so that a read building (id, track) pairs must allocate,
                # and so collect, rather than reuse freed pairs.
                pairs = [(i, i) for i in range(5000)]
                before = len(log)
                gc.disable()
                Cycle()
                gc.set_threshold(1)
                gc.enable()
                read()
                assert len(log) > before
                del pairs
        finally:
            live[0] = False
            gc.set_threshold(*threshold)
            if not enabled:
                gc.disable()
            gc.collect()

    def test_track_unknown_device(self):
        log = ProximityLog()
        with pytest.raises(UnknownDeviceError):
            log.track("02:00:00:00:00:01")

    def test_device_ids_canonicalized_on_ingest(self):
        log = ProximityLog()
        put(log, "02-00-00-00-00-01", 1.0, {"0a:00:00:00:00:01": -50})
        assert log.devices == ["02:00:00:00:00:01"]
        assert log.track("02:00:00:00:00:01").last().t == 1.0

    @pytest.mark.parametrize("device", [None, 7, ["a"], b"02:00:00:00:00:01"])
    def test_non_str_ids_fail_as_canonical_id_does(self, device):
        with pytest.raises(Exception) as want:
            canonical_id(device)
        log = ProximityLog()
        put(log, A, 1.0, {X: -50})
        with pytest.raises(want.type, match=re.escape(str(want.value))):
            log.ingest(device, Fingerprint(2.0, EnvironmentSnapshot()))
        assert log.devices == [A]

    def test_measurements_in_window_picks_latest_per_device(self):
        log = ProximityLog()
        put(log, "02:00:00:00:00:01", 1.0, {"0a:00:00:00:00:01": -50})
        put(log, "02:00:00:00:00:01", 4.0, {"0a:00:00:00:00:01": -51})
        put(log, "02:00:00:00:00:01", 9.0, {"0a:00:00:00:00:01": -52})
        put(log, "02:00:00:00:00:02", 3.0, {"0a:00:00:00:00:01": -60})
        put(log, "02:00:00:00:00:03", 20.0, {"0a:00:00:00:00:01": -70})
        got = log.measurements_in_window(0.0, 5.0)
        assert [(d, fp.t) for d, fp in got] == [
            ("02:00:00:00:00:01", 4.0),
            ("02:00:00:00:00:02", 3.0),
        ]
        got = log.measurements_in_window(0.0, 5.0, exclude="02:00:00:00:00:01")
        assert [(d, fp.t) for d, fp in got] == [("02:00:00:00:00:02", 3.0)]

    def test_measurements_window_bounds_inclusive(self):
        log = ProximityLog()
        put(log, "02:00:00:00:00:01", 5.0, {"0a:00:00:00:00:01": -50})
        assert log.measurements_in_window(5.0, 5.0)
        assert not log.measurements_in_window(5.1, 6.0)

    def test_measurements_window_brute_force(self):
        rng = random.Random(11)
        log = ProximityLog()
        times = {}
        for i in range(1, 6):
            device = f"02:00:00:00:00:{i:02x}"
            t = rng.uniform(0, 10)
            times[device] = []
            for _ in range(rng.randint(1, 8)):
                put(log, device, t, {"0a:00:00:00:00:01": rng.randint(-90, -30)})
                times[device].append(t)
                t += rng.uniform(0.1, 4.0)
        for _ in range(200):
            lo = rng.uniform(-2, 40)
            hi = lo + rng.uniform(0, 20)
            got = [(d, fp.t) for d, fp in log.measurements_in_window(lo, hi)]
            want = []
            for device in sorted(times):
                inside = [t for t in times[device] if lo <= t <= hi]
                if inside:
                    want.append((device, max(inside)))
            assert got == want


class TestJsonl:
    def test_round_trip_bytes(self):
        log = ProximityLog()
        put(log, "02:00:00:00:00:02", 1.0, {"0a:00:00:00:00:01": -50, "0a:00:00:00:00:02": -64})
        put(log, "02:00:00:00:00:01", 0.5, {"0a:00:00:00:00:01": -55})
        put(log, "02:00:00:00:00:01", 2.5, {"0a:00:00:00:00:02": -61})
        first = io.StringIO()
        write_log_jsonl(log, first)
        reread = read_log_jsonl(io.StringIO(first.getvalue()))
        second = io.StringIO()
        write_log_jsonl(reread, second)
        assert first.getvalue() == second.getvalue()
        assert reread.devices == log.devices
        assert reread.track("02:00:00:00:00:01").samples == log.track("02:00:00:00:00:01").samples

    def test_blank_lines_skipped(self):
        text = (
            '{"device": "02:00:00:00:00:01", "t": 1.0, "aps": [{"ssid": "lobby", "bssid": "0a:00:00:00:00:01", "rssi": -50}]}\n'
            "\n"
            '{"device": "02:00:00:00:00:01", "t": 2.0, "aps": []}\n'
        )
        log = read_log_jsonl(io.StringIO(text))
        assert len(log.track("02:00:00:00:00:01")) == 2

    def test_malformed_line_reports_line_number(self):
        text = (
            '{"device": "02:00:00:00:00:01", "t": 1.0, "aps": []}\n'
            "{not json}\n"
        )
        with pytest.raises(LogFormatError) as err:
            read_log_jsonl(io.StringIO(text))
        assert "line 2" in str(err.value)

    def test_missing_field_reports_line_number(self):
        with pytest.raises(LogFormatError) as err:
            read_log_jsonl(io.StringIO('{"device": "02:00:00:00:00:01", "aps": []}\n'))
        assert "line 1" in str(err.value)

    @pytest.mark.parametrize("digits", [400, 5000])
    def test_oversized_time_reports_line_number(self, digits):
        text = (
            '{"device": "02:00:00:00:00:01", "t": 1.0, "aps": []}\n'
            f'{{"device": "02:00:00:00:00:01", "t": 1{"0" * digits}, "aps": []}}\n'
        )
        with pytest.raises(LogFormatError) as err:
            read_log_jsonl(io.StringIO(text))
        assert err.value.line == 2

    def test_out_of_order_device_samples_rejected(self):
        text = (
            '{"device": "02:00:00:00:00:01", "t": 2.0, "aps": []}\n'
            '{"device": "02:00:00:00:00:01", "t": 1.0, "aps": []}\n'
        )
        with pytest.raises(LogFormatError):
            read_log_jsonl(io.StringIO(text))

    def test_interleaved_devices_allowed(self):
        text = (
            '{"device": "02:00:00:00:00:02", "t": 2.0, "aps": []}\n'
            '{"device": "02:00:00:00:00:01", "t": 1.0, "aps": []}\n'
            '{"device": "02:00:00:00:00:02", "t": 3.0, "aps": []}\n'
        )
        log = read_log_jsonl(io.StringIO(text))
        assert len(log.track("02:00:00:00:00:02")) == 2

    @pytest.mark.parametrize("bad", UNDECODABLE_LINES.values(), ids=UNDECODABLE_LINES.keys())
    def test_undecodable_line_reports_line_number(self, tmp_path, bad):
        # 300 good lines put the bad one beyond the first 8 kB a text stream
        # decodes at once, so the number must come from the line itself.
        good = [f'{{"device": "02:00:00:00:00:01", "t": {t}, "aps": []}}' for t in range(300)]
        with pytest.raises(LogFormatError) as err:
            read_log_jsonl(jsonl_ending_with(tmp_path, good, bad))
        assert err.value.line == 301

    @given(jsonl_text(RECORD_KEYS))
    def test_arbitrary_input_raises_only_log_format_errors(self, text):
        try:
            read_log_jsonl(io.StringIO(text))
        except LogFormatError:
            pass


def jsonl(*records) -> str:
    return "".join(json.dumps({"device": d, "t": t, "aps": aps}) + "\n" for d, t, aps in records)


def ap(bssid, rssi, ssid="lobby"):
    return {"ssid": ssid, "bssid": bssid, "rssi": rssi}


# Readings in the writer's form or other spellings, so some records repeat an
# earlier reading exactly, some only up to the float form of rssi or the
# spelling of the bssid, and some differ in level or ssid alone.
readings = st.tuples(
    st.sampled_from([X, Y, X.upper(), "0A-00-00-00-00-02"]),
    st.integers(-62, -60),
    st.booleans(),
    st.sampled_from(["lobby", "hall", ""]),
)


@st.composite
def log_records(draw):
    """JSONL lines of a valid log, each device's samples in time order."""
    lines = []
    for t in range(draw(st.integers(0, 12))):
        device = draw(st.sampled_from([A, B, "02-00-00-00-00-03"]))
        chosen = draw(st.lists(readings, max_size=3, unique_by=lambda r: canonical_id(r[0])))
        aps = [ap(b, float(r) if as_float else r, ssid) for b, r, as_float, ssid in chosen]
        lines.append(json.dumps({"device": device, "t": float(t), "aps": aps}))
    return lines


class TestSharedObservations:
    def test_equal_readings_in_one_read_are_one_object(self):
        log = read_log_jsonl(io.StringIO(jsonl(
            (A, 1.0, [ap(X, -50), ap(Y, -60)]),
            (B, 1.0, [ap(X, -50)]),
            (A, 2.0, [ap(X, -51), ap(Y, -60, "hall")]),
            (B, 2.0, [ap(X, -50.0)]),
        )))
        (a1, a2), (b1, b2) = ([fp.env.observations for fp in log.track(d)] for d in (A, B))
        assert a1[0] is b1[0] is b2[0]
        assert a2[0] is not a1[0] and a2[0] == ApObservation(X, -51, "lobby")
        assert a2[1] is not a1[1] and a2[1] == ApObservation(Y, -60, "hall")

    def test_one_reading_is_one_object_across_decoders(self):
        sample = simulate(corridor_scenario()).proximity.track("02:00:00:00:01:01").samples[0]
        shared = sample.env.observations[0]
        record = {"device": A, "t": 1.0, "aps": [ap(shared.bssid, shared.rssi, shared.ssid)]}
        text = json.dumps(record) + "\n"
        reads = [read_log_jsonl(io.StringIO(text)).track(A).last() for _ in range(2)]
        alone = fingerprint_from_json(json.loads(text))[1]
        assert all(fp.env.observations[0] is shared for fp in [*reads, alone])

    def test_the_table_never_grows_past_its_bound(self):
        # More distinct readings than the table keeps, some in another
        # spelling of their bssid.
        readings = [
            (f"0A-00-00-00-{i >> 8:02X}-{i & 255:02X}" if i % 3 else f"0a:00:00:00:{i >> 8:02x}:{i & 255:02x}",
             -30 - i % 60, f"net{i % 7}")
            for i in range(_READINGS + 500)
        ]
        decoded = []
        for i, (bssid, rssi, ssid) in enumerate(readings):
            fp = fingerprint_from_json({"device": A, "t": float(i), "aps": [ap(bssid, rssi, ssid)]})[1]
            decoded.append(fp.env.observations[0])
            assert _observation.cache_info().currsize <= _READINGS
        assert _observation.cache_info().maxsize == _READINGS
        assert decoded == [ApObservation(*r) for r in readings]
        # The first readings were dropped: decoded again they are new objects,
        # equal to the first ones.
        again = fingerprint_from_json({"device": A, "t": 0.0, "aps": [ap(*readings[0])]})[1]
        assert again.env.observations[0] == decoded[0] and again.env.observations[0] is not decoded[0]

    def test_threads_decoding_at_once_get_equal_readings(self):
        # More readings than the table keeps, so the threads also race on
        # evictions; a tiny switch interval makes them interleave often.
        readings = [(f"0a:00:00:00:{i >> 8:02x}:{i & 255:02x}", -30 - i % 60, "net") for i in range(_READINGS + 500)]
        results = [[] for _ in range(4)]

        def decode(out):
            for reading in readings:
                fp = fingerprint_from_json({"device": A, "t": 1.0, "aps": [ap(*reading)]})[1]
                out.append(fp.env.observations[0])

        threads = [threading.Thread(target=decode, args=(out,)) for out in results]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        expected = [ApObservation(*r) for r in readings]
        assert all(out == expected for out in results)
        assert _observation.cache_info().currsize <= _READINGS

    @pytest.mark.parametrize("alone", [False, True], ids=["read", "alone"])
    @pytest.mark.parametrize("rssi", ["true", "1.5"])
    def test_rssi_is_checked_before_an_earlier_equal_reading_is_found(self, rssi, alone):
        lines = [
            f'{{"device": "{A}", "t": 1.0, "aps": [{{"bssid": "{X}", "rssi": 1}}]}}',
            f'{{"device": "{A}", "t": 2.0, "aps": [{{"bssid": "{X}", "rssi": {rssi}}}]}}',
        ]
        rejected = "field 'rssi' has wrong type" if rssi == "true" else f"rssi must be integer dBm, got {rssi}"
        with pytest.raises(LogFormatError) as err:
            if alone:
                for line in lines:
                    fingerprint_from_json(json.loads(line))
            else:
                read_log_jsonl(io.StringIO("".join(line + "\n" for line in lines)))
        line, prefix = (None, "") if alone else (2, "line 2: ")
        assert (err.value.line, str(err.value)) == (line, f"{prefix}ap: {rejected}")

    @given(log_records())
    def test_shared_read_writes_what_decoding_each_record_alone_writes(self, lines):
        shared = io.StringIO()
        write_log_jsonl(read_log_jsonl(io.StringIO("".join(line + "\n" for line in lines))), shared)
        alone_log = ProximityLog()
        for line in lines:
            alone_log.ingest(*fingerprint_from_json(json.loads(line)))
        alone = io.StringIO()
        write_log_jsonl(alone_log, alone)
        assert shared.getvalue() == alone.getvalue()

    def test_mapping_records_decode_as_dicts_do(self):
        record = {"device": A.upper(), "t": 1.0, "aps": [ap(X, -50, ""), ap(Y, -61.0, "")]}
        proxy = types.MappingProxyType(
            {**record, "aps": [types.MappingProxyType(a) for a in record["aps"]]}
        )
        # A dict record whose second ap alone is not a dict.
        mixed = {**record, "aps": [record["aps"][0], types.MappingProxyType(record["aps"][1])]}
        assert fingerprint_from_json(proxy) == fingerprint_from_json(mixed) == fingerprint_from_json(record) == (
            A, Fingerprint(1.0, snapshot({X: -50, Y: -61})),
        )
        with pytest.raises(LogFormatError, match="^ap: field 'rssi' has wrong type$"):
            fingerprint_from_json(types.MappingProxyType({**record, "aps": [ap(X, True)]}))


# --- The reader against the reference decoder --------------------------------

# Field values a valid record holds, in the writer's spelling or another,
# mixed with ones each check must reject.
device_values = st.sampled_from([A, A, B, A.upper(), B.replace(":", "-"), " tablet ", "", None, 7])
bssid_values = st.sampled_from([X, X, Y, X.upper(), "0A-00-00-00-00-02", "", True, None])
rssi_values = st.sampled_from(
    [-50, -50, -61, -50.0, -50.5, True, False, 1, 0.0, float("nan"), float("inf"), 10**30, 10**400, "-50", None]
)
ssid_values = st.sampled_from(["lobby", "", "hall", 5, None])
# A line is a record's JSON, or that JSON with a BOM, surrounding
# whitespace or extra data, or a line no record can be.
framings = st.sampled_from(["{}"] * 12 + ["\ufeff{}", " {} ", "\t{}", "{} {{}}", "{}x"])
other_lines = st.sampled_from(
    ["[" * 100_000, '{"device": "02:00:00:00:00:01", "t": 1' + "0" * 5000 + ', "aps": []}', "{not json", "[]", "null", "3"]
)


@st.composite
def maybe_fields(draw, fields: dict):
    """fields, some of them left out, with sometimes an extra field."""
    out = {k: v for k, v in fields.items() if draw(st.integers(0, 14)) < 14}
    if draw(st.booleans()):
        out["extra"] = draw(st.sampled_from([1, "x", None]))
    return out


@st.composite
def reader_lines(draw):
    """JSONL lines of records, valid and malformed, with faults anywhere and
    often several in one record. Times mostly rise, per device."""
    lines = []
    for i in range(draw(st.integers(0, 8))):
        if draw(st.integers(0, 14)) == 14:
            lines.append(draw(other_lines))
            continue
        aps = []
        for _ in range(draw(st.integers(0, 3))):
            if draw(st.integers(0, 14)) == 14:
                aps.append(draw(st.sampled_from([[], "ap", 3, None])))
            else:
                aps.append(draw(maybe_fields({
                    "ssid": draw(ssid_values), "bssid": draw(bssid_values), "rssi": draw(rssi_values),
                })))
        t = draw(st.sampled_from([float(i), i, float(i) + 0.5, 0.0, float("nan"), 10**400, True, "1"]))
        aps_value = draw(st.sampled_from([aps] * 6 + [{}, "aps"]))
        record = draw(maybe_fields({"device": draw(device_values), "t": t, "aps": aps_value}))
        if draw(st.integers(0, 19)) == 19:
            record = [record]
        lines.append(draw(framings).format(json.dumps(record)))
    return lines


def outcome(read, source) -> tuple[str, ...]:
    """The log a read writes, or the error it raises and its line."""
    try:
        out = io.StringIO()
        write_log_jsonl(read(source), out)
        return ("log", out.getvalue())
    except LogFormatError as exc:
        return ("error", str(exc), exc.line)


def record_outcome(decode, obj) -> tuple:
    try:
        return ("record", decode(obj))
    except LogFormatError as exc:
        return ("error", str(exc))


# One line per kind of record the reader must take or reject, after a good
# first line, with the error it must raise there (None: the line is valid).
READER_CASES = {
    "bool-rssi": (jsonl((A, 1.0, [ap(X, True)])), "ap: field 'rssi' has wrong type"),
    "fractional-rssi": (jsonl((A, 1.0, [ap(X, -50.5)])), "ap: rssi must be integer dBm, got -50.5"),
    "nan-rssi": (jsonl((A, 1.0, [ap(X, float("nan"))])), "ap: rssi must be integer dBm, got nan"),
    "huge-int-rssi": (jsonl((A, 1.0, [ap(X, 10**400)])), None),
    "ap-not-an-object": (jsonl((A, 1.0, [[X, -50]])), "record: each ap must be a JSON object"),
    "ssid-not-a-string": (jsonl((A, 1.0, [ap(X, -50, 5)])), "ap: field 'ssid' has wrong type"),
    "missing-field": ('{"device": "%s", "aps": []}' % A, "record: missing field 't'"),
    "extra-field": ('{"device": "%s", "t": 1.0, "aps": [], "seen": 2}' % A, None),
    "bssid-in-two-spellings": (
        jsonl((A, 1.0, [ap(X, -50), ap(X.upper(), -51)])), f"duplicate access point {X}"
    ),
    "ids-not-canonical": (jsonl((" Tablet ", 1.0, [ap("0A-00-00-00-00-01", -50)])), None),
    "bom": ("\ufeff" + jsonl((A, 1.0, [])), "invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig)"),
    "surrounding-whitespace": (" \t" + jsonl((A, 1.0, [])).strip() + " \u2028", None),
    "extra-data": (jsonl((A, 1.0, [])).strip() + " {}", "invalid JSON: Extra data"),
    "deep-nesting": ("[" * 100_000, "JSON nested too deeply"),
    "ap-fault-before-id-fault": (
        '{"device": "", "t": NaN, "aps": [{"bssid": "", "rssi": true}]}', "ap: field 'rssi' has wrong type"
    ),
    "bssid-fault-before-device-fault": (
        '{"device": "", "t": NaN, "aps": [{"bssid": "", "rssi": 1}]}', "identifier must be non-empty"
    ),
    "device-fault-first": ('{"device": 7, "t": "x", "aps": {}}', "record: field 'device' has wrong type"),
    "float-rssi-after-plain-ap": (jsonl((A, 1.0, [ap(X, -50), ap(Y, -61.0)])), None),
    "bool-rssi-after-plain-ap": (jsonl((A, 1.0, [ap(X, -50), ap(Y, True)])), "ap: field 'rssi' has wrong type"),
    "time-fault-last": (
        '{"device": "%s", "t": 1e999, "aps": [{"bssid": "%s", "rssi": -5}]}' % (A, X),
        "timestamp must be finite, got inf",
    ),
}


class TestReaderMatchesReference:
    @settings(deadline=None)
    @given(lines=reader_lines())
    def test_same_log_or_same_error(self, tmp_path_factory, lines):
        text = "".join(line + "\n" for line in lines)
        path = tmp_path_factory.getbasetemp() / "reader-lines.jsonl"
        path.write_text(text, encoding="utf-8")
        want = outcome(reference_read_log, io.StringIO(text))
        assert outcome(read_log_jsonl, io.StringIO(text)) == want
        assert outcome(read_log_jsonl, path) == outcome(reference_read_log, path) == want
        for line in lines:
            try:
                obj = json.loads(line)
            except (ValueError, RecursionError):
                continue
            assert record_outcome(fingerprint_from_json, obj) == record_outcome(reference_fingerprint, obj)

    @pytest.mark.parametrize("line, message", READER_CASES.values(), ids=READER_CASES.keys())
    def test_each_case_reads_as_the_reference_reads_it(self, tmp_path, line, message):
        text = jsonl((B, 0.5, [ap(X, -50)])) + line.rstrip("\n") + "\n"
        path = tmp_path / "log.jsonl"
        path.write_text(text, encoding="utf-8")
        want = outcome(reference_read_log, io.StringIO(text))
        if message is None:
            assert want[0] == "log"
        else:
            assert want == ("error", f"line 2: {message}", 2)
        assert outcome(read_log_jsonl, io.StringIO(text)) == outcome(read_log_jsonl, path) == want
