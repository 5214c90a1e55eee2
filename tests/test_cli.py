import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from convoylog import (
    ApObservation,
    EnvironmentSnapshot,
    Fingerprint,
    ProximityLog,
    corridor_scenario,
    write_log_jsonl,
    write_scenario,
)
from convoylog.cli import main
from helpers import UNDECODABLE_LINES, put

X = "0a:00:00:00:00:01"
Y = "0a:00:00:00:00:02"
A, B, C = (f"02:00:00:00:00:{i:02x}" for i in range(1, 4))


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def stdout_fields(out: str) -> dict[str, str]:
    fields = {}
    for line in out.splitlines():
        if ": " in line:
            key, value = line.split(": ", 1)
            fields[key] = value
        elif line.endswith(":"):
            fields[line[:-1]] = ""
    return fields


def write_example_log(path) -> None:
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
    write_log_jsonl(log, path)


def write_one_shared_snapshot(path) -> None:
    """Two devices, one sample each at t=5, hearing the same AP at the same level."""
    log = ProximityLog()
    put(log, A, 5, {X: -50})
    put(log, B, 5, {X: -50})
    write_log_jsonl(log, path)


class TestSimulate:
    def test_writes_three_artifacts(self, tmp_path, capsys):
        out = tmp_path / "run"
        code, stdout, _ = run(capsys, "simulate", "builtin:fig4", "--out", str(out))
        assert code == 0
        fields = stdout_fields(stdout)
        assert fields["scenario"] == "fig4"
        assert fields["devices"] == "4"
        assert fields["samples"] == "44"
        for name in ("trajectories.jsonl", "proximity.jsonl", "ground_truth.jsonl"):
            assert (out / name).exists()

    def test_reruns_byte_identical(self, tmp_path, capsys):
        for d in ("a", "b"):
            assert run(capsys, "simulate", "builtin:corridor", "--out", str(tmp_path / d))[0] == 0
        for name in ("trajectories.jsonl", "proximity.jsonl", "ground_truth.jsonl"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_seed_override_changes_noisy_runs(self, tmp_path, capsys):
        scenario_path = tmp_path / "noisy.json"
        write_scenario(corridor_scenario(noise_sigma_db=2.0), scenario_path)
        run(capsys, "simulate", str(scenario_path), "--out", str(tmp_path / "s7"))
        run(capsys, "simulate", str(scenario_path), "--seed", "8", "--out", str(tmp_path / "s8"))
        run(capsys, "simulate", str(scenario_path), "--seed", "8", "--out", str(tmp_path / "s8b"))
        a = (tmp_path / "s7" / "proximity.jsonl").read_bytes()
        b = (tmp_path / "s8" / "proximity.jsonl").read_bytes()
        assert a != b
        assert b == (tmp_path / "s8b" / "proximity.jsonl").read_bytes()

    def test_unknown_builtin(self, tmp_path, capsys):
        code, _, err = run(capsys, "simulate", "builtin:nope", "--out", str(tmp_path / "x"))
        assert code == 1
        assert err.startswith("error:")
        assert "fig4" in err and "corridor" in err

    def test_infinite_duration_rejected(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        write_scenario(corridor_scenario(), scenario)
        scenario.write_text(scenario.read_text().replace('"duration": 60.0', '"duration": Infinity'))
        code, _, err = run(capsys, "simulate", str(scenario), "--out", str(tmp_path / "x"))
        assert code == 1
        assert err.startswith("error:") and "duration" in err

    def test_missing_scenario_file(self, tmp_path, capsys):
        code, _, err = run(capsys, "simulate", str(tmp_path / "absent.json"), "--out", str(tmp_path / "x"))
        assert code == 1
        assert err.startswith("error:")


class TestIngest:
    def test_merges_by_device_and_time(self, tmp_path, capsys):
        ref = tmp_path / "ref.jsonl"
        write_example_log(ref)
        half1, half2 = ProximityLog(), ProximityLog()
        put(half1, A, 80, {Y: -60})
        put(half1, A, 90, {X: -52})
        put(half2, A, 100, {X: -50})
        for dev, levels in ((B, (-65, -55, -53)), (C, (-61, -80, -54))):
            put(half2, dev, 80, {Y: levels[0]})
            put(half2, dev, 90, {X: levels[1]})
            put(half2, dev, 100, {X: levels[2]})
        write_log_jsonl(half1, tmp_path / "h1.jsonl")
        write_log_jsonl(half2, tmp_path / "h2.jsonl")
        code, stdout, _ = run(
            capsys,
            "ingest",
            str(tmp_path / "h1.jsonl"),
            str(tmp_path / "h2.jsonl"),
            "--out",
            str(tmp_path / "merged.jsonl"),
        )
        assert code == 0
        fields = stdout_fields(stdout)
        assert fields["devices"] == "3"
        assert fields["samples"] == "9"
        assert (tmp_path / "merged.jsonl").read_bytes() == ref.read_bytes()

    def test_conflicting_samples_rejected(self, tmp_path, capsys):
        write_example_log(tmp_path / "log.jsonl")
        code, _, err = run(
            capsys,
            "ingest",
            str(tmp_path / "log.jsonl"),
            str(tmp_path / "log.jsonl"),
            "--out",
            str(tmp_path / "merged.jsonl"),
        )
        assert code == 1
        assert "conflicting samples" in err

    def test_conflict_names_the_full_epoch_time(self, tmp_path, capsys):
        for name in ("a.jsonl", "b.jsonl"):
            log = ProximityLog()
            put(log, A, 1357000000.5, {X: -50})
            write_log_jsonl(log, tmp_path / name)
        code, _, err = run(
            capsys, "ingest", str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl"),
            "--out", str(tmp_path / "merged.jsonl"),
        )
        assert code == 1
        assert f"device {A}: conflicting samples at t=1357000000.5 across inputs" in err


class TestQueryGroup:
    def test_latest_query(self, tmp_path, capsys):
        log_path = tmp_path / "log.jsonl"
        write_example_log(log_path)
        code, stdout, _ = run(
            capsys,
            "query-group",
            "--log", str(log_path),
            "--device", A,
            "--omega", "10",
            "--t-max", "20",
        )
        assert code == 0
        fields = stdout_fields(stdout)
        assert fields["t0"] == "100.0"
        assert fields["members"] == B
        assert fields["group_size"] == "2"
        assert fields["steps_processed"] == "3"
        assert fields["oldest_step_time"] == "80.0"
        assert fields["in_group_of"] == "true"

    def test_group_size_threshold(self, tmp_path, capsys):
        log_path = tmp_path / "log.jsonl"
        write_example_log(log_path)
        code, stdout, _ = run(
            capsys,
            "query-group",
            "--log", str(log_path),
            "--device", A,
            "--omega", "10",
            "--t-max", "20",
            "--n", "3",
        )
        assert code == 0
        assert stdout_fields(stdout)["in_group_of"] == "false"

    def test_explicit_t0(self, tmp_path, capsys):
        log_path = tmp_path / "log.jsonl"
        write_example_log(log_path)
        code, stdout, _ = run(
            capsys,
            "query-group",
            "--log", str(log_path),
            "--device", A,
            "--t0", "90",
            "--omega", "10",
            "--t-max", "10",
        )
        assert code == 0
        fields = stdout_fields(stdout)
        assert fields["snapshot_t"] == "90.0"
        assert fields["members"] == B

    def test_query_snapshot_counted_once(self, tmp_path, capsys):
        log_path = tmp_path / "log.jsonl"
        write_one_shared_snapshot(log_path)
        code, stdout, _ = run(
            capsys,
            "query-group",
            "--log", str(log_path),
            "--device", A,
            "--t0", "5.5",
            "--n", "2",
        )
        assert code == 0
        fields = stdout_fields(stdout)
        assert fields["t0"] == "5.5"
        assert fields["snapshot_t"] == "5.0"
        assert fields["steps_processed"] == "1"
        assert fields["members"] == ""
        assert fields["in_group_of"] == "false"

    def test_unknown_device(self, tmp_path, capsys):
        log_path = tmp_path / "log.jsonl"
        write_example_log(log_path)
        code, _, err = run(capsys, "query-group", "--log", str(log_path), "--device", "02:00:00:00:00:09")
        assert code == 1
        assert "no track" in err

    def test_bad_t0(self, tmp_path, capsys):
        log_path = tmp_path / "log.jsonl"
        write_example_log(log_path)
        code, _, err = run(capsys, "query-group", "--log", str(log_path), "--device", A, "--t0", "soon")
        assert code == 1
        assert "t0" in err

    def test_missing_snapshot_names_the_full_epoch_time(self, tmp_path, capsys):
        log_path = tmp_path / "log.jsonl"
        log = ProximityLog()
        put(log, A, 1357000100.0, {X: -50})
        write_log_jsonl(log, log_path)
        code, stdout, err = run(
            capsys, "query-group", "--log", str(log_path), "--device", A, "--t0", "1357000000.5"
        )
        assert code == 1
        assert stdout == ""
        assert err == f"error: device {A} has no sample within 2.0 s of t0=1357000000.5\n"

    def test_bad_delta(self, tmp_path, capsys):
        log_path = tmp_path / "log.jsonl"
        write_example_log(log_path)
        code, stdout, err = run(capsys, "query-group", "--log", str(log_path), "--device", A, "--delta", "-1")
        assert code == 1
        assert stdout == ""
        assert err == "error: delta must be non-negative, got -1.0\n"

    def test_rerun_byte_identical(self, tmp_path, capsys):
        log_path = tmp_path / "log.jsonl"
        write_example_log(log_path)
        argv = ("query-group", "--log", str(log_path), "--device", A, "--omega", "10")
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second


class TestEvalRules:
    def write_cafe_log(self, path) -> None:
        log = ProximityLog()
        env = EnvironmentSnapshot((ApObservation(bssid=X, rssi=-60, ssid="mycafe"),))
        log.ingest(A, Fingerprint(1000.0, env))
        write_log_jsonl(log, path)

    def test_coupon_rule_fires(self, tmp_path, capsys):
        log_path = tmp_path / "log.jsonl"
        self.write_cafe_log(log_path)
        rules_path = tmp_path / "rules.txt"
        rules_path.write_text(
            "RULE cafe: IF IS_VISIBLE('mycafe') AND FIRST_VISIT()"
            " THEN 'present the coupon info'\n"
        )
        code, stdout, _ = run(
            capsys, "eval-rules", "--log", str(log_path), "--rules", str(rules_path), "--device", A
        )
        assert code == 0
        assert [json.loads(line) for line in stdout.splitlines()] == [
            {"rule": "cafe", "content": "present the coupon info"}
        ]

    def test_silent_when_condition_fails(self, tmp_path, capsys):
        log_path = tmp_path / "log.jsonl"
        self.write_cafe_log(log_path)
        rules_path = tmp_path / "rules.txt"
        rules_path.write_text("RULE r: IF IS_VISIBLE('elsewhere') THEN 'x'\n")
        code, stdout, _ = run(
            capsys, "eval-rules", "--log", str(log_path), "--rules", str(rules_path), "--device", A
        )
        assert code == 0
        assert stdout == ""

    def test_group_rule_counts_query_snapshot_once(self, tmp_path, capsys):
        log_path = tmp_path / "log.jsonl"
        write_one_shared_snapshot(log_path)
        rules_path = tmp_path / "rules.txt"
        rules_path.write_text("RULE g: IF IN_GROUP_OF(2, 60) THEN 'x'\n")
        code, stdout, _ = run(
            capsys,
            "eval-rules",
            "--log", str(log_path),
            "--rules", str(rules_path),
            "--device", A,
            "--t0", "5.5",
        )
        assert code == 0
        assert stdout == ""

    def test_syntax_error_reports_position(self, tmp_path, capsys):
        log_path = tmp_path / "log.jsonl"
        self.write_cafe_log(log_path)
        rules_path = tmp_path / "rules.txt"
        rules_path.write_text("RULE r: IF THEN 'x'\n")
        code, _, err = run(
            capsys, "eval-rules", "--log", str(log_path), "--rules", str(rules_path), "--device", A
        )
        assert code == 1
        assert "line 1" in err and "column" in err

    def test_too_deep_condition_is_one_error_line(self, tmp_path, capsys):
        log_path = tmp_path / "log.jsonl"
        self.write_cafe_log(log_path)
        rules_path = tmp_path / "rules.txt"
        rules_path.write_text("RULE r: IF " + "NOT " * 3000 + "IS_VISIBLE('x') THEN 'x'\n")
        code, stdout, err = run(
            capsys, "eval-rules", "--log", str(log_path), "--rules", str(rules_path), "--device", A
        )
        assert code == 1
        assert stdout == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and "nests deeper" in err


class TestConvoyBaseline:
    def test_fig4_pairs(self, tmp_path, capsys):
        run(capsys, "simulate", "builtin:fig4", "--out", str(tmp_path))
        code, stdout, _ = run(
            capsys,
            "convoy-baseline",
            "--trajectories", str(tmp_path / "trajectories.jsonl"),
            "--e", "5", "--m", "2", "--k", "11",
        )
        assert code == 0
        rows = [json.loads(line) for line in stdout.splitlines()]
        assert rows == [
            {"members": ["02:00:00:00:01:01", "02:00:00:00:01:02"], "t_start": 0, "t_end": 10},
            {"members": ["02:00:00:00:02:01", "02:00:00:00:02:02"], "t_start": 0, "t_end": 10},
        ]

    @pytest.mark.parametrize("e", ["-1", "nan"])
    def test_bad_e(self, tmp_path, capsys, e):
        run(capsys, "simulate", "builtin:fig4", "--out", str(tmp_path))
        code, stdout, err = run(
            capsys, "convoy-baseline", "--trajectories", str(tmp_path / "trajectories.jsonl"), "--e", e
        )
        assert code == 1
        assert stdout == ""
        assert err == f"error: e must be positive, got {float(e)}\n"


class TestCompare:
    def test_fig4_divergence(self, capsys):
        code, stdout, _ = run(
            capsys, "compare", "builtin:fig4", "--n", "4", "--k", "11"
        )
        assert code == 0
        fields = stdout_fields(stdout)
        assert fields["planted_groups"] == "2"
        assert fields["baseline_convoys"] == "2"
        divergences = [l for l in stdout.splitlines() if l.startswith("divergence:")]
        assert len(divergences) == 2
        assert "proximity merges g1 with g2" in divergences[0]
        assert "trajectory baseline separates them" in divergences[0]

    def test_corridor_clean_separation(self, capsys):
        code, stdout, _ = run(
            capsys, "compare", "builtin:corridor", "--n", "3", "--k", "4"
        )
        assert code == 0
        assert "proximity_recall: 1.000" in stdout
        assert "proximity_precision: 1.000" in stdout
        assert "baseline_recall: 1.000" in stdout
        assert "baseline_precision: 1.000" in stdout
        assert "proximity_merged_with: -" in stdout
        assert stdout_fields(stdout)["baseline_convoys"] == "1"
        assert not any(l.startswith("divergence:") for l in stdout.splitlines())

    def test_rerun_byte_identical(self, capsys):
        first = run(capsys, "compare", "builtin:fig4", "--n", "4", "--k", "11")
        second = run(capsys, "compare", "builtin:fig4", "--n", "4", "--k", "11")
        assert first == second


class TestParser:
    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_console_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "convoylog.cli", "simulate", "builtin:fig4", "--out", str(tmp_path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "scenario: fig4" in proc.stdout


SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("bad", UNDECODABLE_LINES.values(), ids=UNDECODABLE_LINES.keys())
@pytest.mark.parametrize("command", ["ingest", "convoy-baseline", "simulate", "eval-rules"])
def test_undecodable_input_is_one_error_line(tmp_path, command, bad):
    path = tmp_path / "bad"
    path.write_bytes(bad + b"\n")
    log = tmp_path / "log.jsonl"
    write_example_log(log)
    argv = {
        "ingest": ["ingest", str(path), "--out", str(tmp_path / "merged.jsonl")],
        "convoy-baseline": ["convoy-baseline", "--trajectories", str(path)],
        "simulate": ["simulate", str(path), "--out", str(tmp_path / "run")],
        "eval-rules": ["eval-rules", "--log", str(log), "--rules", str(path), "--device", A],
    }[command]
    proc = subprocess.run(
        [sys.executable, "-m", "convoylog.cli", *argv],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr


@pytest.mark.parametrize("device", ["", "   "], ids=["empty", "blank"])
@pytest.mark.parametrize("command", ["query-group", "eval-rules"])
def test_blank_device_is_one_error_line(tmp_path, command, device):
    log = tmp_path / "log.jsonl"
    write_example_log(log)
    rules = tmp_path / "rules.txt"
    rules.write_text("RULE r: IF IN_GROUP_OF(2, 20) THEN 'hi'\n")
    argv = {
        "query-group": ["query-group", "--log", str(log), "--device", device],
        "eval-rules": ["eval-rules", "--log", str(log), "--rules", str(rules), "--device", device],
    }[command]
    proc = subprocess.run(
        [sys.executable, "-m", "convoylog.cli", *argv],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == ["error: --device: identifier must be non-empty"], proc.stderr
