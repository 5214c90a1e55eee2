import argparse
import contextlib
import errno
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from convoylog import (
    ApObservation,
    EnvironmentSnapshot,
    Fingerprint,
    ProximityLog,
    corridor_scenario,
    write_log_jsonl,
    write_scenario,
)
from convoylog.cli import build_parser, main
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


class _ClosedPipe(io.TextIOBase):
    """Standard output whose reader is gone: every write fails with EPIPE."""

    def __init__(self, fd: int):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")

    def fileno(self):
        return self.fd


def test_closed_stdout_is_a_normal_end(tmp_path, capsys, monkeypatch):
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(fd))
        assert main(["compare", "builtin:fig4", "--n", "4", "--k", "11"]) == 0
        # The descriptor behind stdout now writes to devnull.
        assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
    finally:
        os.close(fd)
    assert capsys.readouterr().err == ""


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


def strict_run(cwd, *argv) -> subprocess.CompletedProcess:
    """convoylog argv in cwd, writing to a strict UTF-8 standard output."""
    return subprocess.run(
        [sys.executable, "-m", "convoylog.cli", *argv],
        capture_output=True,
        cwd=cwd,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC), "PYTHONIOENCODING": "utf-8:strict"},
    )


def test_path_that_is_not_utf8_is_printed_escaped(tmp_path):
    # Each line used to end the run in a UnicodeEncodeError traceback, after
    # the files were written.
    proc = strict_run(tmp_path, "simulate", "builtin:fig4", "--out", b"e\xff")
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert b"trajectories: e\\udcff/trajectories.jsonl\n" in proc.stdout
    assert (tmp_path / os.fsdecode(b"e\xff") / "ground_truth.jsonl").exists()


def test_id_that_is_a_lone_surrogate_is_printed_escaped(tmp_path):
    lines = [{"device": d, "t": 5, "aps": [{"bssid": X, "rssi": -50}]} for d in (A, "\ud800")]
    (tmp_path / "log.jsonl").write_text("".join(json.dumps(line) + "\n" for line in lines))
    proc = strict_run(tmp_path, "query-group", "--log", "log.jsonl", "--device", A, "--min-steps", "1")
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert b"members: \\ud800\n" in proc.stdout


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


@pytest.mark.parametrize(
    "t0, shown", [("nan", "nan"), ("inf", "inf"), ("-inf", "-inf"), ("1e400", "inf")]
)
@pytest.mark.parametrize("command", ["query-group", "eval-rules"])
def test_non_finite_t0_is_one_error_line(tmp_path, capsys, command, t0, shown):
    log = tmp_path / "log.jsonl"
    write_example_log(log)
    rules = tmp_path / "rules.txt"
    rules.write_text("RULE r: IF IN_GROUP_OF(2, 20) THEN 'hi'\n")
    argv = {
        "query-group": ["query-group", "--log", str(log), "--device", A],
        "eval-rules": ["eval-rules", "--log", str(log), "--rules", str(rules), "--device", A],
    }[command]
    expected = (1, "", f"error: t0 must be finite, got {shown}\n")
    assert run(capsys, *argv, f"--t0={t0}") == expected
    assert run(capsys, *argv, "--t0", t0) == expected


def ends(argv: list[str]) -> tuple[int, str, str]:
    """main(argv)'s exit status, standard output and standard error; an
    argparse exit counts by the status it exits with."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def assert_ends_as_a_command_may(code: int, err: str) -> None:
    """Exit 0, exit 1 with exactly one error: line, or argparse's exit 2."""
    if code == 1:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), err
    else:
        assert code in (0, 2), (code, err)


@pytest.fixture(scope="module")
def cli_dir(tmp_path_factory):
    """A directory with small input files under in/, made from
    builtin:corridor's artifacts, plus one malformed file."""
    root = tmp_path_factory.mktemp("cli")
    inputs = root / "in"
    assert main(["simulate", "builtin:corridor", "--out", str(inputs)]) == 0
    write_scenario(corridor_scenario(), inputs / "scenario.json")
    (inputs / "rules.txt").write_text(
        "RULE g: IF IN_GROUP_OF(2, 30) THEN 'group'\n"
        "RULE v: IF FIRST_VISIT() AND NOT IS_VISIBLE('nowhere') THEN 'hello'\n"
    )
    lines = (inputs / "proximity.jsonl").read_text().splitlines(keepends=True)
    (inputs / "bad.jsonl").write_text("".join(lines[:3]) + lines[3][: len(lines[3]) // 2] + "\n")
    return root


# Python 3.10-3.12 hand an option written "--opt=--" the value [], where
# 3.13 hands it the text "--".
_bare = argparse.ArgumentParser()
_bare.add_argument("--x")
HANDS_NO_TEXT = _bare.parse_args(["--x=--"]).x == []

D = "02:00:00:00:01:01"  # a device of builtin:corridor
QUERY = ["query-group", "--log", "in/proximity.jsonl", "--device", D]
EVAL = ["eval-rules", "--log", "in/proximity.jsonl", "--rules", "in/rules.txt", "--device", D]


@pytest.mark.parametrize(
    "argv",
    [
        [*QUERY, "--t0=--"],
        ["query-group", "--log", "in/proximity.jsonl", "--device=--"],
        ["query-group", "--log=--", "--device", D],
        ["eval-rules", "--log", "in/proximity.jsonl", "--rules=--", "--device", D],
        ["simulate", "builtin:corridor", "--out=--"],
        ["simulate", "builtin:corridor", "--out", "run", "--seed=--"],
        ["compare", "builtin:corridor", "--seed=--"],
    ],
    ids=["t0", "device", "log", "rules", "simulate-out", "simulate-seed", "compare-seed"],
)
def test_option_without_text_is_one_error_line(cli_dir, monkeypatch, argv):
    monkeypatch.chdir(cli_dir)
    [option] = [arg[: -len("=--")] for arg in argv if arg.endswith("=--")]
    code, out, err = ends(argv)
    if HANDS_NO_TEXT:
        assert (code, out, err) == (1, "", f"error: {option}: expected a value\n")
    else:  # "--" is the option's text, which its own check takes or refuses
        assert_ends_as_a_command_may(code, err)


@pytest.mark.parametrize(
    "argv, option, message",
    [
        (QUERY, "--omega", "omega must be positive, got -inf"),
        (QUERY, "--delta", "delta must be non-negative, got -inf"),
        (QUERY, "--t-max", "t_max must be positive, got -inf"),
        (EVAL, "--session-gap", "session_gap must be positive, got -inf"),
        (["convoy-baseline", "--trajectories", "in/trajectories.jsonl"], "--e", "e must be positive, got -inf"),
    ],
    ids=["omega", "delta", "t-max", "session-gap", "e"],
)
def test_negative_text_reaches_the_option_check(cli_dir, monkeypatch, argv, option, message):
    monkeypatch.chdir(cli_dir)
    expected = (1, "", f"error: {message}\n")
    assert ends([*argv, f"{option}=-inf"]) == expected
    assert ends([*argv, option, "-inf"]) == expected


# The whole command line, drawn from each command's own parser: any of the
# command's options, at times abbreviated, and all of its positionals. Each
# value is usable two times in three; otherwise it is from HOSTILE or, as
# often, argparse's own "--".
COMMANDS = next(a.choices for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
# A command line holds no NUL character, so none is drawn.
HOSTILE = [
    *("--", "-inf", "nan", "1e400", "", "-1", "-", "é", "-h", "--x"),
    *("in/bad.jsonl", "in/missing.jsonl", "nobody"),
]
USABLE = {
    "scenario": ["builtin:corridor", "builtin:fig4", "in/scenario.json"],
    "inputs": ["in/proximity.jsonl"],
    "out": ["out", "out/sub", "merged.jsonl"],
    "log": ["in/proximity.jsonl"],
    "rules": ["in/rules.txt"],
    "trajectories": ["in/trajectories.jsonl"],
    "device": ["02:00:00:00:01:01", "02-00-00-00-01-02", "03:00:00:00:00:01"],
    "t0": ["latest", "60", "58.5"],
    float: ["2.0", "0.5", "10", "0"],
    int: ["1", "2", "3", "11"],
}


@st.composite
def command_lines(draw) -> tuple[list[str], list[str]]:
    """(argv, the same argv with every "--opt VALUE" before a bare "--" written
    "--opt=VALUE" unless VALUE starts with "--")."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    pieces: list[tuple[list[str], list[str]]] = []
    for action in COMMANDS[command]._actions:
        if action.nargs == 0 or not (action.required or draw(st.booleans())):
            continue
        usable = USABLE[action.type if action.type in (float, int) else action.dest]
        for _ in range(2 if action.nargs == "+" and draw(st.booleans()) else 1):
            value = draw(st.sampled_from(draw(st.sampled_from([usable] * 4 + [HOSTILE, ["--"]]))))
            if not action.option_strings:
                pieces.append(([value], [value]))
                continue
            option = draw(st.sampled_from(action.option_strings))
            if len(option) > 3 and draw(st.integers(0, 3)) == 0:
                # An abbreviation, which no parser takes for the option.
                option = option[: draw(st.integers(3, len(option) - 1))]
            drawn = draw(st.sampled_from([[option, value], [f"{option}={value}"]]))
            pieces.append((drawn, drawn if value.startswith("--") else [f"{option}={value}"]))
    argv, joined = [command], [command]
    for drawn, written in draw(st.permutations(pieces)):
        argv += drawn
        joined += drawn if "--" in joined else written
    return argv, joined


@settings(max_examples=300, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lines=command_lines())
@example(lines=(["query-group", "--log", "in/proximity.jsonl", "--device", "nobody", "--omega", "-inf"],
                ["query-group", "--log", "in/proximity.jsonl", "--device", "nobody", "--omega=-inf"]))
@example(lines=(["simulate", "builtin:corridor", "--out=--"],) * 2)
@example(lines=([*QUERY, "--om", "-inf"], [*QUERY, "--om=-inf"]))
@example(lines=([*QUERY, "--om", "-h"], [*QUERY, "--om=-h"]))
def test_every_command_line_ends_in_one_of_three_ways(cli_dir, monkeypatch, lines):
    """Exit 0, exit 1 with one error: line, or argparse's exit 2, never an
    exception; and "--opt VALUE" ends as "--opt=VALUE" does, for an
    abbreviated --opt too."""
    monkeypatch.chdir(cli_dir)
    argv, joined = lines
    code, out, err = ends(argv)
    assert_ends_as_a_command_may(code, err)
    assert ends(joined) == (code, out, err)
