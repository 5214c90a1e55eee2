"""The README's console examples, run as written, print what the README shows.

Every ```console block is read as a transcript: a `$ ` line (with its
backslash-continued lines) is a command and the lines up to the next one
are its standard output. `$ cat FILE` writes FILE with the shown contents;
`$ convoylog ...` runs `python -m convoylog.cli ...` in one scratch
directory shared by all blocks, in README order, and must exit 0 and print
exactly the shown lines. A `...` line stands for any number of lines.
"""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
SRC = ROOT / "src"


def transcript(text: str) -> list[tuple[list[str], list[str]]]:
    """(argv, expected output lines) for each command of each console block."""
    steps: list[tuple[list[str], list[str]]] = []
    for block in re.findall(r"^```console\n(.*?)^```", text, re.S | re.M):
        lines = block.splitlines()
        i = 0
        while i < len(lines):
            assert lines[i].startswith("$ "), f"output before any command: {lines[i]!r}"
            command = lines[i][2:]
            while command.endswith("\\"):
                i += 1
                command = command[:-1] + lines[i]
            i += 1
            output = []
            while i < len(lines) and not lines[i].startswith("$ "):
                output.append(lines[i])
                i += 1
            steps.append((shlex.split(command), output))
    return steps


def shows(expected: list[str], out: str) -> bool:
    pattern = "".join(r"(?:.*\n)*" if line == "..." else re.escape(line) + r"\n" for line in expected)
    return re.fullmatch(pattern, out) is not None


def test_transcript_reader():
    text = "```console\n$ convoylog a --x 1 \\\n    --y 2\none\n...\n$ cat f\nbody\n```\n"
    assert transcript(text) == [(["convoylog", "a", "--x", "1", "--y", "2"], ["one", "..."]), (["cat", "f"], ["body"])]
    assert shows(["one", "...", "four"], "one\ntwo\nthree\nfour\n")
    assert shows(["one", "...", "two"], "one\ntwo\n")
    assert not shows(["one", "two"], "one\ntwo\nthree\n")
    assert not shows(["one", "...", "four"], "one\ntwo\n")


def test_console_examples_print_what_the_readme_shows(tmp_path):
    steps = transcript(README.read_text(encoding="utf-8"))
    ran = set()
    for argv, expected in steps:
        if argv[0] == "cat":
            (tmp_path / argv[1]).write_text("".join(line + "\n" for line in expected))
            continue
        assert argv[0] == "convoylog", argv
        proc = subprocess.run(
            [sys.executable, "-m", "convoylog.cli", *argv[1:]],
            capture_output=True,
            text=True,
            timeout=120,
            cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert proc.returncode == 0, (argv, proc.stderr)
        assert shows(expected, proc.stdout), (argv, proc.stdout)
        ran.add(argv[1])
    assert {"simulate", "query-group", "convoy-baseline", "eval-rules"} <= ran
