"""The installed package imports nothing outside the standard library,
decodes JSON in one place, decides finiteness in one place, keeps the
proximity log's layout to two readers, and exports what its __init__ imports.

pyproject.toml declares no runtime dependencies; this keeps that true of the
code. Relative imports stay inside the package and are not checked. Every
reader decodes through jsonio.loads, so all of them share its fast path and
its mapping of decoder errors to LogFormatError. Every module asks errors.py
whether a coordinate, a time or a threshold is usable. Only proximity.py and the
group walk in groups.py read a log's _tracks or a track's _times and
_samples, as the ProximityTrack docstring says. A name moved out of the
package must leave __all__ with its import, and no name is exported twice.
"""

import ast
import sys
from pathlib import Path

import pytest

import convoylog

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "convoylog"
MODULES = sorted(PACKAGE.glob("*.py"))


def test_modules_exist():
    assert MODULES


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_runtime_imports_only_the_standard_library(path):
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module)
    outside = {name for name in imported if name.split(".")[0] not in sys.stdlib_module_names}
    assert not outside, f"{path.name} imports {sorted(outside)}"


JSON_DECODERS = {"load", "loads"}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_only_jsonio_calls_the_json_decoder(path):
    if path.name == "jsonio.py":
        return
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in JSON_DECODERS
            and isinstance(node.value, ast.Name)
            and node.value.id == "json"
        ):
            found.append(f"json.{node.attr} on line {node.lineno}")
        elif isinstance(node, ast.ImportFrom) and node.module == "json" and node.level == 0:
            found += [f"from json import {a.name} on line {node.lineno}" for a in node.names if a.name in JSON_DECODERS]
    assert not found, f"{path.name} decodes JSON itself: {found}"


FINITENESS = {"isfinite", "isinf", "isnan"}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_only_errors_decides_finiteness(path):
    if path.name == "errors.py":
        return
    tree = ast.parse(path.read_text(), filename=str(path))
    from_math = {
        alias.asname or alias.name: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "math" and node.level == 0
        for alias in node.names
    }

    def math_name(node):
        """The math attribute node names, as math.x or as x from math, or None."""
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "math":
            return node.attr
        return from_math.get(node.id) if isinstance(node, ast.Name) else None

    found = []
    for node in ast.walk(tree):
        if math_name(node) in FINITENESS:
            found.append(f"math.{math_name(node)} on line {node.lineno}")
        elif isinstance(node, ast.Compare) and any(math_name(n) == "inf" for n in ast.walk(node)):
            found.append(f"a comparison with math.inf on line {node.lineno}")
    assert not found, f"{path.name} decides finiteness itself: {found}"


LOG_LAYOUT = {"_tracks", "_times", "_samples"}
LOG_LAYOUT_READERS = {"proximity.py", "groups.py"}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_only_the_log_and_the_walk_read_the_log_layout(path):
    if path.name in LOG_LAYOUT_READERS:
        return
    found = [
        f".{node.attr} on line {node.lineno}"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and node.attr in LOG_LAYOUT
    ]
    assert not found, f"{path.name} reads the proximity log's layout: {found}"


def test_all_is_exactly_what_the_package_imports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert sorted(convoylog.__all__) == sorted(imported)
    unresolved = [name for name in convoylog.__all__ if not hasattr(convoylog, name)]
    assert not unresolved
