"""Every name an example imports from ``repro`` exists.

The examples are not run here (each serves a corpus for seconds); their
imports are parsed and resolved, so an example still naming a removed
public name fails tier-1 instead of its first reader.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parents[1] / "examples").glob("*.py"))


def repro_imports(path: Path) -> list[tuple[str, str | None]]:
    """``(module, name)`` for each ``from repro... import name`` in
    ``path`` and ``(module, None)`` for each ``import repro...``."""
    out: list[tuple[str, str | None]] = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module.split(".")[0] == "repro":
                out.extend((node.module, a.name) for a in node.names)
        elif isinstance(node, ast.Import):
            out.extend((a.name, None) for a in node.names
                       if a.name.split(".")[0] == "repro")
    return out


def unresolved(path: Path) -> list[str]:
    """The ``repro`` names ``path`` imports that do not exist."""
    missing = []
    for module, name in repro_imports(path):
        mod = importlib.import_module(module)
        if name is not None and not hasattr(mod, name):
            try:
                importlib.import_module(f"{module}.{name}")
            except ModuleNotFoundError:
                missing.append(f"{module}.{name}")
    return missing


def test_examples_exist():
    assert len(EXAMPLES) >= 5


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_imports_resolve(path):
    assert repro_imports(path), f"{path.name} imports nothing from repro"
    assert unresolved(path) == []


def test_scan_catches_a_missing_name(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("from repro import build_cagra, no_such_builder\n"
                   "from repro.graphs import nsw\n")
    assert unresolved(bad) == ["repro.no_such_builder"]
