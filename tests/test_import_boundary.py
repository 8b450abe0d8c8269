"""The serve path never loads the test oracles.

The scalar reference stack the lockstep engine is held to lives with the
tests (``tests/reference``, ``tests/oracles.py``); only tests and
``benchmarks/perf`` import it.  Two checks hold that boundary: a real
``python -m repro serve`` run, whose ``-X importtime`` report lists every
module it loads, and an AST scan of every module under ``src/repro``.  The
same serve run carries a size budget for what serving one query batch
imports.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
SERVE = ("serve", "--dataset", "sift1m-mini", "--n", "2000", "--queries", "32")
#: budget for SERVE: the measured 68 modules / 15 745 lines plus 2 %
MAX_SERVE_MODULES = 69
MAX_SERVE_LINES = 16_060


def _source(module: str) -> Path:
    base = SRC.joinpath(*module.split("."))
    return base / "__init__.py" if base.is_dir() else base.with_suffix(".py")


def serve_imports(tmp_path) -> set[str]:
    """Every module a ``python -m repro serve`` run imports."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    run = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "repro", *SERVE],
        cwd=tmp_path, env=env, capture_output=True, text=True, check=True,
    )
    return {line.rsplit("|", 1)[1].strip() for line in run.stderr.splitlines()
            if line.startswith("import time:")}


def _in(package: str, names) -> list[str]:
    return sorted(n for n in names if n == package or n.startswith(package + "."))


def test_serve_run_loads_no_reference_module(tmp_path):
    names = serve_imports(tmp_path)
    mods = _in("repro", names)
    assert "repro.search.batched" in mods  # the report really lists the run
    assert _in("tests", names) == []
    lines = sum(len(_source(m).read_text().splitlines()) for m in mods)
    assert len(mods) <= MAX_SERVE_MODULES, (len(mods), mods)
    assert lines <= MAX_SERVE_LINES, lines


def _imported(path: Path) -> set[str]:
    """Absolute names of the modules ``path`` imports (relative imports
    resolved against its package)."""
    package = path.relative_to(SRC).parts[:-1]
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = list(package[: len(package) - node.level + 1]) if node.level else []
            mod = ".".join(base + ([node.module] if node.module else []))
            out.add(mod)
            out.update(f"{mod}.{alias.name}" for alias in node.names)
    return out


def test_no_production_module_imports_reference():
    offenders = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        bad = _in("tests", _imported(path))
        if bad:
            offenders[str(path.relative_to(SRC))] = bad
    assert offenders == {}


def test_import_scan_resolves_relative_imports():
    """The scan sees ``from .build_batched import x`` in ``repro.graphs.nsw``
    as ``repro.graphs.build_batched``."""
    names = _imported(SRC / "repro" / "graphs" / "nsw.py")
    assert "repro.graphs.build_batched" in names
    assert "repro.graphs.base.GraphIndex" in names
