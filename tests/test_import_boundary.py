"""The serve path never loads the scalar reference stack.

``repro.reference`` holds the one-step-per-iteration searchers the
lockstep engine is held to; only tests and ``benchmarks/perf`` import it.
Two checks hold that boundary: a real ``python -m repro serve`` run, whose
``-X importtime`` report lists every module it loads, and an AST scan of
every module under ``src/repro`` outside ``reference/``.  The same serve
run carries a size budget for what serving one query batch imports.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
SERVE = ("serve", "--dataset", "sift1m-mini", "--n", "2000", "--queries", "32")
#: budget for SERVE (79 modules / 17 072 lines while the scalar stack,
#: the filtered and beam-extend wrappers, the IVF-PQ copy and the second
#: tuner module were still loaded)
MAX_SERVE_MODULES = 70
MAX_SERVE_LINES = 16_200


def _source(module: str) -> Path:
    base = SRC.joinpath(*module.split("."))
    return base / "__init__.py" if base.is_dir() else base.with_suffix(".py")


def serve_modules(tmp_path) -> list[str]:
    """``repro`` modules a ``python -m repro serve`` run imports."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    run = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "repro", *SERVE],
        cwd=tmp_path, env=env, capture_output=True, text=True, check=True,
    )
    names = {line.rsplit("|", 1)[1].strip() for line in run.stderr.splitlines()
             if line.startswith("import time:")}
    return sorted(n for n in names if n == "repro" or n.startswith("repro."))


def test_serve_run_loads_no_reference_module(tmp_path):
    mods = serve_modules(tmp_path)
    assert "repro.search.batched" in mods  # the report really lists the run
    assert [m for m in mods if m.startswith("repro.reference")] == []
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
        if "reference" in path.relative_to(SRC / "repro").parts:
            continue
        bad = {m for m in _imported(path)
               if m == "repro.reference" or m.startswith("repro.reference.")}
        if bad:
            offenders[str(path.relative_to(SRC))] = sorted(bad)
    assert offenders == {}


def test_import_scan_resolves_relative_imports():
    """The scan sees ``from ..reference import x`` as ``repro.reference``."""
    names = _imported(SRC / "repro" / "reference" / "multi_cta.py")
    assert "repro.search.batched" in names
    assert "repro.reference.intra_cta" in names
