"""The serve path loads what a serve runs, and the runtime needs numpy only.

The scalar reference stack the lockstep engine is held to lives with the
tests (``tests/reference``, ``tests/oracles.py``); only tests and
``benchmarks/perf`` import it.  Two checks hold that boundary: a real
``python -m repro serve`` run, whose ``-X importtime`` report lists every
module it loads, and an AST scan of every module under ``src/repro``.  The
same serve run carries a size budget for what serving one query batch
imports, and an AST closure keeps ``repro.core.pipeline`` clear of the
tiers a plain serve never runs.  A child process with scipy and networkx
made unimportable drives the library and the CLI; a forked pool worker
imports nothing while it serves its shard.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
SERVE = ("serve", "--dataset", "sift1m-mini", "--n", "2000", "--queries", "32")
#: budget for SERVE: the measured 45 modules / 10 374 lines plus 2 %
MAX_SERVE_MODULES = 45
MAX_SERVE_LINES = 10_581


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


def _table(package: str) -> dict[str, str]:
    """``{name: defining module}`` from the ``lazy_exports`` table in the
    package's ``__init__`` (the ``"."`` key names submodules)."""
    tree = ast.parse(_source(package).read_text())
    call = next(node for node in ast.walk(tree) if isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "lazy_exports")
    table = ast.literal_eval(call.args[1])
    return {name: f"{package}.{name}" if module == "." else package + module
            for module, names in table.items() for name in names}


def _module_level_imports(module: str) -> set[str]:
    """Modules that importing ``module`` runs, one level deep: its module-
    level imports (``TYPE_CHECKING`` blocks and function bodies run later,
    if ever), a package-level name resolved to the module defining it, and
    the packages above it."""
    path = _source(module)
    package = module.split(".") if path.name == "__init__.py" else module.split(".")[:-1]
    out = {".".join(module.split(".")[:i]) for i in range(1, module.count(".") + 1)}
    tree = ast.parse(path.read_text())
    nodes = [n for n in tree.body if not (isinstance(n, ast.If)
                                          and "TYPE_CHECKING" in ast.unparse(n.test))]
    for node in nodes:
        if isinstance(node, ast.Import):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else []
            mod = ".".join(base + ([node.module] if node.module else []))
            if mod == "__future__":
                continue
            out.add(mod)
            for alias in node.names:
                name = f"{mod}.{alias.name}"
                if name.startswith("repro") and _source(name).exists():
                    out.add(name)  # a submodule
                elif mod.startswith("repro") and _source(mod).name == "__init__.py":
                    out.add(_table(mod).get(alias.name, mod))
    return out


def _closure(module: str) -> set[str]:
    seen, todo = set(), [module]
    while todo:
        mod = todo.pop()
        if mod in seen:
            continue
        seen.add(mod)
        if mod.startswith("repro"):
            todo.extend(_module_level_imports(mod))
    return seen


def test_pipeline_closure_stays_off_the_unused_tiers():
    closure = _closure("repro.core.pipeline")
    assert {"repro.search.batched", "repro.telemetry.hooks", "numpy"} <= closure
    for banned in ("repro.hybrid", "repro.resilience.chaos", "repro.core.cluster",
                   "repro.graphs.dynamic", "scipy", "networkx"):
        assert _in(banned, closure) == [], banned


def test_closure_resolves_package_names_to_their_modules():
    """``from ..telemetry import NULL_TELEMETRY`` in ``repro.core.merge``
    loads ``repro.telemetry.hooks`` and nothing else of the package."""
    closure = _closure("repro.core.merge")
    assert "repro.telemetry.hooks" in closure
    assert "repro.telemetry.exposition" not in closure


#: a child prelude: a meta-path finder that refuses scipy and networkx
BLOCK = """
import sys

class Refuse:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] in ("scipy", "networkx"):
            raise ImportError(f"{name} is not a runtime dependency")
        return None

sys.meta_path.insert(0, Refuse())
"""

NUMPY_ONLY = BLOCK + """
try:
    import scipy.sparse
except ImportError:
    pass
else:
    raise AssertionError("the finder let scipy through")

import repro
from repro import ALGASSystem, build_cagra, load_dataset
from repro.graphs import graph_stats

ds = load_dataset("sift1m-mini", n=1000, n_queries=16)
graph = build_cagra(ds.base, graph_degree=16, metric=ds.metric)
assert graph_stats(graph).n_weak_components >= 1
report = ALGASSystem(ds.base, graph, metric=ds.metric, k=10, l_total=64).serve(ds.queries)
assert report.ids.shape == (16, 10)

import runpy
sys.argv = ["repro", "serve", "--n", "2000", "--queries", "32"]
try:
    runpy.run_module("repro", run_name="__main__")
except SystemExit as done:
    assert done.code == 0, done.code
loaded = [m for m in sys.modules if m.split(".")[0] in ("scipy", "networkx")]
assert loaded == [], loaded
"""


def test_runtime_needs_numpy_only(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    run = subprocess.run([sys.executable, "-c", NUMPY_ONLY], cwd=tmp_path, env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert "recall@16" in run.stdout


FORKED_SERVE = """
import os, sys
from functools import partial

from repro import ServeConfig, ShardedServer, build_nsw, load_dataset

ds = load_dataset("sift1m-mini", n=2000, n_queries=32)
builder = partial(build_nsw, m=8, metric=ds.metric)
server = ShardedServer(ds.base, builder, n_gpus=4, parallelism=2, metric=ds.metric,
                       k=10, l_total=64, batch_size=8)
log = sys.argv[1]

class Record:
    def find_spec(self, name, path=None, target=None):
        with open(log, "a") as f:
            f.write(f"{os.getpid()} {name}\\n")
        return None

os.register_at_fork(after_in_child=lambda: sys.meta_path.insert(0, Record()))
try:
    for _ in range(2):
        server.serve(ds.queries, ServeConfig(parallelism=2))
finally:
    server.close()
with open(log, "a") as f:
    f.write("served\\n")
"""


def test_forked_worker_imports_nothing_while_serving(tmp_path):
    """Pools fork per serve call, so a module a worker imports lazily is
    paid on every call: everything a shard leg runs is loaded before the
    fork."""
    log = tmp_path / "imports.log"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", FORKED_SERVE, str(log)], cwd=tmp_path,
                   env=env, check=True, capture_output=True, text=True)
    assert log.read_text().splitlines() == ["served"]
