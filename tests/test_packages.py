"""Every package declares each public name once and loads it on first use.

Each ``__init__`` is one ``lazy_exports`` table: ``__all__`` comes from
it, and a name's module is imported the first time the name is read.
These checks hold the public surface of every package to that table.
"""

from __future__ import annotations

import importlib
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import repro

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGES = ["repro"] + sorted(
    f"repro.{m.name}" for m in pkgutil.iter_modules(repro.__path__) if m.ispkg)


def test_every_package_is_walked():
    assert len(PACKAGES) == 15


@pytest.mark.parametrize("name", PACKAGES)
def test_public_surface(name):
    pkg = importlib.import_module(name)
    assert len(pkg.__all__) == len(set(pkg.__all__)), "a name is declared twice"
    for attr in pkg.__all__:
        assert getattr(pkg, attr) is not None
    star: dict = {}
    exec(f"from {name} import *", star)
    assert set(star) - {"__builtins__"} == set(pkg.__all__)
    with pytest.raises(AttributeError, match=f"module '{name}' has no attribute 'no_such_name'"):
        pkg.no_such_name


def test_dir_lists_names_not_yet_loaded():
    """In a fresh process, before any name is read, ``dir`` already lists
    all of ``__all__``."""
    code = ("import importlib, sys; bad = [p for p in sys.argv[1:] if not "
            "set(dir(importlib.import_module(p))) >= set(importlib.import_module(p).__all__)]; "
            "print(bad)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code, *PACKAGES], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


def test_a_name_resolves_to_its_definition():
    from repro.core.pipeline import ALGASSystem
    from repro.telemetry.hooks import NULL_TELEMETRY

    assert repro.ALGASSystem is ALGASSystem
    assert repro.telemetry.NULL_TELEMETRY is NULL_TELEMETRY


def test_submodule_exports_are_modules():
    from repro import bench

    assert isinstance(bench.experiments, types.ModuleType)
    assert bench.figures.__name__ == "repro.bench.figures"


def test_import_repro_loads_no_submodule():
    """``import repro`` runs the top-level table and nothing else, numpy
    included; reading one name loads that name's modules only."""
    code = ("import sys, repro; before = sorted(m for m in sys.modules if 'repro' in m "
            "or m == 'numpy'); repro.RTX_A6000; print(before, 'repro.hybrid' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "['repro', 'repro._lazy'] False"
