"""Smoke test of the end-to-end benchmark: every metric ``BENCHMARK.json``
names is emitted, finite, with its unit, on every workload.

Not part of tier-1 (``testpaths = tests``); run it on its own, ~40 s:

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e_smoke.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]


def run(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args], cwd=cwd, capture_output=True,
        text=True, timeout=300,
    )


def result_lines(stdout: str) -> list[dict]:
    return [json.loads(line) for line in stdout.splitlines()
            if line.startswith('{"correct"')]


def assert_metrics(result: dict, sections: tuple[str, ...]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = {m["name"]: m["unit"] for s in sections for m in CONTRACT[s]}
    assert set(result["metrics"]) == set(expected)
    for name, unit in expected.items():
        got = result["metrics"][name]
        assert got["unit"] == unit, name
        assert isinstance(got["value"], (int, float)), name
        assert math.isfinite(got["value"]), name
    for m in CONTRACT["end_to_end"]:
        if m["name"] in result["metrics"]:
            assert result["metrics"][m["name"]]["value"] > 0, m["name"]


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "smoke.json"
    proc = run("--scale", "smoke", "--seconds", "1", "--out", str(out))
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return proc.stdout, out


def test_every_workload_emits_every_metric(full_run):
    stdout, out = full_run
    results = result_lines(stdout)
    assert len(results) == len(WORKLOADS)
    for result in results:
        assert_metrics(result, ("end_to_end", "per_layer"))
    doc = json.loads(out.read_text())
    assert [r["workload"] for r in doc["rows"]] == WORKLOADS
    assert {"cpu_count", "python", "numpy", "blas", "blas_threads", "numba",
            "git_sha", "git_dirty"} <= set(doc["header"])
    for row in doc["rows"]:
        assert not row["missing_counters"], row["workload"]
        assert (HERE / "out" / f"{row['workload']}.trace.json").exists()
        printed = printed_metrics(stdout, row["workload"])
        for section in ("end_to_end", "per_layer"):
            for m in CONTRACT[section]:
                assert printed.get(m["name"]) == m["unit"], m["name"]


def printed_metrics(stdout: str, workload: str) -> dict:
    """name -> unit of the human-readable metric lines of one workload."""
    block = stdout.split(f"== {workload} ")[1].split("\n== ")[0]
    lines = [line.split() for line in block.splitlines()
             if line.startswith("     ")]
    return {parts[0]: parts[2] for parts in lines if len(parts) >= 3}


def test_run_agrees_with_itself(full_run):
    _, out = full_run
    proc = subprocess.run(
        [sys.executable, str(HERE / "compare.py"), str(out), str(out)],
        capture_output=True, text=True, timeout=60,
    )
    assert "regressed 0" in proc.stdout, proc.stdout
    assert "deterministic metrics that differ 0" in proc.stdout
    assert proc.returncode in (0, 2)  # 2: smoke timings too short to resolve


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"),
                                           ("1", "per_layer")])
def test_driver_invocation(trace, section):
    proc = run("--workload", "online_small_batch", "--seed", "3", "--seconds",
               "1", "--trace", trace, "--scale", "smoke")
    assert proc.returncode == 0, proc.stderr[-2000:]
    last = json.loads(proc.stdout.splitlines()[-1])
    assert_metrics(last, (section,))


def test_fails_without_the_program(tmp_path):
    """Only BENCHMARK.json and the benchmark's own files: no result, rc != 0."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run("--workload", "online_small_batch", "--seed", "1", "--seconds",
               "1", "--trace", "0", cwd=tmp_path,
               script=tmp_path / "benchmarks" / "e2e" / "run.py")
    assert proc.returncode != 0
    assert not result_lines(proc.stdout)
