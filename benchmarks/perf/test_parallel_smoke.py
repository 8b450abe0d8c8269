"""Perf smoke gate for the multi-core substrate (scripts/test.sh --perf).

Three gates with different availability:

* **Serve parity** always runs: a 2-shard serve must be byte-identical at
  ``parallelism=2`` vs sequential.  This is the invariant the process
  substrate is built on (docs/performance.md) and it holds on any host,
  single-core containers included.
* **Serve speedup** (>= 1.8x sharded serve at 4 workers) needs 4 cores
  to mean anything: process workers on a smaller host just add fork/IPC
  overhead.  It skips loudly, with the observed ``cores()`` in the
  reason, rather than produce a vacuous pass or a spurious fail.
  BENCH_parallel.json records the curve with the host core count.
* **Wave-build threads**: ``build_nsw`` (m=8, ef_construction=32) on
  sift1m-mini 20k x 128 with every core against ``cores()`` patched to 1
  (every insertion search one engine on the caller), alternately, best
  of 3 a side, each build in a fresh child process with BLAS on one
  thread (how ``repro build`` and the e2e benchmark's set-up build).  The
  CSR must be identical and the all-cores time at most
  ``MAX_BUILD_RATIO`` of the one-core time.  Measured on a 2-core host:
  0.71-0.85x over six gate runs (one core 3.15-3.22 s, two cores
  2.23-2.73 s).  A warm process (one build already run) reads
  0.85-0.96x, its one-core build having dropped to ~2.6 s, so the gate
  does not build twice in one process.
  Skips when ``cores() == 1``: there is nothing to overlap.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import repro.parallel.pool as pool
from repro.core import ServeConfig, ShardedServer
from repro.data import load_dataset
from repro.graphs import build_cagra, build_nsw
from repro.parallel import cores

pytestmark = pytest.mark.perf_smoke

SERVE_WORKERS = 4  # pinned: the gate is "1.8x at 4 workers", not "at auto"
MIN_SERVE_SPEEDUP = 1.8
#: 0.71-0.85x measured + margin
MAX_BUILD_RATIO = 0.90


def _builder(pts):
    return build_cagra(pts, graph_degree=12)


def _sharded_server(ds, n_gpus):
    return ShardedServer(
        ds.base, _builder, n_gpus=n_gpus, metric=ds.metric,
        k=10, l_total=64, batch_size=8, max_parallel=4,
    )


def test_parallel_serve_parity():
    ds = load_dataset("sift1m-mini", n=3000, n_queries=32, gt_k=10, seed=7)
    server = _sharded_server(ds, 2)
    try:
        seq = server.serve(ds.queries, ServeConfig(parallelism=0))
        par = server.serve(ds.queries, ServeConfig(parallelism=2))
    finally:
        server.close()
    assert par.serve.to_json() == seq.serve.to_json()
    np.testing.assert_array_equal(par.ids, seq.ids)


def test_parallel_serve_speedup_gate():
    n_cores = cores()
    if n_cores < SERVE_WORKERS:
        pytest.skip(
            f"speedup gate needs >= {SERVE_WORKERS} cores, cores() = "
            f"{n_cores}: process workers cannot beat sequential without "
            f"real parallelism (the parity gate above still ran)"
        )
    ds = load_dataset("gist1m-mini", n=6000, n_queries=64, gt_k=10, seed=7)
    server = _sharded_server(ds, 4)
    try:
        server.serve(ds.queries[:4], ServeConfig(parallelism=SERVE_WORKERS))  # warm
        t0 = time.perf_counter()
        seq = server.serve(ds.queries, ServeConfig(parallelism=0))
        t_seq = time.perf_counter() - t0
        t0 = time.perf_counter()
        par = server.serve(ds.queries, ServeConfig(parallelism=SERVE_WORKERS))
        t_par = time.perf_counter() - t0
    finally:
        server.close()
    assert par.serve.to_json() == seq.serve.to_json()
    assert t_seq / t_par >= MIN_SERVE_SPEEDUP, (
        f"sharded serve at {SERVE_WORKERS} workers: {t_seq / t_par:.2f}x "
        f"< {MIN_SERVE_SPEEDUP}x (seq {t_seq:.2f}s, par {t_par:.2f}s)"
    )


def _nsw_build(n_cores: int) -> dict:
    """One ``build_nsw`` in this process with ``cores()`` reading
    ``n_cores``: its wall time and CSR digest (run in a child process by
    the gate below)."""
    pool.cores = lambda: n_cores
    ds = load_dataset("sift1m-mini", n=20_000, n_queries=16, gt_k=10, seed=7)
    t0 = time.perf_counter()
    g = build_nsw(ds.base, m=8, ef_construction=32, metric=ds.metric, seed=7)
    wall = time.perf_counter() - t0
    csr = hashlib.sha256(g.indptr.tobytes() + g.indices.tobytes()).hexdigest()
    return {"wall": wall, "csr": csr}


def test_wave_build_uses_every_core_and_moves_no_bit():
    n_cores = cores()
    if n_cores < 2:
        pytest.skip(f"one core available (cores() = {n_cores}): a split "
                    f"wave build has nothing to overlap")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")

    def child(n: int) -> dict:
        run = subprocess.run([sys.executable, __file__, str(n)], env=env,
                             capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        return json.loads(run.stdout.splitlines()[-1])

    runs = {1: [], n_cores: []}
    for _ in range(3):
        for n in runs:
            runs[n].append(child(n))
    assert len({r["csr"] for rs in runs.values() for r in rs}) == 1
    t_one = min(r["wall"] for r in runs[1])
    t_every = min(r["wall"] for r in runs[n_cores])
    ratio = t_every / t_one
    print(f"\nbuild_nsw 20k x 128: one core {t_one:.2f} s, {n_cores} cores "
          f"{t_every:.2f} s, ratio {ratio:.2f}")
    assert ratio <= MAX_BUILD_RATIO, (
        f"split wave build {t_every:.2f} s is {ratio:.2f}x the one-core "
        f"{t_one:.2f} s, above the {MAX_BUILD_RATIO}x ceiling"
    )


if __name__ == "__main__":
    print(json.dumps(_nsw_build(int(sys.argv[1]))))
