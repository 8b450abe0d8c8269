"""Set-up and stream repair hold no corpus-sized temporaries, bit for bit.

The corpus generator, ``load_dataset``'s split, the int8 codec's encode
and ``DynamicGraph.compact``'s pair scoring run in ``row_blocks`` blocks of
``BLOCK_BYTES``.  Their traced peaks are held to the output plus a few
blocks (``tracemalloc``, as ``test_pair_kernel.py`` bounds the engine's
scratch), and their bytes to the one-shot forms they replaced
(``tests/oracles.py``: :func:`oneshot_latent_mixture`, :func:`pooled_load`)
or to the same kernel run as one block.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

import repro.parallel.pool as pool
from repro.data import datasets, metrics
from repro.data.datasets import DATASETS, load_dataset
from repro.data.metrics import normalize
from repro.data.synthetic import hypersphere_mixture, latent_mixture
from repro.graphs import DynamicGraph, build_cagra
from repro.search.precision import Int8Codec

from .oracles import oneshot_latent_mixture, pooled_load

MiB = 1024 * 1024


def _traced_peak(fn):
    tracemalloc.start()
    try:
        out = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


# ------------------------------------------------------------- traced peaks
def test_generator_peaks_at_its_output_plus_a_block():
    # The one-shot draw held two float64 (n, dim) arrays: 106 MiB here.
    x, peak = _traced_peak(lambda: latent_mixture(7096, 960, intrinsic_dim=22))
    assert peak <= x.nbytes + 16 * MiB, (peak / MiB, x.nbytes / MiB)


def test_load_dataset_holds_no_pool(monkeypatch):
    # Ground truth holds one block's panels per core: two cores, so the
    # bound does not grow with the host.  The pool, its gathered split and
    # 4 B-a-cell kNN blocks peaked at 106 MiB.
    monkeypatch.setattr(pool, "cores", lambda: 2)
    load = datasets._load_cached.__wrapped__  # bypasses (and keeps) the cache
    ds, peak = _traced_peak(lambda: load("gist1m-mini", 3000, 4096, 10, 0))
    assert ds.base.shape == (3000, 960) and ds.queries.shape == (4096, 960)
    assert peak <= 64 * MiB, peak / MiB


@pytest.fixture(scope="module")
def churned():
    """A 10k × 128 CAGRA-12 graph with 10 % of its vertices tombstoned,
    compaction pending."""
    base = load_dataset("sift1m-mini", n=10_000, n_queries=16, gt_k=10).base
    graph = build_cagra(base, graph_degree=12, seed=0)
    dead = np.random.default_rng(0).choice(10_000, 1_000, replace=False)

    def make():
        dyn = DynamicGraph(base, graph)
        dyn.delete_batch(dead)
        return dyn

    return make


def test_compact_scores_its_pairs_in_blocks(churned):
    # Every inherited (target, source) pair gathered at once peaked at
    # 132 MiB here.
    dyn = churned()
    stats, peak = _traced_peak(dyn.compact)
    assert stats["cleared"] == 1_000 and stats["patched_rows"] > 0
    assert peak <= 24 * MiB, peak / MiB


# -------------------------------------------------------------- bit parity
def _rows_per_block(row_bytes: int) -> int:
    return metrics.BLOCK_BYTES // row_bytes


@pytest.mark.parametrize(
    "n, dim, intrinsic_dim",
    [
        (1, 16, None),
        (_rows_per_block(16 * 128) + 1, 128, None),  # one-row tail folds
        (_rows_per_block(16 * 128) + 2, 128, None),  # two-row tail block
        (300, 24, 24),  # intrinsic_dim == dim
        (1200, 960, 22),  # gist's shape: blocks of 273 rows
    ],
)
def test_generator_equals_the_oneshot_draw(n, dim, intrinsic_dim):
    for seed in (0, 3):
        want = oneshot_latent_mixture(n, dim, intrinsic_dim=intrinsic_dim, seed=seed)
        got = latent_mixture(n, dim, intrinsic_dim=intrinsic_dim, seed=seed)
        assert got.tobytes() == want.tobytes()
        got = hypersphere_mixture(n, dim, intrinsic_dim=intrinsic_dim, seed=seed)
        assert got.tobytes() == normalize(want).tobytes()


def test_generator_blocks_equal_the_oneshot_draw_at_any_budget(monkeypatch):
    want = oneshot_latent_mixture(301, 40, seed=5)
    for budget in (1, 16 * 40 * 2, 16 * 40 * 7 + 3, 16 * 40 * 150):
        monkeypatch.setattr(metrics, "BLOCK_BYTES", budget)
        assert latent_mixture(301, 40, seed=5).tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "name, n, n_queries",
    [(name, 300, 41) for name in sorted(DATASETS)] + [("sift1m-mini", 40, 1)],
)
def test_load_equals_the_pooled_split(name, n, n_queries, monkeypatch):
    # gaussian / l2 and sphere / cosine families, many blocks and a tail
    monkeypatch.setattr(metrics, "BLOCK_BYTES", 16 * DATASETS[name].dim * 37)
    ds = datasets._load_cached.__wrapped__(name, n, n_queries, 4, 2)
    base, queries = pooled_load(name, n, n_queries, 2)
    assert ds.base.tobytes() == base.tobytes()
    assert ds.queries.tobytes() == queries.tobytes()
    # queries then base: two read-only views of one array
    assert ds.queries.base is not None and ds.queries.base is ds.base.base
    assert not ds.base.flags.writeable and not ds.queries.flags.writeable


def test_compact_equals_the_unblocked_repair(churned, monkeypatch):
    monkeypatch.setattr(metrics, "BLOCK_BYTES", 1 << 40)  # one block: the unblocked repair
    want = churned()
    want.compact()
    monkeypatch.setattr(metrics, "BLOCK_BYTES", 8 * 128 * 1000 + 8 * 128)  # blocks of 1 001 pairs
    got = churned()
    got.compact()
    assert got._adj.tobytes() == want._adj.tobytes()
    assert got._counts.tobytes() == want._counts.tobytes()


@pytest.mark.parametrize("metric", ["l2", "cosine"])
def test_int8_codec_encodes_in_blocks_with_the_same_bits(metric, monkeypatch):
    pts = normalize(latent_mixture(301, 48, seed=4))
    more = normalize(latent_mixture(57, 48, seed=5)) * np.float32(1.5)  # clips
    monkeypatch.setattr(metrics, "BLOCK_BYTES", 16 * 48 * 11)  # blocks of 11 rows
    codec = Int8Codec(metric).fit(pts).extend(more)
    codes = codec.sq.encode(np.vstack([pts, more]))
    assert codec.codes.tobytes() == codes.tobytes()
    if metric == "l2":
        rec = codec.sq.decode(codes)
        assert codec._pnorm_hat.tobytes() == np.einsum("ij,ij->i", rec, rec).tobytes()
    else:
        assert codec._pnorm_hat is None
