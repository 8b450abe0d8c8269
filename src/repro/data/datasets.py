"""Dataset registry mirroring Table III of the paper.

Each entry describes one of the paper's four evaluation corpora; ``load``
materializes a scaled-down synthetic stand-in with the same dimensionality,
metric, and clustered structure (see DESIGN.md §2 for the substitution
rationale).  Ground truth is computed exactly and cached in-process.

>>> ds = load_dataset("sift1m-mini", n=5000, n_queries=100, seed=1)
>>> ds.base.shape[1], ds.metric
(128, 'l2')
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import synthetic
from .groundtruth import exact_knn
from .metrics import normalize

__all__ = [
    "DatasetSpec",
    "Dataset",
    "DATASETS",
    "load_dataset",
    "load_big_dataset",
    "dataset_names",
]


@dataclass(frozen=True)
class DatasetSpec:
    """Static description of a corpus (paper Table III)."""

    name: str
    paper_name: str
    paper_vertices: int
    dim: int
    metric: str
    #: generator family: "gaussian" (L2 corpora) or "sphere" (cosine corpora)
    family: str
    #: default synthetic scale (vertices) used by tests/benches
    default_n: int = 20_000
    n_clusters: int = 48
    intrinsic_dim: int = 18

    def blocks(self, n: int, seed: int = 0):
        """Draw ``n`` base+query vectors from this spec's distribution, as
        ``(lo, hi, float32 rows)`` blocks of
        :func:`~repro.data.synthetic.latent_mixture` (unit rows for the
        sphere family, as :func:`~repro.data.synthetic.hypersphere_mixture`)."""
        if self.family not in ("gaussian", "sphere"):
            raise ValueError(f"unknown family {self.family!r}")
        blocks = synthetic._latent_blocks(n, self.dim, n_clusters=self.n_clusters,
                                          intrinsic_dim=self.intrinsic_dim, seed=seed)
        for lo, hi, rows in blocks:
            rows = rows.astype(np.float32)
            yield lo, hi, normalize(rows, copy=False) if self.family == "sphere" else rows


@dataclass
class Dataset:
    """A materialized dataset: base vectors, queries, exact ground truth."""

    spec: DatasetSpec
    base: np.ndarray
    queries: np.ndarray
    gt: np.ndarray  # (n_queries, gt_k) exact neighbour ids
    gt_dist: np.ndarray = field(repr=False, default=None)

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def metric(self) -> str:
        return self.spec.metric

    @property
    def dim(self) -> int:
        return int(self.base.shape[1])

    @property
    def n(self) -> int:
        return int(self.base.shape[0])

    def gt_at(self, k: int) -> np.ndarray:
        """Ground-truth ids truncated to ``k`` (k ≤ stored gt width)."""
        if k > self.gt.shape[1]:
            raise ValueError(f"stored ground truth has only {self.gt.shape[1]} columns")
        return self.gt[:, :k]


#: The paper's four corpora (Table III), with mini synthetic defaults.
DATASETS: dict[str, DatasetSpec] = {
    s.name: s
    for s in (
        DatasetSpec("sift1m-mini", "SIFT1M", 1_000_000, 128, "l2", "gaussian"),
        DatasetSpec("gist1m-mini", "GIST1M", 1_000_000, 960, "l2", "gaussian",
                    default_n=8_000, intrinsic_dim=22),
        DatasetSpec("glove200-mini", "GLoVe200", 1_183_514, 200, "cosine", "sphere"),
        DatasetSpec("nytimes-mini", "NYTimes", 290_000, 256, "cosine", "sphere",
                    default_n=12_000, intrinsic_dim=20),
    )
}


def dataset_names() -> list[str]:
    """Names of all registered datasets, in paper order."""
    return list(DATASETS)


@lru_cache(maxsize=16)
def _load_cached(name: str, n: int, n_queries: int, gt_k: int, seed: int) -> Dataset:
    spec = DATASETS[name]
    # Queries then base rows of one array: drawn row i lands at row at[i],
    # the inverse of the split's own (seed + 1) permutation, one block at a
    # time, so the drawn pool never exists as an array of its own.
    at = np.argsort(np.random.default_rng(seed + 1).permutation(n + n_queries))
    rows = np.empty((n + n_queries, spec.dim), dtype=np.float32)
    for lo, hi, block in spec.blocks(n + n_queries, seed):
        if spec.metric == "cosine":
            normalize(block, copy=False)
        rows[at[lo:hi]] = block
    queries, base = rows[:n_queries], rows[n_queries:]
    gt, gt_dist = exact_knn(queries, base, gt_k, metric=spec.metric)
    base.setflags(write=False)
    queries.setflags(write=False)
    gt.setflags(write=False)
    return Dataset(spec, base, queries, gt, gt_dist)


def load_dataset(
    name: str,
    n: int | None = None,
    n_queries: int = 256,
    gt_k: int = 128,
    seed: int = 0,
) -> Dataset:
    """Materialize a registered dataset (cached on its full parameter tuple).

    Parameters
    ----------
    n:
        Number of base vectors; defaults to the spec's ``default_n``.
    gt_k:
        Width of the stored exact ground truth (must cover every TopK the
        experiments use — the paper sweeps TopK up to 128 in Fig. 12).
    """
    if name not in DATASETS:
        raise KeyError(f"unknown dataset {name!r}; known: {dataset_names()}")
    spec = DATASETS[name]
    n = spec.default_n if n is None else int(n)
    if n <= gt_k:
        raise ValueError("n must exceed gt_k")
    if n_queries <= 0:
        raise ValueError("n_queries must be positive")
    return _load_cached(name, n, int(n_queries), int(gt_k), int(seed))


def load_big_dataset(
    name: str,
    n: int,
    n_queries: int = 256,
    gt_k: int = 128,
    seed: int = 0,
    cache_dir=None,
    chunk_size: int | None = None,
) -> Dataset:
    """Materialize a registered dataset at production scale (100k–1M+).

    Uses the chunked :class:`~repro.data.storage.LatentMixtureModel` (the
    same distribution family as :func:`load_dataset`, with an
    independently seeded draw order) streamed into a memory-mapped
    ``.npy`` under ``cache_dir``, so the base corpus never has to fit in
    one eager ndarray.  Ground truth is computed with the point-blocked
    :func:`~repro.data.storage.exact_knn_big`.

    ``cache_dir`` defaults to ``~/.cache/repro/datasets``; an existing
    cache file for the same ``(name, n, seed)`` is reused as-is (chunked
    generation is deterministic, so the file content is reproducible).
    """
    import os
    from pathlib import Path

    from .storage import LatentMixtureModel, exact_knn_big, generate_memmap

    if name not in DATASETS:
        raise KeyError(f"unknown dataset {name!r}; known: {dataset_names()}")
    spec = DATASETS[name]
    if n <= gt_k:
        raise ValueError("n must exceed gt_k")
    model = LatentMixtureModel(
        dim=spec.dim,
        n_clusters=spec.n_clusters,
        intrinsic_dim=spec.intrinsic_dim,
        normalized=(spec.metric == "cosine"),
        seed=seed,
        **({"chunk_size": chunk_size} if chunk_size is not None else {}),
    )
    if cache_dir is None:
        cache_dir = Path(
            os.environ.get("REPRO_DATA_CACHE", Path.home() / ".cache" / "repro")
        ) / "datasets"
    cache_dir = Path(cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    path = cache_dir / f"{name}-n{n}-seed{seed}.npy"
    if path.exists():
        base = np.load(path, mmap_mode="r")
        if base.shape != (n, spec.dim):
            raise ValueError(
                f"cache file {path} has shape {base.shape}, "
                f"expected {(n, spec.dim)}"
            )
    else:
        base = generate_memmap(path, model, n)
    queries = model.queries(n_queries)
    gt, gt_dist = exact_knn_big(queries, base, gt_k, metric=spec.metric)
    queries.setflags(write=False)
    gt.setflags(write=False)
    return Dataset(spec, base, queries, gt, gt_dist)


def load_real_dataset(
    base_path,
    query_path,
    gt_path=None,
    metric: str = "l2",
    name: str = "real",
    max_base: int | None = None,
    max_queries: int | None = None,
    gt_k: int = 128,
) -> Dataset:
    """Build a :class:`Dataset` from real texmex files (SIFT1M/GIST1M).

    ``base_path``/``query_path`` are ``.fvecs`` files; ``gt_path`` is the
    corpus ``.ivecs`` ground truth (recomputed exactly when omitted or when
    the base set is truncated with ``max_base``).  This is the hook for
    running the benchmarks against the paper's actual corpora when the
    files are available locally.
    """
    from .io import read_fvecs, read_ivecs

    base = read_fvecs(base_path)
    queries = read_fvecs(query_path)
    truncated = False
    if max_base is not None and max_base < base.shape[0]:
        base = base[:max_base]
        truncated = True
    if max_queries is not None:
        queries = queries[:max_queries]
    if metric == "cosine":
        base = normalize(base, copy=False)
        queries = normalize(queries, copy=False)
    if gt_path is not None and not truncated:
        gt = read_ivecs(gt_path)[: queries.shape[0], :gt_k].astype(np.int64)
        gt_dist = None
    else:
        gt_k = min(gt_k, base.shape[0])
        gt, gt_dist = exact_knn(queries, base, gt_k, metric=metric)
    spec = DatasetSpec(
        name=name,
        paper_name=name,
        paper_vertices=int(base.shape[0]),
        dim=int(base.shape[1]),
        metric=metric,
        family="real",
    )
    return Dataset(spec, base, queries, gt, gt_dist)
