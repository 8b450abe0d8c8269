"""IVF baselines (the FAISS-GPU comparator of §VI): IVF-Flat and IVF-PQ.

Inverted-file index: a k-means coarse quantizer partitions the base vectors
into ``nlist`` lists; a query scores the ``nlist`` centroids, scans the
``nprobe`` nearest lists, and selects the TopK.  Recall is controlled by
``nprobe``.  :class:`IVFFlatIndex` scans exhaustively; :class:`IVFPQIndex`
is the same index (same k-means, lists and probe) scanning PQ codes with
ADC tables — FAISS-GPU's common deployment at scale — and optionally
re-ranking the best candidates exactly.

The GPU execution profile of a query is dense phases (centroid scoring,
list scanning, the optional re-rank) plus a TopK selection — synthesized
here as a :class:`CTATrace` with one step per phase, so the same cost model
prices IVF and graph traces.  A PQ scan's step records ``m`` (table
lookups per point) as its width instead of ``dim``.
"""

from __future__ import annotations

import numpy as np

from ..data.metrics import pairwise_distances, query_distances
from ..gpusim.trace import CTATrace, StepRecord
from .batched import SearchResult
from .precision import ProductQuantizer

__all__ = ["kmeans", "IVFFlatIndex", "IVFPQIndex"]


def kmeans(
    points: np.ndarray,
    n_clusters: int,
    n_iters: int = 20,
    seed: int = 0,
    tol: float = 1e-4,
) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd's k-means (k-means++ seeding); returns (centroids, assignment).

    Vectorized: one pairwise-distance panel per iteration.  Deterministic
    given ``seed``.  Empty clusters are re-seeded from the farthest points.
    """
    points = np.asarray(points, dtype=np.float32)
    n = points.shape[0]
    if not 0 < n_clusters <= n:
        raise ValueError("need 0 < n_clusters <= n_points")
    rng = np.random.default_rng(seed)
    # k-means++ seeding
    centroids = np.empty((n_clusters, points.shape[1]), dtype=np.float32)
    centroids[0] = points[rng.integers(n)]
    closest = pairwise_distances(points, centroids[:1]).ravel()
    for c in range(1, n_clusters):
        probs = closest / max(closest.sum(), 1e-30)
        centroids[c] = points[rng.choice(n, p=probs)]
        d_new = pairwise_distances(points, centroids[c : c + 1]).ravel()
        np.minimum(closest, d_new, out=closest)

    assign = np.zeros(n, dtype=np.int64)
    prev_inertia = np.inf
    for _ in range(n_iters):
        d = pairwise_distances(points, centroids)
        assign = d.argmin(axis=1)
        inertia = float(d[np.arange(n), assign].sum())
        for c in range(n_clusters):
            mask = assign == c
            if mask.any():
                centroids[c] = points[mask].mean(axis=0)
            else:  # re-seed an empty cluster on the globally farthest point
                far = int(d.min(axis=1).argmax())
                centroids[c] = points[far]
        if prev_inertia - inertia <= tol * max(prev_inertia, 1e-30):
            break
        prev_inertia = inertia
    d = pairwise_distances(points, centroids)
    assign = d.argmin(axis=1)
    return centroids, assign


def _topk(ids: np.ndarray, d: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``k`` smallest of ``d`` in ascending (stable) order, with ids."""
    kk = min(k, ids.size)
    part = np.argpartition(d, kk - 1)[:kk]
    order = part[np.argsort(d[part], kind="stable")]
    return ids[order], d[order]


def _scan_step(n_points: int, width: int, sort_size: int) -> StepRecord:
    """One dense IVF phase: score ``n_points`` at ``width`` ops per point
    and TopK-select (no graph expansion, no visited checks)."""
    return StepRecord(
        select_offset=0, n_expanded=0,
        n_neighbors_fetched=n_points, n_visited_checks=0,
        n_new_points=n_points, dim=width,
        sort_size=sort_size, cand_list_len=0, did_sort=True,
    )


class IVFFlatIndex:
    """IVF-Flat index over a base set."""

    def __init__(
        self,
        points: np.ndarray,
        nlist: int = 64,
        metric: str = "l2",
        n_iters: int = 20,
        seed: int = 0,
    ):
        self.points = np.asarray(points, dtype=np.float32)
        self.metric = metric
        self.nlist = int(nlist)
        self.centroids, assign = kmeans(self.points, self.nlist, n_iters=n_iters, seed=seed)
        # Lists are contiguous runs of ``_ids`` (base ids grouped by list);
        # list ``c`` is ``_ids[_offsets[c]:_offsets[c + 1]]``.
        self._ids = np.argsort(assign, kind="stable").astype(np.int64)
        self._offsets = np.zeros(self.nlist + 1, dtype=np.int64)
        np.cumsum(np.bincount(assign, minlength=self.nlist), out=self._offsets[1:])

    def list_ids(self, c: int) -> np.ndarray:
        """Base ids stored in inverted list ``c``."""
        return self._ids[self._offsets[c] : self._offsets[c + 1]]

    @property
    def list_sizes(self) -> np.ndarray:
        return np.diff(self._offsets)

    def _probe(self, query: np.ndarray, k: int, nprobe: int) -> np.ndarray:
        """Base ids of the ``nprobe`` lists nearest ``query``, nearest first."""
        if not 0 < nprobe <= self.nlist:
            raise ValueError(f"nprobe must be in [1, {self.nlist}]")
        if k <= 0:
            raise ValueError("k must be positive")
        coarse = query_distances(query, self.centroids, self.metric)
        probe = np.argsort(coarse, kind="stable")[:nprobe]
        return np.concatenate([self.list_ids(int(c)) for c in probe])

    def _result(self, ids, dists, phases, record_trace: bool) -> SearchResult:
        """Package a scan: ``phases`` are the ``(n_points, width,
        sort_size)`` of each phase after centroid scoring."""
        trace = None
        if record_trace:
            dim = int(self.points.shape[1])
            steps = [_scan_step(self.nlist, dim, self.nlist)]
            steps += [_scan_step(*phase) for phase in phases]
            trace = CTATrace(steps=steps, result_len=int(ids.size))
        return SearchResult(
            ids=ids.astype(np.int64), dists=dists.astype(np.float32), trace=trace
        )

    def search(
        self, query: np.ndarray, k: int, nprobe: int, record_trace: bool = True
    ) -> SearchResult:
        """Scan the ``nprobe`` nearest lists; return exact TopK among them."""
        query = np.asarray(query, dtype=np.float32)
        cand = self._probe(query, k, nprobe)
        if cand.size == 0:
            return SearchResult(np.empty(0, np.int64), np.empty(0, np.float32))
        d = query_distances(query, self.points[cand], self.metric)
        ids, dists = _topk(cand, d, k)
        dim = int(self.points.shape[1])
        return self._result(
            ids, dists, [(int(cand.size), dim, int(min(cand.size, 4 * k)))],
            record_trace,
        )


class IVFPQIndex(IVFFlatIndex):
    """IVF-Flat lists scanned with PQ-ADC tables instead of full vectors.

    ``search`` scans the ``nprobe`` nearest lists with ADC tables and
    optionally re-ranks the best ``rerank`` candidates with exact
    distances (standard FAISS practice — without it recall saturates at
    the quantizer's resolution).  Codes are residual-free: the
    :class:`~repro.search.precision.ProductQuantizer` is trained on the
    base vectors themselves.
    """

    def __init__(
        self,
        points: np.ndarray,
        nlist: int = 64,
        m: int = 8,
        ks: int = 256,
        metric: str = "l2",
        seed: int = 0,
    ):
        super().__init__(points, nlist=nlist, metric=metric, seed=seed)
        self.pq = ProductQuantizer(m=m, ks=ks, seed=seed).fit(self.points)
        self.codes = self.pq.encode(self.points)

    def search(
        self,
        query: np.ndarray,
        k: int,
        nprobe: int,
        rerank: int = 0,
        record_trace: bool = True,
    ) -> SearchResult:
        """ADC scan of ``nprobe`` lists; optional exact re-rank."""
        query = np.asarray(query, dtype=np.float32)
        cand = self._probe(query, k, nprobe)
        if cand.size == 0:
            return SearchResult(np.empty(0, np.int64), np.empty(0, np.float32))
        approx = self.pq.adc_distances(self.pq.adc_table(query), self.codes[cand])
        # ADC scan: m table lookups per point ≈ m-dim distance work
        phases = [(int(cand.size), self.pq.m, int(min(cand.size, 4 * k)))]
        if rerank > 0:
            r = min(max(rerank, k), cand.size)
            short = cand[np.argpartition(approx, r - 1)[:r]]
            exact = query_distances(query, self.points[short], self.metric)
            ids, dists = _topk(short, exact, k)
            phases.append((int(r), int(self.points.shape[1]), int(4 * k)))
        else:
            ids, dists = _topk(cand, approx, k)
        return self._result(ids, dists, phases, record_trace)
