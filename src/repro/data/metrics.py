"""Distance metrics for vector search.

ALGAS (and the graph indexes it searches) supports Euclidean distance and
cosine similarity (Table III of the paper).  Everything in this module is
expressed as a *distance* to minimize: squared Euclidean distance for
``"l2"`` and ``1 - cosine_similarity`` for ``"cosine"``.

All kernels are NumPy-vectorized and blocked so that pairwise computations
over tens of thousands of vectors stay cache-friendly (see the hpc guide:
vectorize, avoid copies, mind cache effects).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "METRICS",
    "normalize",
    "require_finite",
    "require_unit",
    "pairwise_distances",
    "pair_distances",
    "PairKernel",
    "PAIR_SCRATCH_BYTES",
    "pair_block_rows",
    "query_distances",
    "distance_one",
    "BLOCK_BYTES",
    "row_blocks",
]

#: Supported metric names.
METRICS = ("l2", "cosine")

#: Operand scratch of one blocked pair kernel (:class:`PairKernel` and the
#: codec kernels of :mod:`repro.search.precision`), in bytes.  A kernel
#: gathers its operands into blocks of ``pair_block_rows(row_bytes)`` pairs
#: allocated once from this budget, so the gather -> reduce working set
#: stays in L2 however many pairs a lockstep round scores.  Not a knob:
#: every substrate has its optimum here.  One kernel call on 200k
#: row-sorted pairs (100k for 960-d float32), median of 7, 2-core host, ms:
#:
#: =============  ====  =====  =====  =====  =====  =====  =====  ======
#: scratch (KiB)    32    128    256    512  1 024  2 048  8 192  65 536
#: 128-d float32  46.3   21.1   17.7   15.3   16.9   20.6   23.7    36.2
#: 960-d int8      264    122   98.6   87.6   81.7   97.6    105     190
#: 960-d float32   171   68.4   54.8   48.6   47.7   65.0   74.4     126
#: =============  ====  =====  =====  =====  =====  =====  =====  ======
#:
#: Smaller blocks pay Python dispatch per block, larger ones fall out of
#: L2 and stream through DRAM again (docs/performance.md).  512 KiB is 512
#: pairs a block at 128-d float32 (2 x 512 B a pair) and 109 at 960-d int8
#: (960 B of codes + 3 840 B of scaled query a pair).
PAIR_SCRATCH_BYTES = 512 * 1024


def pair_block_rows(row_bytes: int) -> int:
    """Pairs per block for a kernel whose operands take ``row_bytes`` of
    scratch per pair (at least one, so a single very wide row still runs)."""
    return max(1, PAIR_SCRATCH_BYTES // row_bytes)


def _check_metric(metric: str) -> str:
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}; expected one of {METRICS}")
    return metric


def require_finite(x: np.ndarray, what: str) -> None:
    """Raise ``ValueError`` naming the first row of the 2-D ``x`` that holds
    NaN or inf.  The search boundary check: a NaN distance compares false
    against every bound, so it would silently thin results downstream."""
    bad = np.flatnonzero(~np.isfinite(x).all(axis=1))
    if bad.size:
        raise ValueError(
            f"{what} must be finite: row {int(bad[0])} holds NaN or inf"
        )


#: Largest ``| |x|^2 - 1 |`` a row may show under cosine: every cosine
#: kernel computes ``1 - dot``, a distance only between unit rows.  A
#: float32 ``normalize`` leaves about 1e-7.
UNIT_SQNORM_TOL = 1e-3


def require_unit(sqnorms: np.ndarray, what: str) -> None:
    """Raise ``ValueError`` naming the first row whose squared norm (in
    ``sqnorms``) is not 1: the cosine boundary check."""
    bad = np.flatnonzero(np.abs(sqnorms - 1.0) > UNIT_SQNORM_TOL)
    if bad.size:
        i = int(bad[0])
        raise ValueError(
            f"{what} must be unit-norm under cosine: row {i} has norm "
            f"{float(np.sqrt(sqnorms[i])):.4g}"
        )


def normalize(x: np.ndarray, copy: bool = True) -> np.ndarray:
    """Return ``x`` with unit-L2-norm rows (zero rows are left untouched).

    Cosine distance on normalized vectors reduces to ``1 - dot``, which is
    what the GPU kernels in the paper compute; we normalize once at index
    build time rather than per distance evaluation.
    """
    x = np.array(x, dtype=np.float32, copy=copy)
    if x.ndim == 1:
        n = float(np.linalg.norm(x))
        if n > 0.0:
            x /= n
        return x
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    np.maximum(norms, np.finfo(np.float32).tiny, out=norms)
    x /= norms
    return x


def distance_one(a: np.ndarray, b: np.ndarray, metric: str = "l2") -> float:
    """Distance between two single vectors."""
    _check_metric(metric)
    a = np.asarray(a, dtype=np.float32)
    b = np.asarray(b, dtype=np.float32)
    if metric == "l2":
        d = a - b
        return float(np.dot(d, d))
    na = float(np.linalg.norm(a)) or 1.0
    nb = float(np.linalg.norm(b)) or 1.0
    return float(1.0 - np.dot(a, b) / (na * nb))


def query_distances(query: np.ndarray, points: np.ndarray, metric: str = "l2") -> np.ndarray:
    """Distances from one query vector to each row of ``points``.

    For ``"cosine"`` the inputs are assumed already normalized (the dataset
    registry normalizes cosine datasets at load time), so the computation is
    a single matvec — exactly the arithmetic a GPU CTA performs.
    """
    _check_metric(metric)
    points = np.asarray(points, dtype=np.float32)
    query = np.asarray(query, dtype=np.float32)
    if metric == "l2":
        diff = points - query
        return np.einsum("ij,ij->i", diff, diff).astype(np.float32)
    return (1.0 - points @ query).astype(np.float32)


def pair_distances(
    a: np.ndarray,
    b: np.ndarray,
    metric: str = "l2",
    a_norms: np.ndarray | None = None,
    b_norms: np.ndarray | None = None,
) -> np.ndarray:
    """Row-wise distances between matching rows of ``a`` and ``b``.

    This is the shared distance kernel of the scalar and vectorized search
    backends: the scalar path calls it with a broadcast-tiled query, the
    lockstep batch engine with per-pair gathered query rows.  Both inputs
    are materialized contiguous before the einsum, so the per-row
    accumulation order — and therefore every produced distance bit — is
    identical no matter how rows are batched (the parity suite relies on
    this for byte-identical results across backends).

    When either ``a_norms`` or ``b_norms`` (per-row squared L2 norms) is
    given, the L2 branch switches to the ``|a|^2 + |b|^2 - 2ab`` expansion
    with the missing side computed in-call — one fewer full-width pass
    than the diff form, and callers that hold fixed point sets amortize
    the norms across calls.  Both search backends pass norms, so their
    distances stay byte-identical to each other (expansion bits differ
    from diff-form bits; clamped at zero against cancellation).

    As everywhere in this module, cosine inputs are assumed normalized, so
    the cosine distance is ``1 - dot``.

    This function is the *definition*: the scalar oracle and
    :func:`~repro.search.precision.exact_rerank` call it, and
    :class:`PairKernel` — what the lockstep engine runs — must equal it bit
    for bit on gathered operands (``tests/test_pair_kernel.py``).
    """
    _check_metric(metric)
    a = np.ascontiguousarray(a, dtype=np.float32)
    b = np.ascontiguousarray(b, dtype=np.float32)
    if a.shape != b.shape or a.ndim != 2:
        raise ValueError("a and b must be matching 2-D arrays")
    if metric == "l2":
        if a_norms is not None or b_norms is not None:
            an = a_norms if a_norms is not None else np.einsum("ij,ij->i", a, a)
            bn = b_norms if b_norms is not None else np.einsum("ij,ij->i", b, b)
            d = an + bn - 2.0 * np.einsum("ij,ij->i", a, b)
            return np.maximum(d, 0.0).astype(np.float32)
        diff = a - b
        return np.einsum("ij,ij->i", diff, diff).astype(np.float32)
    return (1.0 - np.einsum("ij,ij->i", a, b)).astype(np.float32)


class PairKernel:
    """Cache-blocked :func:`pair_distances` over *indexed* rows.

    ``kernel(ia, ib)[p]`` is the distance between ``a[ia[p]]`` and
    ``b[ib[p]]`` — bit-identical to ``pair_distances(a[ia], b[ib], metric,
    a_norms[ia], b_norms[ib])`` (L2 always takes the norms expansion; a side
    given without norms gets them here, with the same einsum).  Instead of
    materialising both ``(pairs, dim)`` gathers through DRAM, pairs are
    scored ``pair_block_rows`` at a time: ``np.take(..., out=)`` into two
    operand blocks allocated once (:data:`PAIR_SCRATCH_BYTES`), then the
    per-row einsum.  Row accumulation never sees the block boundary, so no
    distance bit depends on the blocking.  Indices must be in range
    (``mode="clip"`` keeps ``take`` on its unbuffered ``out=`` path; the
    engine range-checks ids in its visited test-and-set).  Returns an owned
    ``(pairs,)`` float32 array.
    """

    __slots__ = ("a", "b", "a_norms", "b_norms", "rows", "_ag", "_bg")

    def __init__(
        self,
        a: np.ndarray,
        b: np.ndarray,
        metric: str = "l2",
        a_norms: np.ndarray | None = None,
        b_norms: np.ndarray | None = None,
    ):
        _check_metric(metric)
        self.a = np.ascontiguousarray(a, dtype=np.float32)
        self.b = np.ascontiguousarray(b, dtype=np.float32)
        if self.a.ndim != 2 or self.b.ndim != 2 or self.a.shape[1] != self.b.shape[1]:
            raise ValueError("a and b must be 2-D arrays of one width")
        if metric == "l2":
            if a_norms is None:
                a_norms = np.einsum("ij,ij->i", self.a, self.a)
            if b_norms is None:
                b_norms = np.einsum("ij,ij->i", self.b, self.b)
            self.a_norms = np.asarray(a_norms, dtype=np.float32)
            self.b_norms = np.asarray(b_norms, dtype=np.float32)
        else:
            self.a_norms = self.b_norms = None
        dim = self.a.shape[1]
        self.rows = pair_block_rows(2 * 4 * dim)
        self._ag = np.empty((self.rows, dim), dtype=np.float32)
        self._bg = np.empty((self.rows, dim), dtype=np.float32)

    @property
    def scratch_nbytes(self) -> int:
        """Bytes of operand scratch held (fixed at construction)."""
        return self._ag.nbytes + self._bg.nbytes

    def __call__(self, ia: np.ndarray, ib: np.ndarray) -> np.ndarray:
        n = ib.shape[0]
        dot = np.empty(n, dtype=np.float32)
        for lo in range(0, n, self.rows):
            hi = min(lo + self.rows, n)
            ag = self._ag[: hi - lo]
            bg = self._bg[: hi - lo]
            self.a.take(ia[lo:hi], axis=0, out=ag, mode="clip")
            self.b.take(ib[lo:hi], axis=0, out=bg, mode="clip")
            np.einsum("ij,ij->i", ag, bg, out=dot[lo:hi])
        if self.a_norms is None:
            return np.subtract(np.float32(1.0), dot, out=dot)
        # (an + bn) - 2·dot, then the clamp: pair_distances' evaluation order.
        d = self.a_norms.take(ia)
        d += self.b_norms.take(ib)
        np.multiply(dot, np.float32(2.0), out=dot)
        d -= dot
        return np.maximum(d, np.float32(0.0), out=d)


def pairwise_distances(
    queries: np.ndarray,
    points: np.ndarray,
    metric: str = "l2",
    point_norms: np.ndarray | None = None,
) -> np.ndarray:
    """Full (len(queries) × len(points)) distance matrix.

    Uses the ``|a-b|^2 = |a|^2 - 2ab + |b|^2`` expansion for L2 so the inner
    loop is one GEMM, evaluated as ``(qq + pp) - 2·G`` and clamped at zero
    against cancellation, in two ``(Q, P)`` float32 buffers.
    ``point_norms`` are the points' squared norms when the caller keeps
    them (the same einsum, so the same bits).
    """
    _check_metric(metric)
    q = np.asarray(queries, dtype=np.float32)
    p = np.asarray(points, dtype=np.float32)
    if q.ndim == 1:
        q = q[None, :]
    g = np.matmul(q, p.T)
    if metric == "cosine":
        return np.subtract(np.float32(1.0), g, out=g)
    qq = np.einsum("ij,ij->i", q, q)
    pp = np.einsum("ij,ij->i", p, p) if point_norms is None else point_norms
    d = np.add(qq[:, None], pp[None, :], dtype=np.float32)
    g *= np.float32(2.0)
    d -= g
    return np.maximum(d, np.float32(0.0), out=d)


#: Bytes of one block's temporary in the blocked set-up kernels: the kNN's
#: distance panel (rows × n × 4 B) and the occlusion prune's gather (rows ×
#: K × dim × 4 B).  Not a knob; the sweep (set-up time and peak RSS) is in
#: docs/performance.md, "Set-up".
BLOCK_BYTES = 4 * 1024 * 1024


def row_blocks(n_rows: int, row_bytes: int) -> list[tuple[int, int]]:
    """``[lo, hi)`` blocks of ``BLOCK_BYTES // row_bytes`` rows (at least
    two) covering ``n_rows``.  A one-row tail joins the block before it: a
    one-row GEMM takes BLAS's matrix-vector path, which rounds differently."""
    b = max(2, BLOCK_BYTES // max(row_bytes, 1))
    bounds = list(range(0, n_rows, b)) + [n_rows]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        del bounds[-2]
    return list(zip(bounds[:-1], bounds[1:]))
