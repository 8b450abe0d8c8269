"""Quantized-distance traversal substrates for the graph-search hot path.

Per-hop distance evaluation is the dominant cost of graph traversal at
high dimension: every expansion step is a full ``dim``-wide float32 kernel.
CAGRA-Q and FAISS cut that cost by walking the graph on a *compressed*
representation of the base vectors and restoring exactness with a final
float32 re-rank of the surviving candidates.  This module provides the
compressed substrates as pluggable codecs, each beside the quantizer that
trains it:

* :class:`Int8Codec` — :class:`ScalarQuantizer` (SQ8) codes.  Distances
  use the ``|q - x̂|² = (|q|² - 2 q·lo) - 2 (q∘s)·c + |x̂|²`` expansion, so
  the per-hop kernel reads 1 byte/dimension and the per-query terms
  (``q∘s``, ``|q|² - 2 q·lo``) are built once at dispatch.  On hardware
  this is a DP4A dot product (4 int8 MACs per lane-cycle, 4× less
  memory traffic); the cost model prices it that way.
* :class:`PQCodec` — :class:`ProductQuantizer` ADC.  Per-query lookup
  tables are built once at dispatch; each hop costs ``m`` table lookups
  per point instead of ``dim`` FMAs (the scan of
  :class:`~repro.search.ivf.IVFPQIndex`, moved into the traversal).

Both codecs return float32 *approximate* distances with the same calling
convention as :func:`repro.data.metrics.pair_distances`, and both are
bit-deterministic across backends: the scalar reference
(``tests/reference``) and the lockstep engine issue the identical
per-row einsum / table-gather arithmetic, so scalar-vs-vectorized parity
holds for every precision (the same argument as the float32 norms
expansion — see ``pair_distances``).

:func:`exact_rerank` is the shared exactness-restoring pass: the top
``rerank_mult × k`` survivors of the approximate candidate list are
re-scored with the full float32 kernel and the TopK is taken over exact
distances.  Recall therefore degrades only when a true neighbour fell off
the *candidate list* during the compressed walk, not merely because its
approximate distance was slightly wrong.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data.metrics import pair_block_rows, pair_distances, row_blocks

__all__ = [
    "PRECISIONS",
    "DEFAULT_RERANK_MULT",
    "ScalarQuantizer",
    "ProductQuantizer",
    "CodecInfo",
    "Int8Codec",
    "PQCodec",
    "Int8Kernel",
    "PQKernel",
    "make_codec",
    "default_pq_m",
    "exact_rerank",
]

#: Supported traversal precisions.  ``"float32"`` is the exact baseline
#: (no codec); the others walk the graph on compressed distances.
PRECISIONS = ("float32", "int8", "pq")

#: Default exact re-rank pool multiplier: re-score ``rerank_mult × k``.
DEFAULT_RERANK_MULT = 2


@dataclass(frozen=True)
class CodecInfo:
    """JSON-able codec provenance (lands in ``ServeReport.meta["precision"]``)."""

    precision: str
    dim: int
    bytes_per_vector: int
    m: int | None = None
    ks: int | None = None
    train_seed: int | None = None
    train_n: int | None = None


def default_pq_m(dim: int) -> int:
    """Default PQ subspace count: ~8 dims per sub-code (CAGRA-Q's ratio)."""
    for dsub in (8, 4, 2, 1):
        if dim % dsub == 0:
            return dim // dsub
    return dim


class ScalarQuantizer:
    """SQ8: per-dimension affine quantization to uint8.

    The lighter-weight FAISS compression: 4× smaller than float32 with
    near-lossless recall on natural corpora.  ``encode``/``decode`` use
    per-dimension (min, max) ranges learned from the training set;
    distances are computed on reconstructions (symmetric).
    """

    def __init__(self):
        self.lo: np.ndarray | None = None
        self.scale: np.ndarray | None = None

    def fit(self, vectors: np.ndarray) -> "ScalarQuantizer":
        vectors = np.asarray(vectors, dtype=np.float32)
        if vectors.ndim != 2 or vectors.shape[0] == 0:
            raise ValueError("vectors must be a non-empty (n, dim) array")
        self.lo = vectors.min(axis=0)
        span = vectors.max(axis=0) - self.lo
        self.scale = np.where(span > 0, span / 255.0, 1.0).astype(np.float32)
        return self

    def _check(self) -> None:
        if self.lo is None:
            raise RuntimeError("ScalarQuantizer is not fitted")

    def encode(self, vectors: np.ndarray) -> np.ndarray:
        self._check()
        v = np.asarray(vectors, dtype=np.float32)
        codes = np.rint((v - self.lo) / self.scale)
        return np.clip(codes, 0, 255).astype(np.uint8)

    def decode(self, codes: np.ndarray) -> np.ndarray:
        self._check()
        return codes.astype(np.float32) * self.scale + self.lo

    def quantization_error(self, vectors: np.ndarray) -> float:
        """Mean squared reconstruction error of ``vectors``."""
        rec = self.decode(self.encode(vectors))
        v = np.asarray(vectors, dtype=np.float32)
        return float(((v - rec) ** 2).sum(1).mean())


class ProductQuantizer:
    """Classic PQ: split ``dim`` into ``m`` subspaces with ``ks`` centroids.

    Codes are ``uint8`` (``ks <= 256``).  Distances are squared-L2; for
    cosine corpora normalize vectors first (then 1 - dot ≡ L2²/2 ordering).
    ``m=None`` takes :func:`default_pq_m` of the fitted dimension.

    The requested sizes stay apart from the fitted ones: fitting on fewer
    than ``ks`` rows trains one centroid per row, and a later refit on more
    rows trains the requested ``ks`` again.  ``m`` / ``ks`` are the fitted
    sizes (the requested ones until the first fit).
    """

    def __init__(
        self,
        m: int | None = 8,
        ks: int = 256,
        n_iters: int = 15,
        seed: int = 0,
    ):
        if m is not None and m <= 0:
            raise ValueError("m must be positive")
        if not 1 < ks <= 256:
            raise ValueError("ks must be in (1, 256]")
        self._m_requested = m
        self._ks_requested = ks
        self.m = m
        self.ks = ks
        self.n_iters = n_iters
        self.seed = seed
        self.codebooks: np.ndarray | None = None  # (m, ks, dsub)
        self.dim: int | None = None

    # ------------------------------------------------------------ training
    def fit(self, vectors: np.ndarray) -> "ProductQuantizer":
        from .ivf import kmeans

        vectors = np.asarray(vectors, dtype=np.float32)
        n, dim = vectors.shape
        m = self._m_requested or default_pq_m(dim)
        if dim % m != 0:
            raise ValueError(f"dim {dim} not divisible by pq m={m}")
        ks = min(self._ks_requested, n)
        dsub = dim // m
        self.dim = dim
        self.m, self.ks = m, ks
        self.codebooks = np.empty((m, ks, dsub), dtype=np.float32)
        for j in range(m):
            sub = vectors[:, j * dsub : (j + 1) * dsub]
            cents, _ = kmeans(sub, ks, n_iters=self.n_iters, seed=self.seed + j)
            self.codebooks[j] = cents
        return self

    def _check_fitted(self) -> None:
        if self.codebooks is None:
            raise RuntimeError("ProductQuantizer is not fitted")

    # ------------------------------------------------------------- codecs
    def encode(self, vectors: np.ndarray) -> np.ndarray:
        """Quantize rows to ``(n, m) uint8`` codes."""
        self._check_fitted()
        vectors = np.asarray(vectors, dtype=np.float32)
        if vectors.ndim == 1:
            vectors = vectors[None, :]
        n, dim = vectors.shape
        if dim != self.dim:
            raise ValueError("dimension mismatch")
        dsub = dim // self.m
        codes = np.empty((n, self.m), dtype=np.uint8)
        for j in range(self.m):
            sub = vectors[:, j * dsub : (j + 1) * dsub]
            # (n, ks) distances via the expansion; argmin per row
            c = self.codebooks[j]
            d = (
                np.einsum("nd,nd->n", sub, sub)[:, None]
                - 2.0 * sub @ c.T
                + np.einsum("kd,kd->k", c, c)[None, :]
            )
            codes[:, j] = d.argmin(axis=1).astype(np.uint8)
        return codes

    def decode(self, codes: np.ndarray) -> np.ndarray:
        """Reconstruct (approximate) vectors from codes."""
        self._check_fitted()
        codes = np.asarray(codes)
        if codes.ndim == 1:
            codes = codes[None, :]
        n = codes.shape[0]
        dsub = self.dim // self.m
        out = np.empty((n, self.dim), dtype=np.float32)
        for j in range(self.m):
            out[:, j * dsub : (j + 1) * dsub] = self.codebooks[j][codes[:, j]]
        return out

    # ----------------------------------------------------------------- ADC
    def adc_table(self, query: np.ndarray) -> np.ndarray:
        """Per-subspace lookup table ``(m, ks)``: d(query_sub, centroid)²."""
        self._check_fitted()
        query = np.asarray(query, dtype=np.float32)
        dsub = self.dim // self.m
        table = np.empty((self.m, self.ks), dtype=np.float32)
        for j in range(self.m):
            qs = query[j * dsub : (j + 1) * dsub]
            diff = self.codebooks[j] - qs
            table[j] = np.einsum("kd,kd->k", diff, diff)
        return table

    def adc_distances(self, table: np.ndarray, codes: np.ndarray) -> np.ndarray:
        """Approximate distances of coded points to the table's query."""
        codes = np.asarray(codes)
        return table[np.arange(self.m)[None, :], codes].sum(axis=1)

    def quantization_error(self, vectors: np.ndarray) -> float:
        """Mean squared reconstruction error (codebook quality metric)."""
        rec = self.decode(self.encode(vectors))
        return float(((np.asarray(vectors, dtype=np.float32) - rec) ** 2).sum(1).mean())


class Int8Codec:
    """SQ8 traversal substrate: per-dimension affine uint8 codes.

    Its kernel (:meth:`make_kernel`) mirrors the float32 norms expansion
    so the scalar and lockstep backends produce bit-identical approximate
    distances: the per-pair kernel is one row-wise einsum over the
    decoded-scale query rows and the uint8 code rows (converted
    in-register on hardware).
    """

    precision = "int8"

    def __init__(self, metric: str = "l2"):
        if metric not in ("l2", "cosine"):
            raise ValueError(f"unknown metric {metric!r}")
        self.metric = metric
        self.sq = ScalarQuantizer()
        self.codes: np.ndarray | None = None
        self._pnorm_hat: np.ndarray | None = None
        self.dim = 0

    def fit(self, points: np.ndarray) -> "Int8Codec":
        points = np.asarray(points, dtype=np.float32)
        self.sq.fit(points)
        self.codes, self._pnorm_hat = self._encode(points)
        self.dim = int(points.shape[1])
        return self

    def _encode(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """Codes of ``points`` and, for L2, the squared norms of their
        *reconstructions* (the |x̂|² term of the expansion), one row block
        at a time: both are elementwise or row-wise, so the same bits."""
        points = np.asarray(points, dtype=np.float32)
        codes = np.empty(points.shape, dtype=np.uint8)
        norms = np.empty(points.shape[0], dtype=np.float32) if self.metric == "l2" else None
        for lo, hi in row_blocks(points.shape[0], 16 * points.shape[1]):  # 4 float32 temps
            codes[lo:hi] = self.sq.encode(points[lo:hi])
            if norms is not None:
                rec = self.sq.decode(codes[lo:hi])
                norms[lo:hi] = np.einsum("ij,ij->i", rec, rec)
        return codes, norms

    @property
    def trace_dim(self) -> int:
        """Per-point distance work recorded in traces (full width for SQ8)."""
        return self.dim

    def info(self) -> CodecInfo:
        return CodecInfo(
            precision=self.precision, dim=self.dim, bytes_per_vector=self.dim
        )

    def query_state(self, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-query dispatch state: scaled query rows + affine constants.

        Every term is computed row-wise (einsum / elementwise), so row
        ``i`` of a batch state is bit-identical to the single-query state
        of query ``i`` — the backends' parity relies on this.
        """
        q = np.ascontiguousarray(queries, dtype=np.float32)
        if q.ndim == 1:
            q = q[None, :]
        qs = np.ascontiguousarray(q * self.sq.scale[None, :])
        qlo = np.einsum("ij,j->i", q, self.sq.lo)
        if self.metric == "l2":
            qoff = np.einsum("ij,ij->i", q, q) - 2.0 * qlo
        else:
            qoff = 1.0 - qlo
        return qs, qoff.astype(np.float32)

    def make_kernel(self, state: tuple[np.ndarray, np.ndarray]) -> "Int8Kernel":
        """Cache-blocked per-dispatch kernel (see :class:`Int8Kernel`)."""
        return Int8Kernel(self, state)

    def extend(self, points: np.ndarray) -> "Int8Codec":
        """Append codes for freshly inserted points (codebook unchanged).

        Streaming indexes grow between re-trains; the affine ranges stay
        frozen, so points outside the trained envelope clip — that loss is
        what :meth:`reconstruction_error` watches for.
        """
        codes, norms = self._encode(points)
        self.codes = np.concatenate([self.codes, codes], axis=0)
        if norms is not None:
            self._pnorm_hat = np.concatenate([self._pnorm_hat, norms])
        return self

    def reconstruction_error(self, points: np.ndarray) -> float:
        """Mean squared reconstruction error of ``points`` under the
        *current* codebook — the stale-codebook drift probe."""
        return self.sq.quantization_error(points)


class PQCodec:
    """PQ-ADC traversal substrate: ``m`` sub-codebook lookups per hop.

    Per-query tables are built once at dispatch (``query_state``); the
    per-hop kernel gathers one table entry per subspace per point — the
    op the cost model prices as shared-memory lookups instead of FMAs.
    """

    precision = "pq"

    def __init__(
        self,
        metric: str = "l2",
        m: int | None = None,
        ks: int = 256,
        n_iters: int = 8,
        train_sample: int = 4096,
        seed: int = 0,
    ):
        if metric not in ("l2", "cosine"):
            raise ValueError(f"unknown metric {metric!r}")
        self.metric = metric
        self.train_sample = train_sample
        self.seed = seed
        self.pq = ProductQuantizer(m=m, ks=ks, n_iters=n_iters, seed=seed)
        self.codes: np.ndarray | None = None
        self.dim = 0
        self.train_n = 0
        self._base: np.ndarray | None = None

    def fit(self, points: np.ndarray) -> "PQCodec":
        points = np.asarray(points, dtype=np.float32)
        n, dim = points.shape
        train = points
        if n > self.train_sample:
            rng = np.random.default_rng(self.seed)
            train = points[rng.choice(n, size=self.train_sample, replace=False)]
        self.codes = self.pq.fit(train).encode(points)
        self.dim = dim
        self.train_n = int(train.shape[0])
        self._base = np.arange(self.pq.m, dtype=np.int64) * self.pq.ks
        return self

    @property
    def m(self) -> int:
        return self.pq.m

    @property
    def ks(self) -> int:
        return self.pq.ks

    @property
    def trace_dim(self) -> int:
        """ADC costs ``m`` lookups per point — traces record dim = m."""
        return self.pq.m

    def info(self) -> CodecInfo:
        return CodecInfo(
            precision=self.precision,
            dim=self.dim,
            bytes_per_vector=self.pq.m,
            m=self.pq.m,
            ks=self.pq.ks,
            train_seed=self.seed,
            train_n=self.train_n,
        )

    def query_state(self, queries: np.ndarray) -> np.ndarray:
        """Flattened per-query ADC tables, ``(B, m·ks)`` float32.

        L2 tables hold squared sub-distances (``d = Σ lookups``); cosine
        tables hold negated sub-dot-products (``d = 1 + Σ lookups``).
        Built subspace-by-subspace with row-wise einsum, so a batch row is
        bit-identical to the corresponding single-query table.
        """
        q = np.ascontiguousarray(queries, dtype=np.float32)
        if q.ndim == 1:
            q = q[None, :]
        pq = self.pq
        dsub = self.dim // pq.m
        tables = np.empty((q.shape[0], pq.m, pq.ks), dtype=np.float32)
        for j in range(pq.m):
            qs = q[:, j * dsub : (j + 1) * dsub]
            cb = pq.codebooks[j]
            if self.metric == "l2":
                diff = qs[:, None, :] - cb[None, :, :]
                tables[:, j, :] = np.einsum("bkd,bkd->bk", diff, diff)
            else:
                tables[:, j, :] = -np.einsum("bd,kd->bk", qs, cb)
        return np.ascontiguousarray(tables.reshape(q.shape[0], -1))

    def make_kernel(self, state: np.ndarray) -> "PQKernel":
        """Cache-blocked per-dispatch kernel (see :class:`PQKernel`)."""
        return PQKernel(self, state)

    def extend(self, points: np.ndarray) -> "PQCodec":
        """Append codes for freshly inserted points (codebooks unchanged)."""
        self.codes = np.concatenate([self.codes, self.pq.encode(points)], axis=0)
        return self

    def reconstruction_error(self, points: np.ndarray) -> float:
        """Mean squared reconstruction error of ``points`` under the
        *current* codebooks — the stale-codebook drift probe."""
        return self.pq.quantization_error(points)


class Int8Kernel:
    """Reusable SQ8 distance kernel: one dispatch, many lockstep rounds.

    Same arithmetic as the allocating oracle
    (``tests/oracles.py::codec_distances``), cache-blocked like
    :class:`~repro.data.metrics.PairKernel`: pairs are scored
    ``pair_block_rows`` at a time through two operand blocks — the
    gathered uint8 code rows and the gathered scaled query rows — allocated
    once from :data:`~repro.data.metrics.PAIR_SCRATCH_BYTES`, so the
    scratch never scales with a round's width (unblocked, the query-row
    gather alone reached 0.94 GB at 960-d).

    Bit parity with the reference is by construction: ``np.take(...,
    out=)`` gathers the same values into contiguous rows, the uint8 →
    float32 conversion is exact whether materialised (reference) or
    buffered inside the mixed-dtype einsum (here), per-row accumulation
    never sees the block boundary, and the elementwise tail runs the same
    ops in the same order.  Returns an owned ``(pairs,)`` float32 array.
    """

    __slots__ = ("codes", "pnorm_hat", "qs", "qoff", "l2", "rows", "_c8", "_qg")

    def __init__(self, codec: "Int8Codec", state: tuple[np.ndarray, np.ndarray]):
        self.codes = codec.codes
        self.pnorm_hat = codec._pnorm_hat
        self.qs, self.qoff = state
        self.l2 = codec.metric == "l2"
        dim = self.codes.shape[1]
        self.rows = pair_block_rows((1 + 4) * dim)
        self._c8 = np.empty((self.rows, dim), dtype=self.codes.dtype)
        self._qg = np.empty((self.rows, dim), dtype=np.float32)

    @property
    def scratch_nbytes(self) -> int:
        """Bytes of operand scratch held (fixed at construction)."""
        return self._c8.nbytes + self._qg.nbytes

    def __call__(self, qrows: np.ndarray, ids: np.ndarray) -> np.ndarray:
        n = ids.shape[0]
        dot = np.empty(n, dtype=np.float32)
        for lo in range(0, n, self.rows):
            hi = min(lo + self.rows, n)
            c8 = self._c8[: hi - lo]
            qg = self._qg[: hi - lo]
            # mode="clip" keeps np.take on its unbuffered fast path (the
            # default "raise" mode bounce-buffers when out= is given); ids
            # and qrows are graph node ids / row indices, always in range,
            # so the gathered values are identical.
            self.codes.take(ids[lo:hi], axis=0, out=c8, mode="clip")
            self.qs.take(qrows[lo:hi], axis=0, out=qg, mode="clip")
            # Mixed-dtype einsum: the nditer casts uint8 rows to float32 in
            # buffer chunks, bit-identical to a materialised cast (exact
            # conversion, same per-row accumulation) while never writing
            # the 4x-wider float rows back through memory.
            np.einsum("ij,ij->i", qg, c8, out=dot[lo:hi])
        acc = self.qoff[qrows]
        if self.l2:
            # (qoff + pnorm_hat) - 2·dot, the reference's left-to-right
            # evaluation order, then the same clamp.
            acc += self.pnorm_hat[ids]
            np.multiply(dot, np.float32(2.0), out=dot)
            acc -= dot
            return np.maximum(acc, np.float32(0.0), out=acc)
        acc -= dot
        return acc


class PQKernel:
    """Reusable PQ-ADC distance kernel (same contract as :class:`Int8Kernel`).

    Owns the per-dispatch flattened table view plus three ``(rows, m)``
    blocks — gathered codes, flat table indices, gathered table values —
    allocated once from :data:`~repro.data.metrics.PAIR_SCRATCH_BYTES`; a
    block is one ``np.take`` code gather, an index build, one flat table
    gather, and a row-wise sum.  Output is bit-identical to the allocating
    oracle, ``tests/oracles.py::codec_distances`` (integer index math is
    order-exact; the float32 row sum runs over the same contiguous
    ``(rows, m)`` layout and never sees the block boundary).
    """

    __slots__ = ("codes", "base", "flat", "width", "cosine", "rows",
                 "_c8", "_idx", "_vals")

    def __init__(self, codec: "PQCodec", state: np.ndarray):
        self.codes = codec.codes
        self.flat = state.reshape(-1)
        self.width = state.shape[1]
        self.cosine = codec.metric == "cosine"
        # Index dtype is half the remaining per-candidate traffic: the
        # two in-place passes over the (rows, m) index block move 8·m
        # bytes each in int64 — at m = dim/8 that is as many bytes as
        # the original float32 vector, cancelling the code compression.
        # Every flat index is < state.size, so when the table fits int32
        # (any realistic dispatch; 2^31 entries is ~70k queries at
        # m=120, ks=256) the narrow type gathers identical values.
        itype = np.int32 if state.size < 2**31 else np.int64
        self.base = codec._base.astype(itype)
        m = self.codes.shape[1]
        self.rows = pair_block_rows((1 + np.dtype(itype).itemsize + 4) * m)
        self._c8 = np.empty((self.rows, m), dtype=self.codes.dtype)
        self._idx = np.empty((self.rows, m), dtype=itype)
        self._vals = np.empty((self.rows, m), dtype=np.float32)

    @property
    def scratch_nbytes(self) -> int:
        """Bytes of operand scratch held (fixed at construction)."""
        return self._c8.nbytes + self._idx.nbytes + self._vals.nbytes

    def __call__(self, qrows: np.ndarray, ids: np.ndarray) -> np.ndarray:
        n = ids.shape[0]
        acc = np.empty(n, dtype=np.float32)
        qbase = (qrows * self.width).astype(self._idx.dtype)
        for lo in range(0, n, self.rows):
            hi = min(lo + self.rows, n)
            c8 = self._c8[: hi - lo]
            idx = self._idx[: hi - lo]
            vals = self._vals[: hi - lo]
            # mode="clip" for the unbuffered out= fast path; ids are graph
            # node ids and idx is built from in-range codes/subspace
            # offsets, so no index ever actually clips.
            self.codes.take(ids[lo:hi], axis=0, out=c8, mode="clip")
            np.copyto(idx, c8, casting="unsafe")  # uint8 → int: exact
            idx += self.base[None, :]
            idx += qbase[lo:hi, None]
            self.flat.take(idx, out=vals, mode="clip")
            np.sum(vals, axis=1, out=acc[lo:hi])
        if self.cosine:
            acc += np.float32(1.0)
        return acc


def make_codec(
    precision: str,
    points: np.ndarray,
    metric: str = "l2",
    *,
    pq_m: int | None = None,
    pq_ks: int = 256,
    seed: int = 0,
):
    """Fit the traversal codec for ``precision`` (None for ``"float32"``)."""
    if precision not in PRECISIONS:
        raise ValueError(
            f"unknown precision {precision!r}; expected one of {PRECISIONS}"
        )
    if precision == "float32":
        return None
    if precision == "int8":
        return Int8Codec(metric=metric).fit(points)
    return PQCodec(metric=metric, m=pq_m, ks=pq_ks, seed=seed).fit(points)


def exact_rerank(
    points: np.ndarray,
    query: np.ndarray,
    metric: str,
    ids: np.ndarray,
    k: int,
    qnorm: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Re-score approx-ordered candidates exactly; return the exact TopK.

    ``ids`` is the (duplicate-free) re-rank pool in approximate-distance
    order; ties in the exact sort resolve by that order (stable), so both
    backends produce identical output for identical pools.  ``qnorm`` is
    the cached squared query norm (the engines' norms-expansion term),
    making the exact distances bit-identical to a float32 traversal's.
    """
    if ids.size == 0:
        return ids.copy(), np.empty(0, dtype=np.float32)
    pts = points[ids]
    d = pair_distances(
        np.broadcast_to(query, pts.shape), pts, metric,
        a_norms=None if qnorm is None else np.broadcast_to(qnorm, ids.shape),
    )
    order = np.argsort(d, kind="stable")[: min(k, ids.size)]
    return ids[order].copy(), d[order].copy()
