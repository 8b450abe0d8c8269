"""Shared wave machinery of the graph builders.

``build_nsw`` / ``build_hnsw`` insert in doubling waves, ``build_nsg``
batches its medoid-rooted searches, and ``DynamicGraph`` / the hybrid
pilot apply the same link-and-trim step to update waves: in all of them
the insertion-time beam searches run through
:class:`~repro.search.batched.LockstepEngine` against the *growing*
graph (a padded adjacency matrix + degree vector, with an ``n_visible``
prefix mask instead of a per-wave CSR rebuild), and linking,
degree-capping and pruning are row-parallel array kernels.  A
one-vertex-at-a-time Python loop spends its time in numpy dispatch
overhead at tens of thousands of points, the same way search did before
the lockstep engine (docs/performance.md, "Graph construction").

What lives here is what more than one family uses:

* :func:`_prefix_search` — lockstep beam searches of a row range against
  the inserted prefix, optionally fanned over a worker pool reading the
  build state from shared memory (:class:`_BuildShare`);
* :func:`_select_links` / :func:`_add_links` — per-row link selection and
  the bulk append-then-degree-cap (keep closest, or the diversifying
  :func:`occlusion_prune_mask`);
* :func:`_wave_graph` — the NSW / HNSW driver: exact mutual-kNN seed
  block, doubling waves, a refinement sweep that re-searches the
  earliest points against the finished graph, and
  :func:`_repair_connectivity` around it;
* :func:`_csr_from_padded` — padded adjacency to :class:`GraphIndex`.

The family modules (``nsw.py``, ``hnsw.py``, ``nsg.py``, ``cagra.py``)
hold validation and the family's own policy; the per-vertex reference
builders are in ``tests/oracles.py``.  Every build is deterministic under
a fixed seed and identical at any ``parallelism``.
"""

from __future__ import annotations

import math
from contextlib import nullcontext

import numpy as np

from ..data.metrics import pair_distances, pairwise_distances, row_blocks
from ..parallel import SharedArena, make_pool, resolve_ref
from .base import GraphIndex
from .utils import _compact_rows, _first_occurrence_mask

__all__ = ["occlusion_prune_mask"]

#: Lockstep rows per engine instance: bounds the packed visited bitmap at
#: ``_MAX_ROWS * n / 8`` bytes while keeping waves fully batched.
_MAX_ROWS = 8192

# Budget policy of the wave builders.  Wave searches see at best a
# half-built graph, so they run at a reduced beam (nsw.py / hnsw.py) and
# the saved budget funds ONE refinement sweep at the full beam over the
# earliest-inserted vertices — the ones whose insertion searches saw the
# sparsest prefix.  Builds of at most ``_MAX_ROWS`` points refine
# everything (the sweep is one cheap lockstep chunk); past that the sweep
# covers the share below.  HNSW's share is larger because occlusion-pruned
# graphs keep far fewer links per insertion.  Nothing ever set these to
# another value; docs/performance.md has the recall / wall-clock table
# they were recorded with.
#: points of the exact mutual-kNN seed block (a beam search cannot serve
#: them: the graph is still empty)
_FIRST_WAVE = 256
#: share of the earliest vertices refined when ``n > _MAX_ROWS``
_NSW_REFINE_FRAC = 0.5
_HNSW_REFINE_FRAC = 0.75


# --------------------------------------------------------------------------
# row-parallel primitives
# --------------------------------------------------------------------------

def occlusion_prune_mask(
    points: np.ndarray,
    pool_ids: np.ndarray,
    pool_d: np.ndarray,
    metric: str = "l2",
    rule: str = "mrng",
    forced: np.ndarray | None = None,
) -> np.ndarray:
    """Chunked triangle-inequality occlusion prune over candidate pools.

    ``pool_ids``/``pool_d`` are ``(B, K)`` candidate lists sorted by
    ascending distance to their row's query vertex, -1 / inf padded.  One
    batched Gram matmul per chunk gives all intra-pool distances at once;
    a chunk's ``(rows, K, dim)`` gather is sized from
    :data:`~repro.data.metrics.BLOCK_BYTES`.

    ``rule="mrng"`` is the exact MRNG / HNSW-Algorithm-4 rule: candidate
    ``c`` (rank j) is occluded when some *kept* earlier candidate ``w``
    satisfies ``d(w, c) < d(q, c)``.  The kept-set dependency makes the
    scan sequential in rank but it stays vectorized across all ``B`` rows
    (K passes over (B, j) slices of the precomputed distance tensor).
    ``rule="detour"`` is CAGRA's relaxation — occlude against *all*
    earlier-ranked candidates, kept or not — which needs no scan but
    prunes strictly more.  Rank 0 is always kept; padding never is.

    ``forced`` (same shape, bool) marks columns that are kept
    unconditionally and occlude later ranks as usual — how the delete
    repair pins a row's surviving edges while diversifying only the
    candidates competing for the freed slots.

    Pools are ragged (a delete repair's median row fills a third of its
    columns), so rows are processed in order of their *width* — one past
    the last valid column — and each chunk's Gram tensor and rank scan
    stop at the chunk's widest row; rows with no valid column are skipped.
    Columns past a row's width are padding, which neither occludes nor is
    kept, and a matmul Gram over a prefix of width ``w >= 2`` equals the
    full-width one's slice bit for bit, at any chunk size (at ``w = 1``
    the only entry is the masked diagonal), so neither the width order nor
    the chunking moves a mask bit.  The full-width einsum scan
    (``tests/oracles.py::full_width_occlusion_prune_mask``) agrees but for
    near-ties the Gram's last bit decides (docs/performance.md, "Set-up").
    This function runs on its caller's thread: the MRNG scan is a Python
    loop over columns, which loses under GIL contention.
    """
    points = np.asarray(points, dtype=np.float32)
    pool_ids = np.asarray(pool_ids)
    B, K = pool_ids.shape
    keep = np.zeros((B, K), dtype=bool)
    valid = pool_ids >= 0
    width = np.where(valid.any(axis=1), K - np.argmax(valid[:, ::-1], axis=1), 0)
    order = np.argsort(width, kind="stable")
    order = order[width[order] > 0]
    tri = np.tril(np.ones((K, K), dtype=bool))  # w >= j: only earlier ranks occlude
    for lo, hi in row_blocks(order.size, 4 * K * points.shape[1]):
        rows = order[lo:hi]
        w = int(width[rows[-1]])
        ids = pool_ids[rows, :w]
        dq = pool_d[rows, :w]
        invalid = ids < 0
        g = points[np.maximum(ids, 0)]  # (c, w, dim); padded rows are garbage, masked below
        gram = np.matmul(g, g.transpose(0, 2, 1))
        if metric == "l2":
            sq = np.einsum("ckd,ckd->ck", g, g)
            pair = sq[:, :, None] + sq[:, None, :] - 2.0 * gram
            np.maximum(pair, 0.0, out=pair)
        else:
            pair = 1.0 - gram
        # pair[c, w, j] = d(w_rank_w, c_rank_j); inf where w >= j or w padded.
        pair = np.where(tri[None, :w, :w] | invalid[:, :, None], np.inf, pair)
        fc = None if forced is None else (forced[rows, :w] & ~invalid)
        if rule == "mrng":
            kc = np.zeros((rows.size, w), dtype=bool)
            kc[:, 0] = ~invalid[:, 0]
            for j in range(1, w):
                occ = ((pair[:, :j, j] < dq[:, j][:, None]) & kc[:, :j]).any(axis=1)
                kc[:, j] = ~invalid[:, j] & ~occ
                if fc is not None:
                    kc[:, j] |= fc[:, j]
        else:
            best_detour = pair.min(axis=1)  # (c, w): cheapest earlier-ranked detour
            kc = (best_detour >= dq) & ~invalid
            kc[:, 0] = ~invalid[:, 0]
            if fc is not None:
                kc |= fc
        keep[rows, :w] = kc
    return keep


# --------------------------------------------------------------------------
# growing-graph machinery (shared by the NSW-family wave builders)
# --------------------------------------------------------------------------

class _BuildShare:
    """Multi-core state for the wave builders (docs/performance.md).

    Holds a worker pool plus shared-memory mirrors of the build state:
    the (shuffled) corpus is shared once, and the growing adjacency /
    degree arrays are *allocated in* shared memory so the parent's
    between-wave mutations (linking, trimming, repair) are visible to
    workers without any copying.  The wave loop is a strict barrier —
    workers only read during a wave's lockstep searches, the parent only
    writes between waves — so no synchronization beyond ``pool.map`` is
    needed.  Each row's beam search is independent of its chunk-mates,
    which is what makes the fan-out exact: any chunking of the rows
    produces the same pools as the sequential ``_MAX_ROWS`` sweep.
    """

    def __init__(self, points: np.ndarray, parallelism: int):
        self.pool = make_pool(parallelism)
        self.arena = SharedArena()
        self.points_ref = self.arena.share(points)
        self.adj = None
        self.counts = None
        self.adj_ref = None
        self.counts_ref = None

    def alloc_graph(self, n: int, cap: int) -> tuple[np.ndarray, np.ndarray]:
        """Segment-backed (adj, counts) the parent mutates in place."""
        self.adj, self.adj_ref = self.arena.empty((n, cap), np.int64)
        self.counts, self.counts_ref = self.arena.empty((n,), np.int64)
        self.adj.fill(-1)
        self.counts.fill(0)
        return self.adj, self.counts

    def close(self) -> None:
        self.pool.close()
        self.arena.close()

    def __enter__(self) -> "_BuildShare":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _prefix_chunk_task(payload: dict) -> tuple[int, np.ndarray, np.ndarray]:
    """One lockstep chunk of a wave's insertion searches (worker side)."""
    from ..search.batched import LockstepEngine

    points = resolve_ref(payload["points"])
    adj = resolve_ref(payload["adj"])
    counts = resolve_ref(payload["counts"])
    ents = payload["ents"]
    if ents is None:
        ents = np.full((payload["rows"], 1), payload["entry"], dtype=np.int64)
    eng = LockstepEngine(
        points,
        (adj, counts),
        points[payload["lo"] : payload["hi"]],
        np.arange(payload["rows"], dtype=np.int64),
        ents,
        payload["ef"],
        metric=payload["metric"],
        record_trace=False,
        n_visible=payload["visible"],
        alive_mask=payload["alive"],
    )
    eng.run(100 * payload["ef"] + 100, what="batched insertion search")
    ids, dists, _sizes = eng.pools()
    return payload["clo"], ids, dists


def _prefix_search_parallel(
    share: _BuildShare,
    q_lo: int,
    q_hi: int,
    visible: int,
    entry: int,
    ef: int,
    metric: str,
    row_entries: np.ndarray | None,
    alive_mask: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Fan one wave's row range over the pool; identical pools to the
    sequential sweep (rows are search-independent), deterministically
    reassembled by chunk offset."""
    W = q_hi - q_lo
    per = max(1, min(_MAX_ROWS, math.ceil(W / share.pool.n_workers)))
    payloads = []
    for clo in range(0, W, per):
        chi = min(W, clo + per)
        payloads.append({
            "points": share.points_ref,
            "adj": share.adj_ref,
            "counts": share.counts_ref,
            "lo": q_lo + clo,
            "hi": q_lo + chi,
            "clo": clo,
            "rows": chi - clo,
            "entry": entry,
            "ents": None if row_entries is None else row_entries[clo:chi],
            "ef": ef,
            "metric": metric,
            "visible": visible,
            "alive": alive_mask,
        })
    out_ids = np.full((W, ef), -1, dtype=np.int64)
    out_d = np.full((W, ef), np.inf, dtype=np.float32)
    for clo, ids, dists in share.pool.map(_prefix_chunk_task, payloads):
        out_ids[clo : clo + ids.shape[0]] = ids
        out_d[clo : clo + ids.shape[0]] = dists
    return out_ids, out_d


def _prefix_search(
    points: np.ndarray,
    q_lo: int,
    q_hi: int,
    visible: int,
    adj: np.ndarray,
    counts: np.ndarray,
    entry: int,
    ef: int,
    metric: str,
    row_entries: np.ndarray | None = None,
    collect_expansions: bool = False,
    alive_mask: np.ndarray | None = None,
    share: _BuildShare | None = None,
    point_norms: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Lockstep beam searches of vertices ``[q_lo, q_hi)`` against the
    inserted prefix ``[0, visible)``; returns (W, ef) pools sorted by
    ascending distance (-1 / inf padded).

    ``share`` fans the row chunks over a worker pool reading the same
    (shared-memory) build state; the pools are identical either way.

    ``row_entries`` optionally gives each row its own ``(W, e)`` entry
    ids (duplicates allowed) instead of the shared ``entry`` — refinement
    sweeps enter at a vertex's existing neighbours, which start the beam
    near convergence.

    With ``collect_expansions`` the returned pools are instead each row's
    *expansion log* (every vertex expanded en route, in expansion order,
    ragged width) — the NSG candidate pool, which needs the search path's
    long-range vertices, not just the final beam.

    ``point_norms`` are the points' squared norms when the caller keeps
    them (a :class:`~repro.graphs.dynamic.DynamicGraph`, which never fans
    out over a ``share``).
    """
    from ..search.batched import LockstepEngine

    if share is not None and not collect_expansions:
        assert adj is share.adj and counts is share.counts
        return _prefix_search_parallel(
            share, q_lo, q_hi, visible, entry, ef, metric,
            row_entries, alive_mask,
        )
    W = q_hi - q_lo
    out_ids = np.full((W, ef), -1, dtype=np.int64)
    out_d = np.full((W, ef), np.inf, dtype=np.float32)
    chunks: list[tuple[int, np.ndarray, np.ndarray]] = []
    for clo in range(0, W, _MAX_ROWS):
        chi = min(W, clo + _MAX_ROWS)
        B = chi - clo
        if row_entries is None:
            ents = np.full((B, 1), entry, dtype=np.int64)
        else:
            ents = row_entries[clo:chi]
        eng = LockstepEngine(
            points,
            (adj, counts),
            points[q_lo + clo : q_lo + chi],
            np.arange(B, dtype=np.int64),
            ents,
            ef,
            metric=metric,
            record_trace=False,
            n_visible=visible,
            record_expansions=collect_expansions,
            alive_mask=alive_mask,
            point_norms=point_norms,
        )
        eng.run(100 * ef + 100, what="batched insertion search")
        if collect_expansions:
            chunks.append((clo, *eng.expansion_pools()))
        else:
            ids, dists, _sizes = eng.pools()
            out_ids[clo:chi] = ids
            out_d[clo:chi] = dists
    if collect_expansions:
        width = max(c[1].shape[1] for c in chunks)
        out_ids = np.full((W, width), -1, dtype=np.int64)
        out_d = np.full((W, width), np.inf, dtype=np.float32)
        for clo, ids, dists in chunks:
            out_ids[clo : clo + ids.shape[0], : ids.shape[1]] = ids
            out_d[clo : clo + ids.shape[0], : ids.shape[1]] = dists
    return out_ids, out_d


def _select_links(
    points: np.ndarray,
    pool_ids: np.ndarray,
    pool_d: np.ndarray,
    m: int,
    metric: str,
    select: str,
    exclude: np.ndarray | None = None,
) -> np.ndarray:
    """Per-row link selection from sorted candidate pools.

    ``select="closest"`` keeps the ``m`` nearest (NSW); ``"occlusion"``
    keeps the first ``m`` survivors of the triangle-inequality prune
    (HNSW's diversifying heuristic).  ``exclude`` drops one id per row
    (the row's own vertex, for full-graph refinement searches).
    """
    valid = pool_ids >= 0
    if exclude is not None:
        valid &= pool_ids != exclude[:, None]
    if select == "occlusion":
        ids, d, _ = _compact_rows(pool_ids, valid, pool_ids.shape[1], extra=pool_d)
        occ = occlusion_prune_mask(points, ids, d, metric)
        links, _, _ = _compact_rows(ids, occ, m)
        return links
    links, _, _ = _compact_rows(pool_ids, valid, m)
    return links


def _add_links(
    points: np.ndarray,
    adj: np.ndarray,
    counts: np.ndarray,
    targets: np.ndarray,
    srcs: np.ndarray,
    cap: int,
    metric: str,
    trim: str,
    dedup: bool = False,
) -> None:
    """Append directed edges ``target → src`` in bulk, then degree-cap.

    The vectorized form of the scalar append-then-trim loop: edges are
    bucketed per target with one stable argsort, appended after the
    existing neighbours, optionally deduplicated (first occurrence wins,
    matching a ``seen``-set walk), and rows over ``cap`` are trimmed —
    ``trim="closest"`` keeps the ``cap`` nearest (NSW semantics),
    ``trim="occlusion"`` re-runs the diversifying prune over the
    distance-sorted list (HNSW's shrink).
    """
    if targets.size == 0:
        return
    order = np.argsort(targets, kind="stable")
    tv, sv = targets[order], srcs[order]
    uniq, start, cnt_new = np.unique(tv, return_index=True, return_counts=True)
    old_cnt = counts[uniq]
    total = old_cnt + cnt_new
    width = int(total.max())
    U = uniq.size
    ids = np.full((U, width), -1, dtype=np.int64)
    col = np.arange(width)
    w_old = int(old_cnt.max()) if U else 0
    if w_old:
        sub = adj[uniq][:, :w_old]
        m_old = col[:w_old][None, :] < old_cnt[:, None]
        ids[:, :w_old][m_old] = sub[m_old]
    rowi = np.repeat(np.arange(U), cnt_new)
    coli = np.repeat(old_cnt, cnt_new) + (np.arange(tv.size) - np.repeat(start, cnt_new))
    ids[rowi, coli] = sv

    if dedup:
        keep = _first_occurrence_mask(ids, ids >= 0)
        ids, _, total = _compact_rows(ids, keep, width)

    out = np.full((U, cap), -1, dtype=np.int64)
    new_counts = np.minimum(total, cap)
    ovr = total > cap
    nv = ~ovr
    w2 = min(width, cap)
    out[nv, :w2] = ids[nv, :w2]
    if ovr.any():
        ids_o = ids[ovr]
        v_o = uniq[ovr]
        valid_o = ids_o >= 0
        fr, fc = np.nonzero(valid_o)
        d = pair_distances(points[v_o[fr]], points[ids_o[fr, fc]], metric)
        dm = np.full(ids_o.shape, np.inf, dtype=np.float32)
        dm[fr, fc] = d
        osort = np.argsort(dm, axis=1, kind="stable")
        s_ids = np.take_along_axis(ids_o, osort, axis=1)
        if trim == "occlusion":
            s_d = np.take_along_axis(dm, osort, axis=1)
            occ = occlusion_prune_mask(points, s_ids, s_d, metric)
            kept, _, kcnt = _compact_rows(s_ids, occ, cap)
            out[ovr] = kept
            new_counts[ovr] = kcnt
        else:
            out[ovr] = s_ids[:, :cap]
            new_counts[ovr] = cap
    adj[uniq] = out
    counts[uniq] = new_counts


def _seed_block(
    points: np.ndarray,
    w0: int,
    m: int,
    cap: int,
    metric: str,
    select: str,
    adj: np.ndarray,
    counts: np.ndarray,
    entry: int = 0,
) -> None:
    """Exact mutual-kNN linking of the first ``w0`` points (the seed wave a
    beam search cannot serve because the graph is still empty).

    The mutual-kNN seed graph is then *bridged to connectivity* from
    ``entry``: a kNN graph has no connectivity guarantee (in high
    dimension it readily splinters), and every later wave's insertion
    searches can only discover vertices reachable from the entry — a
    fragmented seed silently caps the whole build's recall at the size
    of the entry's component.
    """
    if w0 <= 1:
        return
    d = pairwise_distances(points[:w0], points[:w0], metric)
    np.fill_diagonal(d, np.inf)
    p0 = min(2 * m if select == "occlusion" else m, w0 - 1)
    part = np.argpartition(d, p0 - 1, axis=1)[:, :p0]
    pd = np.take_along_axis(d, part, axis=1)
    o = np.argsort(pd, axis=1, kind="stable")
    pool_ids = np.take_along_axis(part, o, axis=1).astype(np.int64)
    pool_d = np.take_along_axis(pd, o, axis=1).astype(np.float32)
    links = _select_links(points, pool_ids, pool_d, m, metric, select)
    lcnt = (links >= 0).sum(axis=1)
    srcs = np.repeat(np.arange(w0, dtype=np.int64), lcnt)
    tgts = links[links >= 0]
    # Mutual linking: u gains its own links and every vertex that chose it.
    _add_links(
        points, adj, counts,
        np.concatenate([srcs, tgts]), np.concatenate([tgts, srcs]),
        cap, metric, trim="occlusion" if select == "occlusion" else "closest",
        dedup=True,
    )
    _bridge_components(d, adj, counts, cap, entry)


def _bridge_components(
    d: np.ndarray,
    adj: np.ndarray,
    counts: np.ndarray,
    cap: int,
    entry: int,
) -> None:
    """Bidirectionally link components of ``adj[:w0]`` until every vertex
    is reachable from ``entry``, always through the closest
    (unreached, reached) pair.  ``d`` is the seed block's full pairwise
    distance matrix (inf diagonal).  Each bridge may evict a farthest
    link when a side is at capacity; the outer loop re-runs the BFS, so
    an eviction that splits something off is itself repaired."""
    w0 = d.shape[0]
    ids = np.arange(w0)
    while True:
        # Frontier BFS over the padded adjacency restricted to the seed.
        reached = np.zeros(w0, dtype=bool)
        reached[entry] = True
        frontier = np.array([entry], dtype=np.int64)
        while frontier.size:
            nb = adj[frontier]
            valid = np.arange(adj.shape[1])[None, :] < counts[frontier, None]
            valid &= nb < w0
            nxt = np.unique(nb[valid])
            nxt = nxt[~reached[nxt]]
            reached[nxt] = True
            frontier = nxt
        if reached.all():
            return
        un, re = ids[~reached], ids[reached]
        sub = d[np.ix_(un, re)]
        flat = int(np.argmin(sub))
        u = int(un[flat // re.size])
        v = int(re[flat % re.size])
        for a, b in ((u, v), (v, u)):
            row = adj[a, : counts[a]]
            if b in row:
                continue
            if counts[a] < cap:
                adj[a, counts[a]] = b
                counts[a] += 1
            else:
                worst = int(np.argmax(d[a, row]))
                adj[a, worst] = b


def _wave_build(
    points: np.ndarray,
    m: int,
    ef: int,
    cap: int,
    metric: str,
    select: str,
    entry_fn,
    share: _BuildShare | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Doubling-wave batched insertion; returns (adj (n, cap), counts).

    With ``share``, the adjacency lives in shared memory and each wave's
    insertion searches fan across the pool; linking stays in the parent
    (the barrier between waves).
    """
    n = points.shape[0]
    if share is not None:
        adj, counts = share.alloc_graph(n, cap)
    else:
        adj = np.full((n, cap), -1, dtype=np.int64)
        counts = np.zeros(n, dtype=np.int64)
    w0 = min(max(_FIRST_WAVE, m + 1), n)
    _seed_block(points, w0, m, cap, metric, select, adj, counts,
                entry=entry_fn(w0))
    trim = "occlusion" if select == "occlusion" else "closest"
    lo = w0
    while lo < n:
        hi = min(n, 2 * lo)
        pool_ids, pool_d = _prefix_search(
            points, lo, hi, lo, adj, counts, entry_fn(lo), ef, metric,
            share=share,
        )
        links = _select_links(points, pool_ids, pool_d, m, metric, select)
        lcnt = (links >= 0).sum(axis=1)
        adj[lo:hi, : links.shape[1]] = links
        counts[lo:hi] = lcnt
        srcs = np.repeat(np.arange(lo, hi, dtype=np.int64), lcnt)
        _add_links(points, adj, counts, links[links >= 0], srcs, cap, metric, trim)
        lo = hi
    return adj, counts


def _repair_connectivity(
    points: np.ndarray,
    adj: np.ndarray,
    counts: np.ndarray,
    cap: int,
    metric: str,
    entry: int,
    max_rounds: int = 10,
) -> None:
    """Make every vertex reachable from ``entry`` (padded-adjacency form
    of the NSG repair).  Wave insertion keeps new points connected to the
    prefix, but the keep-closest degree trim evicts links wholesale when
    late waves bombard the prefix with reverse edges — on the high-dim
    corpora a few percent of vertices end up unreachable, a hard recall
    cap for any search entering at ``entry``.  Each round BFSes from the
    entry, then attaches every unreached vertex to its nearest reached
    vertex (append when there is spare capacity, else replace that
    anchor's farthest link); attachment-induced evictions are repaired by
    the next round."""
    n = counts.size
    col = np.arange(adj.shape[1])
    for _ in range(max_rounds):
        reached = np.zeros(n, dtype=bool)
        reached[entry] = True
        frontier = np.array([entry], dtype=np.int64)
        while frontier.size:
            nb = adj[frontier]
            nxt = np.unique(nb[col[None, :] < counts[frontier, None]])
            nxt = nxt[~reached[nxt]]
            reached[nxt] = True
            frontier = nxt
        un = np.flatnonzero(~reached)
        if un.size == 0:
            return
        re = np.flatnonzero(reached)
        # Nearest reached anchor per unreached vertex — one blocked GEMM.
        anchors = np.empty(un.size, dtype=np.int64)
        for lo in range(0, un.size, 1024):
            hi = min(un.size, lo + 1024)
            d = pairwise_distances(points[un[lo:hi]], points[re], metric)
            anchors[lo:hi] = re[np.argmin(d, axis=1)]
        for v, a in zip(un.tolist(), anchors.tolist()):
            row = adj[a, : counts[a]]
            if v in row:
                continue
            if counts[a] < cap:
                adj[a, counts[a]] = v
                counts[a] += 1
            else:
                dd = pair_distances(
                    np.broadcast_to(points[a], (int(counts[a]), points.shape[1])),
                    points[row], metric,
                )
                adj[a, int(np.argmax(dd))] = v


def _refine_pass(
    points: np.ndarray,
    adj: np.ndarray,
    counts: np.ndarray,
    m: int,
    ef: int,
    cap: int,
    metric: str,
    entry: int,
    select: str,
    frac: float = 1.0,
    share: _BuildShare | None = None,
) -> None:
    """Re-insertion sweep: re-search vertices against the finished graph
    and merge the fresh top-``m`` links (plus their reverses) into the
    adjacency, keep-closest capped.  Recovers the link quality incremental
    builds get from late insertions seeing a dense graph.  Each vertex's
    sweep enters at its own current neighbours (the beam starts adjacent
    to its target instead of walking in from a global entry), which cuts
    the lockstep step count by more than half.  ``frac < 1`` refines only
    the earliest-inserted prefix — the vertices whose insertion searches
    saw the sparsest graph and so have the weakest links."""
    n = points.shape[0]
    W = n if frac >= 1.0 else max(int(n * frac), 1)
    e1 = np.where(counts[:W] > 0, adj[:W, 0], entry)
    e2 = np.where(counts[:W] > 1, adj[:W, 1], e1)
    row_entries = np.stack([e1, e2], axis=1)
    pool_ids, pool_d = _prefix_search(
        points, 0, W, n, adj, counts, entry, ef, metric,
        row_entries=row_entries, share=share,
    )
    links = _select_links(
        points, pool_ids, pool_d, m, metric, select,
        exclude=np.arange(W, dtype=np.int64),
    )
    lcnt = (links >= 0).sum(axis=1)
    srcs = np.repeat(np.arange(W, dtype=np.int64), lcnt)
    tgts = links[links >= 0]
    trim = "occlusion" if select == "occlusion" else "closest"
    _add_links(
        points, adj, counts,
        np.concatenate([srcs, tgts]), np.concatenate([tgts, srcs]),
        cap, metric, trim, dedup=True,
    )


def _wave_graph(
    points: np.ndarray,
    m: int,
    wave_ef: int,
    ef: int,
    cap: int,
    metric: str,
    select: str,
    entry_fn,
    refine_frac: float,
    parallelism: int,
    kind: str,
    remap: np.ndarray | None = None,
) -> GraphIndex:
    """The NSW / HNSW build over ``points`` in insertion order: doubling
    waves at beam ``wave_ef``, then the refinement sweep at the full beam
    ``ef`` (over everything up to ``_MAX_ROWS`` points, the earliest
    ``refine_frac`` past that), connectivity repaired before and after
    it.  ``entry_fn(lo)`` names the entry vertex of the prefix
    ``[0, lo)``; ``remap`` maps insertion order back to the caller's ids.
    ``parallelism > 1`` opens a :class:`_BuildShare` for the build's
    lifetime (the adjacency lives in its segments, so the CSR is
    assembled before it closes)."""
    n = points.shape[0]
    entry = entry_fn(n)
    with (_BuildShare(points, parallelism) if parallelism and parallelism > 1
          else nullcontext()) as share:
        adj, counts = _wave_build(
            points, m, wave_ef, cap, metric, select, entry_fn, share=share
        )
        _repair_connectivity(points, adj, counts, cap, metric, entry)
        _refine_pass(
            points, adj, counts, m, ef, cap, metric, entry, select,
            frac=1.0 if n <= _MAX_ROWS else refine_frac, share=share,
        )
        _repair_connectivity(points, adj, counts, cap, metric, entry)
        return _csr_from_padded(adj, counts, kind, remap=remap)


def _csr_from_padded(
    adj: np.ndarray, counts: np.ndarray, kind: str, remap: np.ndarray | None = None
) -> GraphIndex:
    """Assemble the CSR directly from the padded adjacency (no per-vertex
    Python loop).  ``remap`` maps build-order ids back to original ids."""
    n = adj.shape[0]
    if remap is None:
        rows = adj
        cnt = counts
        ids_of = None
    else:
        inv = np.empty(n, dtype=np.int64)
        inv[remap] = np.arange(n)
        rows = adj[inv]
        cnt = counts[inv]
        ids_of = remap
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(cnt, out=indptr[1:])
    mask = np.arange(adj.shape[1])[None, :] < cnt[:, None]
    flat = rows[mask]
    indices = (ids_of[flat] if ids_of is not None else flat).astype(np.int32)
    return GraphIndex(indptr, indices, kind=kind)
