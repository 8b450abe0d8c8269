"""The cache-blocked pair kernels: equal to their definitions bit for bit,
bounded in scratch, and the bound filter they feed stays on under tracing.

* **Differential** — ``PairKernel`` / ``Int8Kernel`` / ``PQKernel`` against
  ``pair_distances(a[ia], b[ib], ...)`` / ``codec.distances(...)`` at pair
  counts on both sides of every block boundary and with repeated pairs,
  compared as ``uint32`` bit patterns; returned arrays are owned.
* **Bounded scratch** — a count, not a timer: a kernel's operand scratch is
  fixed at construction and inside ``PAIR_SCRATCH_BYTES`` whatever the
  widest lockstep round was, and a search's peak allocation is a small
  multiple of the corpus.
* **Filter stays on** — ``LockstepEngine.pairs_scored`` / ``pairs_merged``
  on the golden 600-point corpus with tracing on.
* **Round widths** — ``LockstepEngine.rounds_by_active`` against a manual
  stepping and against the rounds the trace records.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pipeline import ALGASSystem
from repro.data.metrics import PAIR_SCRATCH_BYTES, PairKernel, pair_distances
from repro.data.synthetic import latent_mixture
from repro.graphs import GraphIndex, build_cagra
from repro.search.batched import BatchedVisited, BeamConfig, LockstepEngine
from repro.search.precision import Int8Codec, PQCodec

from .golden import make_priced_traces as golden

N_A, N_B, DIM = 37, 211, 24


def _bits(x: np.ndarray) -> np.ndarray:
    assert x.dtype == np.float32
    return x.view(np.uint32)


@pytest.fixture(scope="module")
def operands():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(N_A, DIM)).astype(np.float32)
    b = rng.normal(size=(N_B, DIM)).astype(np.float32)
    return a, b


def _kernel_and_reference(precision, metric, operands):
    """``(kernel, reference(ia, ib) -> distances)`` for one substrate."""
    a, b = operands
    if precision == "float32":
        an = np.einsum("ij,ij->i", a, a)
        bn = np.einsum("ij,ij->i", b, b)
        if metric == "l2":
            def reference(ia, ib):
                return pair_distances(a[ia], b[ib], "l2", an[ia], bn[ib])
        else:
            def reference(ia, ib):
                return pair_distances(a[ia], b[ib], "cosine")
        return PairKernel(a, b, metric), reference
    codec = (Int8Codec(metric) if precision == "int8"
             else PQCodec(metric, m=6, ks=16, n_iters=2)).fit(b)
    state = codec.query_state(a)
    return codec.make_kernel(state), lambda ia, ib: codec.distances(state, ia, ib)


def _pairs(n: int, seed: int):
    rng = np.random.default_rng(seed)
    return rng.integers(0, N_A, n), rng.integers(0, N_B, n)


@pytest.mark.parametrize("metric", ["l2", "cosine"])
@pytest.mark.parametrize("precision", ["float32", "int8", "pq"])
def test_blocked_kernel_equals_definition_at_block_boundaries(
        precision, metric, operands):
    kernel, reference = _kernel_and_reference(precision, metric, operands)
    block = kernel.rows
    assert block > 1
    for n in (0, 1, block - 1, block, block + 1, 3 * block + 7):
        ia, ib = _pairs(n, seed=n)
        got = kernel(ia, ib)
        assert got.shape == (n,)
        assert np.array_equal(_bits(got), _bits(reference(ia, ib))), n
    # repeated (row, id) pairs, some straddling a block boundary
    ia, ib = _pairs(block + 9, seed=5)
    ia[block - 3: block + 3] = ia[0]
    ib[block - 3: block + 3] = ib[0]
    got = kernel(ia, ib)
    assert np.array_equal(_bits(got), _bits(reference(ia, ib)))
    assert len(set(got[block - 3: block + 3].tolist()) | {float(got[0])}) == 1


@pytest.mark.parametrize("precision", ["float32", "int8", "pq"])
def test_blocked_kernel_equals_definition_at_960d(precision):
    """The benchmark's width: a 960-element row is wider than one einsum
    buffer chunk's share, and a block is only 68-109 pairs."""
    rng = np.random.default_rng(13)
    a = rng.normal(size=(5, 960)).astype(np.float32)
    b = rng.normal(size=(64, 960)).astype(np.float32)
    kernel, reference = _kernel_and_reference(precision, "l2", (a, b))
    n = 3 * kernel.rows + 7
    ia, ib = np.sort(rng.integers(0, 5, n)), rng.integers(0, 64, n)
    assert np.array_equal(_bits(kernel(ia, ib)), _bits(reference(ia, ib)))


@pytest.mark.parametrize("precision", ["float32", "int8", "pq"])
def test_kernel_results_are_owned(precision, operands):
    """Consecutive calls return arrays that do not alias each other (the
    'view into scratch, valid until the next call' contract is gone)."""
    kernel, reference = _kernel_and_reference(precision, "l2", operands)
    ia, ib = _pairs(50, seed=1)
    first = kernel(ia, ib)
    kept = first.copy()
    second = kernel(*_pairs(50, seed=2))
    assert not np.shares_memory(first, second)
    assert np.array_equal(_bits(first), _bits(kept))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 300), st.integers(0, 2**31 - 1),
       st.sampled_from(["l2", "cosine"]))
def test_float32_kernel_equals_pair_distances(n, seed, metric):
    """Small blocks (a 2 KiB-wide row takes the budget down to 256 pairs a
    block) at arbitrary pair counts."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(9, 256)).astype(np.float32)
    b = rng.normal(size=(30, 256)).astype(np.float32)
    ia, ib = rng.integers(0, 9, n), rng.integers(0, 30, n)
    kernel = PairKernel(a, b, metric)
    assert kernel.rows == PAIR_SCRATCH_BYTES // (2 * 4 * 256)
    if metric == "l2":
        want = pair_distances(a[ia], b[ib], "l2",
                              kernel.a_norms[ia], kernel.b_norms[ib])
    else:
        want = pair_distances(a[ia], b[ib], "cosine")
    assert np.array_equal(_bits(kernel(ia, ib)), _bits(want))


# ----------------------------------------------------------- bounded scratch
@pytest.fixture(scope="module")
def highdim():
    """960-d, the dimension whose unblocked query-row gather reached
    0.94 GB (3 840 B a pair)."""
    base = latent_mixture(500, 960, intrinsic_dim=12, seed=41)
    queries = latent_mixture(48, 960, intrinsic_dim=12, seed=42)
    return base, queries, build_cagra(base, graph_degree=16, seed=0)


def test_int8_scratch_is_fixed_and_inside_the_budget(highdim, monkeypatch):
    base, queries, graph = highdim
    kernels = []
    make_kernel = Int8Codec.make_kernel

    def spy(self, state):
        kernels.append(make_kernel(self, state))
        return kernels[-1]

    monkeypatch.setattr(Int8Codec, "make_kernel", spy)
    system = ALGASSystem(base, graph, k=10, l_total=64, batch_size=8,
                         precision="int8", seed=3)
    codec = system.traversal_codec()
    one_pair = codec.make_kernel(codec.query_state(queries[:1]))
    one_pair(np.zeros(1, np.int64), np.zeros(1, np.int64))
    after_one_pair = one_pair.scratch_nbytes
    kernels.clear()
    ids, _, traces = system.search_all(queries)
    assert (ids[:, 0] >= 0).all()
    (kernel,) = kernels  # one engine, one kernel
    # every row seeds in the same round: one kernel call, many blocks
    seed_round = int(traces.n_new_points[traces.starts[:-1]].sum())
    assert seed_round > 4 * kernel.rows
    assert kernel.scratch_nbytes == after_one_pair <= PAIR_SCRATCH_BYTES


def test_search_peak_allocation_is_a_small_multiple_of_the_corpus(highdim):
    """Unblocked, a round's gathered operands were pairs x dim x 5 bytes and
    this search peaked at 14.3x the corpus bytes (27.5 MB; 1.4 GB for
    11.5 MB at the benchmark's scale).  Blocked it peaks at 1.0x; the gate
    is 3x."""
    base, queries, graph = highdim
    system = ALGASSystem(base, graph, k=10, l_total=64, batch_size=8,
                         precision="int8", seed=3)
    system.traversal_codec()
    system.search_all(queries[:4])  # lazy set-up (neighbour matrix) is not search
    tracemalloc.start()
    try:
        system.search_all(queries)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * base.nbytes, (peak, base.nbytes)


# ----------------------------------------------------------- filter stays on
#: pairs_merged / pairs_scored on the golden corpus is 3 038 / 6 720 = 0.452
#: (exact counts): the share of scored pairs that can still enter a
#: candidate list.  1.0 means the filter is off.
MERGED_SHARE_CEILING = 0.46


def test_bound_filter_stays_on_under_tracing():
    base, queries = golden.corpus()
    graph = build_cagra(base, graph_degree=12, seed=0)
    rng = np.random.default_rng(5)
    entries = rng.integers(0, base.shape[0], size=(len(queries), 2))
    eng = LockstepEngine(base, graph, queries, np.arange(len(queries)),
                         entries, 32, record_trace=True)
    eng.run(3200)
    block = eng.trace_block(1, base.shape[1], golden.K)
    # the trace records what was scored, not what survived the filter
    assert eng.pairs_scored == int(block.n_new_points.sum())
    assert eng.pairs_scored == eng.visited.sets
    assert 0 < eng.pairs_merged < eng.pairs_scored
    assert eng.pairs_merged / eng.pairs_scored <= MERGED_SHARE_CEILING
    untraced = LockstepEngine(base, graph, queries, np.arange(len(queries)),
                              entries, 32, record_trace=False)
    untraced.run(3200)
    assert (untraced.pairs_scored, untraced.pairs_merged) == (
        eng.pairs_scored, eng.pairs_merged)
    for a, b in zip(eng.pools(), untraced.pools()):
        assert a.tobytes() == b.tobytes()


# ------------------------------------------------- visited test-and-set
@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 40)),
                min_size=0, max_size=120),
       st.integers(1, 4))
def test_visited_test_and_set_is_first_come_first_served(pairs, n_calls):
    """The packed-key sort against a dict walked in sequence order:
    identical fresh masks, duplicates inside one call included."""
    visited = BatchedVisited(4, 41)
    seen: set[tuple[int, int]] = set()
    rows = np.array([r for r, _ in pairs], dtype=np.int64)
    ids = np.array([i for _, i in pairs], dtype=np.int64)
    for part in np.array_split(np.arange(len(pairs)), n_calls):
        want = []
        for r, i in zip(rows[part].tolist(), ids[part].tolist()):
            want.append((r, i) not in seen)
            seen.add((r, i))
        got = visited.test_and_set(rows[part], ids[part])
        assert got.tolist() == want
    assert visited.sets == len(seen) and visited.probes == len(pairs)


def test_visited_key_overflow_is_an_error_not_a_fallback():
    visited = BatchedVisited(1, 64)
    visited.n = 2**62  # as if the bitmap covered 2^62 points
    with pytest.raises(OverflowError, match=r"Q=1 rows x n=4611686018427387904 "
                                            r"points with 4 fresh pairs"):
        visited.test_and_set(np.zeros(4, np.int64), np.arange(4))


# ------------------------------------------------------------ round widths
def _chain_engine(record_trace=False):
    """Three rows on a 10-point chain, each entering at a different distance
    from its query, so they exhaust in different rounds."""
    pts = np.arange(10, dtype=np.float32)[:, None]
    graph = GraphIndex.from_neighbor_lists(
        [[j for j in (i - 1, i + 1) if 0 <= j < 10] for i in range(10)])
    queries = np.array([[0.0], [4.0], [9.0]], dtype=np.float32)
    return LockstepEngine(pts, graph, queries, np.arange(3),
                          np.array([[0], [9], [0]]), 2,
                          record_trace=record_trace)


def test_rounds_by_active_matches_a_manual_stepping():
    eng = _chain_engine()
    seen = np.zeros(4, dtype=np.int64)
    while True:
        stepping = int(eng.cand_open.any(axis=1).sum())  # rows with work left
        if not eng.step_all():
            break
        seen[stepping] += 1
    assert eng.rounds_by_active.tolist() == seen.tolist()
    assert np.count_nonzero(seen) >= 2  # the rows really finish apart


@pytest.mark.parametrize("beam", [None, BeamConfig(offset_beam=2, beam_width=3)])
def test_rounds_by_active_sums_to_the_rounds_run(beam):
    """Summed, the histogram is the round count; per width, it is what the
    trace says: a row steps in a prefix of the rounds, one trace step each
    after its seed step."""
    base, queries = golden.corpus()
    graph = build_cagra(base, graph_degree=12, seed=0)
    entries = np.random.default_rng(5).integers(0, base.shape[0],
                                                size=(len(queries), 2))
    eng = LockstepEngine(base, graph, queries, np.arange(len(queries)),
                         entries, 32, beam=beam, record_trace=True)
    rounds = sum(1 for _ in iter(eng.step_all, False))
    assert rounds > 0 and int(eng.rounds_by_active.sum()) == rounds
    stepped = eng.trace_block(1, base.shape[1], golden.K).lens - 1
    width = (stepped[None, :] > np.arange(rounds)[:, None]).sum(axis=1)
    assert eng.rounds_by_active.tolist() == np.bincount(
        width, minlength=len(queries) + 1).tolist()
