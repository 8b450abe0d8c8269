"""Quantized traversal substrates: codecs, parity, re-rank, serve plumbing.

The contract under test (docs/performance.md "Quantized traversal"):

* every precision is bit-identical between the scalar oracle and the
  vectorized lockstep backend (ids, dists, and traces);
* ``precision="float32"`` is byte-identical to not passing a precision at
  all — the quantized axis must not perturb the existing path;
* quantized searches end in an exact float32 re-rank whose output is the
  exact TopK of the approximate pool;
* the cost model prices int8/pq distance steps below float32 ones;
* the serve stack records codec provenance in ``ServeReport.meta`` and it
  survives JSON round-trips.
"""

import json

import numpy as np
import pytest

from repro.baselines import IVFSystem
from repro.core import ALGASSystem, ServeConfig
from repro.core.serving import ServeReport
from repro.data import load_dataset
from repro.data.metrics import pair_distances
from repro.graphs import build_cagra
from repro.gpusim.costmodel import CostModel
from repro.gpusim.device import RTX_A6000
from repro.gpusim.trace import CTATrace, StepRecord, TraceBlock
from repro.search import (
    Int8Codec,
    PQCodec,
    default_pq_m,
    exact_rerank,
    make_codec,
)
from repro.search.batched import batched_multi_cta_search

from .oracles import make_entries
from .reference import intra_cta_search, multi_cta_search, rerank_step_record


@pytest.fixture(scope="module")
def corpus():
    ds = load_dataset("sift1m-mini", n=1500, n_queries=8, gt_k=16, seed=3)
    g = build_cagra(ds.base, graph_degree=12, metric=ds.metric)
    return ds, g


@pytest.fixture(scope="module")
def cos_corpus():
    ds = load_dataset("glove200-mini", n=1200, n_queries=6, gt_k=16, seed=4)
    g = build_cagra(ds.base, graph_degree=12, metric=ds.metric)
    return ds, g


def _codec(precision, pts, metric):
    return make_codec(precision, pts, metric=metric, pq_m=8, pq_ks=32)


# ------------------------------------------------------------------- codecs
def test_int8_codec_matches_decoded_exact_distances(corpus):
    """The int8 kernel is the exact l2 distance to the SQ8 reconstruction."""
    ds, _ = corpus
    codec = Int8Codec("l2").fit(ds.base)
    state = codec.query_state(ds.queries)
    ids = np.arange(64, dtype=np.int64)
    got = codec.make_kernel(state)(np.zeros(64, np.int64), ids)
    dec = codec.sq.decode(codec.codes[ids])
    ref = ((dec - ds.queries[0]) ** 2).sum(axis=1)
    assert np.allclose(got, ref, rtol=1e-4, atol=1e-3)


def test_pq_codec_matches_adc_reference(corpus):
    ds, _ = corpus
    codec = PQCodec("l2", m=8, ks=32).fit(ds.base)
    state = codec.query_state(ds.queries[:2])
    ids = np.arange(50, dtype=np.int64)
    got = codec.make_kernel(state)(np.ones(50, np.int64), ids)
    table = codec.pq.adc_table(ds.queries[1])
    ref = codec.pq.adc_distances(table, codec.codes[ids])
    assert np.allclose(got, ref, rtol=1e-5, atol=1e-5)


def test_codec_info_provenance(corpus):
    ds, _ = corpus
    i8 = _codec("int8", ds.base, "l2").info()
    assert (i8.precision, i8.dim, i8.bytes_per_vector) == ("int8", ds.dim, ds.dim)
    pq = _codec("pq", ds.base, "l2").info()
    assert pq.precision == "pq"
    assert pq.bytes_per_vector == pq.m == 8
    assert pq.ks == 32
    assert pq.train_n is not None


def test_make_codec_validates(corpus):
    ds, _ = corpus
    assert make_codec("float32", ds.base) is None
    with pytest.raises(ValueError, match="unknown precision"):
        make_codec("fp16", ds.base)


def test_default_pq_m():
    assert default_pq_m(128) == 16
    assert default_pq_m(960) == 120
    assert default_pq_m(200) == 25
    assert default_pq_m(13) == 13  # prime dim: one dim per sub-code


# ----------------------------------------------------- scalar vs vectorized
def _assert_same_result(a, b):
    assert np.array_equal(a.ids, b.ids)
    assert np.asarray(a.dists).tobytes() == np.asarray(b.dists).tobytes()


def _assert_same_batch(scalars, vec, dim, k=8):
    """Oracle results vs a lockstep batch: ids/dists bit for bit, the
    oracle's traces column-equal to the batch's trace block (``best_dist``
    holds ``float(float32)`` values on both sides, NaNs compare equal)."""
    for sc, ids, dists in zip(scalars, vec.ids, vec.dists):
        assert np.array_equal(sc.ids, ids)
        assert np.asarray(sc.dists).tobytes() == np.asarray(dists).tobytes()
    oracle = TraceBlock.from_traces([sc.trace for sc in scalars], dim=dim, k=k)
    assert oracle == vec.traces


@pytest.mark.parametrize("precision", ["float32", "int8", "pq"])
@pytest.mark.parametrize("which,n_ctas", [
    *(pytest.param(m, 4, id=m) for m in ("l2", "cosine")),
    *(pytest.param(m, 1, id=f"{m}-1cta") for m in ("l2", "cosine")),
])
def test_multi_cta_parity(corpus, cos_corpus, precision, which, n_ctas):
    """One CTA against ``intra_cta_search``, four against the round-robin
    ``multi_cta_search``, re-rank epilogue included."""
    ds, g = corpus if which == "l2" else cos_corpus
    codec = _codec(precision, ds.base, ds.metric)
    rng = np.random.default_rng(6)
    entries = [make_entries(ds.n, n_ctas, 2, rng) for _ in ds.queries]
    vec = batched_multi_cta_search(
        ds.base, g, ds.queries, 8, 64, n_ctas, metric=ds.metric,
        entries=entries, codec=codec,
    )
    if n_ctas == 1:
        scalars = [
            intra_cta_search(ds.base, g, q, 8, 64, entries[i][0],
                             metric=ds.metric, codec=codec)
            for i, q in enumerate(ds.queries)
        ]
    else:
        scalars = [
            multi_cta_search(
                ds.base, g, q, 8, 64, n_ctas, metric=ds.metric,
                entries=entries[i], codec=codec,
            )
            for i, q in enumerate(ds.queries)
        ]
    _assert_same_batch(scalars, vec, ds.dim)


def test_float32_path_byte_identical_to_no_codec(corpus):
    """precision="float32" must be a no-op, not a third code path."""
    ds, g = corpus
    rng = np.random.default_rng(7)
    entries = [make_entries(ds.n, 4, 2, rng) for _ in ds.queries]
    plain = batched_multi_cta_search(
        ds.base, g, ds.queries, 8, 64, 4, metric=ds.metric, entries=entries
    )
    via_codec = batched_multi_cta_search(
        ds.base, g, ds.queries, 8, 64, 4, metric=ds.metric, entries=entries,
        codec=make_codec("float32", ds.base), rerank_mult=4,
    )
    for a, b in zip(plain, via_codec):
        _assert_same_result(a, b)
    assert plain.traces == via_codec.traces


# ------------------------------------------------------------------- rerank
def test_quantized_dists_are_exact_and_sorted(corpus):
    """After the re-rank, reported dists are exact float32, ascending."""
    ds, g = corpus
    codec = _codec("int8", ds.base, ds.metric)
    res = intra_cta_search(
        ds.base, g, ds.queries[0], 8, 48, np.arange(4), metric=ds.metric,
        codec=codec,
    )
    exact = pair_distances(
        np.broadcast_to(ds.queries[0], (res.ids.size, ds.dim)),
        ds.base[res.ids], ds.metric,
    )
    assert np.allclose(res.dists, exact, rtol=1e-6, atol=1e-6)
    assert (np.diff(res.dists) >= 0).all()


def test_exact_rerank_returns_exact_topk(corpus):
    ds, _ = corpus
    pool = np.random.default_rng(0).choice(ds.n, size=40, replace=False)
    ids, dists = exact_rerank(ds.base, ds.queries[0], ds.metric, pool, 10)
    all_d = pair_distances(
        np.broadcast_to(ds.queries[0], (40, ds.dim)), ds.base[pool], ds.metric
    )
    order = np.argsort(all_d, kind="stable")[:10]
    assert set(ids) == set(pool[order])
    assert np.allclose(np.sort(dists), np.sort(all_d[order]))


def test_rerank_trace_step_recorded(corpus):
    ds, g = corpus
    codec = _codec("pq", ds.base, ds.metric)
    res = multi_cta_search(
        ds.base, g, ds.queries[0], 8, 64, 4, metric=ds.metric,
        entries=make_entries(ds.n, 4, 2, np.random.default_rng(8)),
        codec=codec, rerank_mult=3,
    )
    # traversal steps are priced as PQ lookups (dim = m) ...
    trav = res.trace.ctas[1].steps
    assert all(s.precision == "pq" for s in trav)
    assert all(s.dim == 8 for s in trav if s.n_new_points)
    # ... and CTA 0 carries the trailing float32 re-rank pass at full width
    last = res.trace.ctas[0].steps[-1]
    assert last.precision == "float32"
    assert last.dim == ds.dim
    assert 8 <= last.n_new_points <= 3 * 8


# --------------------------------------------------------------- cost model
def _step(dim, n_new, precision):
    return StepRecord(
        select_offset=0, n_expanded=1, n_neighbors_fetched=n_new,
        n_visited_checks=n_new, n_new_points=n_new, dim=dim, sort_size=64,
        cand_list_len=64, did_sort=True, precision=precision,
    )


def test_cost_model_prices_quantized_steps_cheaper():
    cm = CostModel(RTX_A6000)

    def step_us(*args):
        return cm.step_durations_us(CTATrace(steps=[_step(*args)]))[0]

    f32 = step_us(960, 32, "float32")
    i8 = step_us(960, 32, "int8")
    # pq scores m=120 lookups per point, not 960 FMAs
    pq = step_us(120, 32, "pq")
    assert i8 < f32
    assert pq < f32
    # an unknown precision tag fails; it does not price as float32
    with pytest.raises(ValueError, match="exotic"):
        step_us(960, 32, "exotic")


def test_rerank_step_record_shape():
    rec = rerank_step_record(24, 960, 1.5)
    assert rec.precision == "float32"
    assert (rec.n_new_points, rec.dim, rec.sort_size) == (24, 960, 24)
    assert rec.did_sort


# ---------------------------------------------------------- serve plumbing
def test_serve_config_validates_precision():
    """Precision and the re-rank pool are the system's, validated at
    construction (below); a serve has no per-run precision to take."""
    with pytest.raises(TypeError, match="precision"):
        ServeConfig(precision="int8")
    with pytest.raises(TypeError, match="rerank_mult"):
        ServeConfig(rerank_mult=3)


def test_system_serve_records_codec_meta(corpus):
    ds, g = corpus
    system = ALGASSystem(
        ds.base, g, metric=ds.metric, k=8, l_total=64, batch_size=8, seed=0,
        precision="pq", pq_m=8, pq_ks=32,
    )
    report = system.serve(ds.queries).serve
    meta = report.meta["precision"]
    assert meta["precision"] == "pq"
    assert meta["rerank_mult"] == 2
    assert meta["codec"].m == 8

    # meta survives a JSON round-trip with the codec as a plain dict
    back = ServeReport.from_json(report.to_json())
    bm = back.meta["precision"]
    assert bm["codec"]["precision"] == "pq"
    assert bm["codec"]["m"] == 8
    assert back.meta == json.loads(report.to_json())["meta"]


def test_system_precision_reaches_the_serve(corpus):
    ds, g = corpus
    kw = dict(metric=ds.metric, k=8, l_total=64, batch_size=8, seed=0)
    report = ALGASSystem(ds.base, g, precision="int8", **kw).serve(ds.queries)
    assert report.serve.meta["precision"]["precision"] == "int8"
    plain = ALGASSystem(ds.base, g, **kw).serve(ds.queries)
    assert plain.serve.meta["precision"]["codec"] is None
    assert np.array_equal(report.ids.shape, plain.ids.shape)


def test_float32_serve_unchanged_by_precision_kwarg(corpus):
    ds, g = corpus
    kw = dict(metric=ds.metric, k=8, l_total=64, batch_size=8, seed=0)
    a = ALGASSystem(ds.base, g, **kw).serve(ds.queries)
    b = ALGASSystem(ds.base, g, precision="float32", **kw).serve(ds.queries)
    assert np.array_equal(a.ids, b.ids)
    assert a.dists.tobytes() == b.dists.tobytes()


def test_ivf_rejects_precision(corpus):
    """The IVF baselines have no graph traversal, so no traversal
    precision: IVF-PQ is the compressed IVF scan."""
    ds, _ = corpus
    with pytest.raises(TypeError, match="precision"):
        IVFSystem(ds.base, nlist=16, nprobe=4, metric=ds.metric,
                  precision="int8")


def test_system_validates_precision_kwargs(corpus):
    ds, g = corpus
    with pytest.raises(ValueError, match="precision"):
        ALGASSystem(ds.base, g, metric=ds.metric, precision="fp16")
    with pytest.raises(ValueError, match="rerank_mult"):
        ALGASSystem(ds.base, g, metric=ds.metric, rerank_mult=0)


def test_codec_cache_reused_across_searches(corpus):
    ds, g = corpus
    kw = dict(metric=ds.metric, k=8, l_total=64, batch_size=8, seed=0)
    system = ALGASSystem(ds.base, g, precision="int8", **kw)
    c1 = system.traversal_codec()
    system.search_all(ds.queries[:2])
    assert system.traversal_codec() is c1
    assert ALGASSystem(ds.base, g, **kw).traversal_codec() is None
