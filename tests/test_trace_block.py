"""The columnar ``TraceBlock`` path: frozen against the object path, proven
against the scalar pricer.

* **Golden fixture** — ``tests/golden/priced_traces.json`` was generated at
  the last commit that materialized traces as ``StepRecord`` objects
  (``tests/golden/make_priced_traces.py``); every trace column and every
  priced CTA duration of the block path must hash to the same digests.
* **Differential** — random ragged blocks under random ``CostParams`` and
  thread counts: the block pricer equals the ``scalar_step_cost``
  accumulation (``tests/oracles.py::scalar_cta_cost``) on every component,
  exact float equality.
* Adapter round trips, the unknown-precision failure, the shared
  trace → job helper, entry-matrix seeding, and the "no row object on an
  untraced serve" guarantee.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.gpusim.trace as trace_mod
from repro.core import ALGASSystem, ShardedServer
from repro.core.serving import price_jobs
from repro.data.synthetic import latent_mixture
from repro.data.workload import Poisson, QueryEvent
from repro.gpusim.costmodel import CostModel, CostParams
from repro.gpusim.device import RTX_A6000
from repro.gpusim.trace import (
    PRECISION_TAGS,
    CTATrace,
    QueryTrace,
    StepRecord,
    TraceBlock,
)
from repro.graphs import GraphIndex, build_cagra
from repro.graphs.dynamic import DynamicGraph
from repro.search.batched import (
    BeamConfig,
    LockstepEngine,
    _entry_rows,
    per_cta_capacity,
)
from repro.search.precision import Int8Codec
from repro.streaming import UpdateStream, serve_while_update

from .golden import make_priced_traces as golden
from .oracles import (
    dynamic_entries,
    scalar_cta_cost,
    scalar_dynamic_search,
    scalar_step_cost,
)
from .reference import intra_cta_search, multi_cta_search

STEP_COLUMNS = (
    "select_offset", "n_expanded", "n_neighbors_fetched", "n_visited_checks",
    "n_new_points", "step_dim", "sort_size", "cand_list_len", "did_sort",
    "best_dist", "precision",
)


# ------------------------------------------------------------ golden fixture
@pytest.fixture(scope="module")
def golden_cases():
    return golden.cases()


GOLDEN = json.loads(golden.FIXTURE.read_text())


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_block_path_matches_parent_commit_fixture(golden_cases, name):
    want = GOLDEN[name]
    (ids, dists, block), cost_model = golden_cases[name]()
    assert golden.results(ids, dists) == want["results"]
    assert isinstance(block, TraceBlock)
    assert (len(block), block.n_ctas, block.n_steps) == (
        want["n_queries"], want["n_ctas"], want["n_steps"])
    assert block.result_len.tolist() == want["result_len"]
    columns = {name: getattr(block, name) for name in STEP_COLUMNS}
    columns.update(dim=block.step_dim, lens=block.lens,
                   result_len=block.result_len)
    durations = cost_model.cta_durations_us(block)
    assert golden.hash_columns(columns, durations.tolist()) == want["sha256"]
    # the jobs a serve schedules carry exactly those durations
    events = [QueryEvent(q, float(q)) for q in range(len(block))]
    jobs = price_jobs(cost_model, block, events, golden.K)
    flat = [d for job in jobs for d in job.cta_durations_us]
    assert all(type(d) is float for d in flat)
    assert flat == durations.tolist()


# ------------------------------------------ block pricer vs scalar_step_cost
@st.composite
def ragged_blocks(draw, n_ctas=None, max_len=6):
    n_ctas = draw(st.integers(1, 3)) if n_ctas is None else n_ctas
    n_rows = n_ctas * draw(st.integers(0, 4))
    lens = draw(st.lists(st.integers(0, max_len), min_size=n_rows,
                         max_size=n_rows))
    n = sum(lens)

    def col(strategy):
        return draw(st.lists(strategy, min_size=n, max_size=n))

    return TraceBlock(
        n_ctas, dim=128, k=10, lens=lens,
        result_len=draw(st.lists(st.integers(0, 20), min_size=n_rows,
                                 max_size=n_rows)),
        select_offset=col(st.integers(0, 12)),
        n_expanded=col(st.integers(0, 4)),
        n_neighbors_fetched=col(st.integers(0, 70)),
        n_visited_checks=col(st.integers(0, 70)),
        n_new_points=col(st.integers(0, 70)),
        step_dim=col(st.sampled_from([1, 8, 100, 960])),
        sort_size=col(st.integers(0, 400)),
        cand_list_len=col(st.integers(0, 300)),
        did_sort=col(st.booleans()),
        best_dist=col(st.one_of(st.just(float("nan")),
                                st.floats(0.0, 1e6, width=32))),
        precision=col(st.integers(0, len(PRECISION_TAGS) - 1)),
    )


cycles = st.floats(0.1, 100.0)
cost_params = st.builds(
    CostParams,
    fma_iter_cycles=cycles, shuffle_cycles=cycles, cmpex_cycles=cycles,
    scan_cycles=cycles, bitmap_cycles=cycles, step_fixed_cycles=cycles,
    lut_lookup_cycles=cycles, int8_mac_pack=st.floats(0.5, 8.0),
)
COMPONENTS = ("select_us", "fetch_us", "filter_us", "distance_us", "sort_us",
              "result_write_us", "n_steps", "compute_us", "total_us",
              "sort_fraction")


@settings(max_examples=120, deadline=None)
@given(block=ragged_blocks(), params=cost_params,
       threads=st.sampled_from([32, 64, 96]))
def test_block_pricer_equals_scalar_step_cost(block, params, threads):
    cm = CostModel(RTX_A6000, params, threads_per_cta=threads)
    priced = cm.block_cost(block)
    ctas = [cta for query in block for cta in query.ctas]
    assert len(ctas) == block.n_rows
    for r, cta in enumerate(ctas):
        want, got = scalar_cta_cost(cm, cta), priced.row(r)
        for name in COMPONENTS:
            assert getattr(got, name) == getattr(want, name), (r, name)
        # the single-trace methods are one-row blocks through the same pricer
        assert cm.cta_cost(cta) == want
        assert cm.step_durations_us(cta) == [
            scalar_step_cost(cm, s).total_us for s in cta.steps]
    per_step = cm.block_step_costs(block)
    steps = [s for cta in ctas for s in cta.steps]
    for i, step in enumerate(steps):
        c = scalar_step_cost(cm, step)
        assert per_step[:, i].tolist() == [
            c.select_us, c.fetch_us, c.filter_us, c.distance_us, c.sort_us]
    for q, query in enumerate(block):
        costs = [scalar_cta_cost(cm, c) for c in query.ctas]
        assert cm.query_gpu_time_us(query) == max(c.total_us for c in costs)
        summary = cm.query_cost_summary(query)
        assert summary.sort_us == sum(c.sort_us for c in costs)
        assert summary.total_us == priced.per_query(block.n_ctas).row(q).total_us


@settings(max_examples=60, deadline=None)
@given(n_ctas=st.integers(1, 3), data=st.data())
def test_pricing_a_concatenation_prices_each_block(n_ctas, data):
    """A stream call prices all its epochs' blocks in one pass: every row of
    the concatenation must price to the bits its own block gives it, and to
    its steps summed left to right (rows past 8 steps are where a pairwise
    row ``sum`` would differ)."""
    blocks = data.draw(st.lists(ragged_blocks(n_ctas=n_ctas, max_len=24),
                                min_size=1, max_size=4))
    cm = CostModel(RTX_A6000)
    whole = cm.cta_durations_us(TraceBlock.concat(blocks))
    each = np.concatenate([cm.cta_durations_us(b) for b in blocks])
    assert whole.tobytes() == each.tobytes()
    ctas = [cta for b in blocks for query in b for cta in query.ctas]
    assert whole.tolist() == [scalar_cta_cost(cm, c).total_us for c in ctas]


# ------------------------------------------------------------------ adapters
@settings(max_examples=60, deadline=None)
@given(block=ragged_blocks())
def test_round_trip_through_row_objects(block):
    views = list(block)
    assert len(views) == len(block)
    again = TraceBlock.from_traces(views, dim=block.dim, k=block.k)
    if len(block):  # an empty list cannot carry n_ctas
        assert again == block
    for q, view in enumerate(views):
        # (row objects hold NaN best_dists, so compare them as blocks)
        assert TraceBlock.from_traces([view]) == block[q:q + 1]
        assert TraceBlock.from_traces([block[q]]) == block[q:q + 1]
        assert (view.n_ctas, view.dim, view.k) == (block.n_ctas, block.dim, block.k)
    if len(block) > 1:
        assert block[1:] == TraceBlock.from_traces(views[1:])
        assert block.take([1, 0])[1:] == block[:1]
    assert TraceBlock.from_traces(block) is block


@settings(max_examples=60, deadline=None)
@given(block=ragged_blocks(), data=st.data())
def test_concat_of_contiguous_slices_is_the_block(block, data):
    n = len(block)
    cuts = sorted(data.draw(st.lists(st.integers(0, n), max_size=4)))
    bounds = [0, *cuts, n]
    parts = [block.take(np.arange(lo, hi)) for lo, hi in zip(bounds, bounds[1:])]
    assert TraceBlock.concat(parts) == block


def test_concat_refuses_mismatched_blocks():
    a = TraceBlock.from_traces([CTATrace(steps=[mkstep()], result_len=1)],
                               dim=32, k=5)
    assert TraceBlock.concat([a]) == a
    for other in (TraceBlock.from_traces([a[0]], dim=64, k=5),
                  TraceBlock.from_traces([a[0]], dim=32, k=6),
                  TraceBlock.from_traces([QueryTrace([a[0].ctas[0]] * 2)],
                                         dim=32, k=5)):
        with pytest.raises(ValueError, match="cannot concatenate"):
            TraceBlock.concat([a, other])
    with pytest.raises(ValueError, match="at least one block"):
        TraceBlock.concat([])


def mkstep(**kw):
    base = dict(
        select_offset=0, n_expanded=1, n_neighbors_fetched=8,
        n_visited_checks=8, n_new_points=4, dim=32, sort_size=20,
        cand_list_len=16, did_sort=True, best_dist=1.5,
    )
    base.update(kw)
    return StepRecord(**base)


def test_block_shape_and_reductions():
    a = CTATrace(steps=[mkstep(), mkstep(n_new_points=2, did_sort=False)],
                 result_len=5)
    b = CTATrace(steps=[mkstep(n_expanded=3)], result_len=4)
    block = TraceBlock.from_traces([QueryTrace([a, b], dim=32, k=5),
                                    QueryTrace([b, CTATrace()], dim=32, k=5)])
    assert (len(block), block.n_ctas, block.n_rows, block.n_steps) == (2, 2, 4, 4)
    assert block.lens.tolist() == [2, 1, 1, 0]
    assert block.row_sums("n_new_points").tolist() == [
        a.n_distances, b.n_distances, b.n_distances, 0]
    assert block.row_sums("did_sort").tolist() == [a.n_sorts, 1, 1, 0]
    assert block.row_sums("n_expanded").tolist() == [a.n_expanded, 3, 3, 0]
    assert block[-1].ctas[1] == CTATrace()
    with pytest.raises(IndexError):
        block[2]
    # bare CTATraces are one-CTA queries; dim/k come from the caller
    single = TraceBlock.from_traces([a, b], dim=32, k=5)
    assert (len(single), single.n_ctas, single.dim) == (2, 1, 32)
    assert single[0] == QueryTrace([a], dim=32, k=5)
    with pytest.raises(ValueError, match="same CTA count"):
        TraceBlock.from_traces([QueryTrace([a, b]), QueryTrace([a])])


def test_block_equality_is_column_equality():
    nan = CTATrace(steps=[mkstep(best_dist=float("nan"))], result_len=1)
    one = TraceBlock.from_traces([nan], dim=32, k=5)
    assert one == TraceBlock.from_traces([nan], dim=32, k=5)  # NaN == NaN here
    assert one != TraceBlock.from_traces([nan], dim=32, k=6)
    other = CTATrace(steps=[mkstep()], result_len=1)
    assert one != TraceBlock.from_traces([other], dim=32, k=5)
    assert one != [nan]


def test_unknown_precision_tag_fails_everywhere(ds, graph):
    bad = CTATrace(steps=[mkstep(precision="fp16")])
    with pytest.raises(ValueError, match="fp16"):
        TraceBlock.from_traces([bad])
    with pytest.raises(ValueError, match="fp16"):
        CostModel(RTX_A6000).cta_duration_us(bad)
    codec = Int8Codec(metric=ds.metric).fit(ds.base)
    codec.precision = "fp16"
    with pytest.raises(ValueError, match="fp16"):
        LockstepEngine(ds.base, graph, ds.queries[:2], np.arange(2),
                       [np.array([0]), np.array([1])], 16, codec=codec)


# ------------------------------------------------------ trace → job helper
def test_price_jobs_options_and_length_mismatch():
    cm = CostModel(RTX_A6000)
    a = CTATrace(steps=[mkstep()], result_len=5)
    traces = [QueryTrace([a, a], dim=32, k=5), QueryTrace([a, CTATrace()], dim=32, k=5)]
    events = [QueryEvent(0, 10.0), QueryEvent(1, 500.0)]
    jobs = price_jobs(cm, traces, events, k=5)
    assert [j.query_id for j in jobs] == [0, 1]
    assert jobs[0].cta_durations_us == (cm.cta_duration_us(a),) * 2
    assert jobs[1].cta_durations_us == (cm.cta_duration_us(a), 0.0)
    assert (jobs[0].dim, jobs[0].k, jobs[0].host_us, jobs[0].result_entries) == (
        32, 5, 0.0, None)
    assert [j.arrival_us for j in jobs] == [10.0, 500.0]
    tiered = price_jobs(cm, traces, events[::-1], k=5, host_us=[1.5, 2.5],
                        result_entries=24)
    assert [(j.query_id, j.host_us, j.arrival_us) for j in tiered] == [
        (1, 2.5, 500.0), (0, 1.5, 10.0)]
    assert all(j.result_entries == 24 for j in tiered)
    with pytest.raises(ValueError, match=r"2 traces for 1 events"):
        price_jobs(cm, traces, events[:1], k=5)


# ------------------------------------------------------ entry-matrix seeding
def test_entry_matrix_seeding_equals_per_row_seeding(ds, graph):
    rng = np.random.default_rng(3)
    entries = [rng.choice(ds.n, size=3, replace=False) for _ in range(6)]
    entries[2] = np.array([7, 7, 3])  # duplicates inside a row are dropped
    stacked = _entry_rows(entries)
    assert isinstance(stacked, np.ndarray) and stacked.shape == (6, 3)
    ragged = _entry_rows(entries[:5] + [entries[5][:2]])
    assert isinstance(ragged, list)

    def run(row_entries):
        eng = LockstepEngine(ds.base, graph, ds.queries[:6], np.arange(6),
                             row_entries, 24, metric=ds.metric)
        eng.run(2400)
        return eng

    by_matrix, by_list = run(stacked), run(list(stacked))
    for a, b in zip(by_matrix.pools(), by_list.pools()):
        assert a.tobytes() == b.tobytes()
    assert by_matrix.trace_block(1, ds.dim, 8) == by_list.trace_block(1, ds.dim, 8)


# ------------------------------------- dynamic graph vs the scalar searcher
def _dynamic_fixture():
    base = latent_mixture(400, 16, intrinsic_dim=8, seed=21)
    queries = latent_mixture(12, 16, intrinsic_dim=8, seed=22)
    dyn = DynamicGraph(base, build_cagra(base, graph_degree=10, seed=0),
                       max_degree=12, ef=48)
    return dyn, queries


def _assert_equals_scalar(dyn, queries, pts, graph, entry, n_ctas=1):
    """``dyn.search_batch`` equals the scalar beam-extend searcher on
    ``graph`` from the entries ``dynamic_entries`` names (CTA 0's first
    replaced by ``entry``): ids, distance bytes, trace.  One CTA is
    ``intra_cta_search``; more are the round-robin ``multi_cta_search``
    over per-CTA lists of ``per_cta_capacity``."""
    ids, dists, block = dyn.search_batch(queries, 8, record_trace=True,
                                         n_ctas=n_ctas)
    assert len(block) == 12 and block.n_ctas == n_ctas
    entries = dynamic_entries(dyn, queries, 8, 48, n_ctas)
    entries[:, 0, 0] = entry
    beam = BeamConfig.for_capacity(per_cta_capacity(48, n_ctas, 8))
    if n_ctas == 1:
        oracle = [
            intra_cta_search(pts, graph, q, 8, 48, e[0], beam=beam)
            for q, e in zip(queries, entries)
        ]
    else:
        oracle = [
            multi_cta_search(pts, graph, q, 8, 48, n_ctas, beam=beam,
                             entries=list(e))
            for q, e in zip(queries, entries)
        ]
    for i, r in enumerate(oracle):
        assert np.array_equal(ids[i], r.ids)
        assert dists[i].tobytes() == r.dists.tobytes()
    assert block == TraceBlock.from_traces([r.trace for r in oracle], dim=16, k=8)
    return block


def test_dynamic_search_batch_block_equals_scalar_oracle():
    dyn, queries = _dynamic_fixture()
    # No tombstones yet: the frozen snapshot is the same graph, so the
    # scalar searcher from the same entries is the oracle, at one CTA and
    # at 8 (the round-robin multi-CTA reference).
    pts, frozen, _ = dyn.freeze()
    for n_ctas in (1, 8):
        assert dyn.search_batch(queries, 8, n_ctas=n_ctas)[2] is None
        _assert_equals_scalar(dyn, queries, pts, frozen, dyn._entry, n_ctas)


def test_dynamic_search_batch_over_tombstones_equals_scalar_oracle():
    """Uncompacted tombstones are masked at expansion: the scalar searcher
    on the adjacency with every dead edge dropped (ids kept) is the oracle,
    at one CTA and at 8, and so is ``scalar_dynamic_search``."""
    dyn, queries = _dynamic_fixture()
    dyn.delete_batch(np.random.default_rng(5).choice(400, 60, replace=False))
    assert dyn.n_tombstones == 60
    n = dyn.n_total
    live_rows = GraphIndex.from_neighbor_lists([
        row[dyn._alive[row]].astype(np.int32)
        for row in (dyn._adj[u, : dyn._counts[u]] for u in range(n))
    ])
    entry = dyn._live_entry()
    for n_ctas in (1, 8):
        _assert_equals_scalar(dyn, queries, dyn._pts[:n], live_rows, entry, n_ctas)
    ids, _, _ = dyn.search_batch(queries, 8)
    for q, row in zip(queries, ids):
        assert np.array_equal(scalar_dynamic_search(dyn, q, 8)[0], row)


def test_dynamic_search_diffuses_at_ef_64():
    """A stream read expands several candidates per sort once it diffuses."""
    dyn, queries = _dynamic_fixture()
    dyn.ef = 64
    block = dyn.search_batch(queries, 8, record_trace=True)[2]
    assert block.n_expanded.max() == BeamConfig.for_capacity(64).beam_width
    assert (block.n_expanded > 1).sum() > 0


# ------------------------------------------- no row objects on a serve path
@pytest.fixture()
def row_object_count(monkeypatch):
    made = []
    for cls in (StepRecord, CTATrace, QueryTrace):
        init = cls.__init__

        def counting(self, *a, _init=init, _cls=cls, **kw):
            made.append(_cls.__name__)
            _init(self, *a, **kw)

        monkeypatch.setattr(getattr(trace_mod, cls.__name__), "__init__", counting)
    return made


def test_untraced_serves_construct_no_row_objects(ds, graph, row_object_count):
    kw = dict(metric=ds.metric, k=8, l_total=64, batch_size=8)
    system = ALGASSystem(ds.base, graph, **kw)
    rep = system.serve(ds.queries)
    assert isinstance(rep.traces, TraceBlock) and len(rep.traces) == ds.queries.shape[0]
    quantized = ALGASSystem(ds.base, graph, precision="int8", **kw).serve(
        ds.queries)
    assert (quantized.traces.precision == PRECISION_TAGS.index("float32")).any()

    server = ShardedServer(
        ds.base, lambda pts: build_cagra(pts, graph_degree=8, seed=0),
        n_gpus=2, k=8, batch_size=4, seed=0,
    )
    server.serve(ds.queries)

    dyn = DynamicGraph(ds.base[:400],
                       build_cagra(ds.base[:400], graph_degree=10, seed=0),
                       max_degree=12, ef=48)
    stream = UpdateStream(insert_qps=2000.0, delete_qps=1000.0,
                          wave_us=4_000.0, seed=2)
    out = serve_while_update(dyn, ds.queries, stream,
                             workload=Poisson(rate_qps=3000.0, seed=1),
                             n_queries=32, k=8, slots=4)
    assert len(out.serve.records) == 32
    assert row_object_count == []
    # ... while a reader asking for views gets them
    assert rep.traces[0].ctas[0].steps and row_object_count
