"""Unit tests for trace containers: the row objects and, for each of their
aggregates, the matching column reduction of the ``TraceBlock`` built from
them (``tests/test_trace_block.py`` covers the block itself)."""

from repro.gpusim.trace import CTATrace, QueryTrace, StepRecord, TraceBlock


def mkstep(n_new=4, did_sort=True, n_exp=1):
    return StepRecord(
        select_offset=0, n_expanded=n_exp, n_neighbors_fetched=8,
        n_visited_checks=8, n_new_points=n_new, dim=32,
        sort_size=20, cand_list_len=16, did_sort=did_sort,
    )


def test_cta_trace_aggregates():
    t = CTATrace(steps=[mkstep(), mkstep(n_new=2, did_sort=False), mkstep(n_exp=3)])
    assert t.n_steps == 3
    assert t.n_sorts == 2
    assert t.n_distances == 4 + 2 + 4
    assert t.n_expanded == 1 + 1 + 3
    block = TraceBlock.from_traces([t])
    assert block.lens.tolist() == [t.n_steps]
    assert block.row_sums("did_sort").tolist() == [t.n_sorts]
    assert block.row_sums("n_new_points").tolist() == [t.n_distances]
    assert block.row_sums("n_expanded").tolist() == [t.n_expanded]


def test_query_trace_aggregates():
    a = CTATrace(steps=[mkstep()])
    b = CTATrace(steps=[mkstep(), mkstep()])
    q = QueryTrace(ctas=[a, b], dim=32, k=5)
    assert q.n_ctas == 2
    assert q.max_steps == 2
    assert q.total_distances == a.n_distances + b.n_distances
    assert q.total_sorts == 3
    block = TraceBlock.from_traces([q])
    assert (len(block), block.n_ctas, block.dim, block.k) == (1, 2, 32, 5)
    assert int(block.lens.max()) == q.max_steps
    assert int(block.row_sums("n_new_points").sum()) == q.total_distances
    assert int(block.did_sort.sum()) == q.total_sorts


def test_empty_traces():
    t = CTATrace()
    assert t.n_steps == 0 and t.n_sorts == 0 and t.n_distances == 0
    q = QueryTrace()
    assert q.max_steps == 0 and q.n_ctas == 0
    block = TraceBlock.from_traces([t, t])
    assert (len(block), block.n_steps) == (2, 0)
    assert block.row_sums("n_new_points").tolist() == [0, 0]
    assert len(TraceBlock.from_traces([])) == 0
