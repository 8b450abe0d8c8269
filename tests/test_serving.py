"""Unit tests for serving vocabulary (jobs, records, reports)."""

import json

import numpy as np
import pytest

from repro.core.serving import QueryJob, QueryRecord, ServeReport


def test_query_job_validation():
    with pytest.raises(ValueError):
        QueryJob(0, 0.0, (), 128, 10)
    with pytest.raises(ValueError):
        QueryJob(0, 0.0, (-1.0,), 128, 10)
    j = QueryJob(0, 0.0, (3.0, 5.0), 128, 10)
    assert j.n_ctas == 2 and j.gpu_time_us == 5.0


def test_record_latencies():
    r = QueryRecord(0, arrival_us=10.0)
    r.dispatch_us = 12.0
    r.gpu_end_us = 30.0
    r.complete_us = 40.0
    assert r.service_latency_us == 28.0
    assert r.e2e_latency_us == 30.0
    assert r.bubble_us == 10.0


def test_report_metrics():
    recs = []
    for i, lat in enumerate((10.0, 20.0, 30.0)):
        r = QueryRecord(i, 0.0)
        r.dispatch_us = 0.0
        r.gpu_start_us = 1.0
        r.gpu_end_us = lat - 2
        r.complete_us = lat
        recs.append(r)
    rep = ServeReport(records=recs, makespan_us=30.0, gpu_cta_busy_us=60.0, n_cta_slots=4)
    assert rep.mean_latency_us() == pytest.approx(20.0)
    assert rep.percentile_latency_us(50) == pytest.approx(20.0)
    assert rep.throughput_qps == pytest.approx(3 / 30e-6)
    assert rep.gpu_utilization == pytest.approx(60.0 / (4 * 30.0))
    assert np.array_equal(rep.sorted_latencies_us(), [10.0, 20.0, 30.0])
    s = rep.summary()
    assert s["n_queries"] == 3 and s["mean_latency_us"] == pytest.approx(20.0)


def test_report_empty():
    rep = ServeReport(records=[], makespan_us=0.0, gpu_cta_busy_us=0.0, n_cta_slots=1)
    assert rep.mean_latency_us() == 0.0
    assert rep.throughput_qps == 0.0
    assert rep.mean_bubble_us == 0.0


def test_latency_kind_validation():
    rep = ServeReport(records=[], makespan_us=0.0, gpu_cta_busy_us=0.0, n_cta_slots=1)
    with pytest.raises(ValueError):
        rep.mean_latency_us("wallclock")


# ------------------------------------------------------------ serialization
def _sample_report():
    from repro.gpusim.pcie import PCIeStats

    recs = []
    for i, lat in enumerate((10.0, 20.0, 30.0)):
        r = QueryRecord(i, float(i))
        r.dispatch_us = float(i)
        r.gpu_start_us = i + 1.0
        r.gpu_end_us = lat - 2
        r.detected_us = lat - 1
        r.complete_us = lat
        recs.append(r)
    return ServeReport(
        records=recs,
        makespan_us=30.0,
        gpu_cta_busy_us=60.0,
        n_cta_slots=4,
        pcie=PCIeStats(transactions=7, bytes_moved=1024, busy_us=3.5,
                       by_tag={"query": 3, "result": 4}),
        host_busy_us=12.0,
        meta={"mode": "dynamic", "n_slots": 4},
    )


def test_report_json_round_trip():
    rep = _sample_report()
    back = ServeReport.from_json(rep.to_json())
    assert back.records == rep.records
    assert back.makespan_us == rep.makespan_us
    assert back.gpu_cta_busy_us == rep.gpu_cta_busy_us
    assert back.n_cta_slots == rep.n_cta_slots
    assert back.host_busy_us == rep.host_busy_us
    assert back.pcie == rep.pcie
    assert back.meta == rep.meta
    assert back.summary() == rep.summary()


def test_report_json_file_and_no_pcie(tmp_path):
    rep = _sample_report()
    rep.pcie = None
    path = tmp_path / "report.json"
    rep.to_json(path)
    back = ServeReport.from_json(path.read_text())
    assert back.pcie is None and back.records == rep.records


def test_report_meta_serialized_best_effort():
    rep = _sample_report()
    rep.meta["config"] = object()  # not JSON-serializable as-is
    doc = json.loads(rep.to_json())
    assert isinstance(doc["meta"]["config"], str)  # repr fallback
    assert doc["summary"]["n_queries"] == 3


def test_served_report_round_trip_from_engine():
    """A real engine report survives to_json/from_json intact."""
    from repro.core import ALGASSystem
    from repro.data import load_dataset
    from repro.graphs import build_cagra

    ds = load_dataset("sift1m-mini", n=1200, n_queries=8, gt_k=8, seed=0)
    g = build_cagra(ds.base, graph_degree=16, metric=ds.metric)
    system = ALGASSystem(ds.base, g, metric=ds.metric, k=8, l_total=64,
                         batch_size=4, seed=0)
    rep = system.serve(ds.queries).serve
    back = ServeReport.from_json(rep.to_json())
    assert back.records == rep.records
    assert back.summary() == rep.summary()


# --------------------------------------- golden serves (frozen at 6b2560b)
def test_every_serve_entry_point_reproduces_the_frozen_digests():
    """Report JSON, result ids / dists and (with telemetry on) the
    Prometheus text of every entry point — single systems, the hybrid
    tier, the static baselines and both cluster servers under health,
    admission, faults and defenses — rebuild ``serves.json`` byte for
    byte."""
    from .golden import make_serves

    frozen = json.loads(make_serves.FIXTURE.read_text())
    doc = make_serves.build()
    moved = sorted(n for n in frozen if doc.get(n) != frozen[n])
    assert not moved, f"serve digests moved: {moved}"
    assert make_serves.render(doc) == make_serves.FIXTURE.read_text()
