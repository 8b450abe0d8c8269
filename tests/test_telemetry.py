"""Unit + integration tests for the serving telemetry subsystem."""

import inspect
import json
import math
import re
from collections import Counter

import numpy as np
import pytest

from repro.core import ALGASSystem, ReplicatedServer, ServeConfig, ShardedServer
from repro.core.serving import QueryRecord
from repro.baselines import CAGRASystem
from repro.data import load_dataset
from repro.graphs import build_cagra
from repro.telemetry import (
    NULL_TELEMETRY,
    Buckets,
    MetricsRegistry,
    NullTelemetry,
    Span,
    SpanLog,
    Telemetry,
    registry_to_dict,
    telemetry_document,
    to_prometheus_text,
    write_metrics,
)


# --------------------------------------------------------------- primitives
def test_counter_monotonic():
    reg = MetricsRegistry()
    c = reg.counter("algas_test_total", "help text")
    c.inc()
    c.inc(2.5)
    assert c.value == 3.5
    with pytest.raises(ValueError):
        c.inc(-1)


def test_gauge_high_water():
    reg = MetricsRegistry()
    g = reg.gauge("algas_depth")
    g.set(4)
    g.set(9)
    g.set(2)
    g.inc()
    g.dec(2)
    assert g.value == 1.0
    assert g.high_water == 9.0


def test_histogram_buckets_and_quantile():
    reg = MetricsRegistry()
    h = reg.histogram("algas_lat_us", buckets=(1.0, 10.0, 100.0))
    for v in (0.5, 5.0, 5.0, 50.0, 5000.0):
        h.observe(v)
    assert h.count == 5
    assert h.sum == pytest.approx(5060.5)
    assert h.bucket_counts == [1, 2, 1, 1]  # last = +Inf overflow
    assert h.cumulative() == [1, 3, 4, 5]
    assert h.approx_quantile(0.5) == 10.0
    assert h.approx_quantile(1.0) == math.inf  # top sample overflowed
    with pytest.raises(ValueError):
        h.approx_quantile(1.5)


def test_bucket_schemes():
    assert Buckets.linear(0.0, 10.0, 3) == (0.0, 10.0, 20.0)
    assert Buckets.exponential(1.0, 2.0, 4) == (1.0, 2.0, 4.0, 8.0)
    assert len(Buckets.LATENCY_US) == 16
    with pytest.raises(ValueError):
        Buckets.linear(0.0, -1.0, 3)
    with pytest.raises(ValueError):
        Buckets.exponential(1.0, 1.0, 4)
    with pytest.raises(ValueError):
        MetricsRegistry().histogram("h", buckets=(5.0, 5.0))


def test_registry_dedup_and_conflicts():
    reg = MetricsRegistry()
    a = reg.counter("algas_x_total", shard="0")
    b = reg.counter("algas_x_total", shard="0")
    c = reg.counter("algas_x_total", shard="1")
    assert a is b and a is not c
    assert len(reg) == 2
    assert reg.get("algas_x_total", shard="1") is c
    assert reg.get("algas_x_total", shard="9") is None
    with pytest.raises(ValueError):
        reg.gauge("algas_x_total")  # kind conflict
    with pytest.raises(ValueError):
        reg.counter("bad name")
    with pytest.raises(ValueError):
        reg.counter("algas_ok_total", **{"bad-label": "x"})


# -------------------------------------------------------------------- spans
def test_span_log():
    log = SpanLog()
    log.record("queue", 0.0, 5.0, query_id=1)
    log.record("slot", 5.0, 9.0, query_id=1, slot_id=3)
    log.record("queue", 2.0, 3.0, query_id=2)
    assert len(log) == 3
    assert [s.name for s in log.filter(name="queue")] == ["queue", "queue"]
    assert log.filter(query_id=1)[1].slot_id == 3
    assert log.filter(name="slot")[0].duration_us == 4.0
    d = log.filter(name="slot")[0].to_dict()
    assert d["name"] == "slot" and d["slot_id"] == 3


def test_a_finished_query_is_one_entry_read_back_as_spans():
    """``query_completed`` logs one entry holding the times it saw; an
    engine that rewrites the record afterwards does not move the spans."""
    tel = Telemetry(labels={"gpu": "0"})
    rec = QueryRecord(7, 1.0, dispatch_us=2.0, gpu_start_us=3.0, gpu_end_us=4.0,
                      detected_us=5.0, complete_us=6.0)
    tel.query_completed(rec, slot=3)
    rec.arrival_us = rec.detected_us = rec.complete_us = 0.0
    tel.query_completed(QueryRecord(8, 0.0, 0.0, 1.0, 2.0, 3.0, 4.0))
    assert len(tel.spans.entries) == 2 and len(tel.spans) == 7
    assert [(s.name, s.query_id, s.start_us, s.end_us, s.slot_id) for s in tel.spans] == [
        ("slot", 7, 2.0, 6.0, 3),
        ("search", 7, 3.0, 4.0, None),
        ("merge", 7, 5.0, 6.0, None),
        ("query", 7, 1.0, 6.0, None),
        ("search", 8, 1.0, 2.0, None),
        ("merge", 8, 3.0, 4.0, None),
        ("query", 8, 0.0, 4.0, None),
    ]
    assert all(s.attrs == {"gpu": "0"} for s in tel.spans)
    assert tel.spans.filter(slot_id=3) == tel.spans.filter(name="slot")


# --------------------------------------------------------------- exposition
def test_prometheus_text_parses_line_by_line():
    tel = Telemetry()
    tel.query_dispatched(0, 0.0, 3.0)
    tel.queue_depth(7)
    text = tel.to_prometheus()
    sample = re.compile(
        r"^[a-zA-Z_:][a-zA-Z0-9_:]*"          # metric name
        r"(\{[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\"(,[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\")*\})?"
        r" (-?\d+(\.\d+)?([eE][+-]?\d+)?|\+Inf|-Inf|NaN)$"
    )
    meta = re.compile(r"^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .*$")
    for line in text.splitlines():
        assert sample.match(line) or meta.match(line), line
    # histogram series are complete: _bucket{le=...} + _sum + _count
    assert 'algas_queue_wait_us_bucket{le="+Inf"} 1' in text
    assert re.search(r"^algas_queue_wait_us_sum 3$", text, re.M)
    assert re.search(r"^algas_queue_wait_us_count 1$", text, re.M)


def test_catalog_preregistered_at_zero():
    doc = registry_to_dict(Telemetry().registry)
    # deadline drops visible even before any drop happens
    assert doc["algas_queries_dropped_total"]["series"][0]["value"] == 0.0
    for name in ("algas_queue_wait_us", "algas_search_us", "algas_host_merge_us"):
        assert doc[name]["type"] == "histogram"
        assert doc[name]["series"][0]["count"] == 0


def test_write_metrics_formats(tmp_path):
    tel = Telemetry()
    tel.query_dropped(0, 0.0, 4.0)
    jpath = write_metrics(tel, tmp_path / "m.json")
    doc = json.loads(jpath.read_text())
    assert doc["metrics"]["algas_queries_dropped_total"]["series"][0]["value"] == 1.0
    assert doc["n_spans"] == 1
    ppath = write_metrics(tel, tmp_path / "m.prom")
    assert "# TYPE algas_queries_dropped_total counter" in ppath.read_text()


def test_span_truncation():
    tel = Telemetry()
    for i in range(10):
        tel.span("batch", float(i), float(i + 1))
    doc = telemetry_document(tel, max_spans=4)
    assert doc["n_spans"] == 10
    assert len(doc["spans"]) == 4
    assert doc["spans_truncated"] == 6


# ----------------------------------------------------------- null telemetry
def test_null_telemetry_is_inert():
    tel = NULL_TELEMETRY
    assert isinstance(tel, NullTelemetry) and not tel.enabled
    tel.query_submitted(5)
    tel.queue_depth(3)
    tel.query_dropped(0, 0.0, 1.0)
    tel.span("x", 0.0, 1.0)
    assert tel.scoped(shard="1") is tel
    assert tel.to_dict() == {}
    assert tel.to_prometheus() == ""
    assert "disabled" in tel.slot_timeline()


class _Tripwire:
    """Stands in for a registry or span log: any use fails the test."""

    def __getattr__(self, name):
        raise AssertionError(f"null telemetry touched .{name}")


def test_null_telemetry_overrides_every_hook():
    """Every public ``Telemetry`` method has a ``NullTelemetry`` override,
    and none of them reaches a registry or span log."""
    public = [name for name, attr in vars(Telemetry).items()
              if callable(attr) and not name.startswith("_")]
    assert len(public) > 20
    null = NullTelemetry()
    null.registry = null.spans = _Tripwire()
    for name in public:
        assert name in vars(NullTelemetry), name
        params = list(inspect.signature(getattr(Telemetry, name)).parameters.values())
        required = [p for p in params[1:]
                    if p.default is p.empty and p.kind is p.POSITIONAL_OR_KEYWORD]
        getattr(null, name)(*[None] * len(required))
    assert null.to_json() == "{}"


def test_scoped_labels_share_registry():
    tel = Telemetry()
    s0 = tel.scoped(shard="0")
    s1 = tel.scoped(shard="1")
    s0.query_dispatched(0, 0.0, 1.0)
    s1.query_dispatched(1, 0.0, 2.0)
    assert tel.registry.get("algas_queries_dispatched_total", shard="0").value == 1
    assert tel.registry.get("algas_queries_dispatched_total", shard="1").value == 1
    # spans land in the shared log with the scope label attached
    assert len(tel.spans.filter(name="queue")) == 2
    assert tel.spans.filter(name="queue")[0].attrs["shard"] == "0"


# -------------------------------------------------------------- integration
@pytest.fixture(scope="module")
def mini():
    ds = load_dataset("sift1m-mini", n=1500, n_queries=24, gt_k=16, seed=0)
    g = build_cagra(ds.base, graph_degree=16, metric=ds.metric)
    return ds, g


def test_dynamic_engine_instrumented(mini):
    ds, g = mini
    sys_ = ALGASSystem(ds.base, g, metric=ds.metric, k=8, l_total=64,
                       batch_size=8, seed=0)
    tel = Telemetry()
    rep = sys_.serve(ds.queries, ServeConfig(telemetry=tel))
    n = len(ds.queries)
    reg = tel.registry
    assert reg.get("algas_queries_submitted_total").value == n
    assert reg.get("algas_queries_dispatched_total").value == n
    assert reg.get("algas_queries_completed_total").value == n
    assert reg.get("algas_queries_dropped_total").value == 0
    assert reg.get("algas_queue_wait_us").count == n
    assert reg.get("algas_search_us").count == n
    assert reg.get("algas_host_merge_us").count >= n
    assert reg.get("algas_makespan_us", mode="dynamic").value == pytest.approx(
        rep.serve.makespan_us
    )
    # per-slot occupancy accumulated on counters and spans
    slots = [s for s in tel.spans.filter(name="slot")]
    assert len(slots) == n
    busy = sum(
        m.value for _, _, _, ms in reg.collect()
        for m in ms if m.name == "algas_slot_busy_us_total"
    )
    assert busy == pytest.approx(sum(s.duration_us for s in slots))
    # slot state machine observed: host-side dispatches and per-CTA finishes
    host_dispatch = reg.get("algas_slot_transitions_total",
                            **{"from": "none", "to": "work"})
    cta_finish = reg.get("algas_slot_transitions_total",
                         **{"from": "work", "to": "finish"})
    assert host_dispatch is not None and host_dispatch.value > 0
    assert cta_finish is not None and cta_finish.value >= n
    # ASCII timeline renders one row per used slot
    art = tel.slot_timeline(width=60)
    assert "slot occupancy" in art and "%" in art


def test_static_engine_instrumented(mini):
    ds, g = mini
    sys_ = CAGRASystem(ds.base, g, metric=ds.metric, k=8, l_total=64,
                       batch_size=8, seed=0)
    tel = Telemetry()
    sys_.serve(ds.queries, ServeConfig(telemetry=tel))
    n = len(ds.queries)
    reg = tel.registry
    assert reg.get("algas_queries_completed_total").value == n
    assert reg.get("algas_bubble_us").count == n
    assert len(tel.spans.filter(name="batch")) == math.ceil(n / 8)
    assert len(tel.spans.filter(name="kernel")) == math.ceil(n / 8)
    assert reg.get("algas_makespan_us", mode="static") is not None


def test_cluster_per_shard_aggregation(mini):
    ds, g = mini
    tel = Telemetry()
    rs = ReplicatedServer(ds.base, g, n_gpus=2, metric=ds.metric, k=8,
                          l_total=64, batch_size=8, seed=0)
    rs.serve(ds.queries, ServeConfig(telemetry=tel))
    per_gpu = [tel.registry.get("algas_queries_completed_total", gpu=str(i))
               for i in range(2)]
    assert all(m is not None for m in per_gpu)
    assert sum(m.value for m in per_gpu) == len(ds.queries)
    assert tel.registry.get("algas_makespan_us", mode="replicated") is not None

    tel2 = Telemetry()
    builder = lambda pts: build_cagra(pts, graph_degree=16, metric=ds.metric)
    ss = ShardedServer(ds.base, builder, n_gpus=2, metric=ds.metric, k=8,
                       l_total=64, batch_size=8, seed=0)
    ss.serve(ds.queries[:8], ServeConfig(telemetry=tel2))
    for i in range(2):
        m = tel2.registry.get("algas_queries_completed_total", shard=str(i))
        assert m is not None and m.value == 8  # every query visits every shard
    assert tel2.registry.get("algas_host_merge_us").count >= 8
    assert tel2.registry.get("algas_makespan_us", mode="sharded") is not None


def test_disabled_telemetry_identical_report(mini):
    ds, g = mini
    mk = lambda: ALGASSystem(ds.base, g, metric=ds.metric, k=8, l_total=64,
                             batch_size=8, seed=0)
    plain = mk().serve(ds.queries)
    with_tel = mk().serve(ds.queries, ServeConfig(telemetry=Telemetry()))
    assert np.array_equal(plain.ids, with_tel.ids)
    assert plain.serve.summary() == with_tel.serve.summary()


def test_registry_lookups_do_not_grow_with_queries(mini, monkeypatch):
    """Hooks write to children bound once: a telemetry-on serve resolves
    O(families + slots) metrics, so 4x the queries make no more lookups."""
    ds, g = mini
    sys_ = ALGASSystem(ds.base, g, metric=ds.metric, k=8, l_total=64,
                       batch_size=8, seed=0)
    real_get, calls = MetricsRegistry._get, []

    def counted(self, *args, **kwargs):
        calls.append(args[1])
        return real_get(self, *args, **kwargs)

    def lookups(n_queries):
        tel = Telemetry()
        calls.clear()
        monkeypatch.setattr(MetricsRegistry, "_get", counted)
        sys_.serve(ds.base[:n_queries], ServeConfig(telemetry=tel))
        monkeypatch.setattr(MetricsRegistry, "_get", real_get)
        assert tel.registry.get("algas_queries_completed_total").value == n_queries
        return len(calls)

    small, large = lookups(32), lookups(128)
    assert small == large
    assert small <= 2 * 8 + 25 + 4  # per-slot pairs, transitions, report gauges


def test_a_serve_builds_no_spans_until_they_are_read(mini, monkeypatch):
    """The span log keeps one entry a lifecycle step and builds ``Span``
    objects only when read: none while a telemetry-on serve runs, then
    five a query from the dynamic engine and four a query (no ``slot``)
    plus a ``batch`` and a ``kernel`` span a batch from the static one."""
    ds, g = mini
    real_init, built = Span.__init__, []

    def counted(self, *args, **kwargs):
        built.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(Span, "__init__", counted)
    n, kw = 128, dict(metric=ds.metric, k=8, l_total=64, batch_size=8, seed=0)
    for system, per_query, per_batch in ((ALGASSystem, 5, 0), (CAGRASystem, 4, 2)):
        tel = Telemetry()
        built.clear()
        system(ds.base, g, **kw).serve(ds.base[:n], ServeConfig(telemetry=tel))
        assert built == [], system.__name__
        names = Counter(s.name for s in tel.spans)
        assert len(built) == len(tel.spans) == per_query * n + per_batch * n // 8
        assert names["queue"] == names["search"] == names["query"] == n
        assert names["slot"] == (n if per_query == 5 else 0)


def test_prometheus_label_values_are_escaped():
    """Backslash, double quote and newline in a label value, and backslash
    and newline in HELP text, are escaped as the text format specifies;
    a line parser recovers the original value."""
    value = 'a"b\\c\nd'
    tel = Telemetry(labels={"tenant": value})
    tel.registry.counter("algas_odd_total", 'help with \\ and\nnewline "q"',
                         tenant=value).inc()
    text = tel.to_prometheus()
    assert '# HELP algas_odd_total help with \\\\ and\\nnewline "q"' in text
    label = r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\\n]|\\[\\"n])*)"'
    sample = re.compile(
        rf"^([a-zA-Z_:][a-zA-Z0-9_:]*)\{{({label}(?:,{label})*)\}} (\S+)$"
    )
    unescape = {"\\\\": "\\", '\\"': '"', "\\n": "\n"}
    samples = 0
    for line in text.splitlines():
        if line.startswith("#"):
            continue
        m = sample.match(line)
        assert m, line
        labels = {
            k: re.sub(r'\\[\\"n]', lambda e: unescape[e.group(0)], v)
            for k, v in re.findall(label, m.group(2))
        }
        assert labels["tenant"] == value, line
        samples += 1
    assert samples > 20  # every catalog series carries the label
