"""Unit tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main


def test_datasets_command(capsys):
    assert main(["datasets"]) == 0
    out = capsys.readouterr().out
    for name in ("sift1m-mini", "gist1m-mini", "glove200-mini", "nytimes-mini"):
        assert name in out
    assert "SIFT1M" in out and "cosine" in out


def test_tune_command(capsys):
    rc = main(["tune", "--slots", "16", "--dim", "128"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "N_parallel" in out and "feasible          = True" in out


def test_tune_unknown_device():
    assert main(["tune", "--device", "H100"]) == 2


def test_build_and_serve(tmp_path, capsys):
    gpath = tmp_path / "g.npz"
    rc = main([
        "build", "--dataset", "sift1m-mini", "--n", "1500",
        "--graph", "cagra", "--degree", "8", "-o", str(gpath),
    ])
    assert rc == 0 and gpath.exists()
    from repro.graphs import GraphIndex

    g = GraphIndex.load(gpath)
    assert g.n_vertices == 1500 and g.max_degree == 8

    rc = main([
        "serve", "--dataset", "sift1m-mini", "--n", "1500", "--queries", "16",
        "--degree", "8", "--k", "8", "--l", "32", "--batch", "4",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "recall@8" in out and "throughput" in out


def test_serve_ivf(capsys):
    rc = main([
        "serve", "--system", "ivf", "--dataset", "sift1m-mini", "--n", "1500",
        "--queries", "16", "--k", "8", "--nprobe", "4", "--batch", "4",
    ])
    assert rc == 0
    assert "recall@8" in capsys.readouterr().out


def test_serve_hybrid_int8(capsys):
    """The quantized hybrid serve prints its tier, its precision and the
    speedups against a float32 twin built the same way."""
    rc = main([
        "serve", "--system", "hybrid", "--precision", "int8",
        "--n", "1500", "--queries", "16",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "tier          = hybrid" in out
    assert "precision     = int8" in out
    assert "vs float32    = sim" in out


def test_serve_tier_flag_is_gone(capsys):
    """The tier is the system: ``--system hybrid`` replaced ``--tier``."""
    with pytest.raises(SystemExit) as exc:
        main(["serve", "--tier", "hybrid"])
    assert exc.value.code == 2
    assert "--tier" in capsys.readouterr().err


def test_serve_metrics_out(tmp_path, capsys):
    import json

    mpath = tmp_path / "metrics.json"
    rc = main([
        "serve", "--dataset", "sift1m-mini", "--n", "1500", "--queries", "16",
        "--degree", "8", "--k", "8", "--l", "32", "--batch", "4",
        "--metrics-out", str(mpath), "--slot-timeline",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "slot occupancy" in out and str(mpath) in out
    doc = json.loads(mpath.read_text())
    fams = doc["metrics"]
    # per-phase latency histograms
    for name in ("algas_queue_wait_us", "algas_search_us", "algas_host_merge_us"):
        assert fams[name]["type"] == "histogram"
        assert fams[name]["series"][0]["count"] > 0
    # slot-occupancy stats and drop counters
    assert doc["slot_occupancy"]["slots"]
    assert fams["algas_queries_dropped_total"]["series"][0]["value"] == 0.0
    assert doc["n_spans"] > 0


def test_serve_metrics_out_prometheus(tmp_path):
    mpath = tmp_path / "metrics.prom"
    rc = main([
        "serve", "--dataset", "sift1m-mini", "--n", "1500", "--queries", "8",
        "--degree", "8", "--k", "8", "--l", "32", "--batch", "4",
        "--metrics-out", str(mpath),
    ])
    assert rc == 0
    text = mpath.read_text()
    assert "# TYPE algas_search_us histogram" in text
    assert 'algas_search_us_bucket{le="+Inf"} 8' in text


def test_figure_unknown():
    assert main(["figure", "fig99"]) == 2


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_chaos_command(capsys):
    rc = main([
        "chaos", "--plan", "slot-hangs", "--mode", "single", "--n", "1200",
        "--queries", "24", "--batch", "4", "--k", "8", "--degree", "8",
        "--watchdog-us", "200",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "verdict       = PASS" in out
    assert "watchdog      = 2 kills" in out


def test_chaos_command_metrics_out(tmp_path, capsys):
    mpath = tmp_path / "chaos.prom"
    rc = main([
        "chaos", "--plan", "slot-hangs", "--mode", "single", "--n", "1200",
        "--queries", "16", "--batch", "4", "--k", "8", "--degree", "8",
        "--watchdog-us", "200", "--metrics-out", str(mpath),
    ])
    assert rc == 0
    assert "algas_watchdog_kills_total" in mpath.read_text()
    assert str(mpath) in capsys.readouterr().out


def test_chaos_unknown_plan():
    assert main(["chaos", "--plan", "nope"]) == 2


def test_serve_workload_process(capsys):
    rc = main([
        "serve", "--dataset", "sift1m-mini", "--n", "1500", "--queries", "16",
        "--degree", "8", "--k", "8", "--l", "32", "--batch", "4",
        "--workload", "poisson:50000",
    ])
    assert rc == 0
    assert "recall@8" in capsys.readouterr().out


def test_load_command(tmp_path, capsys):
    import json

    out = tmp_path / "BENCH_load.json"
    rc = main([
        "load", "--dataset", "sift1m-mini", "--n", "1500", "--queries", "16",
        "--events", "300", "--degree", "8", "--k", "8", "--l", "32",
        "--rates", "20000,40000", "--replicas", "1",
        "--slots-per-replica", "8", "--autoscale", "--max-replicas", "2",
        "-o", str(out),
    ])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert set(doc["curves"]) == {"fixed-1r", "autoscaled-max2r"}
    assert [p["offered_qps"] for p in doc["curves"]["fixed-1r"]] == [
        20000.0, 40000.0]
    assert "fixed-1r" in doc["max_sustainable_qps"]
    stdout = capsys.readouterr().out
    assert "max sustainable" in stdout


def test_load_command_bad_process():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["load", "--process", "nope"])
