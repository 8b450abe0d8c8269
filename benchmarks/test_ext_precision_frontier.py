"""Extension — the int8 traversal frontier against float32.

``repro figure frontier`` searches one CAGRA graph of gist1m-mini (960-d)
at each candidate budget with float32 and with int8 (SQ8) distances plus
the exact re-rank.  int8 reads a quarter of the bytes and packs four MACs
a lane-cycle, so on the simulated clock it must be faster at every
``l_total``, and the re-rank must keep its recall@16 within 0.02 of
float32's.
"""

from repro.bench.figures import precision_frontier_data


def test_ext_precision_frontier(benchmark, show):
    text, data = precision_frontier_data()
    show("ext-frontier", text)
    assert set(data) == {"float32", "int8"}
    for f32, i8 in zip(data["float32"], data["int8"], strict=True):
        assert f32["l_total"] == i8["l_total"]
        assert i8["sim_latency_us"] < f32["sim_latency_us"], i8["l_total"]
        assert i8["recall"] >= f32["recall"] - 0.02, i8["l_total"]

    benchmark(precision_frontier_data, l_values=(64,))
