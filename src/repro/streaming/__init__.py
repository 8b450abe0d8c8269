"""Streaming updates under live traffic: serve-while-update.

Two halves (docs/robustness.md, "Streaming updates & update storms"):

* :mod:`repro.streaming.updates` — :class:`UpdateStream`, the seeded,
  declarative description of corpus churn (steady insert/delete rates
  discretized into waves, plus deterministic :class:`UpdateStorm` bursts);
* :mod:`repro.streaming.runner` — :func:`serve_while_update`, which
  interleaves those waves with an
  :class:`~repro.data.workload.ArrivalProcess` query stream on one
  simulated clock and grades recall/latency degradation against a
  frozen-graph oracle (:class:`DegradationSLO`, :class:`StreamReport`).

Quick tour::

    from repro.graphs import build_cagra
    from repro.graphs.dynamic import DynamicGraph
    from repro.streaming import UpdateStream, UpdateStorm, serve_while_update
    from repro.data.workload import Poisson

    dyn = DynamicGraph(base, build_cagra(base, graph_degree=12))
    stream = UpdateStream(insert_qps=2000, delete_qps=500,
                          storms=(UpdateStorm(30_000, n_inserts=5000),))
    report = serve_while_update(dyn, queries, stream,
                                workload=Poisson(rate_qps=4000))
    print(report.summary())          # SLO verdict table
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".runner": ("DegradationSLO", "StreamReport", "serve_while_update"),
    ".updates": ("UpdateStorm", "UpdateStream", "UpdateWave"),
})
