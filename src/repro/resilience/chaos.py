"""Chaos harness: serve a workload under a fault plan and grade the run.

``run_chaos`` builds a small serving stack (single engine, replica group,
or shard group), arms a :class:`~repro.resilience.faults.FaultPlan`, and
returns a :class:`ChaosResult` with the completion/partial/failure census
the CI smoke target asserts on (``scripts/test.sh --chaos``,
docs/robustness.md).  Everything is deterministic: plan + seed + workload
fully determine the outcome.

This module lazy-imports ``repro.core`` inside functions —
``repro.resilience`` is a dependency of the core engines and must not
import them back at module scope.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, field

from .faults import FaultPlan, named_plan
from .policy import ResiliencePolicy

__all__ = ["ChaosResult", "run_chaos", "load_plan"]


def load_plan(spec: str | FaultPlan) -> FaultPlan:
    """Resolve a plan: a ``FaultPlan``, a built-in name, or a JSON path."""
    if isinstance(spec, FaultPlan):
        return spec
    if os.path.exists(spec):
        with open(spec, encoding="utf-8") as fh:
            return FaultPlan.from_json(fh.read())
    return named_plan(spec)


@dataclass
class ChaosResult:
    """Graded outcome of one chaos run."""

    plan: FaultPlan
    mode: str
    n_queries: int
    answered: int
    failed: int
    dropped: int
    partial: int
    retried: int
    degraded: int
    recall: float
    mean_latency_us: float
    p99_latency_us: float
    makespan_us: float
    resilience: dict = field(default_factory=dict)
    report: object = field(default=None, repr=False)  # the SystemReport

    @property
    def completion_rate(self) -> float:
        """Answered fraction of the *admitted* workload (deadline drops are
        an admission decision, not a fault loss)."""
        admitted = self.n_queries - self.dropped
        return self.answered / admitted if admitted else 1.0

    def passed(self, min_completion: float = 0.99) -> bool:
        return self.completion_rate >= min_completion

    def summary(self) -> str:
        r = self.resilience
        lines = [
            f"mode={self.mode} queries={self.n_queries} "
            f"faults={sum(r.get('faults_injected', {}).values())}",
            f"answered      = {self.answered}/{self.n_queries} "
            f"(completion {self.completion_rate:.2%})",
            f"failed        = {self.failed}  dropped = {self.dropped}  "
            f"partial = {self.partial}",
            f"retried       = {self.retried}  degraded = {self.degraded}",
            f"watchdog      = {r.get('watchdog_kills', 0)} kills, "
            f"{r.get('retries', 0)} retries, "
            f"{r.get('retry_failures', 0)} exhausted",
            f"hedging       = {r.get('hedges', 0)} fired, "
            f"{r.get('hedge_wins', 0)} won",
            f"injected      = {r.get('faults_injected', {})}",
            f"recall@k      = {self.recall:.4f}",
            f"mean latency  = {self.mean_latency_us:.1f} us "
            f"(p99 {self.p99_latency_us:.1f})",
            f"makespan      = {self.makespan_us:.1f} us",
        ]
        return "\n".join(lines)


def _cagra_builder(pts, degree: int, metric: str):
    # Module-level (picklable) shard-graph builder: a lambda here would
    # force the parallel shard builds down the thread fallback.
    from ..graphs import build_cagra

    return build_cagra(pts, graph_degree=degree, metric=metric)


def run_chaos(
    plan: FaultPlan | str,
    *,
    mode: str = "sharded",
    n_gpus: int = 4,
    dataset: str = "sift1m-mini",
    n: int = 4000,
    n_queries: int = 96,
    batch_size: int = 8,
    k: int = 8,
    degree: int = 12,
    seed: int = 0,
    policy: ResiliencePolicy | None = None,
    telemetry=None,
    parallelism: int = 0,
) -> ChaosResult:
    """Serve ``n_queries`` under ``plan`` and grade the outcome.

    ``mode`` picks the stack: ``"single"`` (one dynamic-batch engine; the
    plan's shard faults are ignored), ``"replicated"`` (hedging defense),
    or ``"sharded"`` (quorum defense — the acceptance scenario).
    ``parallelism`` fans the shard/replica legs (and the shard builds)
    across worker processes; the graded outcome is identical at any
    worker count.
    """
    from ..core import ALGASSystem, ReplicatedServer, ServeConfig, ShardedServer
    from ..data import load_dataset, recall
    from ..graphs import build_cagra

    if mode not in ("single", "replicated", "sharded"):
        raise ValueError(f"unknown chaos mode {mode!r}")
    plan = load_plan(plan)
    ds = load_dataset(dataset, n=n, n_queries=n_queries, gt_k=max(64, k),
                      seed=seed)
    cfg = ServeConfig(faults=plan, resilience=policy, telemetry=telemetry)
    common = dict(metric=ds.metric, k=k, batch_size=batch_size, seed=seed)
    if mode == "sharded":
        server = ShardedServer(
            ds.base,
            functools.partial(_cagra_builder, degree=degree, metric=ds.metric),
            n_gpus=n_gpus, parallelism=parallelism, **common,
        )
        rep = server.serve(ds.queries, cfg)
        server.close()
    elif mode == "replicated":
        graph = build_cagra(ds.base, graph_degree=degree, metric=ds.metric)
        server = ReplicatedServer(ds.base, graph, n_gpus=n_gpus,
                                  parallelism=parallelism, **common)
        rep = server.serve(ds.queries, cfg)
    else:
        graph = build_cagra(ds.base, graph_degree=degree, metric=ds.metric)
        system = ALGASSystem(ds.base, graph, **common)
        rep = system.serve(ds.queries, cfg)

    meta = rep.serve.meta
    recs = rep.serve.records
    s = rep.serve.summary() if recs else {}
    return ChaosResult(
        plan=plan,
        mode=mode,
        n_queries=int(ds.queries.shape[0]),
        answered=len(recs),
        failed=int(meta.get("failed", 0)),
        dropped=int(meta.get("dropped", 0)),
        partial=sum(1 for r in recs if r.partial),
        retried=sum(1 for r in recs if r.retries),
        degraded=sum(1 for r in recs if r.degraded),
        recall=float(recall(rep.ids, ds.gt_at(k))),
        mean_latency_us=float(s.get("mean_latency_us", 0.0)),
        p99_latency_us=float(s.get("p99_latency_us", 0.0)),
        makespan_us=float(rep.serve.makespan_us),
        resilience=dict(meta.get("resilience", {})),
        report=rep,
    )
