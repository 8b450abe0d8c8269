"""The staged hybrid serving system: GPU pilot → PCIe → CPU refine.

:class:`HybridSystem` is an :class:`ALGASSystem` that always serves the
hybrid tier: stage 1 traverses the device-resident pilot subgraph with
the normal lockstep engine (reduced dims, full speed), stage 2 ships the
surviving candidate ids over the simulated PCIe link as one batched DMA
per query (`result_entries` on the job — PCIe stalls now land on the
refinement hop), stage 3 walks the full graph on the host from those
entries (:func:`bounded_refine`) priced by
:meth:`CostModel.cpu_refine_us` as `host_us` on the job.  To serve the
full graph on the device, build an :class:`ALGASSystem`.

A serve runs :meth:`BaseGraphSystem.serve`; the hybrid tier supplies
three things to it: its search step (pilot traversal + bounded refine,
priced with the refine extras), its engine width (the pilot search's CTAs
per slot) and ``meta["tier"]``.  The pilot traverses at the system's
``precision`` and ``rerank_mult``.  Recall is measured on the refined
(exact, full-precision) results; latency comes from the same dynamic
batching engine as every other tier, so telemetry, fault plans, and
admission control all compose unchanged.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..core.pipeline import ALGASSystem
from ..core.serving import price_jobs
from ..gpusim.device import DeviceProperties, RTX_A6000
from ..graphs.base import GraphIndex
from .pilot import PilotIndex, build_pilot
from .refine import bounded_refine

__all__ = ["HybridSystem"]


class HybridSystem(ALGASSystem):
    """ALGAS with a memory-bounded CPU–GPU hybrid tier."""

    name = "hybrid"

    def __init__(
        self,
        base: np.ndarray,
        graph: GraphIndex,
        device: DeviceProperties = RTX_A6000,
        pilot: PilotIndex | None = None,
        capacity_bytes: int | None = None,
        sample_ratio: float | None = None,
        pilot_dim: int | None = None,
        reduction: str = "svd",
        n_candidates: int = 32,
        refine_ef: int | None = None,
        refine_steps: int = 12,
        pilot_l_total: int | None = None,
        **kwargs,
    ):
        super().__init__(base, graph, device, **kwargs)
        if n_candidates <= 0:
            raise ValueError("n_candidates must be positive")
        if refine_ef is None:
            # A tight pool: the pilot already localized the walk, so the
            # host only polishes — wide ef just streams more host memory.
            refine_ef = max(n_candidates, self.k)
        if refine_ef < max(self.k, 1):
            raise ValueError("refine_ef must be >= k")
        if refine_steps < 0:
            raise ValueError("refine_steps must be >= 0 (0 = rerank only)")
        self.n_candidates = n_candidates
        self.refine_ef = refine_ef
        self.refine_steps = refine_steps
        if pilot is None:
            pilot = build_pilot(
                self.base, graph, device,
                metric=self.metric,
                capacity_bytes=capacity_bytes,
                sample_ratio=sample_ratio,
                pilot_dim=pilot_dim,
                reduction=reduction,
                seed=self.seed,
                n_slots=self.batch_size,
                n_parallel=self.n_parallel,
                k=n_candidates,
            )
        if pilot.full_n != self.base.shape[0]:
            raise ValueError("pilot was built for a different corpus")
        self.pilot = pilot
        # Stage 1 runs the stock ALGAS stack over the pilot — same engine,
        # same pricing, just smaller/narrower data. k is the candidate
        # count shipped to the host, not the final k, and the walk is
        # shallower than a full-graph search: the pilot only has to land
        # *near* the answers, the CPU walk finishes the job.
        if pilot_l_total is None:
            pilot_l_total = min(max(2 * n_candidates, 32), self.l_total)
        self.pilot_l_total = max(pilot_l_total, n_candidates)
        self._pilot_system = ALGASSystem(
            pilot.points, pilot.graph, device,
            metric=self.metric,
            k=n_candidates,
            l_total=self.pilot_l_total,
            batch_size=self.batch_size,
            host_threads=self.host_threads,
            state_mode=self.state_mode,
            merge_on_cpu=self.merge_on_cpu,
            seed=self.seed,
            precision=self.precision,
            rerank_mult=self.rerank_mult,
        )

    # ---------------------------------------------------------- stage 1+3
    def hybrid_search_all(
        self,
        queries: np.ndarray,
        seed: int | None = None,
    ):
        """Pilot traversal + bounded CPU refinement for a query batch.

        Returns ``(ids, dists, traces, refine)`` — ids/dists are the
        refined full-precision results, traces are the *pilot* traces
        (reduced dim: that is what the device executed and what the query
        DMA ships), and ``refine`` is the :class:`RefineResult` whose op
        counts price the host stage.
        """
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float32))
        q_red = self.pilot.project(queries)
        p_ids, _, traces = self._pilot_system.search_all(q_red, seed=seed)
        entries_full = self.pilot.to_full(p_ids)
        refine = bounded_refine(
            self.base, self.graph, queries,
            [row for row in entries_full],
            self.k,
            ef=self.refine_ef,
            max_steps=self.refine_steps,
            metric=self.metric,
        )
        return refine.ids, refine.dists, traces, refine

    # ---------------------------------------------------------- serve steps
    def engine_config(self):
        """The hybrid tier's slots run the pilot search's CTA count."""
        return replace(super().engine_config(),
                       n_parallel=self._pilot_system.n_parallel)

    def _search_step(self, queries: np.ndarray, cfg, events):
        ids, dists, traces, refine = self.hybrid_search_all(queries, seed=cfg.seed)
        full_dim = int(self.base.shape[1])
        host_us = [
            self.cost_model.cpu_refine_us(int(nd), full_dim, ef=self.refine_ef)
            for nd in refine.n_distances
        ]
        jobs = price_jobs(
            self.cost_model, traces, events, self.k,
            host_us=host_us, result_entries=self.n_candidates,
        )
        plan = self.pilot.plan
        tier = {
            "tier": "hybrid",
            "pilot": {
                "n_pilot": self.pilot.n_pilot,
                "pilot_dim": self.pilot.pilot_dim,
                "sample_ratio": self.pilot.sample_ratio,
                "reduction": self.pilot.reduction,
                "n_edges": self.pilot.graph.n_edges,
                "footprint_bytes": None if plan is None else plan.total_bytes,
                "fits": None if plan is None else plan.fits,
            },
            "refine": {
                "n_candidates": self.n_candidates,
                "ef": self.refine_ef,
                "max_steps": self.refine_steps,
                "steps_run": refine.n_steps,
                "mean_n_distances": float(refine.n_distances.mean()),
                "mean_host_us": float(np.mean(host_us)),
            },
        }
        precision = self._pilot_system._precision_meta()
        return ids, dists, traces, jobs, {"tier": tier, "precision": precision}
