"""Multi-GPU scale-out: replication and sharding.

The paper serves one GPU; production deployments scale out in two standard
ways, both composable from the existing machinery because search (exact
results) and scheduling (priced traces) are already separated:

* **replication** — every GPU holds the full index; queries are
  partitioned round-robin across replicas.  Throughput scales ~linearly,
  per-query latency is unchanged.
* **sharding** — each GPU holds a slice of the corpus with its own graph;
  every query fans out to all shards and the host merges the per-shard
  TopK (one more heap merge — the same §IV-B machinery).  Latency gains
  come from smaller per-shard graphs; the fan-out costs merge work and
  ties each query to the *slowest* shard.

A serve runs the steps of :meth:`ALGASSystem.serve`: the replicated
server searches and prices once in the parent, each shard leg runs its
shard system's search, price and schedule steps under the serve's
:class:`~repro.core.serving.ServeConfig`.  Every shard / replica system is
built from the server's constructor keywords (``precision``,
``rerank_mult``, ``batch_size``, ...), so they mean what they mean on one
system.  Only the slow-GPU rescale and the per-worker telemetry are
cluster-specific.

Resilience (docs/robustness.md): :func:`_gpu_faults` slices a
:class:`~repro.resilience.faults.FaultPlan` per GPU (``for_shard``:
engine-level faults; ``shard_fault``: kill/slow the whole GPU).  Defenses:

* replication **hedges**: a query unanswered ``hedge_delay_us`` past its
  arrival (or lost to a replica kill) is re-sent to the next replica and
  the first answer wins.  Hedges are priced as a second serve pass on the
  backup — an approximation that assumes hedges ride spare capacity
  rather than contending with the backup's own primaries.
* sharding answers from a **quorum**: the K-of-N shards that reported
  within ``straggler_budget_us`` of the first shard's answer; records
  answered from a subset are flagged ``partial`` and the report carries
  an estimated recall penalty (fraction of the corpus not consulted).
  The healthy fan-in is the same loop with K = N: every query waits for
  every shard.

With no plan and no policy both servers are bit-identical to the plain
fan-out (every resilience branch is gated on them).

Multi-core execution (docs/performance.md): each shard/replica leg is an
independent simulation, fanned over the worker processes of a
:class:`~repro.parallel.pool.WorkerPool` when ``parallelism`` (the server
knob or :attr:`~repro.core.serving.ServeConfig.parallelism`) exceeds one
and run inline, in shard order, otherwise.  Corpora, CSR arrays and
padded neighbour matrices cross to the workers as
:class:`~repro.parallel.shared.ArrayRef` handles (never pickled; a worker
rebuilds the shard system it is handed), and fan-in is deterministic:
``WorkerPool.map`` returns in submission order, fault bookkeeping runs in
the parent, and per-shard worker telemetry is folded back in shard order.
A serve is byte-identical at any worker count, ``parallelism=0`` included.
"""

from __future__ import annotations

import logging
import pickle
from dataclasses import dataclass, field, replace

import numpy as np

from ..data.metrics import query_batch
from ..data.workload import resolve_workload
from ..graphs.base import GraphIndex
from ..parallel import ArrayRef, SharedArena, make_pool, resolve_ref
from ..resilience.policy import DEFAULT_POLICY, ResilienceStats
from ..search.topk import heap_merge
from ..telemetry import NULL_TELEMETRY, Telemetry
from .dynamic_batcher import DynamicBatchEngine, _admit
from .host import host_meta
from .pipeline import ALGASSystem, SystemReport
from .serving import (
    QueryJob,
    QueryRecord,
    ServeConfig,
    ServeReport,
    as_serve_config,
    merge_reports,
)

__all__ = ["ReplicatedServer", "ShardedServer"]

_log = logging.getLogger(__name__)


def _scaled_jobs(jobs: list[QueryJob], factor: float) -> list[QueryJob]:
    """Price a slowed GPU: every CTA duration stretched by ``factor``."""
    return [
        replace(j, cta_durations_us=tuple(d * factor for d in j.cta_durations_us))
        for j in jobs
    ]


def _cluster_policy(cfg: ServeConfig):
    """Resolve ``(plan, policy, stats)`` for a cluster serve.

    All three are None for a fault-free, undefended run so the healthy
    path stays bit-identical; injecting faults without a policy arms the
    default defenses (same convention as the engine).
    """
    plan = cfg.faults if cfg.faults is not None and not cfg.faults.empty else None
    policy = cfg.resilience
    if policy is None and plan is not None:
        policy = DEFAULT_POLICY
    stats = ResilienceStats() if policy is not None else None
    return plan, policy, stats


def _gpu_faults(plan, g: int, cstats: ResilienceStats | None = None,
                tel=NULL_TELEMETRY):
    """GPU ``g``'s share of ``plan``: ``(engine-level sub-plan or None,
    slow factor or None, kill time or None)``.  With ``cstats`` the GPU's
    kill/slow fault is noted in the ledger and in ``tel``."""
    if plan is None:
        return None, None, None
    sub, fault = plan.for_shard(g), plan.shard_fault(g)
    kind = fault.kind if fault is not None else None
    if kind is not None and cstats is not None:
        cstats.note_fault(f"shard_{kind}")
        tel.fault_injected(f"shard_{kind}")
    return (None if sub.empty else sub,
            fault.factor if kind == "slow" else None,
            fault.at_us if kind == "kill" else None)


def _merge_topk(per_shard, qi: int, k: int, ids, dists) -> None:
    """Fan-in of query row ``qi``: gather each ``(ids, dists, local→global)``
    shard list, heap-merge the global top-k into ``ids[qi]`` / ``dists[qi]``."""
    lists = []
    for s_ids, s_dists, l2g in per_shard:
        valid = s_ids[qi] >= 0
        lists.append((l2g[s_ids[qi][valid]], s_dists[qi][valid]))
    m_ids, m_d = heap_merge(lists, k)
    ids[qi, : len(m_ids)] = m_ids
    dists[qi, : len(m_ids)] = m_d


def _fold_record(ev, rs: list[QueryRecord], merge_us: float) -> QueryRecord:
    """One query's cluster timeline from its per-shard records ``rs``: it
    starts with the first shard and completes when the *slowest* one has
    returned and the host has merged."""
    rec = QueryRecord(ev.query_id, ev.arrival_us)
    rec.dispatch_us = min(r.dispatch_us for r in rs)
    rec.gpu_start_us = min(r.gpu_start_us for r in rs)
    rec.gpu_end_us = max(r.gpu_end_us for r in rs)
    rec.detected_us = max(r.detected_us for r in rs)
    rec.complete_us = max(r.complete_us for r in rs) + merge_us
    rec.retries = max(r.retries for r in rs)
    rec.degraded = any(r.degraded for r in rs)
    return rec


# ----------------------------------------------------------- worker tasks
#
# Module-level (picklable) tasks taking one payload dict: live objects
# from an inline pool, ArrayRefs plus constructor kwargs from a process
# pool.  Each serve() owns its pool, so a worker sees a shard only once.

def _payload_system(payload: dict) -> ALGASSystem:
    system = payload.get("system")
    if system is not None:
        return system
    graph = GraphIndex(
        resolve_ref(payload["indptr"]),
        resolve_ref(payload["indices"]),
        kind=payload["graph_kind"],
    )
    # The padded neighbour matrix is the big per-shard artifact the
    # batched kernels gather from; inject the parent's shared copy so the
    # worker never rebuilds (or copies) it.
    graph.__dict__["_nbr_cache"] = (
        resolve_ref(payload["nbr_mat"]),
        resolve_ref(payload["nbr_deg"]),
    )
    return ALGASSystem(resolve_ref(payload["pts"]), graph, **payload["kwargs"])


def _worker_telemetry(payload: dict) -> Telemetry | None:
    labels = payload["tel_labels"]
    return Telemetry(labels=labels) if labels is not None else None


def _shard_serve_task(payload: dict):
    """One shard's serve leg: the shard system's search, price and
    schedule steps under the serve's config, inline or pooled.

    Returns ``(topk ids, topk dists, ServeReport, worker telemetry,
    sum of job GPU times, job count)``.  Fault *bookkeeping* (stats/
    telemetry notes, kill-time record filtering) stays in the parent; the
    leg only applies the slow-down pricing it was handed.
    """
    cfg = replace(payload["cfg"], telemetry=_worker_telemetry(payload))
    system = _payload_system(payload)
    q = payload["queries"]
    s_ids, s_dists, _, jobs, _ = system._search_step(
        resolve_ref(q) if isinstance(q, ArrayRef) else q, cfg, payload["ordered"]
    )
    if payload["slow_factor"] is not None:
        jobs = _scaled_jobs(jobs, payload["slow_factor"])
    part = system._schedule_step(jobs, cfg, payload["spec"])
    gpu_sum = float(sum(j.gpu_time_us for j in jobs))
    return s_ids, s_dists, part, cfg.telemetry, gpu_sum, len(jobs)


def _replica_engine_task(payload: dict):
    """One replica's scheduling leg: replay already-priced jobs through a
    rebuilt dynamic engine (replicas hold identical indexes, so search ran
    once in the parent and only the engine pass fans out)."""
    wtel = _worker_telemetry(payload)
    engine = DynamicBatchEngine(
        payload["device"], payload["cost_model"], payload["config"],
        telemetry=wtel, faults=payload["faults"],
        resilience=payload["resilience"],
    )
    return _admit(engine, payload["jobs"], payload["spec"]), wtel


def _build_shard_task(payload: dict):
    """Build one shard's graph from the shared corpus (build fan-out)."""
    pts = resolve_ref(payload["pts"])
    return payload["builder"](np.ascontiguousarray(pts[payload["ids"]]))


class ReplicatedServer:
    """R identical ALGAS replicas, queries dealt round-robin."""

    def __init__(self, base: np.ndarray, graph: GraphIndex, n_gpus: int = 2,
                 parallelism: int = 0, **algas_kwargs):
        if n_gpus <= 0:
            raise ValueError("n_gpus must be positive")
        self.n_gpus = n_gpus
        self.parallelism = parallelism
        # One system: replicas hold identical indexes, so the search (and
        # its traces) is the same on every replica.
        self.system = ALGASSystem(base, graph, **algas_kwargs)

    def serve(
        self,
        queries: np.ndarray,
        config: ServeConfig | None = None,
    ) -> SystemReport:
        cfg = as_serve_config(config, owner="ReplicatedServer.serve")
        tel = cfg.telemetry or NULL_TELEMETRY
        plan, policy, cstats = _cluster_policy(cfg)
        queries = query_batch(queries, self.system.base.shape[1])
        # Admission control (a TrafficSpec with deadline/queue-depth
        # limits) applies per replica: each replica runs its own
        # admission queue over the round-robin slice it was dealt.
        evs, spec = resolve_workload(cfg.workload, queries.shape[0])
        ids, dists, traces, jobs, _ = self.system._search_step(
            queries, cfg, sorted(evs, key=lambda e: e.query_id)
        )
        groups = [jobs[g :: self.n_gpus] for g in range(self.n_gpus)]

        # Fan the engine legs out.  Replicas never touch the corpus during
        # scheduling, so the payload is just (device, cost model, engine
        # config, jobs) — small and picklable; no shared arena needed.
        engine_cfg = self.system.engine_config()
        tasks: list[tuple[int, dict]] = []
        kills: dict[int, float | None] = {}
        gpu_sum, gpu_n = 0.0, 0
        for g, group in enumerate(groups):
            if not group:
                continue
            sub, slow, kills[g] = _gpu_faults(plan, g, cstats, tel)
            run_jobs = group if slow is None else _scaled_jobs(group, slow)
            gpu_sum += float(sum(j.gpu_time_us for j in run_jobs))
            gpu_n += len(run_jobs)
            tasks.append((g, {
                "device": self.system.device,
                "cost_model": self.system.cost_model,
                "config": engine_cfg,
                "jobs": run_jobs,
                "spec": spec,
                "faults": sub,
                "resilience": policy,
                # Each replica aggregates under its own ``gpu`` label into
                # a private registry the parent merges back in gpu order
                # (no-op when telemetry is off).
                "tel_labels": ({**tel.labels, "gpu": str(g)}
                               if tel.enabled else None),
            }))
        par = cfg.parallelism if cfg.parallelism is not None else self.parallelism
        with make_pool(min(par or 0, len(tasks))) as pool:
            results = pool.map(_replica_engine_task, [p for _, p in tasks])

        parts: list[ServeReport] = []
        # Per non-empty group: (gpu, answered records, rescue-needed qids,
        # qid -> original job).
        served: list[tuple[int, list[QueryRecord], list[int], dict[int, QueryJob]]] = []
        for (g, _), (part, wtel) in zip(tasks, results):
            tel.merge_from(wtel)
            recs = list(part.records)
            rescue = list(part.meta.get("failed_ids", []))
            if kills[g] is not None:
                # Answers completing after the kill never reach the host.
                rescue += [r.query_id for r in recs if r.complete_us > kills[g]]
                recs = [r for r in recs if r.complete_us <= kills[g]]
            parts.append(part)
            served.append((g, recs, rescue, {j.query_id: j for j in groups[g]}))

        host = host_meta(
            self.system.device, self.system.cost_model,
            self.system.batch_size, self.system.n_parallel,
            self.system.k, int(self.system.base.shape[1]),
            gpu_sum / gpu_n if gpu_n else 0.0, self.system.host_threads,
        )
        meta = {"mode": "replicated", "n_gpus": self.n_gpus}
        if host is not None:
            meta["host"] = host
        if cstats is None:
            records = [r for p in parts for r in p.records]
        else:
            records, meta["hedge_delay_us"] = self._hedge_pass(
                served, parts, policy, cstats, tel, plan
            )
        meta["pcie"] = [p.pcie for p in parts]  # per-GPU links, hedges included
        serve = merge_reports(
            parts, records,
            self.n_gpus * self.system.batch_size * self.system.n_parallel,
            meta, ledger=cstats,
        )
        tel.observe_report(serve, mode="replicated")
        return SystemReport(ids=ids, dists=dists, serve=serve, traces=traces)

    # ------------------------------------------------------------- hedging
    def _hedge_pass(self, served, parts, policy, cstats, tel, plan):
        """Re-send slow/lost queries to the next replica; first answer wins.

        Returns the final record list plus the hedge trigger delay.
        The backup serve is a separate engine pass (hedges are assumed to
        ride spare capacity, not contend with the backup's primaries); a
        replica's engine-level faults fire only on its primary pass.
        """
        lats = [
            r.complete_us - r.arrival_us for _, recs, _, _ in served for r in recs
        ]
        if policy.hedge_delay_us is not None:
            delay = policy.hedge_delay_us
        elif lats:
            delay = float(np.percentile(lats, policy.hedge_percentile))
        else:
            delay = 0.0
        can_hedge = self.n_gpus >= 2

        hedge_jobs: dict[int, list[QueryJob]] = {}
        # qid -> record the hedge races against (None when the primary
        # answer was lost outright).
        racing: dict[int, QueryRecord | None] = {}
        arrivals: dict[int, float] = {}
        records: list[QueryRecord] = []
        for g, recs, rescue, by_qid in served:
            records.extend(recs)
            backup = (g + 1) % self.n_gpus
            for qid in rescue:
                arrivals[qid] = by_qid[qid].arrival_us
                if not can_hedge:
                    cstats.failed_ids.append(qid)
                    continue
                racing[qid] = None
                hedge_jobs.setdefault(backup, []).append(
                    replace(by_qid[qid], arrival_us=by_qid[qid].arrival_us + delay)
                )
            if not can_hedge:
                continue
            for r in recs:
                if r.complete_us - r.arrival_us > delay:
                    racing[r.query_id] = r
                    arrivals[r.query_id] = r.arrival_us
                    hedge_jobs.setdefault(backup, []).append(
                        replace(by_qid[r.query_id], arrival_us=r.arrival_us + delay)
                    )

        hedged: dict[int, QueryRecord] = {}
        for b, jobs_b in sorted(hedge_jobs.items()):
            _, slow, kill = _gpu_faults(plan, b)
            if slow is not None:
                jobs_b = _scaled_jobs(jobs_b, slow)
            engine = self.system.make_engine(resilience=policy)
            part = engine.serve(sorted(jobs_b, key=lambda j: j.arrival_us))
            parts.append(part)
            for r in part.records:
                if kill is not None and r.complete_us > kill:
                    continue  # the backup died too
                hedged[r.query_id] = r

        for qid, primary in racing.items():
            cstats.hedges += 1
            tel.hedge_fired(qid, arrivals[qid] + delay)
            h = hedged.get(qid)
            if primary is None:
                if h is None:
                    cstats.hedge_losses += 1
                    cstats.failed_ids.append(qid)
                    continue
                # The backup's record whole (degradation included), at
                # the query's original arrival.
                records.append(replace(h, arrival_us=arrivals[qid]))
                cstats.hedge_wins += 1
                tel.hedge_won(qid)
            elif h is not None and h.complete_us < primary.complete_us:
                primary.complete_us = h.complete_us
                primary.detected_us = min(primary.detected_us, h.detected_us)
                cstats.hedge_wins += 1
                tel.hedge_won(qid)
            else:
                cstats.hedge_losses += 1
        return records, delay


@dataclass
class _Shard:
    system: ALGASSystem
    local_to_global: np.ndarray = field(repr=False, default=None)


class ShardedServer:
    """Corpus partitioned across R GPUs; queries fan out and merge."""

    def __init__(
        self,
        base: np.ndarray,
        graph_builder=None,
        n_gpus: int = 2,
        seed: int = 0,
        *,
        graphs: list[GraphIndex] | None = None,
        parallelism: int = 0,
        **algas_kwargs,
    ):
        """``graph_builder(points) -> GraphIndex`` builds each shard's graph.

        Alternatively pass prebuilt per-shard graphs via ``graphs=`` (one
        per GPU, built over the point sets that :meth:`shard_assignments`
        yields for the same ``(n_gpus, seed)``).  ``parallelism`` fans the
        shard builds — and, by default, every ``serve()`` — across worker
        processes; builders that cannot pickle (lambdas, closures) are
        run one shard after the other in this process instead.
        """
        if n_gpus <= 0:
            raise ValueError("n_gpus must be positive")
        base = np.asarray(base, dtype=np.float32)
        if base.shape[0] < n_gpus * 2:
            raise ValueError("too few points to shard")
        if graphs is None and graph_builder is None:
            raise ValueError("need a graph_builder or prebuilt graphs=")
        self.n_gpus = n_gpus
        self.parallelism = parallelism
        self._algas_kwargs = dict(algas_kwargs)
        # Lazily-built process-worker payloads (shared corpus/graph refs).
        self._arena: SharedArena | None = None
        self._proc_payloads: list[dict] | None = None
        assignments = self.shard_assignments(base.shape[0], n_gpus, seed)
        if graphs is not None:
            if len(graphs) != n_gpus:
                raise ValueError(
                    f"graphs= must hold one graph per GPU "
                    f"(got {len(graphs)}, n_gpus={n_gpus})"
                )
            for g, (graph, ids) in enumerate(zip(graphs, assignments)):
                if graph.n_vertices != ids.size:
                    raise ValueError(
                        f"graphs[{g}] covers {graph.n_vertices} vertices but "
                        f"shard {g} holds {ids.size} points; build each graph "
                        f"over base[shard_assignments(n, n_gpus, seed)[g]]"
                    )
            built = list(graphs)
        else:
            built = self._build_graphs(base, assignments, graph_builder)
        self.shards: list[_Shard] = [
            _Shard(ALGASSystem(base[ids], graph, **algas_kwargs), ids)
            for ids, graph in zip(assignments, built)
        ]

    @property
    def k(self) -> int:
        """Results per query: the shard systems' ``k``."""
        return self.shards[0].system.k

    @staticmethod
    def shard_assignments(
        n_points: int, n_gpus: int, seed: int = 0
    ) -> list[np.ndarray]:
        """Deterministic shard membership: a seeded permutation dealt
        round-robin, each shard's global ids returned sorted.  Build
        graphs for ``graphs=`` over exactly these point sets."""
        rng = np.random.default_rng(seed)
        perm = rng.permutation(n_points)
        return [np.sort(perm[g::n_gpus]) for g in range(n_gpus)]

    def _build_graphs(self, base, assignments, graph_builder) -> list[GraphIndex]:
        n = min(self.parallelism or 0, self.n_gpus)
        if n > 1:
            try:
                pickle.dumps(graph_builder)
            except (pickle.PicklingError, AttributeError, TypeError) as exc:
                # Lambdas/closures can't cross a process boundary.
                _log.warning(
                    "graph_builder %s cannot be pickled (%s); building "
                    "shards sequentially instead of on worker processes",
                    getattr(graph_builder, "__qualname__", graph_builder),
                    exc,
                )
                n = 0
        with make_pool(n) as pool, \
                SharedArena(enabled=pool.is_parallel) as arena:
            ref = arena.share(base)
            return pool.map(_build_shard_task, [
                {"pts": ref, "ids": ids, "builder": graph_builder}
                for ids in assignments
            ])

    # ------------------------------------------------------ serve payloads
    def _shard_payloads(self) -> list[dict]:
        """Static per-shard payloads for process workers: shared refs to
        the corpus slice, CSR arrays, and the padded neighbour matrix,
        plus the constructor kwargs.  Built once; the arena (and thus the
        segments) lives as long as the server."""
        if self._proc_payloads is None:
            self._arena = SharedArena()
            payloads = []
            for shard in self.shards:
                system = shard.system
                mat, deg = system.graph.neighbor_matrix()
                payloads.append({
                    "pts": self._arena.share(system.base),
                    "indptr": self._arena.share(system.graph.indptr),
                    "indices": self._arena.share(system.graph.indices),
                    "nbr_mat": self._arena.share(mat),
                    "nbr_deg": self._arena.share(deg),
                    "graph_kind": system.graph.kind,
                    "kwargs": self._algas_kwargs,
                })
            self._proc_payloads = payloads
        return self._proc_payloads

    def close(self) -> None:
        """Release the shared-memory segments backing process workers."""
        if self._arena is not None:
            self._arena.close()
            self._arena = None
            self._proc_payloads = None

    def serve(
        self,
        queries: np.ndarray,
        config: ServeConfig | None = None,
    ) -> SystemReport:
        cfg = as_serve_config(config, owner="ShardedServer.serve")
        tel = cfg.telemetry or NULL_TELEMETRY
        plan, policy, cstats = _cluster_policy(cfg)
        queries = query_batch(queries, self.shards[0].system.base.shape[1])
        nq = queries.shape[0]
        evs, spec = resolve_workload(cfg.workload, nq)
        if spec is not None and cstats is None:
            # Admission runs *per shard*: a query shed or deadline-dropped
            # on one shard is answered from the others (flagged
            # ``partial``), a quorum decision — so admission arms the
            # default policy when the caller supplied none.
            policy = DEFAULT_POLICY
            cstats = ResilienceStats()
        ordered = sorted(evs, key=lambda e: e.query_id)
        # Each leg runs the serve's own config; the parent keeps the
        # workload (handed over resolved), the telemetry sink and the
        # worker count.
        leg_cfg = replace(cfg, workload=None, telemetry=None,
                          resilience=policy, parallelism=None)

        par = cfg.parallelism if cfg.parallelism is not None else self.parallelism
        pool = make_pool(min(par or 0, self.n_gpus))
        qarena = None
        kills: list[float | None] = []
        try:
            if pool.is_parallel:
                static = self._shard_payloads()
                # Queries are per-serve; share them through a transient
                # arena reclaimed as soon as the fan-out returns.
                qarena = SharedArena()
                q_ref = qarena.share(queries)
            payloads = []
            for g in range(self.n_gpus):
                sub, slow, kill = _gpu_faults(plan, g, cstats, tel)
                kills.append(kill)
                p = {
                    "cfg": replace(leg_cfg, faults=sub),
                    "ordered": ordered,
                    "spec": spec,
                    "slow_factor": slow,
                    "tel_labels": ({**tel.labels, "shard": str(g)}
                                   if tel.enabled else None),
                }
                if pool.is_parallel:
                    p.update(static[g])
                    p["queries"] = q_ref
                else:
                    p["system"] = self.shards[g].system
                    p["queries"] = queries
                payloads.append(p)
            results = pool.map(_shard_serve_task, payloads)
        finally:
            pool.close()
            if qarena is not None:
                qarena.close()

        per_shard = []
        parts = []
        answered: list[dict[int, QueryRecord]] = []
        gpu_sum, gpu_n = 0.0, 0
        for g, (s_ids, s_dists, part, wtel, gsum, gn) in enumerate(results):
            tel.merge_from(wtel)
            recs = {r.query_id: r for r in part.records}
            if kills[g] is not None:
                recs = {q: r for q, r in recs.items() if r.complete_us <= kills[g]}
            parts.append(part)
            answered.append(recs)
            per_shard.append((s_ids, s_dists, self.shards[g].local_to_global))
            gpu_sum += gsum
            gpu_n += gn

        sys0 = self.shards[0].system
        host = host_meta(
            sys0.device, sys0.cost_model, sys0.batch_size,
            sys0.n_parallel, self.k, int(queries.shape[1]),
            gpu_sum / gpu_n if gpu_n else 0.0, sys0.host_threads,
        )
        return self._merge_quorum(
            ordered, per_shard, answered, parts, policy, cstats, tel,
            nq=nq, host=host,
        )

    # ------------------------------------------------------------ fan-in
    def _merge_quorum(self, ordered, per_shard, answered, parts,
                      policy, cstats, tel, nq, host=None):
        """Answer each query from the K-of-N shards that reported within
        the straggler budget of the first; flag subsets ``partial``.

        With no policy (the healthy serve) K = N: every query waits for
        every shard, and the report carries no quorum census.
        """
        k = self.k
        n = self.n_gpus
        cm = self.shards[0].system.cost_model
        K = policy.quorum(n) if policy is not None else n
        # K = N takes every shard whatever the budget.
        budget = policy.straggler_budget_us if policy is not None else 0.0
        ids = np.full((nq, k), -1, dtype=np.int64)
        dists = np.full((nq, k), np.inf, dtype=np.float32)
        # A shed query is a drop too (``shed_ids ⊆ dropped_ids``).
        dropped_union = {i for p in parts for i in p.meta.get("dropped_ids", [])}
        records: list[QueryRecord] = []
        total_merge_us = 0.0
        penalty_sum = 0.0
        for qi, ev in enumerate(ordered):
            qid = ev.query_id
            comps = sorted(
                (answered[g][qid].complete_us, g)
                for g in range(n)
                if qid in answered[g]
            )
            if not comps:
                # Every shard lost it: a deadline drop / admission shed is
                # already counted by the engines; anything else is a
                # cluster-level failure.
                if qid not in dropped_union:
                    cstats.failed_ids.append(qid)
                continue
            included = [cg for cg in comps if cg[0] <= comps[0][0] + budget]
            if len(included) < K:
                included = comps[: min(K, len(comps))]
            inc = sorted(g for _, g in included)
            merge_us = cm.cpu_merge_us(len(inc), k)
            total_merge_us += merge_us
            _merge_topk([per_shard[g] for g in inc], qi, k, ids, dists)
            rec = _fold_record(ev, [answered[g][qid] for g in inc], merge_us)
            if len(inc) < n:
                rec.partial = True
                cstats.partial_answers += 1
                tel.partial_answer(qid, len(inc), n)
                # Shards hold disjoint corpus slices, so skipping one skips
                # that fraction of the candidate pool.
                penalty_sum += 1.0 - len(inc) / n
            records.append(rec)
            if tel.enabled:
                tel.merge_observed(len(inc), merge_us)
        sys0 = self.shards[0].system
        meta = {"mode": "sharded", "n_gpus": n, "pcie": [p.pcie for p in parts]}
        if host is not None:
            meta["host"] = host
        if cstats is None:
            # Every query merged N lists: price the merges as one product
            # (a per-query running sum rounds differently).
            total_merge_us = nq * cm.cpu_merge_us(n, k)
        else:
            meta["quorum_k"] = K
            meta["est_recall_penalty"] = penalty_sum / max(1, len(records))
        serve = merge_reports(
            parts, records, n * sys0.batch_size * sys0.n_parallel, meta,
            ledger=cstats, host_busy_us=total_merge_us,
        )
        if tel.enabled:
            tel.observe_report(serve, mode="sharded")
        return SystemReport(ids=ids, dists=dists, serve=serve, traces=[])
