"""Dynamic batching engine (§IV-A): persistent kernel + independent slots.

Event-driven model of the ALGAS serving loop:

* ``n_slots`` slots are pinned inside a persistent kernel, each with
  ``n_parallel`` CTAs permanently resident (feasibility checked by
  :mod:`repro.core.tuning` before construction).
* Host threads own disjoint slot subsets ("parallel processing on host",
  §V-B).  Each thread periodically wakes, polls its slots' states through a
  :class:`~repro.core.state_sync.StateChannel`, retrieves results of
  finished slots over PCIe (one sequential read per slot — the contiguous
  CTA-result layout of §IV-B), merges them on the CPU, and refills free
  slots with queued queries.
* GPU side: a dispatched slot's CTAs start after a short device-side poll
  delay and run for their priced durations; each CTA publishes FINISH via
  the state channel.  No batch barrier anywhere — the query bubble is gone.

The engine consumes priced :class:`~repro.core.serving.QueryJob`s, so one
set of search traces can be replayed under dynamic and static disciplines.

Slot maintenance runs on structure-of-arrays state (docs/performance.md,
"Wall-clock vs simulated speed"): CTA state words live in a
:class:`~repro.core.slots.SlotBank` and the per-slot runtime words
(ready/dispatch timestamps, dispatch epochs) are parallel numpy arrays, so
each engine tick finds collectable / dispatchable / wedged slots with a
few vectorized mask reductions and only touches Python objects for slots
that actually have work.  ``DynamicBatchConfig.tick_mode`` selects the
sweep implementation: ``"soa"`` (default) or the ``"loop"`` reference
per-slot scan — the two are bit-identical (tests/test_soa_tick_parity.py)
because every effectful operation runs in the same order on the same
state; only the cost of *finding* actionable slots differs.

Resilience (docs/robustness.md): the engine optionally takes a
:class:`~repro.resilience.FaultPlan` (slot hangs/corruption, stragglers,
PCIe stalls are injected at dispatch/finish time) and a
:class:`~repro.resilience.ResiliencePolicy`.  The host-thread passes then
run a **watchdog**: a slot that makes no progress past the budget is
force-retired (its CTA contexts are lost for the rest of the serve) and
its query is re-dispatched with capped exponential backoff; under overload
the **degradation** policy dispatches shrunken work until the ready queue
drains.  With no faults and no policy the engine is bit-identical to the
pre-resilience code path.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..gpusim.costmodel import CostModel
from ..gpusim.device import DeviceProperties
from ..gpusim.engine import Simulator
from ..gpusim.pcie import PCIeLink
from ..resilience.faults import FaultInjector, FaultPlan
from ..resilience.policy import DEFAULT_POLICY, ResiliencePolicy, ResilienceStats
from ..telemetry import NULL_TELEMETRY
from .merge import HostMerger
from .query_manager import ManagedQuery, QueryManager
from .serving import QueryJob, QueryRecord, ServeReport
from .slots import SlotBank, SlotState
from .state_sync import StateChannel

__all__ = ["DynamicBatchConfig", "DynamicBatchEngine"]

@dataclass(frozen=True)
class DynamicBatchConfig:
    """Knobs of the dynamic batching engine."""

    n_slots: int
    n_parallel: int
    k: int
    host_threads: int = 1
    #: host wake/poll period (µs); the host re-checks its slots this often
    #: when idle (a spinning poll loop — §V-A argues polling over blocking).
    host_poll_period_us: float = 0.5
    #: device-side polling granularity of the persistent kernel (µs).
    gpu_poll_us: float = 0.5
    #: "naive" (polls cross PCIe) or "gdrcopy" (local mirrors), §V-A.
    state_mode: str = "gdrcopy"
    #: True → ALGAS CPU merge; False → GPU merge kernel ablation.
    merge_on_cpu: bool = True
    #: bytes per result entry (id + distance).
    result_entry_bytes: int = 8
    #: CPU time to enqueue an async transfer on a stream (§V-B: dispatches
    #: are asynchronous; the host does not block on the copy itself).
    host_submit_us: float = 0.3
    #: slot-maintenance sweep: "soa" (vectorized mask scan over the slot
    #: bank, the default) or "loop" (per-slot Python reference scan).
    #: Bit-identical outputs; kept switchable for the parity suite.
    tick_mode: str = "soa"

    def __post_init__(self) -> None:
        if self.n_slots <= 0 or self.n_parallel <= 0 or self.k <= 0:
            raise ValueError("n_slots, n_parallel, k must be positive")
        if self.host_threads <= 0:
            raise ValueError("host_threads must be positive")
        if self.host_poll_period_us <= 0:
            raise ValueError("host_poll_period_us must be positive")
        if self.tick_mode not in ("soa", "loop"):
            raise ValueError(f"unknown tick_mode {self.tick_mode!r}")


class DynamicBatchEngine:
    """Serve priced jobs under dynamic batching; see module docstring."""

    def __init__(
        self,
        device: DeviceProperties,
        cost_model: CostModel,
        config: DynamicBatchConfig,
        telemetry=None,
        faults: FaultPlan | None = None,
        resilience: ResiliencePolicy | None = None,
    ):
        self.device = device
        self.cm = cost_model
        self.cfg = config
        self.tel = telemetry or NULL_TELEMETRY
        self.fault_plan = faults
        # Injected faults without an explicit policy get the default
        # defenses — a chaos run should be survivable out of the box.
        if resilience is None and faults is not None and not faults.empty:
            resilience = DEFAULT_POLICY
        self.policy = resilience

    def serve(
        self,
        jobs: list[QueryJob],
        managed: list[ManagedQuery] | None = None,
        max_queue_depth: int | None = None,
    ) -> ServeReport:
        """Serve ``jobs``; pass ``managed`` instead to attach priorities or
        drop deadlines (the §V-B query-manager extensions).

        ``max_queue_depth`` arms queue-depth load shedding: an arrival
        finding that many queries already waiting is rejected at admission
        and accounted as a drop (docs/load_testing.md)."""
        cfg = self.cfg
        if managed is not None:
            jobs = [m.job for m in managed]
        jobs = sorted(jobs, key=lambda j: (j.arrival_us, j.query_id))
        if len({j.query_id for j in jobs}) != len(jobs):
            raise ValueError("duplicate query ids in job list")
        for j in jobs:
            if j.n_ctas != cfg.n_parallel:
                raise ValueError(
                    f"job {j.query_id} has {j.n_ctas} CTA durations, "
                    f"engine expects n_parallel={cfg.n_parallel}"
                )
        tel = self.tel
        policy = self.policy
        injector = (
            FaultInjector(self.fault_plan)
            if self.fault_plan is not None and not self.fault_plan.empty
            else None
        )
        stats = ResilienceStats() if (policy or injector) else None
        sim = Simulator()
        link = PCIeLink(self.device)
        if injector is not None:
            link.stall_windows = injector.stall_windows
        chan = StateChannel(link, cfg.state_mode)
        merger = HostMerger(self.cm, telemetry=tel)

        bank = SlotBank(cfg.n_slots, cfg.n_parallel)
        slots = bank.slots
        if tel.enabled:
            for s in slots:
                s.observer = tel.slot_transition
        # Per-slot runtime state as parallel arrays (SoA): timestamps use
        # NaN for "empty", epochs guard revoked dispatches.  Only the job
        # objects stay in a Python list (they are opaque references).
        slot_job: list[QueryJob | None] = [None] * cfg.n_slots
        ready_at = np.full(cfg.n_slots, np.nan)  # FINISH visible at this time
        dispatched_at = np.full(cfg.n_slots, np.nan)
        # Epoch guard: force-retiring a slot bumps its epoch so in-flight
        # CTA-end events of the revoked dispatch become no-ops.
        slot_epoch = np.zeros(cfg.n_slots, dtype=np.int64)
        attempts: dict[int, int] = {}  # query_id -> watchdog re-dispatches
        records: dict[int, QueryRecord] = {
            j.query_id: QueryRecord(j.query_id, j.arrival_us) for j in jobs
        }
        manager = QueryManager(
            managed if managed is not None else jobs,
            telemetry=tel,
            max_queue_depth=max_queue_depth,
        )
        outstanding = len(jobs)
        drops_seen = 0
        gpu_busy = 0.0
        host_busy = 0.0
        # Overload degradation state (shared across host threads).
        degraded = False
        degraded_since = 0.0

        # Partition slots over host threads round-robin (§V-B).
        owned: list[list[int]] = [[] for _ in range(cfg.host_threads)]
        for s in range(cfg.n_slots):
            owned[s % cfg.host_threads].append(s)
        owned_arr = [np.array(o, dtype=np.int64) for o in owned]

        # ----------------------------------------------------------- GPU side
        def start_slot(
            slot_id: int,
            job: QueryJob,
            state_published_us: float,
            durations: tuple[float, ...],
            fault=None,
        ) -> None:
            nonlocal gpu_busy
            rec = records[job.query_id]
            epoch = slot_epoch[slot_id]
            gpu_start = state_published_us + cfg.gpu_poll_us
            rec.gpu_start_us = gpu_start
            ends = [gpu_start + d for d in durations]
            # A hung CTA spins without retiring work; its nominal duration
            # never lands, so only the live CTAs count as busy time.
            hang_cta = 0 if fault is not None and fault.kind == "hang" else None
            gpu_busy += sum(d for i, d in enumerate(durations) if i != hang_cta)
            slot_end = max(ends)
            rec.gpu_end_us = slot_end

            def on_cta_end(sim_: Simulator, cta: int, is_last: bool) -> None:
                if slot_epoch[slot_id] != epoch:
                    return  # the watchdog revoked this dispatch
                if fault is not None and fault.kind == "corrupt" and cta == 0:
                    # The CTA writes garbage instead of FINISH: no result
                    # push, no publication — the slot can never aggregate
                    # to FINISH and the watchdog must reap it.
                    slots[slot_id].corrupt_cta(cta)
                    stats.note_fault("corrupt")
                    tel.fault_injected("corrupt")
                    return
                slots[slot_id].advance_cta(cta)
                # §IV-B Finish: "the CTA is responsible for pushing the query
                # results to the designated location" — a posted write of its
                # local TopK into the slot's contiguous host buffer, followed
                # by the FINISH flag.  PCIe orders posted writes, so the flag
                # is issued immediately after the push (no round-trip wait);
                # the host merges from *local* memory once it sees the flag.
                # Hybrid-tier jobs instead push their *candidate pool* as a
                # bulk DMA whose completion gates collection: the CPU
                # refinement needs the candidate ids on the host, so link
                # congestion and injected PCIe stalls delay the refine hop.
                if job.result_entries is None:
                    link.transfer(
                        sim_.now,
                        cfg.k * cfg.result_entry_bytes,
                        tag="result-push",
                        overhead_us=link.MMIO_OVERHEAD_US,
                    )
                    push_gate = 0.0
                else:
                    push_gate = link.transfer(
                        sim_.now,
                        job.result_entries * cfg.result_entry_bytes,
                        tag="candidates",
                    )
                if not is_last:
                    chan.publish(sim_.now)
                    return
                if cfg.merge_on_cpu:
                    ready_at[slot_id] = max(chan.publish(sim_.now), push_gate)
                else:
                    # GPU-merge ablation: the persistent kernel must yield to
                    # a merge kernel before results are ready (§IV-B); only
                    # the merged TopK is then pushed to the host.
                    merge_done = sim_.now + self.cm.gpu_merge_us(cfg.n_parallel, cfg.k)

                    def publish_after_merge(sim2: Simulator) -> None:
                        if slot_epoch[slot_id] != epoch:
                            return
                        link.transfer(
                            sim2.now,
                            cfg.k * cfg.result_entry_bytes,
                            tag="result-push",
                            overhead_us=link.MMIO_OVERHEAD_US,
                        )
                        ready_at[slot_id] = chan.publish(sim2.now)

                    sim_.schedule(merge_done, publish_after_merge)

            last_idx = max(range(len(ends)), key=lambda i: ends[i])
            for i, e in enumerate(ends):
                if i == hang_cta:
                    continue  # never finishes; the watchdog will notice
                sim.schedule(
                    e, (lambda s_, i=i: on_cta_end(s_, i, i == last_idx))
                )

        # ------------------------------------------------------- degradation
        def update_degrade(t: float) -> None:
            """Enter/exit overload degradation on ready-queue depth."""
            nonlocal degraded, degraded_since
            if policy is None or policy.degrade_queue_depth is None:
                return
            depth = manager.ready_depth(t)
            if not degraded and depth >= policy.degrade_queue_depth:
                degraded = True
                degraded_since = t
                stats.degraded_windows += 1
                tel.degraded_window_entered(t, depth)
            elif degraded and depth <= policy.restore_queue_depth:
                degraded = False
                stats.degraded_us += t - degraded_since
                tel.degraded_window_exited(degraded_since, t)

        # ---------------------------------------------------------- watchdog
        def reap_slot(s: int, t: float) -> None:
            """Revoke one wedged slot and re-dispatch or fail its query."""
            nonlocal outstanding
            job = slot_job[s]
            # The slot is wedged (hung or corrupted): revoke it.  Its
            # CTA contexts are lost for the rest of the serve — the
            # survivors absorb the load.
            slot_epoch[s] += 1
            slots[s].force_retire()
            slot_job[s] = None
            ready_at[s] = np.nan
            dispatched_at[s] = np.nan
            stats.watchdog_kills += 1
            tel.watchdog_kill(s, job.query_id, t)
            attempt = attempts.get(job.query_id, 0) + 1
            attempts[job.query_id] = attempt
            if attempt > policy.max_retries:
                stats.retry_failures += 1
                stats.failed_ids.append(job.query_id)
                outstanding -= 1
                tel.retry_exhausted(job.query_id)
                return
            backoff = policy.backoff_us(attempt)
            records[job.query_id].retries = attempt
            stats.retries += 1
            tel.query_retried(job.query_id, attempt, t)
            manager.submit(
                ManagedQuery(replace(job, arrival_us=t + backoff)),
                resubmit=True,
            )

        def watchdog_sweep(tid: int, t: float) -> None:
            """Reap no-progress slots past the budget; re-dispatch or fail.

            Candidate selection is one vectorized comparison over the
            thread's slot rows (NaN dispatch stamps — empty slots — compare
            false); only genuinely over-budget slots reach Python code.
            """
            mine = owned_arr[tid]
            over = mine[t - dispatched_at[mine] >= policy.watchdog_budget_us]
            if over.size == 0:
                return
            finished = bank.all_finished_mask()
            for s in over.tolist():
                if not np.isnan(ready_at[s]) and finished[s]:
                    continue  # finished, just not collected yet
                reap_slot(s, t)

        def watchdog_sweep_loop(tid: int, t: float) -> None:
            """Reference per-slot watchdog scan (tick_mode="loop")."""
            for s in owned[tid]:
                job = slot_job[s]
                da = dispatched_at[s]
                if job is None or np.isnan(da):
                    continue
                if t - da < policy.watchdog_budget_us:
                    continue
                if not np.isnan(ready_at[s]) and slots[s].all_finished:
                    continue  # finished, just not collected yet
                reap_slot(s, t)

        # ---------------------------------------------------------- host side
        def collect_slot(s: int, t: float) -> float:
            """Fold one finished slot's results in; returns advanced time."""
            nonlocal outstanding
            job = slot_job[s]
            rec = records[job.query_id]
            rec.detected_us = t
            slots[s].collect()
            ready_at[s] = np.nan
            slot_job[s] = None
            dispatched_at[s] = np.nan
            # The CTAs already pushed their lists into the slot's
            # contiguous host buffer, so the host merges from local
            # memory (§IV-B step ❹).
            if cfg.merge_on_cpu:
                t += merger.merge_cost_only(cfg.n_parallel, cfg.k)
            else:
                t += self.cm.cpu_merge_us(1, cfg.k)  # filter only
            # Staged-tier host work (hybrid CPU refinement): the thread
            # walks the full-precision graph from the shipped candidates
            # before the query completes.  0.0 for pure-GPU jobs.
            t += job.host_us
            rec.complete_us = t
            outstanding -= 1
            if tel.enabled:
                tel.slot_occupied(s, rec.dispatch_us, t, job.query_id)
                tel.query_completed(rec)
            return t

        def dispatch_slot(s: int, t: float) -> float:
            """Fill one free slot from the ready queue; returns advanced time."""
            job = manager.next_ready(t).job
            rec = records[job.query_id]
            rec.dispatch_us = t
            if tel.enabled:
                tel.query_dispatched(job.query_id, job.arrival_us, t)
            durations = job.cta_durations_us
            update_degrade(t)
            if degraded:
                # Overload: dispatch shrunken work (narrow beam / scalar
                # fallback) instead of queueing deeper; recall gives way
                # to survival.
                durations = tuple(d * policy.degrade_factor for d in durations)
                rec.degraded = True
                stats.degraded_dispatches += 1
                tel.degraded_dispatch(job.query_id)
            fault = injector.on_dispatch(s) if injector else None
            if fault is not None and fault.kind == "straggle":
                durations = (durations[0] * fault.factor,) + durations[1:]
                stats.note_fault("straggle")
                tel.fault_injected("straggle")
                fault = None  # priced in; nothing else to do
            elif fault is not None and fault.kind == "hang":
                stats.note_fault("hang")
                tel.fault_injected("hang")
            # Async dispatch (§V-B): the host only pays the stream-
            # submission cost; the copy and the WORK flag are posted
            # back-to-back (PCIe orders posted writes, so the flag lands
            # after the vector).
            t += cfg.host_submit_us
            link.transfer(t, job.dim * 4, tag="query")
            pub = chan.publish(t, n_words=cfg.n_parallel)
            slots[s].dispatch(job.query_id)
            slot_job[s] = job
            dispatched_at[s] = t
            start_slot(s, job, pub, durations, fault)
            return t

        def end_of_pass(tid: int, pass_fn, sim_: Simulator, t0: float, t: float) -> None:
            """Shared pass epilogue: watchdog, drop accounting, re-arm."""
            nonlocal outstanding, host_busy, drops_seen
            host_busy += t - t0
            if policy is not None:
                if cfg.tick_mode == "soa":
                    watchdog_sweep(tid, t)
                else:
                    watchdog_sweep_loop(tid, t)
                update_degrade(t)
            # Deadline drops surfaced by the manager never complete.
            if len(manager.dropped) > drops_seen:
                outstanding -= len(manager.dropped) - drops_seen
                drops_seen = len(manager.dropped)
            if outstanding > 0:
                next_wake = max(t, t0 + cfg.host_poll_period_us)
                if np.isnan(dispatched_at[owned_arr[tid]]).all() and manager:
                    # Idle thread: sleep until the next arrival it could serve.
                    nxt = manager.next_arrival_us()
                    if nxt is not None:
                        next_wake = max(next_wake, nxt)
                sim_.schedule(next_wake, pass_fn)

        def thread_pass(tid: int):
            """SoA maintenance tick: vectorized candidate scans, Python only
            for slots that actually collect or dispatch."""
            mine = owned_arr[tid]

            def pass_fn(sim_: Simulator) -> None:
                t0 = sim_.now
                live = mine[~bank.quit_mask()[mine]]
                if live.size == 0:
                    # Every owned slot is retired (watchdog kills): this
                    # thread can never dispatch or collect again.  Other
                    # threads' slots serve whatever the manager re-queued.
                    return
                t = t0
                # The host thread *spins*: it keeps re-scanning its slots as
                # long as it finds work (§V-A: polling mode beats blocking).
                # In naive state mode every scan crosses PCIe; with gdrcopy
                # mirrors the scans are free.
                progress = True
                while progress:
                    progress = False
                    t = chan.poll(t, int(live.size), cfg.n_parallel)
                    pending = live[~np.isnan(ready_at[live])]
                    if pending.size:
                        finished = bank.all_finished_mask()
                        for s in pending.tolist():
                            # Merges advance t, so later pending slots may
                            # become collectable within this same scan —
                            # the comparison must stay inside the loop.
                            if ready_at[s] <= t:
                                if not finished[s]:
                                    # Published but not actually finished:
                                    # a corrupted state word.  Leave the
                                    # slot for the watchdog.
                                    continue
                                progress = True
                                t = collect_slot(s, t)
                    free = live[bank.free_mask()[live]]
                    for s in free.tolist():
                        if manager.peek_ready(t) is None:
                            break  # t only advances on dispatch: no later
                            # slot in this scan can see a ready query
                        progress = True
                        t = dispatch_slot(s, t)
                end_of_pass(tid, pass_fn, sim_, t0, t)

            return pass_fn

        def thread_pass_loop(tid: int):
            """Reference per-slot scan (tick_mode="loop"): the pre-SoA host
            pass, kept verbatim as the parity baseline."""

            def pass_fn(sim_: Simulator) -> None:
                t0 = sim_.now
                active = [
                    s for s in owned[tid] if slots[s].state is not SlotState.QUIT
                ]
                if not active:
                    return
                t = t0
                progress = True
                while progress:
                    progress = False
                    t = chan.poll(t, len(active), cfg.n_parallel)
                    for s in active:
                        ready = ready_at[s]
                        if not np.isnan(ready) and ready <= t:
                            if not slots[s].all_finished:
                                continue
                            progress = True
                            t = collect_slot(s, t)
                    for s in active:
                        if slots[s].is_free and manager.peek_ready(t) is not None:
                            progress = True
                            t = dispatch_slot(s, t)
                end_of_pass(tid, pass_fn, sim_, t0, t)

            return pass_fn

        make_pass = thread_pass if cfg.tick_mode == "soa" else thread_pass_loop
        for tid in range(cfg.host_threads):
            sim.schedule(0.0, make_pass(tid))
        sim.run()

        dropped_ids = {m.job.query_id for m in manager.dropped}
        failed_ids: set[int] = set()
        if stats is not None:
            if degraded:  # close the window left open at drain time
                stats.degraded_us += sim.now - degraded_since
                tel.degraded_window_exited(degraded_since, sim.now)
            failed_ids.update(stats.failed_ids)
            # Queries stranded with no live slot left to serve them (every
            # CTA context watchdog-retired) are failures, not hangs: the
            # simulation drained, so the engine reports rather than blocks.
            completed = {
                qid for qid, r in records.items() if r.complete_us > 0.0
            }
            for j in jobs:
                qid = j.query_id
                if qid not in completed and qid not in dropped_ids:
                    failed_ids.add(qid)
            stats.failed_ids = sorted(failed_ids)
        excluded = dropped_ids | failed_ids
        recs = [records[j.query_id] for j in jobs if j.query_id not in excluded]
        makespan = max((r.complete_us for r in recs), default=0.0)
        meta = {
            "mode": "dynamic",
            "config": cfg,
            "dropped": len(dropped_ids),
            "dropped_ids": sorted(dropped_ids),
        }
        if max_queue_depth is not None:
            # Shed-at-admission accounting only appears when shedding was
            # armed, so default serves keep their meta byte-identical.
            shed_ids = sorted(m.job.query_id for m in manager.shed)
            meta["max_queue_depth"] = max_queue_depth
            meta["shed"] = len(shed_ids)
            meta["shed_ids"] = shed_ids
        if stats is not None:
            meta["resilience"] = stats.to_meta()
            meta["failed"] = len(failed_ids)
            meta["failed_ids"] = sorted(failed_ids)
        report = ServeReport(
            records=recs,
            makespan_us=makespan,
            gpu_cta_busy_us=gpu_busy,
            n_cta_slots=cfg.n_slots * cfg.n_parallel,
            pcie=link.stats,
            host_busy_us=host_busy,
            meta=meta,
        )
        tel.observe_report(report, mode="dynamic")
        return report
