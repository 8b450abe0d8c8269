"""Dynamic batching engine (§IV-A): persistent kernel + independent slots.

Event-driven model of the ALGAS serving loop:

* ``n_slots`` slots are pinned inside a persistent kernel, each with
  ``n_parallel`` CTAs permanently resident (an ``ALGASSystem`` refuses a
  slot count its :mod:`repro.core.tuning` result marks infeasible).
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

One serve is one :class:`_ServeRun`: it owns the
:class:`~repro.core.slots.SlotBank` (CTA state words *and* the per-slot
runtime words — running job, ready/dispatch stamps, dispatch epoch), the
admission queue, the PCIe link and state channel, the query records and
the resilience ledger, and has one method per event: ``dispatch`` and
``start_ctas`` (host fills a slot, GPU starts it), ``cta_end`` and
``publish_merged`` (GPU side), ``collect``, ``watchdog`` / ``reap``,
``update_degrade``, ``host_pass`` (the §V-B thread loop that drives the
others) and ``report``.  The scheduler is *change-driven*, the paper's own
GDRCopy rule (§V-A: polling never crosses PCIe, only changes do) applied to
the simulator: the bank's per-thread counters say in O(1) whether a wake
has anything to collect or dispatch, a wake that does walks only that
thread's live slots, and a wake that provably would find nothing is not
executed at all — ``next_effective_wake`` moves it along the poll grid to
the first point at which something can have changed
(docs/performance.md, "Wall-clock vs simulated speed").  Each CTA
publishes its own FINISH (§IV-B), but the host acts only on a slot whose
last CTA finished (§V-A), so only that CTA's end is a *loud* simulator
event; the others are *quiet posts* (``Simulator.post``): they keep their
place in the event order but do not bound a skipped wake, and the one
FINISH handler, ``cta_end``, drains them as plain tuples.  The schedule
is the dense one's, bit for bit: tests/golden/schedules.json.

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

import math
from dataclasses import dataclass
from functools import partial
from heapq import heappop

from ..gpusim.costmodel import CostModel
from ..gpusim.device import DeviceProperties
from ..gpusim.engine import Simulator
from ..gpusim.pcie import PCIeLink
from ..resilience.faults import FaultInjector, FaultPlan
from ..resilience.policy import DEFAULT_POLICY, ResiliencePolicy, ResilienceStats
from ..telemetry import NULL_TELEMETRY
from .host import partition_slots
from .merge import HostMerger
from .query_manager import ManagedQuery, QueryManager
from .serving import QueryJob, QueryRecord, ServeReport
from .slots import SlotBank, SlotState
from .state_sync import STATE_MODES, STATE_WORD_BYTES, StateChannel

__all__ = ["DynamicBatchConfig", "DynamicBatchEngine"]

#: a heap key above every post: a loud CTA end runs its one post.
_ALL = (float("inf"),)

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

    def __post_init__(self) -> None:
        if self.n_slots <= 0 or self.n_parallel <= 0 or self.k <= 0:
            raise ValueError("n_slots, n_parallel, k must be positive")
        if self.host_threads <= 0:
            raise ValueError("host_threads must be positive")
        # A NaN fails every comparison, so these also refuse it; a
        # non-finite time would hang the serve or report nonsense.
        if not 0.0 < self.host_poll_period_us < math.inf:
            raise ValueError("host_poll_period_us must be finite and positive")
        if not 0.0 <= self.gpu_poll_us < math.inf:
            raise ValueError("gpu_poll_us must be finite and non-negative")
        if not 0.0 <= self.host_submit_us < math.inf:
            raise ValueError("host_submit_us must be finite and non-negative")
        if self.state_mode not in STATE_MODES:
            raise ValueError(f"state_mode must be one of {STATE_MODES}")
        if self.result_entry_bytes <= 0:
            raise ValueError("result_entry_bytes must be positive")


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
        if managed is not None:
            jobs = [m.job for m in managed]
        jobs = sorted(jobs, key=lambda j: (j.arrival_us, j.query_id))
        if len({j.query_id for j in jobs}) != len(jobs):
            raise ValueError("duplicate query ids in job list")
        for j in jobs:
            if j.n_ctas != self.cfg.n_parallel:
                raise ValueError(
                    f"job {j.query_id} has {j.n_ctas} CTA durations, "
                    f"engine expects n_parallel={self.cfg.n_parallel}"
                )
        run = _ServeRun(self, jobs, managed, max_queue_depth)
        run.run()
        report = run.report()
        self.tel.slot_transitions(run.bank.transition_counts())
        self.tel.observe_report(report, mode="dynamic")
        return report


def _admit(engine, jobs: list[QueryJob], spec) -> ServeReport:
    """Serve ``jobs`` on ``engine`` under a workload's admission contract.

    The admission step of every serve path (single systems, cluster legs,
    stream epochs): a :class:`~repro.data.workload.TrafficSpec`'s
    ``deadline_us`` / ``max_queue_depth`` need an admission queue, which
    only the dynamic engine has; the static baselines dispatch fixed
    batches with no queue to shed from, so they reject such specs loudly
    rather than silently ignoring the contract.
    """
    if spec is None:
        return engine.serve(jobs)
    if not isinstance(engine, DynamicBatchEngine):
        raise ValueError(
            f"admission control (deadline_us/max_queue_depth) requires "
            f"the dynamic batching engine; {type(engine).__name__} has "
            f"no admission queue"
        )
    managed = None
    if spec.deadline_us is not None:
        managed = [
            ManagedQuery(j, deadline_us=j.arrival_us + spec.deadline_us)
            for j in jobs
        ]
    return engine.serve(jobs, managed=managed, max_queue_depth=spec.max_queue_depth)


class _ServeRun:
    """Scheduler state of one ``serve()`` and its event handlers."""

    def __init__(
        self,
        engine: DynamicBatchEngine,
        jobs: list[QueryJob],
        managed: list[ManagedQuery] | None,
        max_queue_depth: int | None,
    ):
        cfg = self.cfg = engine.cfg
        tel = self.tel = engine.tel
        self.cm = engine.cm
        self.policy = engine.policy
        plan = engine.fault_plan
        self.injector = (
            FaultInjector(plan) if plan is not None and not plan.empty else None
        )
        self.stats = ResilienceStats() if (self.policy or self.injector) else None
        self.sim = Simulator()
        self.link = PCIeLink(engine.device)
        if self.injector is not None:
            self.link.stall_windows = self.injector.stall_windows
        self.chan = StateChannel(self.link, cfg.state_mode)
        #: one CTA's (or the merge kernel's) TopK push, bytes.
        self.topk_bytes = cfg.k * cfg.result_entry_bytes
        self.merger = HostMerger(self.cm, telemetry=tel)
        # Slots are dealt to host threads round-robin (§V-B).
        self.bank = SlotBank(
            cfg.n_slots, cfg.n_parallel, partition_slots(cfg.n_slots, cfg.host_threads)
        )
        if tel.enabled:
            self.bank.transitions = [[0] * len(SlotState) for _ in SlotState]
        # A wake is *pure* when all it can do is look at the bank and the
        # admission queue: local state mirrors (no poll on the link) and no
        # policy (no watchdog or degrade check).  Only pure wakes may be
        # skipped — see next_effective_wake.
        # (An injected fault plan always comes with a policy.)
        self.pure_wakes = cfg.state_mode == "gdrcopy" and self.policy is None
        self.passes = [partial(self.host_pass, tid) for tid in range(cfg.host_threads)]
        self.jobs = jobs
        self.records: dict[int, QueryRecord] = {
            j.query_id: QueryRecord(j.query_id, j.arrival_us) for j in jobs
        }
        self.manager = QueryManager(
            managed if managed is not None else jobs,
            telemetry=tel,
            max_queue_depth=max_queue_depth,
        )
        self.attempts: dict[int, int] = {}  # query_id -> watchdog re-dispatches
        self.outstanding = len(jobs)
        self.drops_seen = 0
        self.gpu_busy = 0.0
        self.host_busy = 0.0
        # Overload degradation window (shared across host threads).
        self.degraded = False
        self.degraded_since = 0.0

    def run(self) -> None:
        for pass_fn in self.passes:
            self.sim.schedule(0.0, pass_fn)
        self.sim.run(on_post=self.cta_end)
        # The passes reference this object; dropping them lets a finished
        # run be freed on return rather than wait for the cycle collector
        # (7-30 MiB of peak RSS on a 3000-query replay loop).
        self.passes.clear()

    # ---------------------------------------------------------- host side
    def dispatch(self, s: int, t: float) -> float:
        """Fill one free slot from the ready queue; returns advanced time."""
        cfg, tel, stats = self.cfg, self.tel, self.stats
        job = self.manager.next_ready(t).job
        rec = self.records[job.query_id]
        rec.dispatch_us = t
        if tel.enabled:
            tel.query_dispatched(job.query_id, job.arrival_us, t)
        durations = job.cta_durations_us
        self.update_degrade(t)
        if self.degraded:
            # Overload: dispatch shrunken work (narrow beam / scalar
            # fallback) instead of queueing deeper; recall gives way
            # to survival.
            durations = tuple(d * self.policy.degrade_factor for d in durations)
            rec.degraded = True
            stats.degraded_dispatches += 1
            tel.degraded_dispatch(job.query_id)
        fault = self.injector.on_dispatch(s) if self.injector else None
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
        _, pub = self.link.push_and_flag(
            t, job.dim * 4, "query", None, STATE_WORD_BYTES * cfg.n_parallel
        )
        self.bank.dispatch(s, job, t)
        self.start_ctas(s, job, pub, durations, fault)
        return t

    def collect(self, s: int, t: float) -> float:
        """Fold one finished slot's results in; returns advanced time."""
        cfg, tel = self.cfg, self.tel
        job = self.bank.jobs[s]
        rec = self.records[job.query_id]
        rec.detected_us = t
        self.bank.collect(s)
        # The CTAs already pushed their lists into the slot's
        # contiguous host buffer, so the host merges from local
        # memory (§IV-B step ❹).
        if cfg.merge_on_cpu:
            t += self.merger.merge_cost_only(cfg.n_parallel, cfg.k)
        else:
            t += self.cm.cpu_merge_us(1, cfg.k)  # filter only
        # Staged-tier host work (hybrid CPU refinement): the thread
        # walks the full-precision graph from the shipped candidates
        # before the query completes.  0.0 for pure-GPU jobs.
        t += job.host_us
        rec.complete_us = t
        self.outstanding -= 1
        if tel.enabled:
            tel.query_completed(rec, s)
        return t

    def host_pass(self, tid: int, sim: Simulator) -> None:
        """One wake of host thread ``tid``: collect finished slots, refill
        free ones, then run the watchdog and re-arm (§V-B)."""
        t0 = sim.now
        bank = self.bank
        live = bank.live[tid]
        if not live:
            # Every owned slot is retired (watchdog kills): this
            # thread can never dispatch or collect again.  Other
            # threads' slots serve whatever the manager re-queued.
            return
        manager = self.manager
        n_ready, n_free = bank.n_ready, bank.n_free
        jobs, ready_at = bank.jobs, bank.ready_at
        # gdrcopy mirrors make a poll free: only naive mode calls it.
        poll = None if self.cfg.state_mode == "gdrcopy" else self.chan.poll
        n_parallel = self.cfg.n_parallel
        t = t0
        # The host thread *spins*: it keeps re-scanning its slots as
        # long as it finds work (§V-A: polling mode beats blocking).
        # In naive state mode every scan crosses PCIe; with gdrcopy
        # mirrors the scans are free.  A scan looks at slots only when
        # the thread's counters say one is collectable or dispatchable.
        progress = True
        while progress:
            progress = False
            if poll is not None:
                t = poll(t, len(live), n_parallel)
            if n_ready[tid]:
                for s in live:
                    # Merges advance t, so later pending slots may
                    # become collectable within this same scan —
                    # the comparison must stay inside the loop.
                    r = ready_at[s]
                    if r is not None and r <= t:
                        if not bank.all_finished(s):
                            # Published but not actually finished:
                            # a corrupted state word.  Leave the
                            # slot for the watchdog.
                            continue
                        progress = True
                        t = self.collect(s, t)
            if n_free[tid]:
                for s in live:
                    if jobs[s] is None:
                        if manager.peek_ready(t) is None:
                            break  # t only advances on dispatch: no later
                            # slot in this scan can see a ready query
                        progress = True
                        t = self.dispatch(s, t)
        self.end_pass(tid, sim, t0, t)

    def end_pass(self, tid: int, sim: Simulator, t0: float, t: float) -> None:
        """Pass epilogue: watchdog, drop accounting, re-arm."""
        manager = self.manager
        self.host_busy += t - t0
        if self.policy is not None:
            self.watchdog(tid, t)
            self.update_degrade(t)
        # Deadline drops surfaced by the manager never complete.
        n_dropped = len(manager.dropped)
        if n_dropped > self.drops_seen:
            self.outstanding -= n_dropped - self.drops_seen
            self.drops_seen = n_dropped
        if self.outstanding > 0:
            next_wake = max(t, t0 + self.cfg.host_poll_period_us)
            if not self.bank.n_in_flight[tid] and manager:
                # Idle thread: sleep until the next arrival it could serve.
                nxt = manager.next_arrival_us()
                if nxt is not None:
                    next_wake = max(next_wake, nxt)
            elif self.pure_wakes:
                next_wake = self.next_effective_wake(tid, sim, next_wake)
            sim.schedule(next_wake, self.passes[tid])

    def next_effective_wake(self, tid: int, sim: Simulator, g: float) -> float:
        """The first wake of thread ``tid``'s poll chain, from ``g`` on, that
        could find something; the no-op wakes before it are not executed.

        ``g`` is the wake the pass just ended would arm.  It is advanced by
        ``g += host_poll_period_us`` — the chain's own float additions,
        never a multiple — while it is strictly earlier than all of

        * the simulator's next *loud* event (``Simulator.next_time``; the
          quiet posts — every CTA FINISH but a slot's last — are not
          bounds),
        * every FINISH-visible stamp of the thread's live slots, and
        * if the thread has a free slot, the next arrival — provided the
          ready queue is empty; it does not move at all otherwise.

        Exactness, by induction on the skipped wakes.  Take the wake at
        ``g`` with ``g`` below those three bounds, and suppose every earlier
        wake of the chain was skipped rightly, so the state is what this
        pass left.  Executed densely it is the very next loud event, so
        only quiet posts can run before it, and they change nothing it
        reads: a post moves one CTA word of its slot and the link's busy
        horizon and ledger, and schedules nothing.  The wake reads the
        bank's counters and stamps and the admission queue; the CTA words
        only for a due stamp (``all_finished``) and the link only to
        dispatch, neither of which it finds.  So it sees the state this
        pass left: no stamp ``<= g`` to collect; with a free slot an empty
        ready queue and no arrival ``<= g``, so ``peek_ready`` admits,
        sheds and drops nothing (``QueryManager.quiet_until``); without one
        the queue is not consulted.  It is pure — gdrcopy mirrors, no
        policy — so there is no link poll, watchdog or degrade check
        either: it advances no clock (``t == t0``, ``host_busy += 0.0``),
        and re-arms itself at ``g + host_poll_period_us`` with a sequence
        number above everything pending, posts included.  That is the
        state, and the queues, the skip assumes; the posts before it run
        at their own ``(time, seq)`` places in both executions.  The wake
        that survives is scheduled *now*, also above everything pending,
        and whatever is scheduled later comes from loud events at or after
        the next loud event's time in both executions: same position in
        the event order, ties included (hence the strict ``<``: at ``g ==``
        the next loud event's time the dense wake runs after it).

        Impure wakes (``state_mode="naive"``, any resilience policy) are
        never passed through here.  This is not a parked thread either: the
        wake stays on the chain's grid, where the dense execution had it.
        """
        bank = self.bank
        bound = sim.next_time()
        if bank.n_ready[tid]:
            ready_at = bank.ready_at
            for s in bank.live[tid]:
                r = ready_at[s]
                if r is not None and r < bound:
                    bound = r
        if bank.n_free[tid]:
            bound = min(bound, self.manager.quiet_until())
        if bound == float("inf"):
            return g  # nothing pending at all: keep polling, as the chain does
        period = self.cfg.host_poll_period_us
        while g < bound:
            g += period
        return g

    # ----------------------------------------------------------- GPU side
    def start_ctas(
        self,
        s: int,
        job: QueryJob,
        state_published_us: float,
        durations: tuple[float, ...],
        fault,
    ) -> None:
        """The slot's CTAs see WORK and run; schedule their ends."""
        rec = self.records[job.query_id]
        epoch = self.bank.epochs[s]
        gpu_start = state_published_us + self.cfg.gpu_poll_us
        rec.gpu_start_us = gpu_start
        ends = [gpu_start + d for d in durations]
        # A hung CTA (CTA 0) spins without retiring work; its nominal
        # duration never lands, so only the live CTAs count as busy time.
        hung = fault is not None and fault.kind == "hang"
        self.gpu_busy += sum(durations[1:] if hung else durations)
        rec.gpu_end_us = max(ends)
        last_idx = ends.index(rec.gpu_end_us)
        sim = self.sim
        post = sim.post
        for i, e in enumerate(ends):
            if hung and i == 0:
                continue  # never finishes; the watchdog will notice
            if i == last_idx:
                # The last CTA stamps the slot ready, which a host wake
                # reads: a loud event, the same handler on a one-post heap.
                last = [(e, 0, (s, epoch, job, fault, i))]
                sim.schedule(e, partial(self.cta_end, last, _ALL))
            else:
                post(e, (s, epoch, job, fault, i))

    def cta_end(self, posts: list, stop: tuple, sim: Simulator | None = None) -> float:
        """The FINISH handler: every CTA end in the heap ``posts`` ordered
        before ``stop`` pushes its TopK and publishes FINISH; returns the
        time of the last one.

        An entry is ``(time, seq, (slot, epoch, job, fault, cta))``.  The
        simulator drains a slot's non-last CTAs through here as quiet
        posts (``sim`` is None): each moves only the link's busy horizon
        and its slot's CTA words, which no pure host wake reads
        (:meth:`next_effective_wake`).  The slot's last CTA is a loud
        event running this handler on a one-post heap, ``sim`` given,
        because it also stamps the slot ready.
        """
        bank, link, cfg = self.bank, self.link, self.cfg
        epochs, push_and_flag = bank.epochs, link.push_and_flag
        topk_bytes, mmio_us = self.topk_bytes, link.MMIO_OVERHEAD_US
        now = self.sim.now
        while posts and posts[0] < stop:
            now, _, (s, epoch, job, fault, cta) = heappop(posts)
            if epochs[s] != epoch:
                continue  # the watchdog revoked this dispatch
            if fault is not None and fault.kind == "corrupt" and cta == 0:
                # The CTA writes garbage instead of FINISH: no result
                # push, no publication — the slot can never aggregate
                # to FINISH and the watchdog must reap it.
                bank.corrupt_cta(s, cta)
                self.stats.note_fault("corrupt")
                self.tel.fault_injected("corrupt")
                continue
            bank.advance_cta(s, cta)
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
            entries = job.result_entries
            if entries is None:
                nbytes, tag, overhead = topk_bytes, "result-push", mmio_us
            else:
                nbytes, tag, overhead = entries * cfg.result_entry_bytes, "candidates", None
            if sim is None:
                push_and_flag(now, nbytes, tag, overhead, STATE_WORD_BYTES)
            elif cfg.merge_on_cpu:
                pushed, flagged = push_and_flag(now, nbytes, tag, overhead, STATE_WORD_BYTES)
                bank.mark_ready(s, max(flagged, 0.0 if entries is None else pushed))
            else:
                # GPU-merge ablation: the persistent kernel must yield to
                # a merge kernel before results are ready (§IV-B); only
                # the merged TopK is then pushed to the host.
                link.transfer(now, nbytes, tag, overhead)
                merge_done = now + self.cm.gpu_merge_us(cfg.n_parallel, cfg.k)
                sim.schedule(merge_done, partial(self.publish_merged, s, epoch))
        return now

    def publish_merged(self, s: int, epoch: int, sim: Simulator) -> None:
        """GPU-merge ablation: the merge kernel ends, push the merged TopK."""
        if self.bank.epochs[s] != epoch:
            return
        self.link.transfer(
            sim.now, self.topk_bytes, "result-push", self.link.MMIO_OVERHEAD_US
        )
        self.bank.mark_ready(s, self.chan.publish(sim.now))

    # ----------------------------------------------------------- defenses
    def update_degrade(self, t: float) -> None:
        """Enter/exit overload degradation on ready-queue depth."""
        policy = self.policy
        if policy is None or policy.degrade_queue_depth is None:
            return
        depth = self.manager.ready_depth(t)
        if not self.degraded and depth >= policy.degrade_queue_depth:
            self.degraded = True
            self.degraded_since = t
            self.stats.degraded_windows += 1
            self.tel.degraded_window_entered(t, depth)
        elif self.degraded and depth <= policy.restore_queue_depth:
            self.degraded = False
            self.stats.degraded_us += t - self.degraded_since
            self.tel.degraded_window_exited(self.degraded_since, t)

    def watchdog(self, tid: int, t: float) -> None:
        """Reap no-progress slots past the budget; re-dispatch or fail."""
        bank = self.bank
        if not bank.n_in_flight[tid]:
            return
        budget, dispatched_at = self.policy.watchdog_budget_us, bank.dispatched_at
        for s in list(bank.live[tid]):  # reap() retires slots from the live list
            d = dispatched_at[s]
            if d is None or t - d < budget:
                continue
            if bank.ready_at[s] is not None and bank.all_finished(s):
                continue  # finished, just not collected yet
            self.reap(s, t)

    def reap(self, s: int, t: float) -> None:
        """Revoke one wedged slot and re-dispatch or fail its query."""
        policy, stats, tel = self.policy, self.stats, self.tel
        # The slot is wedged (hung or corrupted): revoke it.  Its
        # CTA contexts are lost for the rest of the serve — the
        # survivors absorb the load.
        job = self.bank.force_retire(s)
        stats.watchdog_kills += 1
        tel.watchdog_kill(s, job.query_id, t)
        attempt = self.attempts.get(job.query_id, 0) + 1
        self.attempts[job.query_id] = attempt
        if attempt > policy.max_retries:
            stats.retry_failures += 1
            stats.failed_ids.append(job.query_id)
            self.outstanding -= 1
            tel.retry_exhausted(job.query_id)
            return
        backoff = policy.backoff_us(attempt)
        self.records[job.query_id].retries = attempt
        stats.retries += 1
        tel.query_retried(job.query_id, attempt, t)
        self.manager.submit(
            ManagedQuery(job.rescheduled(job.query_id, t + backoff)),
            resubmit=True,
        )

    # ------------------------------------------------------------- report
    def report(self) -> ServeReport:
        """Fold the drained simulation into a :class:`ServeReport`."""
        cfg, stats, manager, records = self.cfg, self.stats, self.manager, self.records
        dropped_ids = {m.job.query_id for m in manager.dropped}
        failed_ids: set[int] = set()
        if stats is not None:
            if self.degraded:  # close the window left open at drain time
                stats.degraded_us += self.sim.now - self.degraded_since
                self.tel.degraded_window_exited(self.degraded_since, self.sim.now)
            failed_ids.update(stats.failed_ids)
            # Queries stranded with no live slot left to serve them (every
            # CTA context watchdog-retired) are failures, not hangs: the
            # simulation drained, so the engine reports rather than blocks.
            for qid, r in records.items():
                if not r.complete_us > 0.0 and qid not in dropped_ids:
                    failed_ids.add(qid)
            stats.failed_ids = sorted(failed_ids)
        excluded = dropped_ids | failed_ids
        recs = [records[j.query_id] for j in self.jobs if j.query_id not in excluded]
        meta = {
            "mode": "dynamic",
            "config": cfg,
            "dropped": len(dropped_ids),
            "dropped_ids": sorted(dropped_ids),
        }
        if manager.max_queue_depth is not None:
            # Shed-at-admission accounting only appears when shedding was
            # armed, so default serves keep their meta byte-identical.
            shed_ids = sorted(m.job.query_id for m in manager.shed)
            meta["max_queue_depth"] = manager.max_queue_depth
            meta["shed"] = len(shed_ids)
            meta["shed_ids"] = shed_ids
        if stats is not None:
            meta["resilience"] = stats.to_meta()
            meta["failed"] = len(failed_ids)
            meta["failed_ids"] = sorted(failed_ids)
        return ServeReport(
            records=recs,
            makespan_us=max((r.complete_us for r in recs), default=0.0),
            gpu_cta_busy_us=self.gpu_busy,
            n_cta_slots=cfg.n_slots * cfg.n_parallel,
            pcie=self.link.stats,
            host_busy_us=self.host_busy,
            meta=meta,
        )
