"""Static batching engine — the baseline discipline (SONG/GANNS/CAGRA style).

Queries are grouped into fixed batches of ``batch_size``.  Each batch:

1. waits until all its queries have arrived *and* the previous batch has
   fully completed (synchronous batch loop — no overlap),
2. uploads the query block over PCIe,
3. launches one search kernel: every query contributes ``n_parallel`` CTA
   blocks; blocks are wave-scheduled onto the device's resident capacity,
4. the kernel completes when the **slowest** query finishes — this barrier
   is the *query bubble* of §III-A (per-query idle time is recorded),
5. merges TopK (on-GPU divide-and-conquer kernel for the CAGRA baseline,
   or host-side after download), downloads results, and returns the whole
   batch at once.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..gpusim.costmodel import CostModel
from ..gpusim.device import DeviceProperties
from ..gpusim.kernel import launch_blocks
from ..gpusim.pcie import PCIeLink
from ..telemetry import NULL_TELEMETRY
from .merge import HostMerger
from .serving import QueryJob, QueryRecord, ServeReport

__all__ = ["StaticBatchConfig", "StaticBatchEngine"]


@dataclass(frozen=True)
class StaticBatchConfig:
    """Knobs of the static batching engine."""

    batch_size: int
    n_parallel: int
    k: int
    #: True → CAGRA-style merge kernel on the GPU; False → host merge.
    merge_on_gpu: bool = True
    host_threads: int = 1
    result_entry_bytes: int = 8
    #: shared-memory footprint charged per search block (occupancy input).
    mem_per_block: int = 4096
    reserved_cache_per_block: int = 0
    #: double-buffered batches: batch n+1's upload/kernel overlaps batch
    #: n's merge/download (a stronger static baseline than the synchronous
    #: loop; per-query latency is still gated by the batch barrier).
    pipelined: bool = False

    def __post_init__(self) -> None:
        if self.batch_size <= 0 or self.n_parallel <= 0 or self.k <= 0:
            raise ValueError("batch_size, n_parallel, k must be positive")
        if self.host_threads <= 0:
            raise ValueError("host_threads must be positive")


class StaticBatchEngine:
    """Serve priced jobs in synchronous fixed batches."""

    def __init__(
        self,
        device: DeviceProperties,
        cost_model: CostModel,
        config: StaticBatchConfig,
        telemetry=None,
    ):
        self.device = device
        self.cm = cost_model
        self.cfg = config
        self.tel = telemetry or NULL_TELEMETRY

    def serve(self, jobs: list[QueryJob]) -> ServeReport:
        cfg = self.cfg
        tel = self.tel
        jobs = sorted(jobs, key=lambda j: (j.arrival_us, j.query_id))
        if len({j.query_id for j in jobs}) != len(jobs):
            raise ValueError("duplicate query ids in job list")
        for j in jobs:
            if j.n_ctas != cfg.n_parallel:
                raise ValueError(
                    f"job {j.query_id} has {j.n_ctas} CTA durations, "
                    f"engine expects n_parallel={cfg.n_parallel}"
                )
        tel.query_submitted(len(jobs))
        link = PCIeLink(self.device)
        merger = HostMerger(self.cm, telemetry=tel)
        records: list[QueryRecord] = []
        gpu_busy = 0.0
        host_busy = 0.0
        prev_complete = 0.0
        prev_kernel_end = 0.0

        for lo in range(0, len(jobs), cfg.batch_size):
            batch = jobs[lo : lo + cfg.batch_size]
            # (1) batch formation barrier.  Pipelined mode only waits for
            # the previous *kernel* (uploads/merges overlap); synchronous
            # mode waits for the previous batch to fully complete.
            gate = prev_kernel_end if cfg.pipelined else prev_complete
            ready = max(gate, max(j.arrival_us for j in batch))
            # (2) upload query vectors (one contiguous transfer)
            qbytes = sum(j.dim * 4 for j in batch)
            t_up = link.transfer(ready, qbytes, tag="query")
            # (3) one kernel over all CTAs of the batch
            durations = [d for j in batch for d in j.cta_durations_us]
            launch = launch_blocks(
                self.device,
                durations,
                cfg.mem_per_block,
                t0=t_up,
                reserved_cache_per_block=cfg.reserved_cache_per_block,
            )
            gpu_busy += sum(durations)
            # (4) per-query completion inside the kernel
            ends = launch.block_end_us
            starts = launch.schedule.start_us
            kernel_end = launch.end_us
            # (5) merge
            if cfg.merge_on_gpu:
                merge_end = kernel_end + self.cm.gpu_merge_us(cfg.n_parallel, cfg.k)
                rbytes = len(batch) * cfg.k * cfg.result_entry_bytes
                t_down = link.transfer(merge_end, rbytes, tag="result")
                batch_complete = t_down
                host_merge_each = 0.0
            else:
                rbytes = len(batch) * cfg.n_parallel * cfg.k * cfg.result_entry_bytes
                t_down = link.transfer(kernel_end, rbytes, tag="result")
                host_merge_each = 0.0
                for _ in batch:
                    host_merge_each = merger.merge_cost_only(cfg.n_parallel, cfg.k)
                # Host threads merge queries round-robin, serially per thread.
                merges_per_thread = -(-len(batch) // cfg.host_threads)
                batch_complete = t_down + merges_per_thread * host_merge_each
                host_busy += len(batch) * host_merge_each

            for qi, j in enumerate(batch):
                cta_slice = slice(qi * cfg.n_parallel, (qi + 1) * cfg.n_parallel)
                rec = QueryRecord(j.query_id, j.arrival_us)
                rec.dispatch_us = ready
                rec.gpu_start_us = min(starts[cta_slice])
                rec.gpu_end_us = max(ends[cta_slice])
                rec.detected_us = batch_complete
                rec.complete_us = batch_complete  # batch returns as a unit
                records.append(rec)
                if tel.enabled:
                    tel.query_dispatched(j.query_id, j.arrival_us, ready)
                    tel.query_completed(rec)
            if tel.enabled:
                bi = lo // cfg.batch_size
                tel.span("batch", ready, batch_complete,
                         batch=bi, queries=len(batch))
                tel.span("kernel", t_up, kernel_end, batch=bi)
            prev_complete = batch_complete
            prev_kernel_end = kernel_end

        makespan = max((r.complete_us for r in records), default=0.0)
        report = ServeReport(
            records=records,
            makespan_us=makespan,
            gpu_cta_busy_us=gpu_busy,
            n_cta_slots=cfg.batch_size * cfg.n_parallel,
            pcie=link.stats,
            host_busy_us=host_busy,
            meta={"mode": "static", "config": cfg},
        )
        tel.observe_report(report, mode="static")
        return report
