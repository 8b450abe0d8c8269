"""Multi-core parallel execution substrate.

A process worker pool (:mod:`repro.parallel.pool`) over zero-copy shared
corpora (:mod:`repro.parallel.shared`).  Consumed by the cluster servers
(``ServeConfig.parallelism``), the load harness and the bench runner's
config sweep (:func:`repro.bench.runner.run_sweep`).  ``parallelism <= 1``
runs inline, byte-identical to the pre-parallel code paths; see
docs/performance.md ("Multi-core execution") for the measured speedups
and how parity is enforced.  Threads need no knob:
:func:`~repro.parallel.pool.cores` says how many this process may run,
:func:`~repro.parallel.pool.thread_chunks` cuts lockstep rows (search
batches, wave-build insertion searches) into per-core chunks and
:func:`~repro.parallel.pool.in_row_ranges` set-up row blocks, and
:func:`~repro.parallel.pool.on_threads` runs them.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".pool": ("WorkerPool", "cores", "in_row_ranges", "make_pool", "on_threads"),
    ".shared": ("ArrayRef", "SharedArena", "resolve_ref"),
})
