"""Worker pool of the parallel substrate.

One abstraction, two behaviours (docs/performance.md, "Multi-core
execution"):

* ``n_workers > 1`` — a fork-context
  :class:`~concurrent.futures.ProcessPoolExecutor`: true multi-core for
  the Python-bound serving/scheduling loops (the dynamic batcher is pure
  Python, so threads running it serialize on the GIL — a thread flavour
  was measured and lost to processes on every fan-out, see the doc; wide
  lockstep search rounds do overlap on threads, in their GIL-releasing
  sorts, :mod:`repro.search.batched`, and so do the BLAS-bound set-up
  kernels, :func:`in_row_ranges`).  Inputs cross via pickle, corpora via
  :mod:`repro.parallel.shared`.
* ``n_workers <= 1`` — inline execution in the caller, byte-identical to
  the pre-parallel code path, so a ``parallelism=0`` default costs nothing.

``map`` is *ordered* — results come back in submission order regardless
of completion order, which is what makes the cluster fan-in (merge by
shard id) deterministic across worker counts.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

__all__ = ["WorkerPool", "make_pool", "cores", "on_threads", "in_row_ranges"]

_in_worker = False  # set by the pool initializer in every worker process


def _mark_worker() -> None:
    global _in_worker
    _in_worker = True


def cores() -> int:
    """CPUs this process may keep busy with threads of its own: its
    affinity mask, and 1 inside a :class:`WorkerPool` worker (sharded legs
    and wave-build workers already share the host)."""
    if _in_worker:
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def on_threads(fn, items: list) -> list:
    """``[fn(x) for x in items]``: ``items[0]`` on the caller, each other
    item on a thread of its own started for this call; every thread is
    joined, then the first failure in item order is re-raised.  The items
    may share only state they read, or write disjoint slices of."""
    out: list = [None] * len(items)
    errors: list[BaseException | None] = [None] * len(items)

    def call(i: int) -> None:
        try:
            out[i] = fn(items[i])
        except BaseException as e:  # re-raised on the caller below
            errors[i] = e

    threads = [threading.Thread(target=call, args=(i,))
               for i in range(1, len(items))]
    try:
        for t in threads:
            t.start()
        call(0)
    finally:
        for t in threads:
            if t.ident is not None:  # started
                t.join()
    for e in errors:
        if e is not None:
            raise e
    return out


def in_row_ranges(fn, blocks: list[tuple[int, int]]) -> None:
    """``fn(lo, hi)`` for every ``[lo, hi)`` of ``blocks``, the block list
    cut into at most :func:`cores` contiguous ranges of near-equal block
    count, one range per thread (:func:`on_threads`).  Every block is the
    one a single loop would run, so a kernel whose blocks write disjoint
    rows gives the same bits on any number of cores."""
    n = max(1, min(cores(), len(blocks)))
    ranges = [blocks[i * len(blocks) // n:(i + 1) * len(blocks) // n]
              for i in range(n)]
    on_threads(lambda r: [fn(lo, hi) for lo, hi in r], ranges)


class WorkerPool:
    """N workers executing single-argument tasks with ordered results."""

    def __init__(self, n_workers: int = 0):
        n = int(n_workers or 0)
        if n < 0:
            raise ValueError("n_workers must be non-negative")
        self.n_workers = max(1, n)
        self._exec = None
        if n > 1:
            # fork shares the parent's pages copy-on-write (warm dataset /
            # graph caches ride along for free); spawn is the portability
            # fallback and relies solely on the shared-memory refs.
            methods = multiprocessing.get_all_start_methods()
            ctx = multiprocessing.get_context(
                "fork" if "fork" in methods else "spawn"
            )
            self._exec = ProcessPoolExecutor(self.n_workers, mp_context=ctx,
                                             initializer=_mark_worker)

    @property
    def is_parallel(self) -> bool:
        """True while tasks run in worker processes (not inline)."""
        return self._exec is not None

    # ----------------------------------------------------------- execution
    def map(self, fn, items) -> list:
        """Apply ``fn`` to every item; results in submission order.

        A task exception propagates as-is.  A *worker crash* (hard exit,
        OOM kill) surfaces as a RuntimeError naming the pool — the
        executor is broken at that point and the owner should close it;
        any shared segments stay owned by the parent, so nothing leaks.
        """
        items = list(items)
        if self._exec is None:
            return [fn(item) for item in items]
        futures = [self._exec.submit(fn, item) for item in items]
        out = []
        try:
            for f in futures:
                out.append(f.result())
        except BrokenProcessPool as e:
            raise RuntimeError(
                f"a worker process died while executing "
                f"{getattr(fn, '__name__', fn)!r}; the process pool is broken "
                f"(results so far: {len(out)}/{len(items)})"
            ) from e
        return out

    # ----------------------------------------------------------- lifecycle
    def close(self) -> None:
        if self._exec is not None:
            self._exec.shutdown(wait=True, cancel_futures=True)
            self._exec = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def make_pool(parallelism: int | None) -> WorkerPool:
    """Resolve a ``parallelism=`` knob into a pool (None/0/1 → inline)."""
    return WorkerPool(parallelism or 0)
