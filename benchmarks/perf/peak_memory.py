"""Stage-attributed peak RSS of one end-to-end workload.

In a fresh process, runs one ``benchmarks/e2e`` workload the way
``run.py --trace 0`` does: its set-up three times (the dataset cache
cleared and the previous set-up closed before each), then its call twice
(``prepare``, the call, the outcome check), BLAS on one thread and
``run.py``'s malloc options (the heap is kept, nothing is mmapped).  Every
stage prints the ``ru_maxrss`` increment it caused, i.e. how far it raised
this process's high-water mark, and the mark after it; a stage that stays
under an earlier peak reads +0.  Nested stages are exclusive: set-up's own
line is what its stages below did not account for.

Stages: ``load: generate`` (``load_dataset``'s draw and split),
``load: ground truth`` (its exact kNN), ``graph build`` (``build_cagra``),
``codec fit``, ``set-up`` (the rest), ``prepare`` and ``call`` (with its
outcome check).  Pool workers (the sharded workload's shard builds and
serves) are children: their largest ``ru_maxrss`` is printed apart.
``run.py``'s ``peak_rss_mb`` adds the largest child to this process's
mark; there the child is also the header's ``git`` subprocess (about
39 MiB), which this tool does not start.

    PYTHONPATH=src python benchmarks/perf/peak_memory.py [--workload NAME]
        [--seed S] [--scale default|smoke]
"""

from __future__ import annotations

import os
import sys

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import functools  # noqa: E402
import gc  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

E2E = Path(__file__).resolve().parents[1] / "e2e"
sys.path.insert(0, str(E2E))

import workloads  # noqa: E402
from run import keep_freed_memory  # noqa: E402
from spans import Tracer  # noqa: E402

from repro.data import datasets  # noqa: E402
from repro.search import precision  # noqa: E402

SETUP_REPS = 3  # as run.py
CALLS = 2


def maxrss_mib(who=resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


class Meter:
    """Charges each rise of ``ru_maxrss`` to the innermost open stage."""

    def __init__(self):
        self.mark = maxrss_mib()
        self.stack: list[str] = []
        self.rows: list[tuple[str, float, float]] = []

    def _lap(self) -> None:
        now = maxrss_mib()
        if self.stack:
            self.rows.append((self.stack[-1], now - self.mark, now))
        self.mark = now

    def stage(self, name: str, fn, *args, **kwargs):
        self._lap()
        self.stack.append(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._lap()
            self.stack.pop()

    def wrap(self, owner, attr: str, name: str) -> None:
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def staged(*args, **kwargs):
            return self.stage(name, fn, *args, **kwargs)

        setattr(owner, attr, staged)

    def take(self) -> dict[str, tuple[float, float]]:
        """``{stage: (increment, mark after)}`` since the last take, in
        first-seen order."""
        out: dict[str, tuple[float, float]] = {}
        for name, inc, now in self.rows:
            out[name] = (out.get(name, (0.0, 0.0))[0] + inc, now)
        self.rows.clear()
        return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="highdim_int8", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--scale", default="default", choices=sorted(workloads.SIZES))
    args = ap.parse_args(argv)

    keep_freed_memory()
    meter = Meter()
    meter.wrap(workloads, "load_dataset", "load: generate")
    meter.wrap(datasets, "exact_knn", "load: ground truth")
    meter.wrap(workloads, "build_cagra", "graph build")
    meter.wrap(precision.Int8Codec, "fit", "codec fit")
    meter.wrap(precision.PQCodec, "fit", "codec fit")
    untraced = Tracer(enabled=False)
    w = workloads.WORKLOADS[args.workload](args.scale, args.seed)

    print(f"{args.workload}  seed={args.seed}  scale={args.scale}")
    print(f"  ru_maxrss after imports: {meter.mark:8.1f} MiB")
    print(f"  {'stage':<24}{'+MiB':>9}{'mark MiB':>10}")

    def report(label: str) -> None:
        for name, (inc, mark) in meter.take().items():
            print(f"  {label + ' ' + name:<24}{inc:>+9.1f}{mark:>10.1f}")

    try:
        for rep in range(1, SETUP_REPS + 1):
            w.close()
            workloads.clear_dataset_cache()
            gc.collect()
            meter.stage("set-up", w.setup, untraced)
            report(f"[{rep}]")
        for rep in range(1, CALLS + 1):
            prepared = meter.stage("prepare", w.prepare)
            gc.collect()
            result = meter.stage("call", w.call, prepared, untraced)
            meter.stage("call", w.outcome, result)
            del prepared, result
            report(f"<{rep}>")
    finally:
        w.close()
    print(f"  ru_maxrss, this process: {maxrss_mib():8.1f} MiB")
    print(f"  ru_maxrss, largest child: {maxrss_mib(resource.RUSAGE_CHILDREN):7.1f} MiB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
