#!/usr/bin/env python3
"""Two-clock end-to-end benchmark: five workloads, stage-attributed, self-checking.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed S] [--seconds T]
                                  [--trace 0|1] [--scale default|smoke]
                                  [--out FILE]

Without ``--workload`` all five workloads run, each in a process of its own;
without ``--trace`` each runs both phases.  ``--trace 0`` is the untraced phase: set-up repeated, one
discarded warm-up call, then the top-level public call repeated for
``--seconds``; it yields the end-to-end metrics.  ``--trace 1`` is the traced
phase: the same calls with span-recording proxies on the instances the
benchmark built, alternated with untraced calls; it yields the per-layer
metrics and writes ``benchmarks/e2e/out/<workload>.trace.json``.

Every metric is printed by name with its unit, outputs are checked, and the
exit code is non-zero if a check fails.  The last line of stdout is one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` for the (last)
workload run.  See README.md beside this file.
"""

from __future__ import annotations

import os
import sys

# One generator process, BLAS/OpenMP pinned to one thread: must happen
# before numpy loads its BLAS.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))  # same as PYTHONPATH=src

import numpy as np  # noqa: E402

import metrics  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, clear_dataset_cache  # noqa: E402

#: Set-ups per untraced run, and the least number of timed calls: what the
#: driver's cap (114 runs in 3420 s) leaves room for on a host that can run
#: 40 % slow for minutes.
SETUP_REPS = 3
MIN_REPS = 2
UNTRACED = Tracer(enabled=False)


def keep_freed_memory() -> str:
    """Tell glibc malloc to serve every request from the heap and never
    give memory back, so that after the warm-up call a timed call touches no
    fresh pages.  By default numpy's large temporaries are mmapped and
    unmapped on every step (18k minor faults per 1024-query serve), and on
    this kind of VM the cost of a first touch follows the host's memory
    pressure: touching 1.3 GB took between 0.25 s and 2.4 s within one
    minute.  With the heap kept, the same serve makes 500 faults, runs a
    fifth faster and its spread over 30 calls fell from 20 % to 12 %.
    Pool workers inherit the setting through fork.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return "platform default (no glibc mallopt)"
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    m_trim_threshold, m_mmap_max = -1, -4  # <malloc.h>
    ok = mallopt(m_mmap_max, 0) and mallopt(m_trim_threshold, 2**31 - 1)
    return ("glibc, M_MMAP_MAX=0 M_TRIM_THRESHOLD=max" if ok
            else "platform default (mallopt refused)")


def child_pids() -> list[int]:
    """Direct children of this process, zombies included (Linux /proc)."""
    me, found = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue  # ended while we looked
        # pid (comm) state ppid ...; comm may hold spaces and brackets
        if int(stat[stat.rindex(")") + 2:].split()[1]) == me:
            found.append(int(entry))
    return found


def stop_children() -> None:
    """Leave no process behind: every child is ended and waited for.

    Pool workers are joined by ``ShardedServer`` itself.  What outlives a
    run is multiprocessing's resource tracker: it starts with the first
    shared-memory segment and ends only once it sees this process's end of
    its pipe closed, which is a moment *after* this process has exited —
    a process still running when the caller looks.  Stop it here and wait.
    By then every pool is closed, so a child still there was orphaned by a
    run cut short: it is killed and reaped.
    """
    try:
        from multiprocessing import resource_tracker
        resource_tracker._resource_tracker._stop()  # closes the pipe, waits
    except Exception:  # private API; the sweep below covers it
        pass
    for pid in child_pids():
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass  # ended and reaped since the scan


# ------------------------------------------------------------------- header
def fingerprint(allocator: str) -> dict:
    def git(*cmd) -> str | None:
        try:
            out = subprocess.run(
                ("git", "-C", str(ROOT), *cmd), capture_output=True, text=True,
                timeout=10, check=True,
            )
        except (OSError, subprocess.SubprocessError):
            return None  # an exported tree has no history
        return out.stdout.strip()

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    status = git("status", "--porcelain")
    return {
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "numba": importlib.util.find_spec("numba") is not None,
        "allocator": allocator,
        "git_sha": git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "cost_model": "unvalidated against hardware at these synthetic "
                      "scales; no error figure is given",
    }


# -------------------------------------------------------------------- calls
def one_call(w, tr: Tracer, request: str = ""):
    """One top-level call: (wall seconds, outcome).  ``prepare`` and the
    reduction to an outcome stay outside the timed window."""
    prepared = w.prepare()
    gc.collect()
    tr.request = request
    proxies = w.instrument(prepared, tr) if tr.enabled else nullcontext()
    with proxies, tr.span(w.top_span):
        t0 = time.perf_counter()
        result = w.call(prepared, tr)
        wall = time.perf_counter() - t0
    tr.settle()  # deferred counts, outside the timed window
    t0 = time.perf_counter()
    outcome = w.outcome(result)
    outcome.check_s = time.perf_counter() - t0
    return wall, outcome


def peak_rss_mb() -> float:
    """ru_maxrss of this process plus that of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def verdict(outcomes) -> list:
    """Checks of the last outcome plus agreement of every call's digest."""
    last = outcomes[-1]
    same = len({o.digest for o in outcomes}) == 1
    return last.checks + [
        ("digest_repeats", same,
         f"sha256 over ids, dists and the simulated summary, "
         f"{len(outcomes)} calls"),
        ("none_failed", last.failed == 0,
         f"{last.failed} of {last.attempted} dropped, shed, failed, lost "
         f"or partial"),
    ]


def untraced_phase(w, seconds: float) -> dict:
    """End-to-end metrics: only the top-level entry point is called."""
    phases, setups = {}, []
    for _ in range(SETUP_REPS):
        w.close()
        clear_dataset_cache()
        gc.collect()
        t0 = time.perf_counter()
        w.setup(UNTRACED)
        setups.append(time.perf_counter() - t0)
    phases["setup_s"] = sum(setups)

    warm_wall, warm = one_call(w, UNTRACED)  # discarded: first calls pay
    phases["warmup_s"] = warm_wall           # caches and page faults
    walls, outcomes = [], [warm]
    while len(walls) < MIN_REPS or (
            sum(walls) + statistics.median(walls) <= seconds):
        wall, out = one_call(w, UNTRACED)
        walls.append(wall)
        outcomes.append(out)
    phases["timed_s"] = sum(walls)
    rss = peak_rss_mb()
    last = outcomes[-1]

    host = {
        "setup_s": (statistics.median(setups), setups),
        "host_wall_s": (statistics.median(walls), walls),
        "peak_rss_mb": (rss, [rss]),
    }
    end_to_end = {}
    for name, spec in metrics.END_TO_END.items():
        if name in host:
            value, samples = host[name]
            end_to_end[name] = {"value": value, "unit": spec["unit"],
                                "samples": samples}
        else:
            end_to_end[name] = {"value": last.e2e[name], "unit": spec["unit"]}
    extra = dict(last.extra, failed_frac=last.failed / last.attempted)
    return {
        "end_to_end": end_to_end,
        "extra": {k: {"value": v, "unit": metrics.EXTRA[k]["unit"]}
                  for k, v in extra.items()},
        "phases": phases,
        "outcomes": outcomes,
    }


def traced_phase(w, seconds: float) -> dict:
    """Per-layer metrics: the same calls through span-recording proxies,
    alternated with untraced ones so the overhead is measured in-process."""
    tr = Tracer()
    phases = {}
    clear_dataset_cache()
    tr.request = f"{w.name}/setup"
    t0 = time.perf_counter()
    w.setup(tr)
    phases["setup_s"] = time.perf_counter() - t0

    warm_wall, warm = one_call(w, tr, f"{w.name}/warmup")
    phases["warmup_s"] = warm_wall
    w.enter_trace_mode()
    plain, traced, outcomes = [], [], [warm]
    while not traced or (
            sum(plain) + sum(traced) + statistics.median(plain or traced)
            + statistics.median(traced) <= seconds):
        if w.untraced_pair:
            wall, out = one_call(w, UNTRACED)
            plain.append(wall)
            outcomes.append(out)
        wall, out = one_call(w, tr, f"{w.name}/rep{len(traced)}")
        traced.append(wall)
        outcomes.append(out)
    phases["timed_s"] = sum(plain)
    phases["traced_s"] = sum(traced)

    def timed(fn) -> float:
        gc.collect()
        t0 = time.perf_counter()
        fn()
        return time.perf_counter() - t0

    measured = {
        "untraced_wall_s": statistics.median(plain or traced),
        "traced_wall_s": statistics.median(traced),
        "warmup_wall_s": warm_wall,
        "sim_layer": outcomes[-1].layer,
        **w.side_measurements(timed),
    }
    per_layer, missing = metrics.layer_metrics(tr, w, measured)
    return {
        "per_layer": {k: {"value": v, "unit": metrics.PER_LAYER[k]["unit"]}
                      for k, v in per_layer.items()},
        "missing_counters": missing,
        "top_level_self_share": metrics.top_level_self_share(tr, w),
        "repetitions_traced": len(traced),
        "phases": phases,
        "outcomes": outcomes,
        "tracer": tr,
    }


def run_workload(name: str, seed: int, seconds: float, trace, scale: str,
                 header: dict) -> dict:
    w = WORKLOADS[name](scale, seed)
    w.with_extras = trace != 1  # a traced-only run reports no end-to-end
    row = {"workload": name, "seed": seed, "scale": scale,
           "run_seconds": seconds, "phases": {}}
    outcomes = []
    try:
        if trace in (None, 0):
            res = untraced_phase(w, seconds)
            outcomes += res.pop("outcomes")
            row["phases"]["untraced"] = res.pop("phases")
            row["repetitions"] = {
                k: len(m["samples"]) for k, m in res["end_to_end"].items()
                if "samples" in m
            }
            row.update(res)
        if trace in (None, 1):
            if trace is None:
                w.close()
            res = traced_phase(w, seconds)
            outcomes += res.pop("outcomes")
            row["phases"]["traced"] = res.pop("phases")
            tracer = res.pop("tracer")
            row.update(res)
            tracer.write(
                HERE / "out" / f"{name}.trace.json",
                {**header, "workload": name, "seed": seed, "scale": scale},
            )
        row["sizes"] = w.sizes()
    finally:
        w.close()
    checks = verdict(outcomes)
    row["phases"]["check_s"] = sum(o.check_s for o in outcomes)
    last = outcomes[-1]
    row.update(
        digest=last.digest, attempted=last.attempted, failed=last.failed,
        checks=[{"name": n, "ok": bool(ok), "detail": d} for n, ok, d in checks],
        correct=all(ok for _, ok, _ in checks),
        notes=last.notes,
        generator_lateness_us=0.0,  # arrivals are simulated timestamps
        open_loop=w.open_loop,
    )
    return row


# ----------------------------------------------------------------- printing
def _fmt(value: float) -> str:
    return f"{value:.6g}"


def print_row(row: dict) -> None:
    spec = next(w for w in metrics.CONTRACT["workloads"]
                if w["name"] == row["workload"])
    print(f"\n== {row['workload']}  seed={row['seed']}  scale={row['scale']}")
    print(f"   why: {spec['why']}")
    print(f"   sizes: {json.dumps(row['sizes'])}")
    for phase, walls in row["phases"].items():
        text = (json.dumps({k: round(v, 3) for k, v in walls.items()})
                if isinstance(walls, dict) else f"{walls:.3f}")
        print(f"   phase wall [{phase}]: {text}")
    if "end_to_end" in row:
        print("   end-to-end (untraced run; host timings are medians):")
        for name, m in {**row["end_to_end"], **row["extra"]}.items():
            tail = ""
            if len(m.get("samples", ())) > 1:
                tail = (f"   median of {len(m['samples'])}: "
                        + " ".join(_fmt(s) for s in m["samples"]))
            print(f"     {name:<28} {_fmt(m['value']):>12} {m['unit']}{tail}")
    if row["open_loop"]:
        print("     generator_lateness_us                   0 us   "
              "(arrivals are simulated timestamps)")
    for note in row["notes"]:
        print(f"     {note}")
    if "per_layer" in row:
        print(f"   per-layer (traced run, {row['repetitions_traced']} traced "
              f"calls; top-level self share "
              f"{row['top_level_self_share']:.3f}):")
        for name, m in row["per_layer"].items():
            print(f"     {name:<40} {_fmt(m['value']):>12} {m['unit']}")
        for name in row["missing_counters"]:
            print(f"     {name:<40}      missing (trace layout changed?)")
    print(f"   digest: {row['digest']}")
    for c in row["checks"]:
        print(f"   [{'ok' if c['ok'] else 'FAIL'}] {c['name']} {c['detail']}")
    print(f"   attempted={row['attempted']} failed={row['failed']} "
          f"correct={row['correct']}")


def contract_line(row: dict, trace) -> str:
    """The driver's result object: end-to-end metrics untraced, per-layer
    metrics traced (both when neither was asked for)."""
    out = {}
    if trace in (None, 0):
        out.update(row["end_to_end"])
    if trace in (None, 1):
        out.update(row["per_layer"])
    return json.dumps({
        "correct": row["correct"],
        "attempted": row["attempted"],
        "failed": row["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in out.items()},
    })


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float,
                    default=float(metrics.CONTRACT["run_seconds"]),
                    help="length of each timed section")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None)
    ap.add_argument("--scale", choices=("default", "smoke"), default="default")
    ap.add_argument("--out", type=Path, help="write the full result as JSON")
    args = ap.parse_args(argv)

    if args.workload is None:
        return run_all(args)
    # A terminated run leaves through the same ``finally`` clauses as a
    # finished one: pools closed, segments unlinked, children waited for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        header = fingerprint(keep_freed_memory())
        print("host: " + json.dumps(header))
        row = run_workload(args.workload, args.seed, args.seconds, args.trace,
                           args.scale, header)
        print_row(row)
        if args.out:
            args.out.write_text(
                json.dumps({"header": header, "rows": [row]}, indent=1) + "\n")
    finally:
        stop_children()
    # The result line comes last, when no process of this run is left.
    print(contract_line(row, args.trace), flush=True)
    return 0 if row["correct"] else 1


def run_all(args) -> int:
    """Every workload, each in a process of its own — as the driver runs
    them — so that peak RSS and the allocator's state are the workload's
    own, not what the workloads before it left behind."""
    docs, failed = [], False
    for name in WORKLOADS:
        part = HERE / "out" / f"{name}.result.json"
        part.parent.mkdir(exist_ok=True)
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--scale", args.scale, "--out", str(part)]
        if args.trace is not None:
            cmd += ["--trace", str(args.trace)]
        sys.stdout.flush()
        failed |= subprocess.run(cmd).returncode != 0
        if part.exists():
            docs.append(json.loads(part.read_text()))
            part.unlink()
    if args.out and docs:
        args.out.write_text(json.dumps(
            {"header": docs[0]["header"],
             "rows": [row for doc in docs for row in doc["rows"]]},
            indent=1) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
