#!/usr/bin/env python3
"""Judge run B against run A with each metric's own bound and direction.

    python3 benchmarks/e2e/compare.py A.json B.json

``A`` is the parent (or the first run of a self-agreement check), ``B`` the
change; each is a file written by ``run.py --out``, or several of them joined
by commas: one value per run.  Per workload row and end-to-end metric it
prints

* ``ok``          B's median is no worse than A's by more than the bound;
* ``regressed``   it is worse by more than the bound;
* ``unresolved``  A's own run-to-run spread (interquartile range over its
                  runs, as a share of their median) is wider than the bound,
                  and B is not better on every run — the runs cannot tell.
                  One run a side has no spread to show, so this needs
                  several.

Simulated statistics, recall and exact counts repeat exactly at a fixed
seed; when both sides used the same seed they are also reported as
``identical`` or ``differs``, per-layer ones included.  Exit code: 0 all ok,
1 something regressed, 2 nothing regressed but something is unresolved.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

import metrics


def load(arg: str) -> dict:
    """Rows of one or several result files, keyed by workload."""
    rows: dict = {}
    for path in arg.split(","):
        for row in json.loads(Path(path).read_text())["rows"]:
            rows.setdefault(row["workload"], []).append(row)
    return rows


def values(rows: list, section: str, name: str) -> list:
    return [row[section][name]["value"] for row in rows
            if name in row.get(section, {})]


def spread(runs: list, centre: float) -> float:
    if len(runs) < 2 or not centre:
        return 0.0
    q1, _, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return (q3 - q1) / abs(centre)


def judge(a: list, b: list, spec: dict) -> tuple[str, str]:
    lower = spec["better"] == "lower"
    ma, mb = statistics.median(a), statistics.median(b)
    worse = (mb - ma) if lower else (ma - mb)
    if not spec.get("abs"):
        worse = worse / abs(ma) if ma else (0.0 if worse == 0 else float("inf"))
    detail = f"A {ma:.6g}  B {mb:.6g}  worse by {worse:+.4f}  bound {spec['bound']}"
    own = spread(a, ma)
    if own > spec["bound"] and not spec.get("abs"):
        all_better = max(b) < min(a) if lower else min(b) > max(a)
        if not all_better:
            return "unresolved", f"{detail}  A's spread {own:.4f}"
    return ("regressed" if worse > spec["bound"] else "ok"), detail


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 64
    rows_a, rows_b = load(argv[0]), load(argv[1])
    specs = {**metrics.END_TO_END, **metrics.EXTRA}
    counts = {"ok": 0, "regressed": 0, "unresolved": 0}
    differs = 0
    for workload in rows_a:
        if workload not in rows_b:
            print(f"{workload}: missing from B")
            counts["unresolved"] += 1
            continue
        ra, rb = rows_a[workload], rows_b[workload]
        same_seed = {r["seed"] for r in ra} == {r["seed"] for r in rb}
        print(f"== {workload}" + ("" if same_seed else "  (seeds differ)"))
        for section in ("end_to_end", "extra"):
            for name in ra[0].get(section, {}):
                a, b = values(ra, section, name), values(rb, section, name)
                if not b:
                    continue
                spec = specs[name]
                status, detail = judge(a, b, spec)
                counts[status] += 1
                exact = ""
                if same_seed and metrics.is_deterministic(name, spec["unit"]):
                    exact = "  identical" if a == b else "  differs"
                    differs += a != b
                print(f"  {status:<10} {name:<28} {detail}{exact}")
        if same_seed and "per_layer" in ra[0] and "per_layer" in rb[0]:
            layer = [
                n for n, m in ra[0]["per_layer"].items()
                if metrics.is_deterministic(n, m["unit"])
            ]
            bad = [n for n in layer if values(ra, "per_layer", n)
                   != values(rb, "per_layer", n)]
            differs += len(bad)
            print(f"  per-layer simulated statistics and exact counts: "
                  f"{len(layer) - len(bad)} identical, {len(bad)} differ"
                  + "".join(f"\n    differs  {n}" for n in bad))
    print(f"ok {counts['ok']}  regressed {counts['regressed']}  "
          f"unresolved {counts['unresolved']}  "
          f"deterministic metrics that differ {differs}")
    return 1 if counts["regressed"] else 2 if counts["unresolved"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
