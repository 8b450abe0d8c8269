#!/usr/bin/env bash
# Parent-vs-change pairs of one end-to-end workload, judged by compare.py.
#
#   scripts/bench_pairs.sh <parent-checkout> <change-checkout> <workload> [pairs=10]
#
# The recipe a host-wall claim rests on (scripts/test.sh header): pair i
# runs benchmarks/e2e/run.py --workload <workload> --seed i --trace 0 once
# in each checkout, the change going first on even i, each checkout with
# its own benchmark files; then the change checkout's compare.py reads all
# the parent runs against all the change runs.  It prints both medians and
# quartiles per metric, and "deterministic metrics that differ" (must be 0:
# equal seeds on both sides), and its exit status is this script's: 0 ok,
# 1 regressed, 2 unresolved.  The last lines list host_wall_s per pair and
# how many pairs the change won (a claim needs >= 9 of 10).
#
# Results go to $BENCH_PAIRS_OUT (default: a fresh mktemp -d) as A<i>.json
# (parent) and B<i>.json (change); nothing is written inside the checkouts
# beyond what run.py itself leaves in benchmarks/e2e/out/.
set -euo pipefail

if [ $# -lt 3 ] || [ $# -gt 4 ]; then
  sed -n '2,5p' "$0" >&2
  exit 64
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
pairs=${4:-10}
out=${BENCH_PAIRS_OUT:-$(mktemp -d)}
mkdir -p "$out"
out=$(cd "$out" && pwd)

run_side() {  # <checkout> <letter> <seed>
  (cd "$1" && python3 benchmarks/e2e/run.py --workload "$workload" \
     --seed "$3" --trace 0 --out "$out/$2$3.json" >"$out/$2$3.log" 2>&1) ||
    { echo "run.py failed: see $out/$2$3.log" >&2; exit 1; }
}

a_files=() b_files=()
for i in $(seq 1 "$pairs"); do
  if [ $((i % 2)) = 0 ]; then
    run_side "$change" B "$i"; run_side "$parent" A "$i"
  else
    run_side "$parent" A "$i"; run_side "$change" B "$i"
  fi
  a_files+=("$out/A$i.json") b_files+=("$out/B$i.json")
  echo "pair $i of $pairs done" >&2
done

join() { local IFS=,; echo "$*"; }
status=0
python3 "$change/benchmarks/e2e/compare.py" \
  "$(join "${a_files[@]}")" "$(join "${b_files[@]}")" || status=$?

python3 - "$workload" "$out" "$pairs" <<'PY'
import json, sys
workload, out, pairs = sys.argv[1], sys.argv[2], int(sys.argv[3])
def wall(side, i):
    rows = json.load(open(f"{out}/{side}{i}.json"))["rows"]
    row = next(r for r in rows if r["workload"] == workload)
    return row["end_to_end"]["host_wall_s"]["value"]
wins = 0
for i in range(1, pairs + 1):
    a, b = wall("A", i), wall("B", i)
    wins += b < a
    print(f"pair {i:2d}: host_wall_s parent {a:8.4f} s  change {b:8.4f} s  ratio {b / a:5.3f}")
print(f"change faster in {wins} of {pairs} pairs; results in {out}")
PY
exit "$status"
