#!/usr/bin/env bash
# CI test entry point: lint, tier-1 suite, paper figures, golden fixtures,
# perf smoke, chaos smoke, e2e smoke.
#
#   scripts/test.sh            # everything
#   scripts/test.sh --tier1    # lint + unit/integration/property tests
#   scripts/test.sh --paper    # the 28 paper-figure / ablation / extension
#                              # tests (benchmarks/test_*.py, ~30 s) with
#                              # --benchmark-disable: each regenerates its
#                              # figure at small scale and asserts the
#                              # paper's result shape
#   scripts/test.sh --golden   # golden fixtures only (~15 s): run every
#                              # tests/golden/make_*.py generator in place,
#                              # then `git diff --exit-code -- tests/golden/`
#                              # — a generator that no longer rewrites its
#                              # fixture byte for byte fails here (fixtures
#                              # are frozen at parent commits; a change that
#                              # moves one on purpose regenerates it there)
#   scripts/test.sh --perf     # perf smoke only: search gate (~2 s; fails
#                              # if the lockstep engine loses to the
#                              # scalar oracle on wall clock) + build gate
#                              # (~40 s; build_nsw must beat the per-vertex
#                              # reference loop, tests/oracles.py, by >=3x
#                              # at n=20k and hold recall@10 within 0.01)
#                              # + quantized gate (~15 s; int8
#                              # traversal must beat float32 by >=1.5x
#                              # simulated GPU latency AND stay within 5 %
#                              # of its host wall clock (>=0.95x) on a
#                              # dim=960 corpus with recall@16 within
#                              # 0.02 — docs/performance.md) + load
#                              # gate (~5 s; a 2-replica fleet fed an
#                              # open-loop Poisson stream at half capacity
#                              # must keep p99 e2e within 20x the unloaded
#                              # mean service time and answer >=99% of
#                              # queries — docs/load_testing.md) + hybrid
#                              # gate (~30 s; at 3x memory oversubscription
#                              # the pilot+CPU-refine tier must be >=3x
#                              # faster simulated than the UM-spill
#                              # baseline at recall@10 within 0.02 and beat
#                              # a host-only greedy loop on wall clock —
#                              # docs/performance.md) + query-bubble gate
#                              # (~5 s; on a 10k-point CAGRA graph a 32-row
#                              # DynamicGraph.search_batch may cost at most
#                              # 4.8x the per-row host time of a 1024-row
#                              # one, best of 3 each: 3.3x measured + 1.5x
#                              # margin, so a per-round floor paid by every
#                              # lockstep round fails it — docs/performance.md)
#                              # + stream-rounds gate (~10 s; one
#                              # serve_while_update call of the stream_churn
#                              # shape — 10k x 128, CAGRA-12, ef 64, 1024
#                              # events, seed 1 — may run at most 2400
#                              # traced lockstep rounds: 1254 at the tuned
#                              # 8-CTA split with half-list seeds (1390
#                              # with two seeds a CTA), 2155 with
#                              # single-CTA reads, 4630 with one expansion
#                              # a cycle; exact counts, no margin —
#                              # docs/performance.md "Streaming epoch")
#                              # + stream-split gate (same call; its
#                              # simulated p50 service latency may be at
#                              # most 25 us: 17.63 us with every read split
#                              # over the tuner's 8 CTAs, 45.51 us with
#                              # single-CTA reads; the cost model is
#                              # deterministic, so no margin for noise)
#                              # + seeding gate (~15 s; an
#                              # online_small_batch-shaped ALGASSystem.serve
#                              # — 10k x 128, CAGRA-16, 1024 queries, 16
#                              # slots, l_total 128, seed 1 — may read a
#                              # simulated p50 of at most 24 us: 22.10 us
#                              # when every CTA seeds half its candidate
#                              # list, 26.63 us with two entries a CTA;
#                              # exact, no margin — docs/performance.md
#                              # "Seeding")
#                              # + search-threads gate (~25 s; a 1024-query
#                              # x 8-CTA search_all on a 10k-point CAGRA-16
#                              # graph with every core must equal the run
#                              # pinned to one CPU in ids, distances and
#                              # TraceBlock, and take at most 0.85x its wall
#                              # time, best of 3 each: 0.55-0.71x measured
#                              # on 2 cores + margin; skips on one core —
#                              # docs/performance.md "Multi-core execution")
#                              # + CAGRA set-up gate (~20 s; on the gist
#                              # 3k x 960 corpus at degree 32 the production
#                              # detour mask must equal the einsum reference
#                              # of tests/oracles.py edge for edge, beat it
#                              # by >=2.5x pinned to one CPU (4.7-5.3x
#                              # measured), and build_cagra with every core
#                              # must take at most 0.8x the one-CPU build
#                              # (0.54-0.58x measured), best of 3 each, with
#                              # identical CSR, BLAS on one thread; skips on
#                              # one core — docs/performance.md "Set-up")
#                              # + wave-build threads gate (~30 s;
#                              # build_nsw on sift1m-mini 20k x 128 with
#                              # every core must give the CSR of the build
#                              # with cores() patched to 1 and take at most
#                              # 0.90x its wall time, best of 3 a side,
#                              # each build in a fresh child process with
#                              # BLAS on one thread: 0.71-0.85x measured on
#                              # 2 cores; skips when cores() is 1 — the
#                              # sharded-serve speedup gate beside it skips
#                              # below 4 cores() — docs/performance.md
#                              # "Multi-core execution")
#                              # + telemetry-cost gate (~45 s; on the
#                              # online_small_batch shape — 10k x 128,
#                              # CAGRA-16, 1024 queries, 16 slots — a
#                              # telemetry-on ALGASSystem.serve may take at
#                              # most 1.10x a telemetry-off one, ratio of
#                              # the medians of 30 alternating pairs:
#                              # 0.96-1.09x measured on 2 cores, mostly
#                              # near 1.04x; 1.22x while every observation
#                              # was a registry lookup — docs/observability.md
#                              # "Cost")
#   scripts/test.sh --chaos    # chaos smoke only: (a) serve under the fixed
#                              # "smoke" fault plan (1 of 4 shards killed,
#                              # slots hung/corrupted, PCIe stalled) and
#                              # require >=99% of queries answered with no
#                              # deadlock; (b) serve-while-update under the
#                              # "update-storm" plan (5k-insert + 1k-delete
#                              # burst mid-serve, compaction barrier
#                              # stretched 6x) and require >=99% answered,
#                              # recall@16 within 0.02 of the frozen-graph
#                              # oracle, and zero tombstoned or duplicated
#                              # answers (docs/robustness.md); (c) the same
#                              # stream under "slot-hangs" (two hung slots
#                              # on every epoch engine), same SLOs
#   scripts/test.sh --e2e      # end-to-end benchmark smoke only (~3 min):
#                              # benchmarks/e2e/run.py at --scale smoke, all
#                              # five BENCHMARK.json workloads with their
#                              # self-checks, plus the runner's own smoke
#                              # test — an API change that breaks the
#                              # benchmark's frozen call surface fails here
#                              # instead of in the pipeline — plus a
#                              # same-seed determinism step: two untraced
#                              # smoke runs at --seed 0 fed to
#                              # benchmarks/e2e/compare.py must report
#                              # "deterministic metrics that differ 0"
#                              # (every simulated statistic, recall and
#                              # exact count repeats bit for bit)
#
# Claiming a host-wall gain in a PR description: measure parent and change
# with identical benchmark files, ten untraced runs a side, alternating
# which side goes first, seeds including one not used during development
# (A = a checkout of the parent commit, B = the change, R = a scratch dir):
#
#   for i in 1 2 ... 10; do       # on even i run B first
#     (cd A && python3 benchmarks/e2e/run.py --workload online_small_batch \
#        --seed $i --trace 0 --out R/A$i.json)
#     (cd B && python3 benchmarks/e2e/run.py --workload online_small_batch \
#        --seed $i --trace 0 --out R/B$i.json)
#   done
#   python3 benchmarks/e2e/compare.py R/A1.json,...,R/A10.json \
#                                     R/B1.json,...,R/B10.json
#
# scripts/bench_pairs.sh A B online_small_batch 10 is that loop as a script
# (alternating order, seeds 1..N, --trace 0, compare.py at the end, then
# host_wall_s per pair and the win count).
#
# Report both medians and quartiles, the pair wins (>= 9 of 10), and the
# "deterministic metrics that differ" count (must be 0 at equal seeds);
# one full run a side (no --trace) places the saving in the per-layer
# busy_s rows, and the other four workloads get the same treatment to show
# nothing else moved.
#
# Tools, not gates (nothing here runs them):
#   benchmarks/perf/peak_memory.py [--workload NAME] [--seed S]
#       one e2e workload's set-up three times and its call twice, the way
#       run.py --trace 0 does, in a fresh process; prints the ru_maxrss
#       increment of each stage (generate, ground truth, graph build,
#       codec fit, prepare, call), so a peak_rss_mb claim is attributed to
#       a stage (docs/performance.md "Set-up")
#   benchmarks/perf/round_cost.py stream|static
#       fits a lockstep round's host cost (docs/performance.md)
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

run_tier1=0 run_paper=0 run_golden=0 run_perf=0 run_chaos=0 run_e2e=0
case "${1:-}" in
  --tier1) run_tier1=1 ;;
  --paper) run_paper=1 ;;
  --golden) run_golden=1 ;;
  --perf) run_perf=1 ;;
  --chaos) run_chaos=1 ;;
  --e2e) run_e2e=1 ;;
  *) run_tier1=1 run_paper=1 run_golden=1 run_perf=1 run_chaos=1 run_e2e=1 ;;
esac

# Per-test watchdog: the resilience suite exercises hang/deadlock recovery,
# so a regression there can wedge the whole run.  pytest-timeout is
# optional (the container image does not ship it) — gate on availability,
# same pattern as the ruff and pytest-xdist probes below.
PYTEST_TIMEOUT_ARGS=()
if python -c "import pytest_timeout" >/dev/null 2>&1; then
  PYTEST_TIMEOUT_ARGS=(--timeout=300 --timeout-method=thread)
else
  echo "pytest-timeout not installed; running without per-test watchdog"
fi

if [ "$run_tier1" = 1 ]; then
  # Lint first (config in pyproject [tool.ruff]); skip when ruff is not
  # available — the container image does not ship it.
  if command -v ruff >/dev/null 2>&1; then
    ruff check src tests benchmarks
  elif python -c "import ruff" >/dev/null 2>&1; then
    python -m ruff check src tests benchmarks
  else
    echo "ruff not installed; skipping lint step"
  fi
  # Fan the suite across cores when pytest-xdist is available (optional,
  # like pytest-timeout above); fall back to the serial run otherwise.
  # -x is dropped under xdist: fail-fast and parallel dispatch interact
  # badly (workers keep finishing tests already in flight).
  PYTEST_DIST_ARGS=()
  if python -c "import xdist" >/dev/null 2>&1; then
    PYTEST_DIST_ARGS=(-n auto)
    echo "pytest-xdist available: running tier-1 with -n auto"
    python -m pytest -q "${PYTEST_DIST_ARGS[@]}" \
      ${PYTEST_TIMEOUT_ARGS[@]+"${PYTEST_TIMEOUT_ARGS[@]}"}
  else
    echo "pytest-xdist not installed; running tier-1 serially"
    python -m pytest -x -q ${PYTEST_TIMEOUT_ARGS[@]+"${PYTEST_TIMEOUT_ARGS[@]}"}
  fi
fi
if [ "$run_paper" = 1 ]; then
  python -m pytest benchmarks/test_*.py -q --benchmark-disable \
    ${PYTEST_TIMEOUT_ARGS[@]+"${PYTEST_TIMEOUT_ARGS[@]}"}
fi
if [ "$run_golden" = 1 ]; then
  for gen in tests/golden/make_*.py; do
    python -m "tests.golden.$(basename "$gen" .py)"
  done
  git diff --exit-code -- tests/golden/
fi
if [ "$run_perf" = 1 ]; then
  python -m pytest benchmarks/perf -m perf_smoke -q \
    ${PYTEST_TIMEOUT_ARGS[@]+"${PYTEST_TIMEOUT_ARGS[@]}"}
fi
if [ "$run_chaos" = 1 ]; then
  timeout 300 python -m repro chaos --plan smoke --mode sharded --gpus 4 \
    --n 2000 --queries 64 --batch 8 --k 8 --degree 12 --seed 0 \
    --min-completion 0.99
  # Update-storm smoke: streaming insert/delete churn under the
  # "update-storm" chaos plan (burst at t=30ms, compaction stall 6x).
  # 256 events at 3000 qps give an ~85 ms traffic horizon, so the storm
  # lands mid-serve.  Exit status enforces the degradation SLOs:
  # >=99% answered, recall@16 within 0.02 of the frozen-graph oracle,
  # zero tombstoned answers / duplicate rows / lost queries.
  timeout 300 python -m repro stream --plan update-storm \
    --n 6000 --queries 96 --events 256 --workload poisson:3000 \
    --insert-qps 3000 --delete-qps 1000 --k 16 --seed 1 \
    --min-answered 0.99 --max-recall-drop 0.02
  # The same stream with two slots hung on every epoch engine: the
  # watchdog retires and retries them, and the stitched report keeps the
  # epochs' defense ledger (the summary's "watchdog" line).
  timeout 300 python -m repro stream --plan slot-hangs \
    --n 6000 --queries 96 --events 256 --workload poisson:3000 \
    --insert-qps 3000 --delete-qps 1000 --k 16 --seed 1 \
    --min-answered 0.99 --max-recall-drop 0.02
fi
if [ "$run_e2e" = 1 ]; then
  python3 benchmarks/e2e/run.py --scale smoke
  python -m pytest benchmarks/e2e/test_e2e_smoke.py -q \
    ${PYTEST_TIMEOUT_ARGS[@]+"${PYTEST_TIMEOUT_ARGS[@]}"}
  # Same-seed determinism: host timings may wander (compare.py's exit code
  # judges those and is ignored here), deterministic metrics may not.
  det=benchmarks/e2e/out/determinism
  for side in a b; do
    python3 benchmarks/e2e/run.py --scale smoke --seed 0 --trace 0 \
      --seconds 1 --out "$det.$side.json" > /dev/null
  done
  verdict="$(python3 benchmarks/e2e/compare.py "$det.a.json" "$det.b.json" || true)"
  rm -f "$det.a.json" "$det.b.json"
  if ! grep -q "deterministic metrics that differ 0$" <<< "$verdict"; then
    echo "$verdict"
    echo "same-seed smoke runs disagree on a deterministic metric" >&2
    exit 1
  fi
  tail -n 1 <<< "$verdict"
fi
