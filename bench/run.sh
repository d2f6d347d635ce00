#!/usr/bin/env bash
# Record one benchmark's JSON from a dedicated Release build.
#
#   bench/run.sh <bench> [out]
#
#   <bench>  kernel | lb | rebalance | scale | sync | wallclock
#   [out]    JSON to write (default BENCH_<bench>.json)
#   env      BUILD_DIR (default build-release); REPS (kernel, default 5)
#
# Configures and builds a dedicated Release tree (never reuses a debug
# build: recording one would publish numbers 10-50x off, and the bench
# binaries themselves refuse to run without NDEBUG), verifies the cache
# really says Release, then runs the bench. Every bench but kernel gates
# its own acceptance clauses and exits non-zero when one fails; that exit
# code is passed through verbatim:
#
#   lb         every policy drains >= 99% of requests, and in the degraded
#              fault epoch peak-EWMA and least-request both beat
#              round-robin's p99 latency. MASSF_LB_MAX_CLIENTS caps the
#              simulated users (CI smoke: 5000; default 100000).
#   rebalance  the adaptive run migrated at least once and reduced the
#              modeled max/mean engine-load imbalance vs static PROFILE on
#              both the post-drift segment and the whole run.
#   scale      hierarchical routing memory at 10^5 nodes is <= 10% of the
#              dense n^2 projection, the 10^3-node next hops are
#              bit-identical to the dense backend, every partition
#              balances within 2x, and (on hosts with >= 4 CPUs) the
#              routing build at 10^5 and 10^6 nodes keeps >= 2 cores busy
#              on average. MASSF_SCALE_MAX_NODES caps the largest scale
#              (CI smoke: 100000).
#   sync       the history hash is identical across all four (sync x exec)
#              configs and the dumbbell modeled speedup is >= 1.5.
#   wallclock  the history hash is identical across every sync x exec x
#              tuning configuration, and (on hosts with >= 4 CPUs) tuned
#              threaded execution reaches >= 1.0x sequential events/sec and
#              >= 2.0x the legacy threaded baseline at rings of >= 4 LPs.
#              MASSF_WALLCLOCK_SCALE scales the simulated horizon (CI
#              smoke: 0.25).
#   kernel     google-benchmark aggregates (median over REPS repetitions;
#              items_per_second is the events/sec figure). Run it on an
#              idle machine — threaded benchmarks measure real time.
set -euo pipefail

bench="${1:-}"
case "$bench" in
  kernel) target=bench_micro_kernel ;;
  lb) target=bench_lb_policies ;;
  rebalance) target=bench_ablation_rebalance ;;
  scale) target=bench_scale ;;
  sync) target=bench_micro_sync ;;
  wallclock) target=bench_wallclock ;;
  *)
    echo "usage: $0 {kernel|lb|rebalance|scale|sync|wallclock} [out]" >&2
    exit 2
    ;;
esac
OUT="${2:-BENCH_$bench.json}"
BUILD_DIR="${BUILD_DIR:-build-release}"
BIN="$BUILD_DIR/bench/$target"

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
if ! grep -q '^CMAKE_BUILD_TYPE:[A-Z]*=Release$' "$BUILD_DIR/CMakeCache.txt"; then
  echo "error: $BUILD_DIR is not a Release build; refusing to record." >&2
  echo "Use a fresh BUILD_DIR or reconfigure with -DCMAKE_BUILD_TYPE=Release." >&2
  exit 1
fi
cmake --build "$BUILD_DIR" --target "$target" -j >/dev/null

if [[ "$bench" != kernel ]]; then
  exec "$BIN" "$OUT"
fi

# kernel: a benchmark failure must both propagate its exit code (set -e)
# and leave no half-written .tmp behind; the committed JSON is mv'd
# before exit.
trap 'rm -f "$OUT".tmp' EXIT

"$BIN" \
  --benchmark_repetitions="${REPS:-5}" \
  --benchmark_report_aggregates_only=true \
  --benchmark_out="$OUT".tmp \
  --benchmark_out_format=json

# The google-benchmark context's "library_build_type" describes the
# installed benchmark *library*, not this binary. The binary stamps its own
# "binary_build_type" (from NDEBUG) into the context; refuse the JSON
# unless it says release.
if ! grep -q '"binary_build_type": *"release"' "$OUT".tmp; then
  echo "error: recorded JSON does not claim a release binary; discarding." >&2
  exit 1
fi
# Carry the recorded closure-path baseline (the event representation the
# kernel no longer has, so it cannot be re-measured) over from the
# previous file.
if [[ -f "$OUT" ]]; then
  python3 - "$OUT" "$OUT".tmp <<'PY'
import json, sys
old_path, new_path = sys.argv[1], sys.argv[2]
with open(old_path) as f:
    old = json.load(f)
if "historical_closure_baseline" in old:
    with open(new_path) as f:
        new = json.load(f)
    new["historical_closure_baseline"] = old["historical_closure_baseline"]
    with open(new_path, "w") as f:
        json.dump(new, f, indent=2)
        f.write("\n")
PY
fi
mv "$OUT".tmp "$OUT"
echo "wrote $OUT"
