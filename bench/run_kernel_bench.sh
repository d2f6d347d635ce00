#!/usr/bin/env bash
# Record the kernel microbenchmark to BENCH_kernel.json.
#
#   BUILD_DIR=build-release OUT=BENCH_kernel.json REPS=5 ./bench/run_kernel_bench.sh
#
# Configures and builds a dedicated Release tree, verifies the cache really
# says Release (recording a debug build would publish numbers 10-50x off),
# and only then runs the benchmark. Writes google-benchmark JSON aggregates
# (median over REPS repetitions); items_per_second is the events/sec
# figure. Run on an idle machine — threaded benchmarks measure real time.
set -euo pipefail

BUILD_DIR="${BUILD_DIR:-build-release}"
OUT="${OUT:-BENCH_kernel.json}"
REPS="${REPS:-5}"
BIN="$BUILD_DIR/bench/bench_micro_kernel"

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
if ! grep -q '^CMAKE_BUILD_TYPE:[A-Z]*=Release$' "$BUILD_DIR/CMakeCache.txt"; then
  echo "error: $BUILD_DIR is not a Release build; refusing to record." >&2
  echo "Use a fresh BUILD_DIR or reconfigure with -DCMAKE_BUILD_TYPE=Release." >&2
  exit 1
fi
cmake --build "$BUILD_DIR" --target bench_micro_kernel -j >/dev/null

# A benchmark failure must both propagate its exit code (set -e) and leave
# no half-written .tmp behind; the committed JSON is mv'd before exit.
trap 'rm -f "$OUT".tmp' EXIT

"$BIN" \
  --benchmark_repetitions="$REPS" \
  --benchmark_report_aggregates_only=true \
  --benchmark_out="$OUT".tmp \
  --benchmark_out_format=json

# The google-benchmark context's "library_build_type" describes the
# installed benchmark *library*, not this binary. The binary stamps its own
# "binary_build_type" (from NDEBUG) into the context; refuse the JSON
# unless it says release.
if ! grep -q '"binary_build_type": *"release"' "$OUT".tmp; then
  echo "error: recorded JSON does not claim a release binary; discarding." >&2
  rm -f "$OUT".tmp
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
