#!/usr/bin/env bash
# Record the million-node scalability benchmark to BENCH_scale.json.
#
#   BUILD_DIR=build-release OUT=BENCH_scale.json ./bench/run_scale_bench.sh
#
# Configures and builds a dedicated Release tree (never reuses a debug
# build: the binary itself also refuses to run without NDEBUG), verifies
# the cache really says Release, then runs bench_scale. The binary exits
# non-zero unless hierarchical routing memory at 10^5 nodes is <= 10% of
# the dense n² projection, the 10^3-node next hops are bit-identical to
# the dense backend, every partition balances within 2x, and (on hosts
# with >= 4 CPUs) the routing build at 10^5 and 10^6 nodes keeps >= 2
# cores busy on average (process CPU seconds / wall seconds >= 2.0).
# MASSF_SCALE_MAX_NODES caps the largest scale (CI smoke: 100000).
set -euo pipefail

BUILD_DIR="${BUILD_DIR:-build-release}"
OUT="${OUT:-BENCH_scale.json}"

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
if ! grep -q '^CMAKE_BUILD_TYPE:[A-Z]*=Release$' "$BUILD_DIR/CMakeCache.txt"; then
  echo "error: $BUILD_DIR is not a Release build; refusing to record." >&2
  echo "Use a fresh BUILD_DIR or reconfigure with -DCMAKE_BUILD_TYPE=Release." >&2
  exit 1
fi
cmake --build "$BUILD_DIR" --target bench_scale -j >/dev/null

# exec propagates the benchmark binary's exit code to the caller verbatim.
exec "$BUILD_DIR/bench/bench_scale" "$OUT"
