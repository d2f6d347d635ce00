// The benchmark's three whole-experiment workloads (README.md): each runs
// topology → routing → mapping → emulation through the massf libraries'
// public functions, under spans from trace.hpp, and checks its outputs.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  bool traced = false;
  /// Tiny inputs for the benchmark's self-test; numbers are not comparable.
  bool smoke = false;
};

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

/// Everything one experiment run reports besides its spans.
struct Record {
  double load_imbalance = 0;
  /// KernelStats::coupled_time of the measured run.
  double modeled_time_s = 0;
  /// Failed operations over attempted ones (see README.md).
  double failed_share = 0;
  std::uint64_t history_hash = 0;
  /// lb-threaded traced runs: history_hash of the same scenario run
  /// Threaded (0 when not run).
  std::uint64_t threaded_history_hash = 0;
  /// Per-layer counters and derived values, keyed by metric name; every
  /// counter the runner knows is present (0 where its layer is not on the
  /// workload's path).
  std::map<std::string, double> stats;
  std::vector<Check> checks;
  /// Widest worker pool the run spawned (0 = single-threaded).
  int max_threads = 0;
};

/// Names accepted by run_workload.
const std::vector<std::string>& workload_names();

/// Run one whole experiment. Spans go to `tracer`: its "experiment" phase
/// covers exactly the measured wall time (setup + emulate); checks run
/// after it.
Record run_workload(const Options& options, Tracer& tracer);

}  // namespace perfbench
