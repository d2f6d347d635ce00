// Fan-out of independent, index-addressed work over the host's cores.
//
// parallel_for runs body(state, i) for every i in [0, count). Workers claim
// `chunk` consecutive indices at a time from one atomic counter, so uneven
// items balance themselves; each worker owns a private copy of `init` for
// scratch buffers and counters. A body that writes only the output slots its
// index owns therefore produces the same bytes for any worker count and any
// claim order — the property the hierarchical routing build relies on.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <thread>
#include <vector>

#include "util/error.hpp"

namespace massf::util {

/// Calls body(state, i) once for each i in [0, count) on up to
/// std::thread::hardware_concurrency() workers, never more than there are
/// chunks; the calling thread is worker 0. Returns the workers' states once
/// every worker has joined, so callers can sum per-worker counters. If a body
/// throws, the other workers stop claiming chunks, all are joined, and the
/// exception (the lowest-numbered worker's, if several threw) is rethrown on
/// the caller.
template <class State, class Body>
std::vector<State> parallel_for(std::int64_t count, std::int64_t chunk,
                                const State& init, Body&& body) {
  MASSF_REQUIRE(chunk > 0, "parallel_for chunk must be positive");
  const std::int64_t chunks = count > 0 ? (count + chunk - 1) / chunk : 0;
  const std::int64_t cores =
      std::max<std::int64_t>(1, std::thread::hardware_concurrency());
  const auto workers = static_cast<std::size_t>(std::min(chunks, cores));

  std::vector<State> states(workers, init);
  std::vector<std::exception_ptr> errors(workers);
  alignas(64) std::atomic<std::int64_t> next{0};
  std::atomic<bool> failed{false};
  const auto work = [&](std::size_t w) {
    try {
      while (!failed.load(std::memory_order_relaxed)) {
        const std::int64_t lo = next.fetch_add(chunk, std::memory_order_relaxed);
        if (lo >= count) return;
        const std::int64_t hi = std::min(count, lo + chunk);
        for (std::int64_t i = lo; i < hi; ++i) body(states[w], i);
      }
    } catch (...) {
      errors[w] = std::current_exception();
      failed.store(true, std::memory_order_relaxed);
    }
  };
  {
    // jthread joins on destruction, so a failed spawn still joins the
    // workers already started before the exception leaves this scope.
    std::vector<std::jthread> threads;
    for (std::size_t w = 1; w < workers; ++w) threads.emplace_back(work, w);
    if (workers > 0) work(0);
  }
  for (const std::exception_ptr& error : errors)
    if (error) std::rethrow_exception(error);
  return states;
}

}  // namespace massf::util
