// Unit tests for the utility layer: RNG, statistics, tables, CSV, strings,
// and the spin-then-park waiting primitives.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/csv.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/spinwait.hpp"
#include "util/stats.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"

namespace massf {
namespace {

TEST(Rng, DeterministicGivenSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i)
    if (a() == b()) ++equal;
  EXPECT_LT(equal, 3);
}

TEST(Rng, NextBelowRespectsBound) {
  Rng rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
    for (int i = 0; i < 500; ++i) EXPECT_LT(rng.next_below(bound), bound);
  }
}

TEST(Rng, NextBelowCoversRange) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.next_below(10));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, NextIntInclusiveRange) {
  Rng rng(3);
  bool hit_lo = false, hit_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.next_int(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    hit_lo |= v == -2;
    hit_hi |= v == 2;
  }
  EXPECT_TRUE(hit_lo);
  EXPECT_TRUE(hit_hi);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, ExponentialMeanConverges) {
  Rng rng(11);
  Accumulator acc;
  for (int i = 0; i < 20000; ++i) acc.add(rng.next_exponential(3.0));
  EXPECT_NEAR(acc.mean(), 3.0, 0.12);
}

TEST(Rng, ParetoRespectsScaleFloor) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i)
    EXPECT_GE(rng.next_pareto(1.5, 10.0), 10.0);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(17);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, PickWeightedFollowsWeights) {
  Rng rng(19);
  std::vector<double> weights{0.0, 9.0, 1.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 10000; ++i) ++counts[rng.pick_weighted(weights)];
  EXPECT_EQ(counts[0], 0);
  EXPECT_GT(counts[1], counts[2] * 5);
}

TEST(Rng, MixSeedSpreads) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t a = 0; a < 30; ++a)
    for (std::uint64_t b = 0; b < 30; ++b) seen.insert(mix_seed(a, b));
  EXPECT_EQ(seen.size(), 900u);
}

TEST(Stats, AccumulatorBasics) {
  Accumulator acc;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.add(x);
  EXPECT_EQ(acc.count(), 8u);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  EXPECT_DOUBLE_EQ(acc.variance(), 4.0);
  EXPECT_DOUBLE_EQ(acc.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(acc.min(), 2.0);
  EXPECT_DOUBLE_EQ(acc.max(), 9.0);
}

TEST(Stats, NormalizedImbalanceZeroForUniform) {
  const std::vector<double> loads{5, 5, 5, 5};
  EXPECT_DOUBLE_EQ(normalized_imbalance(loads), 0.0);
}

TEST(Stats, NormalizedImbalanceMatchesHand) {
  const std::vector<double> loads{2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_NEAR(normalized_imbalance(loads), 2.0 / 5.0, 1e-12);
}

TEST(Stats, NormalizedImbalanceEmptyAndZero) {
  EXPECT_DOUBLE_EQ(normalized_imbalance({}), 0.0);
  const std::vector<double> zeros{0, 0, 0};
  EXPECT_DOUBLE_EQ(normalized_imbalance(zeros), 0.0);
}

TEST(Stats, MaxOverMean) {
  const std::vector<double> loads{1, 1, 4};
  EXPECT_DOUBLE_EQ(max_over_mean(loads), 2.0);
}

TEST(Stats, MovingAverageConstant) {
  const std::vector<double> xs(10, 3.0);
  for (double v : moving_average(xs, 2)) EXPECT_DOUBLE_EQ(v, 3.0);
}

TEST(Stats, MovingAverageWindowEdges) {
  const std::vector<double> xs{0, 10, 0, 0};
  const auto smooth = moving_average(xs, 1);
  EXPECT_DOUBLE_EQ(smooth[0], 5.0);         // (0+10)/2
  EXPECT_DOUBLE_EQ(smooth[1], 10.0 / 3.0);  // (0+10+0)/3
  EXPECT_DOUBLE_EQ(smooth[3], 0.0);
}

TEST(Stats, MovingAverageZeroWindowIsIdentity) {
  const std::vector<double> xs{1, 2, 3};
  EXPECT_EQ(moving_average(xs, 0), xs);
}

TEST(Table, RendersAligned) {
  Table t({"name", "value"});
  t.row().cell("alpha").cell(1.5, 1);
  t.row().cell("b").cell(std::size_t{22});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("alpha  1.5"), std::string::npos);
  EXPECT_NE(s.find("b      22"), std::string::npos);
}

TEST(Table, RejectsOverflowingRow) {
  Table t({"only"});
  t.row().cell("x");
  EXPECT_THROW(t.cell("y"), std::invalid_argument);
}

TEST(Table, PercentChange) {
  EXPECT_EQ(format_percent_change(100, 50), "-50.0%");
  EXPECT_EQ(format_percent_change(50, 100), "+100.0%");
  EXPECT_EQ(format_percent_change(0, 10), "n/a");
}

TEST(Csv, EscapesSpecials) {
  EXPECT_EQ(CsvWriter::escape("plain"), "plain");
  EXPECT_EQ(CsvWriter::escape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvWriter::escape("q\"q"), "\"q\"\"q\"");
}

TEST(Csv, RowWidthEnforced) {
  CsvWriter csv({"a", "b"});
  EXPECT_THROW(csv.add_row({"only-one"}), std::invalid_argument);
  csv.add_row({"1", "2"});
  EXPECT_EQ(csv.to_string(), "a,b\n1,2\n");
}

TEST(Strings, TrimAndSplit) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(split("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(split_whitespace("  a\t b \n"),
            (std::vector<std::string>{"a", "b"}));
}

TEST(Strings, ParseNumbers) {
  EXPECT_EQ(parse_int(" 42 "), 42);
  EXPECT_EQ(parse_int("-7"), -7);
  EXPECT_THROW(parse_int("4x"), std::invalid_argument);
  EXPECT_DOUBLE_EQ(parse_double("2.5e3"), 2500.0);
  EXPECT_THROW(parse_double("abc"), std::invalid_argument);
}

TEST(Strings, FormatHelpers) {
  EXPECT_EQ(format_bytes(1536), "1.5 KB");
  EXPECT_EQ(format_bandwidth(40e9), "40.0 Gb/s");
}

// ---- spin-then-park primitives (util/spinwait.hpp) -----------------------

// Branch-pinning: below the budget should_park spins and says no; at the
// budget it flips to yes (park allowed) and stays there until reset.
TEST(SpinWait, ParksExactlyAtBudget) {
  util::SpinWait spin(3, /*park_allowed=*/true);
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(spin.should_park()) << "iteration " << i;
  }
  EXPECT_EQ(spin.spun(), 3u);
  EXPECT_TRUE(spin.should_park());
  EXPECT_TRUE(spin.should_park());  // saturates, does not re-arm itself
  spin.reset();
  EXPECT_EQ(spin.spun(), 0u);
  EXPECT_FALSE(spin.should_park());
}

TEST(SpinWait, ZeroBudgetParksImmediately) {
  util::SpinWait spin(0, /*park_allowed=*/true);
  EXPECT_TRUE(spin.should_park());
}

// The legacy (park-disallowed) shape never asks to park: past the budget it
// degrades to yield-and-poll, which the caller observes as false forever.
TEST(SpinWait, ParkDisallowedDegradesToYield) {
  util::SpinWait spin(2, /*park_allowed=*/false);
  for (int i = 0; i < 16; ++i) EXPECT_FALSE(spin.should_park());
  EXPECT_EQ(spin.spun(), 2u);  // spin counter saturates at the budget
}

// A signal that races in between prepare() and park() must prevent the
// sleep entirely (the eventcount's lost-wakeup guarantee).
TEST(WaitSlot, SignalBeforeParkPreventsSleep) {
  util::WaitSlot slot;
  const std::uint32_t seen = slot.prepare();
  slot.signal();
  slot.park(seen);  // must return immediately — epoch moved past `seen`
  EXPECT_FALSE(slot.has_parked_waiter());
}

TEST(WaitSlot, CrossThreadWake) {
  util::WaitSlot slot;
  std::atomic<bool> ready{false};
  std::thread waiter([&] {
    util::SpinWait spin(64, /*park_allowed=*/true);
    while (!ready.load(std::memory_order_acquire)) {
      if (spin.should_park()) {
        const std::uint32_t seen = slot.prepare();
        if (!ready.load(std::memory_order_acquire)) slot.park(seen);
        spin.reset();
      }
    }
  });
  ready.store(true, std::memory_order_release);
  slot.signal();
  waiter.join();  // termination is the assertion: no lost wakeup
  EXPECT_FALSE(slot.has_parked_waiter());
}

// The completion step runs single-threaded between phases: a plain int
// incremented there is torn or lost if mutual exclusion ever breaks, and
// the final count pins one completion per phase.
TEST(SpinBarrier, CompletionRunsOncePerPhase) {
  constexpr int kThreads = 4;
  constexpr int kPhases = 50;
  int completions = 0;  // deliberately non-atomic
  util::SpinBarrier barrier(kThreads, [&] { ++completions; },
                            /*spin_budget=*/32, /*park_allowed=*/true);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&] {
      for (int p = 0; p < kPhases; ++p) barrier.arrive_and_wait();
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(completions, kPhases);
}

// Same barrier, legacy yield-spin shape (park disallowed) — the protocol
// bench_wallclock uses as its A/B baseline must also be correct.
TEST(SpinBarrier, ParkDisallowedStillSynchronizes) {
  constexpr int kThreads = 3;
  constexpr int kPhases = 20;
  int completions = 0;
  util::SpinBarrier barrier(kThreads, [&] { ++completions; },
                            /*spin_budget=*/8, /*park_allowed=*/false);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&] {
      for (int p = 0; p < kPhases; ++p) barrier.arrive_and_wait();
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(completions, kPhases);
}

// Each index owns one plain-int slot: a double visit shows up as a count of
// 2 here and as a data race under TSan. Per-worker states must add up to
// the count, and no more workers run than there are chunks.
TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  constexpr std::int64_t kChunk = 4;
  const std::int64_t cores =
      std::max<std::int64_t>(1, std::thread::hardware_concurrency());
  for (const std::int64_t count :
       {std::int64_t{0}, std::int64_t{1}, kChunk - 1, 64 * cores * kChunk + 3}) {
    std::vector<int> visits(static_cast<std::size_t>(count), 0);
    const std::vector<std::int64_t> per_worker = util::parallel_for(
        count, kChunk, std::int64_t{0}, [&](std::int64_t& n, std::int64_t i) {
          visits[static_cast<std::size_t>(i)]++;
          n++;
        });
    for (std::int64_t i = 0; i < count; ++i)
      ASSERT_EQ(visits[static_cast<std::size_t>(i)], 1)
          << "index " << i << " of " << count;
    std::int64_t total = 0;
    for (const std::int64_t n : per_worker) total += n;
    EXPECT_EQ(total, count);
    EXPECT_LE(static_cast<std::int64_t>(per_worker.size()),
              std::min(cores, (count + kChunk - 1) / kChunk));
  }
}

// A throwing body must surface on the caller as that exception — not as
// std::terminate from an unjoined thread — and only after every worker has
// left its body, so the caller's data is no longer in use.
TEST(ParallelFor, RethrowsOnCallerAfterJoiningWorkers) {
  constexpr std::int64_t kCount = 10000;
  std::atomic<int> in_body{0};
  std::atomic<int> calls{0};
  try {
    util::parallel_for(kCount, 2, 0, [&](int&, std::int64_t i) {
      in_body.fetch_add(1);
      calls.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::microseconds(50));
      in_body.fetch_sub(1);
      if (i == 37) throw std::runtime_error("body failed at 37");
    });
    FAIL() << "expected parallel_for to rethrow the body's exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "body failed at 37");
  }
  EXPECT_EQ(in_body.load(), 0);
  // Workers stop claiming chunks once one has failed.
  EXPECT_LT(calls.load(), kCount);
}

}  // namespace
}  // namespace massf
