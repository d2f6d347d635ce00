// Threaded determinism stress: a seeded random event storm across
// {1,2,4,8} LPs, run under every sync protocol with the batched outbox
// handoff and spin-then-park idle protocol enabled (the defaults), must
// reproduce the sequential history hash bit for bit — also mid-run, across
// a safepoint schedule that forces outbox drains and rendezvous (the
// machinery live rebalancing rides on).
//
// Registered with LABELS des so the des-faults-{tsan,asan,ubsan} presets
// run it: the SPSC run queues, WaitSlot parking, and SpinBarrier phases
// all get exercised under ThreadSanitizer on every CI run.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "des/kernel.hpp"
#include "closure_sink.hpp"
#include "util/rng.hpp"

namespace massf::des {
namespace {

constexpr double kLookahead = 1.0;
constexpr double kEnd = 200.0;

/// One self-perpetuating chain of events. The chain's RNG travels with it
/// (copied into each continuation), so its decisions depend only on the
/// seed and its own position in the chain — never on execution
/// interleaving. Each hop sprays local filler, sometimes bursts several
/// remote messages at once (exercising multi-event outbox runs), and then
/// forwards itself to a random LP.
void storm_hop(Kernel& kernel, ClosureSink& closures, int lps, Rng rng,
               int hops_left) {
  if (hops_left == 0) return;
  const double now = kernel.now();
  const int here = kernel.current_lp();

  // Local filler: 0–2 events inside the lookahead window.
  const int filler = static_cast<int>(rng.next_below(3));
  for (int f = 0; f < filler; ++f)
    closures.schedule(here, now + 0.1 * (f + 1), [] {});

  // Occasional remote burst: several messages to one destination in one
  // window, which a batching sender coalesces into a single run.
  if (lps > 1 && rng.next_below(4) == 0) {
    const int burst_dst = static_cast<int>(rng.next_below(
        static_cast<std::uint64_t>(lps)));
    if (burst_dst != here) {
      const int burst = 2 + static_cast<int>(rng.next_below(3));
      for (int b = 0; b < burst; ++b)
        closures.schedule_remote(burst_dst, now + kLookahead + 0.05 * b,
                                 [] {});
    }
  }

  // Forward the chain: random next LP (possibly self), random stride.
  const int next = static_cast<int>(rng.next_below(
      static_cast<std::uint64_t>(lps)));
  const double stride = kLookahead * (1.0 + 0.5 * rng.next_below(4));
  auto continuation = [&kernel, &closures, lps, rng, hops_left] {
    storm_hop(kernel, closures, lps, rng, hops_left - 1);
  };
  if (next == here)
    closures.schedule(here, now + stride, continuation);
  else
    closures.schedule_remote(next, now + stride, continuation);
}

struct StormResult {
  KernelStats stats;
  std::vector<double> safepoints_seen;
};

StormResult run_storm(int lps, ExecutionMode mode, SyncMode sync,
                      const KernelTuning& tuning = KernelTuning{}) {
  Kernel kernel(lps, kLookahead);
  kernel.set_sync_mode(sync);
  kernel.set_tuning(tuning);
  ClosureSink closures(kernel);
  // Safepoint schedule (a stand-in for a rebalance cadence): every
  // safepoint force-drains all outboxes and rendezvouses all workers.
  StormResult result;
  for (double sp : {40.0, 80.0, 120.0, 160.0}) kernel.add_safepoint(sp);
  kernel.set_safepoint_hook(
      [&result](double t) { result.safepoints_seen.push_back(t); });
  // Three chains per LP, seeds derived from (lp, chain) only.
  for (int lp = 0; lp < lps; ++lp) {
    for (int c = 0; c < 3; ++c) {
      Rng rng(static_cast<std::uint64_t>(lp) * 1000003u +
              static_cast<std::uint64_t>(c) * 7919u + 1);
      closures.schedule(lp, 0.1 * (lp + 1) + 0.01 * c,
                        [&kernel, &closures, lps, rng](/*chain start*/) {
                          storm_hop(kernel, closures, lps, rng, 60);
                        });
    }
  }
  kernel.run_until(kEnd, mode);
  result.stats = kernel.stats();
  return result;
}

class ThreadedStress : public ::testing::TestWithParam<int> {};

TEST_P(ThreadedStress, StormHistoryIdenticalAcrossSyncAndExecModes) {
  const int lps = GetParam();
  const StormResult base =
      run_storm(lps, ExecutionMode::Sequential, SyncMode::GlobalWindow);
  ASSERT_GT(base.stats.history_hash, 0u);
  ASSERT_EQ(base.safepoints_seen,
            (std::vector<double>{40.0, 80.0, 120.0, 160.0}));
  if (lps > 1) {
    ASSERT_GT(base.stats.remote_messages, 0u);
  }

  for (auto sync : {SyncMode::GlobalWindow, SyncMode::ChannelLookahead}) {
    for (auto mode : {ExecutionMode::Sequential, ExecutionMode::Threaded}) {
      if (sync == SyncMode::GlobalWindow && mode == ExecutionMode::Sequential)
        continue;  // that is `base`
      const StormResult got = run_storm(lps, mode, sync);
      SCOPED_TRACE(::testing::Message()
                   << lps << " LPs, sync=" << to_string(sync) << ", "
                   << (mode == ExecutionMode::Sequential ? "sequential"
                                                         : "threaded"));
      EXPECT_EQ(base.stats.history_hash, got.stats.history_hash);
      EXPECT_EQ(base.stats.events_per_lp, got.stats.events_per_lp);
      EXPECT_EQ(base.stats.remote_messages, got.stats.remote_messages);
      // Modeled time is a *sync-protocol* property (fewer barriers is
      // the entire point of ChannelLookahead, and its advance pattern is
      // wall-clock-dependent in Threaded mode); it is only required to
      // be execution-mode-invariant under GlobalWindow's fixed window
      // structure. The history assertions above bind everything else.
      if (sync == SyncMode::GlobalWindow) {
        EXPECT_NEAR(base.stats.modeled_time, got.stats.modeled_time, 1e-9);
      }
      EXPECT_EQ(base.safepoints_seen, got.safepoints_seen);
    }
  }
}

// The same storm under tuning extremes: an eager single-event flusher with
// the legacy yield-spin idle loop, and a maximal hoarder with pinned
// threads, both threaded, both sync modes — still the sequential history.
TEST_P(ThreadedStress, StormHistoryInvariantUnderTuningExtremes) {
  const int lps = GetParam();
  const StormResult base =
      run_storm(lps, ExecutionMode::Sequential, SyncMode::GlobalWindow);

  KernelTuning eager_legacy;
  eager_legacy.outbox_flush_events = 1;
  eager_legacy.park_on_idle = false;
  KernelTuning hoard_pinned;
  hoard_pinned.outbox_flush_events = 1u << 20;
  hoard_pinned.pin_threads = true;

  for (const KernelTuning& tuning : {eager_legacy, hoard_pinned}) {
    for (auto sync : {SyncMode::GlobalWindow, SyncMode::ChannelLookahead}) {
      const StormResult got =
          run_storm(lps, ExecutionMode::Threaded, sync, tuning);
      SCOPED_TRACE(::testing::Message()
                   << lps << " LPs, sync=" << to_string(sync) << ", flush="
                   << tuning.outbox_flush_events << ", park="
                   << tuning.park_on_idle);
      EXPECT_EQ(base.stats.history_hash, got.stats.history_hash);
      EXPECT_EQ(base.stats.events_per_lp, got.stats.events_per_lp);
      EXPECT_EQ(base.safepoints_seen, got.safepoints_seen);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(LpCounts, ThreadedStress,
                         ::testing::Values(1, 2, 4, 8));

}  // namespace
}  // namespace massf::des
