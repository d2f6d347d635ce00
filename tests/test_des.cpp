// Tests for the conservative parallel DES kernel: event ordering,
// lookahead enforcement, window accounting, and sequential/threaded
// equivalence.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "des/kernel.hpp"
#include "closure_sink.hpp"

namespace massf::des {
namespace {

TEST(Kernel, EventsRunInTimestampOrderPerLp) {
  Kernel kernel(1, 0.5);
  ClosureSink closures(kernel);
  std::vector<double> order;
  closures.schedule(0, 3.0, [&] { order.push_back(3.0); });
  closures.schedule(0, 1.0, [&] { order.push_back(1.0); });
  closures.schedule(0, 2.0, [&] { order.push_back(2.0); });
  kernel.run_until(10.0);
  EXPECT_EQ(order, (std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_EQ(kernel.stats().events_per_lp[0], 3u);
}

TEST(Kernel, SameTimeEventsRunInScheduleOrder) {
  Kernel kernel(1, 0.5);
  ClosureSink closures(kernel);
  std::vector<int> order;
  for (int i = 0; i < 5; ++i)
    closures.schedule(0, 1.0, [&order, i] { order.push_back(i); });
  kernel.run_until(10.0);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Kernel, ChildEventsInSameWindowRun) {
  Kernel kernel(1, 1.0);
  ClosureSink closures(kernel);
  std::vector<double> times;
  closures.schedule(0, 0.5, [&] {
    times.push_back(0.5);
    // Schedules within the current window: must still execute.
    // (now=0.5, window end >= 1.5 > 0.9)
  });
  kernel.run_until(10.0);
  EXPECT_EQ(times.size(), 1u);
}

TEST(Kernel, NowReflectsEventTime) {
  Kernel kernel(1, 0.5);
  ClosureSink closures(kernel);
  double seen = -1;
  closures.schedule(0, 2.25, [&] { seen = kernel.now(); });
  kernel.run_until(10.0);
  EXPECT_DOUBLE_EQ(seen, 2.25);
}

TEST(Kernel, EndTimeExcludesLaterEvents) {
  Kernel kernel(1, 0.5);
  ClosureSink closures(kernel);
  int ran = 0;
  closures.schedule(0, 1.0, [&] { ++ran; });
  closures.schedule(0, 5.0, [&] { ++ran; });
  kernel.run_until(5.0);  // strictly-before semantics
  EXPECT_EQ(ran, 1);
}

TEST(Kernel, RemoteNeedsLookahead) {
  Kernel kernel(2, 1.0);
  ClosureSink closures(kernel);
  bool violated_caught = false;
  closures.schedule(0, 1.0, [&] {
    try {
      closures.schedule_remote(1, 1.5, [] {});  // < now + lookahead
    } catch (const std::invalid_argument&) {
      violated_caught = true;
    }
  });
  kernel.run_until(10.0);
  EXPECT_TRUE(violated_caught);
}

TEST(Kernel, RemoteDeliveryExecutes) {
  Kernel kernel(2, 1.0);
  ClosureSink closures(kernel);
  double delivered_at = -1;
  closures.schedule(0, 1.0, [&] {
    closures.schedule_remote(1, 2.5, [&] { delivered_at = kernel.now(); });
  });
  kernel.run_until(10.0);
  EXPECT_DOUBLE_EQ(delivered_at, 2.5);
  EXPECT_EQ(kernel.stats().remote_messages, 1u);
  EXPECT_EQ(kernel.stats().events_per_lp[1], 1u);
}

TEST(Kernel, ScheduleDuringRunOnlyTargetsOwnLp) {
  Kernel kernel(2, 1.0);
  ClosureSink closures(kernel);
  bool caught = false;
  closures.schedule(0, 1.0, [&] {
    try {
      closures.schedule(1, 5.0, [] {});
    } catch (const std::invalid_argument&) {
      caught = true;
    }
  });
  kernel.run_until(10.0);
  EXPECT_TRUE(caught);
}

TEST(Kernel, CannotScheduleIntoPast) {
  Kernel kernel(1, 1.0);
  ClosureSink closures(kernel);
  bool caught = false;
  closures.schedule(0, 2.0, [&] {
    try {
      closures.schedule(0, 1.0, [] {});
    } catch (const std::invalid_argument&) {
      caught = true;
    }
  });
  kernel.run_until(10.0);
  EXPECT_TRUE(caught);
}

TEST(Kernel, IdleSpansAreSkipped) {
  // Two events 1000 lookaheads apart must not cost 1000 windows.
  Kernel kernel(1, 1.0);
  ClosureSink closures(kernel);
  closures.schedule(0, 0.0, [] {});
  closures.schedule(0, 1000.0, [] {});
  kernel.run_until(2000.0);
  EXPECT_LE(kernel.stats().windows, 4u);
}

TEST(Kernel, ModeledTimeTracksCostModel) {
  CostModel cost;
  cost.per_event = 1e-3;
  cost.per_remote_message = 0;
  cost.per_window_sync = 1e-2;
  Kernel kernel(1, 1.0, cost);
  ClosureSink closures(kernel);
  for (int i = 0; i < 10; ++i) closures.schedule(0, 0.5, [] {});
  kernel.run_until(10.0);
  // One window: 10 events * 1ms + 1 sync * 10ms.
  EXPECT_NEAR(kernel.stats().modeled_time, 10 * 1e-3 + 1e-2, 1e-12);
  EXPECT_EQ(kernel.stats().windows, 1u);
}

TEST(Kernel, LoadSeriesBucketsBySimTime) {
  Kernel kernel(1, 10.0);
  ClosureSink closures(kernel);
  kernel.set_bucket_width(1.0);
  closures.schedule(0, 0.5, [] {});
  closures.schedule(0, 2.5, [] {});
  closures.schedule(0, 2.75, [] {});
  kernel.run_until(10.0);
  const auto& series = kernel.stats().load_series[0];
  ASSERT_GE(series.size(), 3u);
  EXPECT_DOUBLE_EQ(series[0], 1.0);
  EXPECT_DOUBLE_EQ(series[1], 0.0);
  EXPECT_DOUBLE_EQ(series[2], 2.0);
}

TEST(Kernel, RunTwiceRejected) {
  Kernel kernel(1, 1.0);
  ClosureSink closures(kernel);
  closures.schedule(0, 0.5, [] {});
  kernel.run_until(1.0);
  EXPECT_THROW(kernel.run_until(2.0), std::invalid_argument);
}

TEST(Kernel, ThreadedExceptionPropagates) {
  Kernel kernel(2, 1.0);
  ClosureSink closures(kernel);
  closures.schedule(0, 0.5, [] { throw std::runtime_error("boom"); });
  closures.schedule(1, 0.5, [] {});
  EXPECT_THROW(kernel.run_until(10.0, ExecutionMode::Threaded),
               std::runtime_error);
}

/// Build a deterministic ping-pong workload across `lps` LPs and return the
/// kernel stats after running in the given mode.
KernelStats pingpong(int lps, ExecutionMode mode,
                     SyncMode sync = SyncMode::GlobalWindow,
                     const KernelTuning& tuning = KernelTuning{}) {
  Kernel kernel(lps, 1.0);
  ClosureSink closures(kernel);
  kernel.set_sync_mode(sync);
  kernel.set_tuning(tuning);
  // Self-perpetuating chains: each LP forwards a token around the ring,
  // also scheduling local work.
  std::function<void(int, int)> hop = [&](int lp, int hops_left) {
    if (hops_left == 0) return;
    const double now = kernel.now();
    closures.schedule(lp, now + 0.25, [] {});  // local filler
    const int next = (lp + 1) % lps;
    auto continuation = [&hop, next, hops_left] { hop(next, hops_left - 1); };
    if (next == lp)
      closures.schedule(lp, now + 1.0, continuation);
    else
      closures.schedule_remote(next, now + 1.0, continuation);
  };
  for (int lp = 0; lp < lps; ++lp)
    closures.schedule(lp, 0.1 * (lp + 1), [&hop, lp] { hop(lp, 40); });
  kernel.run_until(1e6, mode);
  return kernel.stats();
}

class ModeEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(ModeEquivalence, SequentialAndThreadedIdentical) {
  const int lps = GetParam();
  const KernelStats seq = pingpong(lps, ExecutionMode::Sequential);
  const KernelStats thr = pingpong(lps, ExecutionMode::Threaded);
  EXPECT_EQ(seq.history_hash, thr.history_hash);
  EXPECT_EQ(seq.events_per_lp, thr.events_per_lp);
  EXPECT_EQ(seq.remote_messages, thr.remote_messages);
  EXPECT_EQ(seq.windows, thr.windows);
  EXPECT_NEAR(seq.modeled_time, thr.modeled_time, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(LpCounts, ModeEquivalence,
                         ::testing::Values(1, 2, 3, 4, 8));

// ---- Typed packet-event path ---------------------------------------------

/// Pool-like stable storage for hop records referenced by PacketEvents.
struct HopRecord {
  int lp = 0;
  int hops_left = 0;
};

/// Sink that forwards each hop to the next LP (remote) or reschedules
/// locally, mimicking the emulator's packet-train hop chains. A null
/// payload is a second event kind: local filler that does nothing.
class ForwardingSink : public EventSink {
 public:
  ForwardingSink(Kernel& kernel, int lps) : kernel_(kernel), lps_(lps) {}

  void on_packet_event(const PacketEvent& event) override {
    auto* rec = static_cast<HopRecord*>(event.payload);
    if (rec == nullptr || --rec->hops_left <= 0) return;
    const double now = kernel_.now();
    // Local filler: hop and filler events must interleave
    // deterministically.
    kernel_.schedule_packet(rec->lp, now + 0.25, {nullptr, rec->lp});
    const int next = (rec->lp + 1) % lps_;
    if (next == rec->lp) {
      kernel_.schedule_packet(rec->lp, now + 1.0, {rec, rec->lp});
    } else {
      rec->lp = next;
      kernel_.schedule_packet_remote(next, now + 1.0, {rec, next});
    }
  }

 private:
  Kernel& kernel_;
  int lps_;
};

TEST(KernelPacket, RequiresSinkRegistration) {
  Kernel kernel(1, 1.0);
  EXPECT_THROW(kernel.schedule_packet(0, 0.5, PacketEvent{}),
               std::invalid_argument);
}

TEST(KernelPacket, DispatchesToSinkWithContext) {
  Kernel kernel(2, 1.0);

  class Probe : public EventSink {
   public:
    explicit Probe(Kernel& k) : kernel_(k) {}
    void on_packet_event(const PacketEvent& event) override {
      seen_payload = event.payload;
      seen_node = event.node;
      seen_time = kernel_.now();
      seen_lp = kernel_.current_lp();
    }
    Kernel& kernel_;
    void* seen_payload = nullptr;
    std::int32_t seen_node = -1;
    double seen_time = -1;
    int seen_lp = -1;
  };

  Probe probe(kernel);
  kernel.set_event_sink(&probe);
  int payload = 7;
  kernel.schedule_packet(1, 2.5, {&payload, 42});
  kernel.run_until(10.0);
  EXPECT_EQ(probe.seen_payload, &payload);
  EXPECT_EQ(probe.seen_node, 42);
  EXPECT_DOUBLE_EQ(probe.seen_time, 2.5);
  EXPECT_EQ(probe.seen_lp, 1);
  EXPECT_EQ(kernel.stats().events_per_lp[1], 1u);
}

TEST(KernelPacket, RemotePacketNeedsLookahead) {
  Kernel kernel(2, 1.0);
  ClosureSink closures(kernel);
  bool caught = false;
  closures.schedule(0, 1.0, [&] {
    try {
      kernel.schedule_packet_remote(1, 1.5, PacketEvent{});
    } catch (const std::invalid_argument&) {
      caught = true;
    }
  });
  kernel.run_until(10.0);
  EXPECT_TRUE(caught);
}

TEST(KernelPacket, BulkFanInExecutesInTimestampOrder) {
  // Many remote events landing on one LP in a single window exercise the
  // bulk sorted-run drain; order must still be exact.
  const int senders = 7, per_sender = 23;
  Kernel kernel(senders + 1, 1.0);
  std::vector<double> order;

  std::vector<HopRecord> records(
      static_cast<std::size_t>(senders * per_sender));

  /// Null payload: sender kick-off on LP s + 1; otherwise a delivery.
  class Recorder : public EventSink {
   public:
    Recorder(Kernel& k, std::vector<double>& out,
             std::vector<HopRecord>& records)
        : kernel_(k), out_(out), records_(records) {}
    void on_packet_event(const PacketEvent& event) override {
      if (event.payload != nullptr) {
        out_.push_back(kernel_.now());
        return;
      }
      const int s = kernel_.current_lp() - 1;
      for (int i = 0; i < per_sender; ++i) {
        auto* rec = &records_[static_cast<std::size_t>(s * per_sender + i)];
        // Deliberately interleaved timestamps across senders.
        kernel_.schedule_packet_remote(0, 2.0 + 0.01 * i + 0.001 * s,
                                       {rec, 0});
      }
    }
    Kernel& kernel_;
    std::vector<double>& out_;
    std::vector<HopRecord>& records_;
  };
  Recorder recorder(kernel, order, records);
  kernel.set_event_sink(&recorder);

  for (int s = 0; s < senders; ++s)
    kernel.schedule_packet(s + 1, 0.5, {nullptr, s + 1});
  kernel.run_until(10.0);
  ASSERT_EQ(order.size(), static_cast<std::size_t>(senders * per_sender));
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
  EXPECT_EQ(kernel.stats().remote_messages,
            static_cast<std::uint64_t>(senders * per_sender));
}

/// Packet-path analogue of pingpong(): hop chains forwarded by the sink,
/// with filler events interleaved.
KernelStats packet_pingpong(int lps, ExecutionMode mode,
                            SyncMode sync = SyncMode::GlobalWindow) {
  Kernel kernel(lps, 1.0);
  kernel.set_sync_mode(sync);
  ForwardingSink sink(kernel, lps);
  kernel.set_event_sink(&sink);
  std::vector<HopRecord> records(static_cast<std::size_t>(2 * lps));
  for (int lp = 0; lp < lps; ++lp) {
    for (int c = 0; c < 2; ++c) {
      auto* rec = &records[static_cast<std::size_t>(2 * lp + c)];
      *rec = {lp, 40};
      kernel.schedule_packet(lp, 0.1 * (lp + 1) + 0.05 * c, {rec, lp});
    }
  }
  kernel.run_until(1e6, mode);
  return kernel.stats();
}

class PacketModeEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(PacketModeEquivalence, SequentialAndThreadedIdentical) {
  const int lps = GetParam();
  const KernelStats seq = packet_pingpong(lps, ExecutionMode::Sequential);
  const KernelStats thr = packet_pingpong(lps, ExecutionMode::Threaded);
  EXPECT_EQ(seq.history_hash, thr.history_hash);
  EXPECT_EQ(seq.events_per_lp, thr.events_per_lp);
  EXPECT_EQ(seq.remote_messages, thr.remote_messages);
  EXPECT_EQ(seq.windows, thr.windows);
  EXPECT_NEAR(seq.modeled_time, thr.modeled_time, 1e-9);
  EXPECT_EQ(seq.load_series, thr.load_series);
}

INSTANTIATE_TEST_SUITE_P(LpCounts, PacketModeEquivalence,
                         ::testing::Values(1, 2, 3, 4, 8));

// ---- SyncMode::ChannelLookahead ------------------------------------------

TEST(ChannelSync, ValidationRejectsBadRegistrations) {
  Kernel kernel(3, 1.0);
  ClosureSink closures(kernel);
  // Lookahead below the global minimum would let a channel undercut the
  // safety bound every other channel assumes.
  EXPECT_THROW(kernel.set_channel_lookahead(0, 1, 0.5),
               std::invalid_argument);
  EXPECT_THROW(kernel.set_channel_lookahead(0, 0, 2.0),
               std::invalid_argument);
  EXPECT_THROW(kernel.set_channel_lookahead(0, 3, 2.0),
               std::invalid_argument);
  EXPECT_THROW(kernel.set_channel_lookahead(-1, 1, 2.0),
               std::invalid_argument);
  kernel.set_channel_lookahead(0, 1, 2.0);
  closures.schedule(0, 0.1, [] {});
  kernel.run_until(1.0);
  EXPECT_THROW(kernel.set_channel_lookahead(1, 0, 2.0),
               std::invalid_argument);
}

TEST(ChannelSync, LookaheadAccessorSemantics) {
  Kernel kernel(3, 1.0);
  // Nothing registered: every pair is implicitly at the global lookahead.
  EXPECT_DOUBLE_EQ(kernel.channel_lookahead(0, 1), 1.0);
  kernel.set_channel_lookahead(0, 1, 2.5);
  EXPECT_DOUBLE_EQ(kernel.channel_lookahead(0, 1), 2.5);
  // Registered graph is now authoritative: absent pairs have no channel.
  EXPECT_EQ(kernel.channel_lookahead(1, 0), Kernel::never());
  // Re-registration overwrites.
  kernel.set_channel_lookahead(0, 1, 3.0);
  EXPECT_DOUBLE_EQ(kernel.channel_lookahead(0, 1), 3.0);
}

TEST(ChannelSync, RemoteSendValidatesAgainstChannelLookahead) {
  Kernel kernel(2, 1.0);
  ClosureSink closures(kernel);
  kernel.set_channel_lookahead(0, 1, 2.0);
  kernel.set_channel_lookahead(1, 0, 1.0);
  bool tight_caught = false;
  double delivered_at = -1;
  closures.schedule(0, 1.0, [&] {
    // Legal under the global lookahead (1.0) but not under this channel's.
    try {
      closures.schedule_remote(1, 2.5, [] {});
    } catch (const std::invalid_argument&) {
      tight_caught = true;
    }
    closures.schedule_remote(1, 3.0, [&] { delivered_at = kernel.now(); });
  });
  kernel.run_until(10.0);
  EXPECT_TRUE(tight_caught);
  EXPECT_DOUBLE_EQ(delivered_at, 3.0);
}

TEST(ChannelSync, SendOnUnregisteredPairRejected) {
  Kernel kernel(3, 1.0);
  ClosureSink closures(kernel);
  kernel.set_channel_lookahead(0, 1, 1.0);
  bool caught = false;
  closures.schedule(0, 1.0, [&] {
    try {
      closures.schedule_remote(2, 5.0, [] {});
    } catch (const std::invalid_argument&) {
      caught = true;
    }
  });
  kernel.run_until(2.0);
  EXPECT_TRUE(caught);
}

/// All four (sync mode × execution mode) combinations must execute the
/// exact same per-LP event history: the conservative schedule never changes
/// which events run or their per-LP order, only when they become safe.
class ChannelModeEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(ChannelModeEquivalence, HistoryIdenticalAcrossProtocolsAndModes) {
  const int lps = GetParam();
  const KernelStats global_seq = pingpong(lps, ExecutionMode::Sequential);
  const KernelStats chan_seq = pingpong(lps, ExecutionMode::Sequential,
                                        SyncMode::ChannelLookahead);
  const KernelStats chan_thr = pingpong(lps, ExecutionMode::Threaded,
                                        SyncMode::ChannelLookahead);
  EXPECT_EQ(global_seq.history_hash, chan_seq.history_hash);
  EXPECT_EQ(global_seq.history_hash, chan_thr.history_hash);
  EXPECT_EQ(global_seq.events_per_lp, chan_seq.events_per_lp);
  EXPECT_EQ(global_seq.events_per_lp, chan_thr.events_per_lp);
  EXPECT_EQ(global_seq.remote_messages, chan_seq.remote_messages);
  EXPECT_EQ(global_seq.remote_messages, chan_thr.remote_messages);
  EXPECT_EQ(chan_seq.load_series, chan_thr.load_series);
  // Busy totals are sync-mode-invariant (same events, same messages).
  for (std::size_t i = 0; i < global_seq.busy_per_lp.size(); ++i)
    EXPECT_NEAR(global_seq.busy_per_lp[i], chan_seq.busy_per_lp[i], 1e-12);
  // Channel mode has no windows; it advances per-LP instead.
  EXPECT_EQ(chan_seq.windows, 0u);
  EXPECT_EQ(chan_thr.windows, 0u);
  EXPECT_GT(chan_seq.channel_advances, 0u);
  EXPECT_GT(chan_thr.channel_advances, 0u);
  EXPECT_EQ(chan_seq.sync_mode, SyncMode::ChannelLookahead);
}

INSTANTIATE_TEST_SUITE_P(LpCounts, ChannelModeEquivalence,
                         ::testing::Values(1, 2, 3, 4, 8));

class PacketChannelModeEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(PacketChannelModeEquivalence, HistoryIdenticalAcrossProtocolsAndModes) {
  const int lps = GetParam();
  const KernelStats global_seq = packet_pingpong(lps, ExecutionMode::Sequential);
  const KernelStats chan_seq = packet_pingpong(lps, ExecutionMode::Sequential,
                                               SyncMode::ChannelLookahead);
  const KernelStats chan_thr = packet_pingpong(lps, ExecutionMode::Threaded,
                                               SyncMode::ChannelLookahead);
  EXPECT_EQ(global_seq.history_hash, chan_seq.history_hash);
  EXPECT_EQ(global_seq.history_hash, chan_thr.history_hash);
  EXPECT_EQ(global_seq.events_per_lp, chan_seq.events_per_lp);
  EXPECT_EQ(global_seq.events_per_lp, chan_thr.events_per_lp);
  EXPECT_EQ(global_seq.remote_messages, chan_seq.remote_messages);
  EXPECT_EQ(global_seq.remote_messages, chan_thr.remote_messages);
  EXPECT_EQ(chan_seq.load_series, chan_thr.load_series);
}

INSTANTIATE_TEST_SUITE_P(LpCounts, PacketChannelModeEquivalence,
                         ::testing::Values(1, 2, 3, 4, 8));

/// Tokens that hop forever, half the time to another LP: a run cut off by
/// end_time always leaves events pending and mail in flight. Each LP counts
/// the remote sends it makes in its own slot.
class EndlessSink : public EventSink {
 public:
  EndlessSink(Kernel& kernel, int lps)
      : kernel_(kernel), lps_(lps), sent_(static_cast<std::size_t>(lps), 0) {}

  void on_packet_event(const PacketEvent& event) override {
    const int lp = kernel_.current_lp();
    const double now = kernel_.now();
    const auto salt = static_cast<std::uint64_t>(event.node) * 0x9e3779b97f4a7c15ULL +
                      static_cast<std::uint64_t>(now * 64.0);
    if (lps_ > 1 && (salt >> 17) % 2 == 0) {
      const int dst = (lp + 1 + static_cast<int>((salt >> 23) %
                                                 static_cast<unsigned>(lps_ - 1))) %
                      lps_;
      kernel_.schedule_packet_remote(
          dst, now + kernel_.channel_lookahead(lp, dst) + 0.125, event);
      ++sent_[static_cast<std::size_t>(lp)];
    } else {
      kernel_.schedule_packet(lp, now + 0.25, event);
    }
  }

  std::uint64_t sent() const {
    std::uint64_t total = 0;
    for (std::uint64_t s : sent_) total += s;
    return total;
  }

 private:
  Kernel& kernel_;
  int lps_;
  std::vector<std::uint64_t> sent_;
};

TEST(KernelStatsDeterminism, RemoteMessagesCountSendsWhenEventsRemainPending) {
  for (const int lps : {2, 3, 4}) {
    std::uint64_t expected = 0;
    for (const SyncMode sync : {SyncMode::GlobalWindow, SyncMode::ChannelLookahead}) {
      for (const ExecutionMode exec : {ExecutionMode::Sequential, ExecutionMode::Threaded}) {
        // Threaded runs repeat: what they count must not depend on timing.
        for (int rep = 0; rep < (exec == ExecutionMode::Threaded ? 5 : 1); ++rep) {
          SCOPED_TRACE(::testing::Message() << lps << " LPs, " << to_string(sync)
                                            << ", exec " << static_cast<int>(exec)
                                            << ", rep " << rep);
          Kernel kernel(lps, 1.0);
          kernel.set_sync_mode(sync);
          EndlessSink sink(kernel, lps);
          kernel.set_event_sink(&sink);
          for (int n = 0; n < 16; ++n)
            kernel.schedule_packet(n % lps, 0.0625 * n, {nullptr, n});
          kernel.run_until(40.0, exec);
          const std::uint64_t got = kernel.stats().remote_messages;
          EXPECT_EQ(got, sink.sent());
          if (expected == 0) expected = got;
          EXPECT_EQ(got, expected);
        }
      }
    }
    EXPECT_GT(expected, 0u);
  }
}

// ---- Outbox flush threshold (KernelTuning, branch-pinning) ---------------
//
// In Sequential ChannelLookahead the flush schedule is deterministic, so
// stats().handoff_runs is an exact observable for the threshold branch in
// flush_channels: threshold 1 publishes every dirty slot every advance
// (the below-threshold hoard branch is never taken), a huge threshold
// publishes only on forced flushes (the at-threshold branch is never met).

TEST(OutboxTuning, EagerFlushProducesMoreRunsThanHoarding) {
  KernelTuning eager;
  eager.outbox_flush_events = 1;
  KernelTuning hoarder;
  hoarder.outbox_flush_events = 1u << 20;
  const KernelStats e = pingpong(4, ExecutionMode::Sequential,
                                 SyncMode::ChannelLookahead, eager);
  const KernelStats h = pingpong(4, ExecutionMode::Sequential,
                                 SyncMode::ChannelLookahead, hoarder);
  EXPECT_GT(e.handoff_runs, 0u);
  EXPECT_GT(h.handoff_runs, 0u);  // forced flushes still publish everything
  EXPECT_GT(e.handoff_runs, h.handoff_runs);
  // A run carries at least one event, so runs never exceed messages.
  EXPECT_LE(e.handoff_runs, e.remote_messages);
  // Batching changes how events travel, never which events exist.
  EXPECT_EQ(e.history_hash, h.history_hash);
  EXPECT_EQ(e.events_per_lp, h.events_per_lp);
  EXPECT_EQ(e.remote_messages, h.remote_messages);
}

TEST(OutboxTuning, FlushScheduleIsDeterministic) {
  const KernelStats a = pingpong(4, ExecutionMode::Sequential,
                                 SyncMode::ChannelLookahead);
  const KernelStats b = pingpong(4, ExecutionMode::Sequential,
                                 SyncMode::ChannelLookahead);
  EXPECT_EQ(a.handoff_runs, b.handoff_runs);
  EXPECT_EQ(a.history_hash, b.history_hash);
}

// The wall-clock knobs must be invisible in the history: every tuning
// extreme (eager vs hoarding flush, park vs legacy yield idle, pinned
// threads) reproduces the untuned GlobalWindow/Sequential hash in both
// sync modes and both execution modes.
TEST(OutboxTuning, HistoryInvariantAcrossTuningExtremes) {
  const int lps = 4;
  const KernelStats base = pingpong(lps, ExecutionMode::Sequential);

  KernelTuning eager_legacy;
  eager_legacy.outbox_flush_events = 1;
  eager_legacy.park_on_idle = false;
  KernelTuning hoard_pinned;
  hoard_pinned.outbox_flush_events = 1u << 20;
  hoard_pinned.pin_threads = true;

  for (const KernelTuning& tuning : {eager_legacy, hoard_pinned}) {
    for (auto sync : {SyncMode::GlobalWindow, SyncMode::ChannelLookahead}) {
      for (auto mode :
           {ExecutionMode::Sequential, ExecutionMode::Threaded}) {
        const KernelStats got = pingpong(lps, mode, sync, tuning);
        EXPECT_EQ(base.history_hash, got.history_hash)
            << "flush=" << tuning.outbox_flush_events
            << " park=" << tuning.park_on_idle << " sync=" << to_string(sync)
            << " mode=" << (mode == ExecutionMode::Sequential ? "seq" : "thr");
        EXPECT_EQ(base.events_per_lp, got.events_per_lp);
        EXPECT_EQ(base.remote_messages, got.remote_messages);
      }
    }
  }
}

TEST(OutboxTuning, RejectsZeroFlushThreshold) {
  Kernel kernel(2, 1.0);
  KernelTuning tuning;
  tuning.outbox_flush_events = 0;
  EXPECT_THROW(kernel.set_tuning(tuning), std::invalid_argument);
}

TEST(OutboxTuning, RejectsTuningAfterRun) {
  Kernel kernel(1, 1.0);
  ClosureSink closures(kernel);
  closures.schedule(0, 0.5, [] {});
  kernel.run_until(1.0);
  EXPECT_THROW(kernel.set_tuning(KernelTuning{}), std::invalid_argument);
}

/// A slow channel must not throttle a pair coupled only through fast
/// channels — the whole point of per-channel bounds. Two fast-coupled LPs
/// exchange many hops; a third LP is reachable only through high-lookahead
/// channels. Deliveries and throttle stats come out per channel.
TEST(ChannelSync, HeterogeneousLookaheadsTrackPerChannelStats) {
  for (const auto mode :
       {ExecutionMode::Sequential, ExecutionMode::Threaded}) {
    Kernel kernel(3, 0.5);
    ClosureSink closures(kernel);
    kernel.set_sync_mode(SyncMode::ChannelLookahead);
    kernel.set_channel_lookahead(0, 1, 0.5);
    kernel.set_channel_lookahead(1, 0, 0.5);
    kernel.set_channel_lookahead(0, 2, 50.0);
    kernel.set_channel_lookahead(2, 0, 50.0);
    std::function<void(int, int, int)> hop = [&](int from, int to,
                                                 int hops_left) {
      if (hops_left == 0) return;
      closures.schedule_remote(to, kernel.now() + 0.5, [&hop, from, to,
                                                      hops_left] {
        hop(to, from, hops_left - 1);
      });
    };
    closures.schedule(0, 0.1, [&] { hop(0, 1, 60); });
    closures.schedule(0, 0.2, [&] {
      closures.schedule_remote(2, kernel.now() + 50.0, [] {});
    });
    kernel.run_until(1e6, mode);
    const KernelStats& stats = kernel.stats();
    // 60 fast hops + 1 slow delivery.
    EXPECT_EQ(stats.remote_messages, 61u);
    ASSERT_EQ(stats.channels.size(), 4u);
    // channels sorted by (src, dst): (0,1), (0,2), (1,0), (2,0).
    EXPECT_EQ(stats.channels[0].dst, 1);
    EXPECT_EQ(stats.channels[0].delivered + stats.channels[2].delivered, 60u);
    EXPECT_EQ(stats.channels[1].delivered, 1u);
    EXPECT_DOUBLE_EQ(stats.channels[1].lookahead, 50.0);
  }
}

/// Channel-mode analogue of IdleSpansAreSkipped: sparse events must be
/// bridged by a bounded number of rendezvous jumps, not lookahead-sized
/// clock creep.
TEST(ChannelSync, IdleSpansAreJumped) {
  for (const auto mode :
       {ExecutionMode::Sequential, ExecutionMode::Threaded}) {
    Kernel kernel(2, 1.0);
    ClosureSink closures(kernel);
    kernel.set_sync_mode(SyncMode::ChannelLookahead);
    double delivered_at = -1;
    closures.schedule(0, 0.5, [&] {
      closures.schedule_remote(1, 1000.0, [&] { delivered_at = kernel.now(); });
    });
    kernel.run_until(2000.0, mode);
    EXPECT_DOUBLE_EQ(delivered_at, 1000.0);
    // One jump to reach t=1000 (plus at most a couple of rendezvous that
    // raced with delivery in threaded mode) — never ~1000 clock steps.
    EXPECT_LE(kernel.stats().idle_jumps, 6u);
  }
}

TEST(ChannelSync, ThreadedExceptionPropagates) {
  Kernel kernel(2, 1.0);
  ClosureSink closures(kernel);
  kernel.set_sync_mode(SyncMode::ChannelLookahead);
  closures.schedule(0, 0.5, [] { throw std::runtime_error("boom"); });
  closures.schedule(1, 0.5, [] {});
  EXPECT_THROW(kernel.run_until(10.0, ExecutionMode::Threaded),
               std::runtime_error);
}

TEST(ChannelSync, SequentialExceptionPropagates) {
  Kernel kernel(2, 1.0);
  ClosureSink closures(kernel);
  kernel.set_sync_mode(SyncMode::ChannelLookahead);
  closures.schedule(0, 0.5, [] { throw std::runtime_error("boom"); });
  EXPECT_THROW(kernel.run_until(10.0), std::runtime_error);
}

// ---- Bulk-heapify threshold (both drain branches) ------------------------

/// Fan `count` remote events into LP 0 in one batch and return the order
/// they executed in; `preload_locals` seeds the receiver's queue first so
/// the batch-vs-queue-size arm of the bulk condition is exercised too.
std::vector<double> fan_in_order(std::size_t count,
                                 std::size_t preload_locals) {
  Kernel kernel(2, 1.0);
  ClosureSink closures(kernel);
  std::vector<double> order;
  for (std::size_t i = 0; i < preload_locals; ++i)
    closures.schedule(0, 5.0 + 0.5 * static_cast<double>(i),
                    [&order, i] { order.push_back(5.0 + 0.5 * i); });
  closures.schedule(1, 0.5, [&] {
    for (std::size_t i = 0; i < count; ++i) {
      // Descending times: a sorted-run shortcut that failed to sort would
      // execute these backwards.
      const double t = 2.0 + 0.01 * static_cast<double>(count - i);
      closures.schedule_remote(0, t, [&order, t] { order.push_back(t); });
    }
  });
  kernel.run_until(100.0);
  return order;
}

TEST(BulkHeapify, BelowThresholdUsesPerEventPushes) {
  const std::size_t n = kBulkHeapifyThreshold - 1;
  const auto order = fan_in_order(n, 0);
  ASSERT_EQ(order.size(), n);
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
}

TEST(BulkHeapify, AtThresholdIntoEmptyQueueUsesSortedRun) {
  const std::size_t n = kBulkHeapifyThreshold;
  const auto order = fan_in_order(n, 0);
  ASSERT_EQ(order.size(), n);
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
}

TEST(BulkHeapify, DominantBatchIntoNonEmptyQueueRebuildsHeap) {
  // Batch above the threshold *and* larger than the pre-existing queue:
  // the make_heap arm. Locals at t > batch must still run after it.
  const std::size_t n = 3 * kBulkHeapifyThreshold;
  const auto order = fan_in_order(n, 2);
  ASSERT_EQ(order.size(), n + 2);
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
}

TEST(BulkHeapify, SmallBatchIntoLargerQueueStaysOnPushPath) {
  // Batch >= threshold but smaller than the queue: the bulk condition's
  // second clause keeps it on per-event pushes.
  const std::size_t n = kBulkHeapifyThreshold;
  const auto order = fan_in_order(n, 2 * kBulkHeapifyThreshold);
  ASSERT_EQ(order.size(), n + 2 * kBulkHeapifyThreshold);
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
}

}  // namespace
}  // namespace massf::des
