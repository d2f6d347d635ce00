// Golden KernelStats: a fixed packet-event workload whose statistics are
// pinned to recorded values, across every sync mode × execution mode
// combination at k ∈ {1, 3, 4} LPs. The equivalence tests in test_des only
// compare runs of the same build against each other; this file pins the
// numbers themselves, so a kernel refactor that shifts every rendition the
// same way (an extra idle-jump, a different flush schedule, a changed
// accounting order) fails here even though the renditions still agree.
//
// Pinned per combination:
//   * all: history_hash, events_per_lp, remote_messages;
//   * GlobalWindow: windows and modeled_time (raw bits — the per-window
//     accounting is deterministic in both execution modes);
//   * Sequential × ChannelLookahead: channel_advances, idle_jumps,
//     handoff_runs, per-channel throttled/max_lag, modeled_time bits
//     (these depend on thread timing under Threaded, so only the canonical
//     single-threaded rendition pins them).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>

#include "des/kernel.hpp"

namespace massf::des {
namespace {

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t bits(double v) {
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

void* hops_payload(std::uintptr_t hops) {
  return reinterpret_cast<void*>(hops);  // NOLINT(performance-no-int-to-ptr)
}

/// Token hops: the payload is the remaining hop count (never dereferenced),
/// the node is the token id and rehome key. Each hop goes local or remote
/// by a hash of (token, hops), sometimes leaving a zero-hop filler behind.
/// Stateless apart from the kernel, so it is safe on every worker thread.
class GoldenSink : public EventSink {
 public:
  GoldenSink(Kernel& kernel, int lps) : kernel_(kernel), lps_(lps) {}

  void on_packet_event(const PacketEvent& event) override {
    const auto hops = reinterpret_cast<std::uintptr_t>(event.payload);
    if (hops == 0) return;
    const int lp = kernel_.current_lp();
    const double now = kernel_.now();
    const std::uint64_t r =
        splitmix((static_cast<std::uint64_t>(event.node) << 20) ^ hops);
    if (r % 13 == 0)
      kernel_.schedule_packet(lp, now + 0.125, {hops_payload(0), event.node});
    const PacketEvent next{hops_payload(hops - 1), event.node};
    if (lps_ > 1 && r % 3 == 0) {
      const int dst =
          (lp + 1 + static_cast<int>((r / 3) % static_cast<unsigned>(lps_ - 1))) %
          lps_;
      const double extra = 0.0625 * static_cast<double>((r >> 8) & 7);
      kernel_.schedule_packet_remote(
          dst, now + kernel_.channel_lookahead(lp, dst) + extra, next);
    } else {
      const double step = 0.03125 * static_cast<double>(1 + ((r >> 12) & 7));
      kernel_.schedule_packet(lp, now + step, next);
    }
  }

 private:
  Kernel& kernel_;
  int lps_;
};

constexpr int kTokens = 24;
constexpr std::uintptr_t kHops = 48;
constexpr double kSafepoint = 20.0;
// Far past the last token hop: every run ends by quiescence, so every sent
// message has been received in every rendition. (With pending events past
// end_time, channel-mode runs stop with some mail still undrained, and how
// much depends on thread timing under Threaded.)
constexpr double kEndTime = 1000.0;

/// Half the tokens start near t=0, half at t=40: the gap between the two
/// bursts is an idle span channel mode must jump. One safepoint at t=20
/// rehomes every token by key.
KernelStats run_workload(int lps, SyncMode sync, ExecutionMode exec) {
  Kernel kernel(lps, 1.0);
  kernel.set_sync_mode(sync);
  GoldenSink sink(kernel, lps);
  kernel.set_event_sink(&sink);
  for (int s = 0; s < lps; ++s)
    for (int d = 0; d < lps; ++d)
      if (s != d)
        kernel.set_channel_lookahead(s, d, 1.0 + 0.25 * ((s + 2 * d) % 3));
  for (int n = 0; n < kTokens; ++n) {
    const double start = (n < kTokens / 2 ? 0.0 : 40.0) + 0.0625 * n;
    kernel.schedule_packet(n % lps, start, {hops_payload(kHops), n});
  }
  kernel.add_safepoint(kSafepoint);
  kernel.set_safepoint_hook([&kernel, lps](SimTime) {
    kernel.rehome_events([lps](std::int32_t key) { return (key * 7 + 3) % lps; });
  });
  kernel.run_until(kEndTime, exec);
  return kernel.stats();
}

/// The pinned fields of one run as one comparable line.
std::string digest(const KernelStats& s, SyncMode sync, ExecutionMode exec) {
  std::ostringstream out;
  out << std::hex << "hash=" << s.history_hash << std::dec << " events=";
  for (std::size_t i = 0; i < s.events_per_lp.size(); ++i)
    out << (i ? "," : "") << s.events_per_lp[i];
  out << " remote=" << s.remote_messages;
  if (sync == SyncMode::GlobalWindow)
    out << " windows=" << s.windows << std::hex << " modeled=" << bits(s.modeled_time)
        << std::dec;
  if (sync == SyncMode::ChannelLookahead && exec == ExecutionMode::Sequential) {
    out << " advances=" << s.channel_advances << " jumps=" << s.idle_jumps
        << " runs=" << s.handoff_runs << std::hex
        << " modeled=" << bits(s.modeled_time) << std::dec << " channels=";
    for (const ChannelStat& c : s.channels)
      out << c.src << ">" << c.dst << ":" << c.throttled << "/" << std::hex
          << bits(c.max_lag) << std::dec << ";";
  }
  return out.str();
}

struct Golden {
  SyncMode sync;
  ExecutionMode exec;
  const char* expected;
};

void expect_golden(int lps, const Golden (&table)[4]) {
  for (const Golden& g : table) {
    SCOPED_TRACE(std::string(to_string(g.sync)) +
                 (g.exec == ExecutionMode::Sequential ? " sequential"
                                                      : " threaded"));
    EXPECT_EQ(digest(run_workload(lps, g.sync, g.exec), g.sync, g.exec),
              g.expected);
  }
}

constexpr SyncMode kGW = SyncMode::GlobalWindow;
constexpr SyncMode kCL = SyncMode::ChannelLookahead;
constexpr ExecutionMode kSeq = ExecutionMode::Sequential;
constexpr ExecutionMode kThr = ExecutionMode::Threaded;

TEST(KernelGolden, OneLp) {
  const Golden table[4] = {
      {kGW, kSeq,
       "hash=60f665abf887c88b events=1268 remote=0 windows=16 modeled=3f83f290abb44e56"},
      {kGW, kThr,
       "hash=60f665abf887c88b events=1268 remote=0 windows=16 modeled=3f83f290abb44e56"},
      {kCL, kSeq,
       "hash=60f665abf887c88b events=1268 remote=0 advances=2 jumps=1 runs=0 modeled=3f7c6d1e108c3ed6 channels="},
      {kCL, kThr,
       "hash=60f665abf887c88b events=1268 remote=0"},
  };
  expect_golden(1, table);
}

TEST(KernelGolden, ThreeLps) {
  const Golden table[4] = {
      {kGW, kSeq,
       "hash=1becf59a4abbc5b events=443,423,402 remote=387 windows=68 modeled=3f994317acc4ef8a"},
      {kGW, kThr,
       "hash=1becf59a4abbc5b events=443,423,402 remote=387 windows=68 modeled=3f994317acc4ef8a"},
      {kCL, kSeq,
       "hash=1becf59a4abbc5b events=443,423,402 remote=387 advances=170 jumps=12 runs=158 modeled=3f853f7ced916875 channels=0>1:44/4042940000000000;0>2:73/4043980000000000;1>0:74/4043c00000000000;1>2:31/4040d40000000000;2>0:27/4041340000000000;2>1:52/4043c80000000000;"},
      {kCL, kThr,
       "hash=1becf59a4abbc5b events=443,423,402 remote=387"},
  };
  expect_golden(3, table);
}

TEST(KernelGolden, FourLps) {
  const Golden table[4] = {
      {kGW, kSeq,
       "hash=3ca56472ba7d87da events=306,283,371,308 remote=387 windows=67 modeled=3f976c8b43958106"},
      {kGW, kThr,
       "hash=3ca56472ba7d87da events=306,283,371,308 remote=387 windows=67 modeled=3f976c8b43958106"},
      {kCL, kSeq,
       "hash=3ca56472ba7d87da events=306,283,371,308 remote=387 advances=226 jumps=14 runs=250 modeled=3f82a0663c74fb57 channels=0>1:23/4041c00000000000;0>2:37/403e900000000000;0>3:75/4043c00000000000;1>0:36/4042c80000000000;1>2:14/403e300000000000;1>3:20/403b800000000000;2>0:18/4042c80000000000;2>1:59/4043c80000000000;2>3:11/4042e00000000000;3>0:47/4043e00000000000;3>1:17/4041280000000000;3>2:51/4043d00000000000;"},
      {kCL, kThr,
       "hash=3ca56472ba7d87da events=306,283,371,308 remote=387"},
  };
  expect_golden(4, table);
}

}  // namespace
}  // namespace massf::des
