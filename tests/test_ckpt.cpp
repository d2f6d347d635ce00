// Checkpoint/restore and crash-recovery chaos tests (DESIGN.md §12).
//
// Three layers are exercised:
//   * the container format (src/ckpt/): CRC/truncation/version rejection
//     and the atomic write-rename protocol under injected mid-write kills;
//   * the Emulator::checkpoint walk: a run killed at a randomized point and
//     restored from the latest valid snapshot finishes with a bit-identical
//     history_hash to the uninterrupted run, across both sync protocols ×
//     both execution modes, with and without a random fault plan;
//   * Experiment::run_supervised: retry-with-backoff from the latest valid
//     snapshot, fallback past corrupted snapshots, the cooperative
//     watchdog, and a rebalance controller carried across a crash.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "app/rpc.hpp"
#include "app/scenario.hpp"
#include "ckpt/ckpt.hpp"
#include "ckpt_scenario.hpp"
#include "core/pipeline.hpp"
#include "des/kernel.hpp"
#include "emu/emulator.hpp"
#include "fault/fault.hpp"
#include "rebalance/monitor.hpp"
#include "rebalance/rebalancer.hpp"
#include "topology/topologies.hpp"
#include "traffic/cbr.hpp"
#include "util/rng.hpp"

namespace massf {
namespace {

using topology::Gbps;
using topology::Mbps;
using topology::milliseconds;
using topology::Network;
using topology::NodeId;

constexpr double kDuration = 18.0;
constexpr double kHorizon = 24.0;
constexpr double kPeriod = 5.0;

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "massf_ckpt_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

void flip_byte(const std::string& path, long offset) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
  const int c = std::fgetc(f);
  ASSERT_NE(c, EOF);
  ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
  ASSERT_NE(std::fputc(c ^ 0xff, f), EOF);
  ASSERT_EQ(std::fclose(f), 0);
}

/// Installs a ckpt crash hook for the enclosing scope, clears it on exit.
struct CrashGuard {
  explicit CrashGuard(ckpt::CrashHook hook) {
    ckpt::set_crash_hook(std::move(hook));
  }
  ~CrashGuard() { ckpt::set_crash_hook(nullptr); }
};

const char* name(des::SyncMode m) {
  return m == des::SyncMode::GlobalWindow ? "global" : "channel";
}
const char* name(des::ExecutionMode m) {
  return m == des::ExecutionMode::Sequential ? "seq" : "thr";
}

// ---------------------------------------------------------------------------
// Container format
// ---------------------------------------------------------------------------

TEST(CkptFormat, WriterReaderRoundTrip) {
  const std::string dir = fresh_dir("roundtrip");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/" + ckpt::checkpoint_filename(0);

  ckpt::Writer w;
  w.tag(0xabad1dea);
  w.u8(7);
  w.u32(0xdeadbeef);
  w.u64(~0ull);
  w.i64(-42);
  w.f64(3.25);
  w.str("supervised");
  w.commit(path);

  ckpt::Reader r = ckpt::Reader::from_file(path);
  r.expect_tag(0xabad1dea, "test section");
  EXPECT_EQ(r.u8(), 7u);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), ~0ull);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_DOUBLE_EQ(r.f64(), 3.25);
  EXPECT_EQ(r.str(), "supervised");
  EXPECT_EQ(r.remaining(), 0u);

  // Wrong tag and reads past the end both fail loudly with the file named.
  ckpt::Reader r2 = ckpt::Reader::from_file(path);
  try {
    r2.expect_tag(0x12345678, "wrong section");
    FAIL() << "expected a tag mismatch";
  } catch (const ckpt::CkptError& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos) << e.what();
  }
}

TEST(CkptFormat, RejectsCorruption) {
  const std::string dir = fresh_dir("reject");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/" + ckpt::checkpoint_filename(0);
  ckpt::Writer w;
  for (int i = 0; i < 16; ++i) w.u64(static_cast<std::uint64_t>(i));
  w.commit(path);
  ASSERT_NO_THROW(ckpt::Reader::from_file(path));

  // Corrupted payload byte → CRC mismatch (header is 20 bytes).
  flip_byte(path, 20 + 3);
  try {
    ckpt::Reader::from_file(path);
    FAIL() << "expected a CRC rejection";
  } catch (const ckpt::CkptError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("CRC"), std::string::npos) << what;
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find("fall back"), std::string::npos) << what;
  }
  flip_byte(path, 20 + 3);  // restore

  // Truncated payload → size rejection.
  std::filesystem::resize_file(path, 20 + 16 * 8 - 5);
  try {
    ckpt::Reader::from_file(path);
    FAIL() << "expected a truncation rejection";
  } catch (const ckpt::CkptError& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos)
        << e.what();
  }

  // A file shorter than the header.
  std::filesystem::resize_file(path, 7);
  EXPECT_THROW(ckpt::Reader::from_file(path), ckpt::CkptError);

  // Bad magic / unsupported version.
  ckpt::Writer w2;
  w2.u64(1);
  w2.commit(path);
  flip_byte(path, 0);
  try {
    ckpt::Reader::from_file(path);
    FAIL() << "expected a magic rejection";
  } catch (const ckpt::CkptError& e) {
    EXPECT_NE(std::string(e.what()).find("magic"), std::string::npos)
        << e.what();
  }
  flip_byte(path, 0);
  flip_byte(path, 4);
  try {
    ckpt::Reader::from_file(path);
    FAIL() << "expected a version rejection";
  } catch (const ckpt::CkptError& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos)
        << e.what();
  }
}

TEST(CkptFormat, FilenamesSortAndParse) {
  EXPECT_EQ(ckpt::checkpoint_filename(42), "ckpt_000000000042.bin");
  std::uint64_t seq = 0;
  EXPECT_TRUE(ckpt::parse_checkpoint_seq("ckpt_000000000042.bin", seq));
  EXPECT_EQ(seq, 42u);
  EXPECT_FALSE(ckpt::parse_checkpoint_seq("ckpt_000000000042.bin.tmp", seq));
  EXPECT_FALSE(ckpt::parse_checkpoint_seq("notes.txt", seq));

  EXPECT_TRUE(ckpt::list_checkpoints(fresh_dir("missing")).empty());

  const std::string dir = fresh_dir("listing");
  std::filesystem::create_directories(dir);
  for (const std::uint64_t s : {7u, 2u, 11u}) {
    ckpt::Writer w;
    w.u64(s);
    w.commit(dir + "/" + ckpt::checkpoint_filename(s));
  }
  const auto listed = ckpt::list_checkpoints(dir);
  ASSERT_EQ(listed.size(), 3u);
  EXPECT_EQ(listed[0].first, 2u);
  EXPECT_EQ(listed[1].first, 7u);
  EXPECT_EQ(listed[2].first, 11u);
}

TEST(CkptFormat, MidWriteCrashKeepsPreviousSnapshot) {
  const std::string dir = fresh_dir("atomic");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/" + ckpt::checkpoint_filename(0);

  ckpt::Writer v1;
  v1.u64(111);
  v1.commit(path);

  {
    CrashGuard guard([](const char* phase) {
      if (std::strcmp(phase, "mid-write") == 0)
        throw ckpt::InjectedCrash("kill between tmp fsync and rename");
    });
    ckpt::Writer v2;
    v2.u64(222);
    EXPECT_THROW(v2.commit(path), ckpt::InjectedCrash);
  }
  // The previous snapshot is intact and the orphaned tmp file is invisible
  // to snapshot discovery.
  ckpt::Reader r = ckpt::Reader::from_file(path);
  EXPECT_EQ(r.u64(), 111u);
  ASSERT_EQ(ckpt::list_checkpoints(dir).size(), 1u);

  // Without the kill the same commit replaces the snapshot atomically.
  ckpt::Writer v2;
  v2.u64(222);
  v2.commit(path);
  ckpt::Reader r2 = ckpt::Reader::from_file(path);
  EXPECT_EQ(r2.u64(), 222u);
}

// ---------------------------------------------------------------------------
// Small-network fixtures
// ---------------------------------------------------------------------------

/// a --- r0 --- r1 --- b across two engines.
struct TinyNet {
  Network net;
  NodeId a, r0, r1, b;
  std::unique_ptr<routing::RoutingTables> tables;

  TinyNet() {
    a = net.add_host("a", 0);
    r0 = net.add_router("r0", 0);
    r1 = net.add_router("r1", 0);
    b = net.add_host("b", 0);
    net.add_link(a, r0, Mbps(100), milliseconds(1));
    net.add_link(r0, r1, Gbps(1), milliseconds(5));
    net.add_link(r1, b, Mbps(100), milliseconds(1));
    tables = std::make_unique<routing::RoutingTables>(
        routing::RoutingTables::build(net));
  }

  emu::Emulator make(std::vector<int> engines, int count) {
    return emu::Emulator(net, *tables, std::move(engines), count);
  }
};

emu::CheckpointConfig schedule(const std::string& dir, double period,
                               int keep = 32, std::uint64_t first_seq = 0) {
  emu::CheckpointConfig cfg;
  cfg.dir = dir;
  cfg.period_s = period;
  cfg.keep = keep;
  cfg.first_seq = first_seq;
  return cfg;
}

/// Restore a rebuilt emulator from the snapshot file at `path`.
des::SimTime restore(emu::Emulator& emulator, const std::string& path) {
  ckpt::Reader reader = ckpt::Reader::from_file(path);
  ckpt::Io io(reader);
  return emulator.checkpoint(io);
}

// ---------------------------------------------------------------------------
// Safepoint edge cases
// ---------------------------------------------------------------------------

TEST(SafepointEdge, RejectsSafepointAtTimeZero) {
  TinyNet fx;
  emu::Emulator emu = fx.make({0, 0, 1, 1}, 2);
  EXPECT_THROW(emu.add_rebalance_safepoint(0.0), std::invalid_argument);
  EXPECT_THROW(emu.add_rebalance_safepoint(-1.0), std::invalid_argument);
}

TEST(SafepointEdge, FirstSnapshotDefaultsToOnePeriodIn) {
  TinyNet fx;
  emu::Emulator emu = fx.make({0, 0, 1, 1}, 2);
  for (int i = 0; i < 10; ++i)
    emu.send_message(fx.a, fx.b, 4000, i, 1.0 * i);
  // first_s = 0 means "one period in": snapshots at 5 and 10, not at t=0.
  emu.set_checkpoint_schedule(schedule(fresh_dir("first_default"), 5.0),
                              12.0);
  emu.run(12.0);
  EXPECT_EQ(emu.checkpoints_written(), 2u);
}

TEST(SafepointEdge, SafepointsAtOrPastTheHorizonNeverFire) {
  TinyNet fx;
  emu::Emulator emu = fx.make({0, 0, 1, 1}, 2);
  emu.send_message(fx.a, fx.b, 4000, 0, 0.5);
  int fired = 0;
  emu.set_rebalance_hook([&](double) { ++fired; });
  emu.add_rebalance_safepoint(10.0);    // exactly at the horizon
  emu.add_rebalance_safepoint(1000.0);  // far past it
  // The schedule generator also clips to the horizon: first_s=50 > 10
  // produces no snapshot instants at all.
  emu::CheckpointConfig cfg = schedule(fresh_dir("past_horizon"), 5.0);
  cfg.first_s = 50.0;
  emu.set_checkpoint_schedule(cfg, 10.0);
  emu.run(10.0);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(emu.checkpoints_written(), 0u);
}

TEST(SafepointEdge, DuplicateSafepointsCoalesceIntoOnePause) {
  TinyNet fx;
  emu::Emulator emu = fx.make({0, 0, 1, 1}, 2);
  for (int i = 0; i < 8; ++i) emu.send_message(fx.a, fx.b, 4000, i, 1.0 * i);
  // Two rebalance safepoints and one snapshot instant all at t=5: one
  // quiescent pause, one hook invocation, one snapshot.
  emu.add_rebalance_safepoint(5.0);
  emu.add_rebalance_safepoint(5.0);
  int fired = 0;
  emu.set_rebalance_hook([&](double t) {
    ++fired;
    EXPECT_DOUBLE_EQ(t, 5.0);
  });
  emu.set_checkpoint_schedule(schedule(fresh_dir("dup_sp"), 5.0), 8.0);
  emu.run(8.0);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(emu.checkpoints_written(), 1u);
  EXPECT_EQ(emu.kernel_stats().safepoints, 1u);
}

// ---------------------------------------------------------------------------
// Checkpoint content errors and retention
// ---------------------------------------------------------------------------

TEST(Checkpoint, PruneKeepsOnlyTheNewestSnapshots) {
  TinyNet fx;
  const std::string dir = fresh_dir("prune");
  emu::Emulator emu = fx.make({0, 0, 1, 1}, 2);
  for (int i = 0; i < 20; ++i)
    emu.send_message(fx.a, fx.b, 4000, i, 0.4 * i);
  emu.set_checkpoint_schedule(schedule(dir, 2.0, /*keep=*/2), 10.0);
  emu.run(10.0);
  EXPECT_EQ(emu.checkpoints_written(), 4u);  // t = 2, 4, 6, 8
  const auto snaps = ckpt::list_checkpoints(dir);
  ASSERT_EQ(snaps.size(), 2u);
  EXPECT_EQ(snaps[0].first, 2u);
  EXPECT_EQ(snaps[1].first, 3u);
}

TEST(Checkpoint, RestoreRejectsAMismatchedEmulator) {
  TinyNet fx;
  const std::string dir = fresh_dir("mismatch");
  {
    emu::Emulator emu = fx.make({0, 0, 1, 1}, 2);
    for (int i = 0; i < 10; ++i)
      emu.send_message(fx.a, fx.b, 4000, i, 0.8 * i);
    emu.set_checkpoint_schedule(schedule(dir, 5.0), 10.0);
    emu.run(10.0);
  }
  const auto snaps = ckpt::list_checkpoints(dir);
  ASSERT_FALSE(snaps.empty());

  // Wrong engine count → rejected before any state is half-applied.
  emu::Emulator wrong = fx.make({0, 0, 0, 0}, 1);
  try {
    restore(wrong, snaps.back().second);
    FAIL() << "expected the engine-count mismatch to be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("engine count"), std::string::npos)
        << e.what();
  }

  // The matching shape restores fine.
  emu::Emulator right = fx.make({0, 0, 1, 1}, 2);
  EXPECT_DOUBLE_EQ(restore(right, snaps.back().second), 5.0);
}

// ---------------------------------------------------------------------------
// Kernel restore validation on crafted snapshots
// ---------------------------------------------------------------------------

/// A minimal well-formed kernel snapshot in the layout the
/// Kernel::checkpoint walk writes: two LPs, GlobalWindow, default cost
/// model, resumed at t = 5, one channel 0 → 1, and on LP 0 one load-series
/// bucket plus one pending event. Each field below corrupts one thing.
struct CraftedSnapshot {
  std::uint64_t channel_count = 1;
  std::uint64_t series_count = 1;
  std::uint64_t pending_count = 1;
  double event_t = 6.0;
  std::uint32_t event_origin = 1;

  ckpt::Reader reader() const {
    const des::CostModel cost;
    ckpt::Writer w;
    w.tag(0x6b726e6c);  // "krnl"
    w.u32(2);           // LP count
    w.u8(static_cast<std::uint8_t>(des::SyncMode::GlobalWindow));
    w.f64(cost.per_event);
    w.f64(cost.per_remote_message);
    w.f64(cost.per_window_sync);
    w.f64(1.0);  // global lookahead
    w.f64(2.0);  // load-series bucket width
    w.f64(5.0);  // simulated time already charged
    w.f64(5.0);  // resume time
    for (int i = 0; i < 4; ++i) w.u64(0);  // windows … events rehomed
    w.f64(0);                              // modeled time
    w.f64(0);                              // coupled time
    w.tag(0x6b636873);                     // "kchs"
    w.u64(channel_count);
    w.u32(0);    // src
    w.u32(1);    // dst
    w.f64(1.0);  // lookahead
    w.u64(0);    // delivered
    w.u64(0);    // throttled
    w.f64(0);    // max lag
    for (int lp = 0; lp < 2; ++lp) {
      w.tag(0x6b6c7073);                      // "klps"
      for (int i = 0; i < 11; ++i) w.u64(0);  // per-LP counters
      w.u64(lp == 0 ? series_count : 0);
      if (lp == 0) w.f64(0);  // the one bucket
      w.u64(lp == 0 ? pending_count : 0);
      if (lp == 0) {
        w.f64(event_t);
        w.u32(event_origin);
        w.u64(0);   // seq
        w.i64(-1);  // node (pinned); the payload itself is empty
      }
    }
    w.tag(0x6b656e64);  // "kend"
    return ckpt::Reader(w.payload(), "crafted");
  }
};

class CountingSink : public des::EventSink {
 public:
  void on_packet_event(const des::PacketEvent&) override { ++events; }
  int events = 0;
};

void restore_crafted(des::Kernel& kernel, const CraftedSnapshot& snapshot) {
  ckpt::Reader r = snapshot.reader();
  ckpt::Io io(r);
  kernel.checkpoint(
      io, [](ckpt::Io&, void*& payload) { payload = nullptr; },
      [](void*) {});
}

TEST(CheckpointRestore, AcceptsAWellFormedCraftedSnapshot) {
  des::Kernel kernel(2, 1.0);
  CountingSink sink;
  kernel.set_event_sink(&sink);
  restore_crafted(kernel, CraftedSnapshot{});
  EXPECT_DOUBLE_EQ(kernel.resume_time(), 5.0);
  kernel.run_until(10.0);
  EXPECT_EQ(sink.events, 1);
  EXPECT_EQ(kernel.stats().events_per_lp[0], 1u);
}

TEST(CheckpointRestore, RejectsCountsTheSnapshotCannotHold) {
  // Each count is well framed (the payload is built, not flipped) but
  // claims more elements than the remaining bytes could encode: the reader
  // error, raised before anything is sized from the count.
  for (const std::uint64_t huge : {std::uint64_t{1} << 40,
                                   std::uint64_t{1} << 60, ~std::uint64_t{0}}) {
    CraftedSnapshot channels;
    channels.channel_count = huge;
    CraftedSnapshot series;
    series.series_count = huge;
    CraftedSnapshot pending;
    pending.pending_count = huge;
    for (const CraftedSnapshot* bad : {&channels, &series, &pending}) {
      des::Kernel kernel(2, 1.0);
      EXPECT_THROW(restore_crafted(kernel, *bad), ckpt::CkptError);
    }
  }
}

TEST(CheckpointRestore, RejectsPendingEventsItCannotResume) {
  CraftedSnapshot nan_time;
  nan_time.event_t = std::numeric_limits<double>::quiet_NaN();
  CraftedSnapshot infinite_time;
  infinite_time.event_t = std::numeric_limits<double>::infinity();
  CraftedSnapshot before_resume;
  before_resume.event_t = 4.0;  // the snapshot resumes at t = 5
  CraftedSnapshot bad_origin;
  bad_origin.event_origin = 2;  // only LPs 0 and 1 exist
  for (const CraftedSnapshot* bad :
       {&nan_time, &infinite_time, &before_resume, &bad_origin}) {
    des::Kernel kernel(2, 1.0);
    EXPECT_THROW(restore_crafted(kernel, *bad), std::invalid_argument);
  }
}

// ---------------------------------------------------------------------------
// Corrupt counts: every count read from a snapshot is bounded by the bytes
// left before it sizes anything, so a count of 2^60 is a CkptError — never
// std::length_error or std::bad_alloc, which would escape run_supervised's
// fallback to an older snapshot.
// ---------------------------------------------------------------------------

constexpr std::uint64_t kHugeCount = std::uint64_t{1} << 60;

/// Walk crafted bytes into `target` through a reading Io.
template <typename T>
void walk_crafted(T& target, const ckpt::Writer& w) {
  ckpt::Reader r(w.payload(), "crafted");
  ckpt::Io io(r);
  target.checkpoint(io);
}

void put_words(ckpt::Writer& w, int n, std::uint64_t value = 0) {
  for (int i = 0; i < n; ++i) w.u64(value);
}

TEST(CorruptCounts, LoadMonitorSamplesAndVectors) {
  constexpr std::uint32_t kTagMonitor = 0x6d6f6e69;  // "moni"
  for (int site = 0; site < 4; ++site) {
    SCOPED_TRACE(::testing::Message() << "count site " << site);
    ckpt::Writer w;
    w.tag(kTagMonitor);
    w.f64(1.0);  // window
    w.u64(site == 0 ? kHugeCount : 1);  // samples
    w.f64(0.5);                         // sample time
    for (int v = 1; v < 4; ++v) {       // engine, node, link vectors
      w.u64(site == v ? kHugeCount : 1);
      w.f64(2.0);
    }
    rebalance::LoadMonitor monitor(1.0);
    EXPECT_THROW(walk_crafted(monitor, w), ckpt::CkptError);
  }
}

TEST(CorruptCounts, ControllerDecisionLog) {
  TinyNet fx;
  rebalance::Controller controller(fx.net, *fx.tables);
  ckpt::Writer w;
  w.tag(0x72626374);  // "rbct"
  w.tag(0x6d6f6e69);  // "moni"
  w.f64(1.0);         // monitor window
  w.u64(0);           // no samples
  w.i64(0);           // policy streak
  w.f64(0);           // last migration
  w.u64(kHugeCount);  // decisions
  EXPECT_THROW(walk_crafted(controller, w), ckpt::CkptError);
}

TEST(CorruptCounts, RpcEndpointMapsAndPolicyBlock) {
  {
    app::ServerParams params;
    params.workers = 2;
    app::ServerEndpoint server(params);
    ckpt::Writer w;
    put_words(w, 4 + 1 + 2);  // rng, job sequence, worker clocks
    w.u64(kHugeCount);        // jobs
    EXPECT_THROW(walk_crafted(server, w), ckpt::CkptError);
  }
  app::LoadBalancerParams lb_params;
  lb_params.backends = {1, 2};
  {
    app::LoadBalancerEndpoint lb(lb_params);
    ckpt::Writer w;
    w.u64(0);           // flight sequence
    w.u64(kHugeCount);  // policy block length
    EXPECT_THROW(walk_crafted(lb, w), ckpt::CkptError);
  }
  {
    app::LoadBalancerEndpoint lb(lb_params);
    ckpt::Writer w;
    w.u64(0);           // flight sequence
    w.u64(1);           // policy block: one word,
    w.u64(0);           //   the round-robin cursor
    w.u64(kHugeCount);  // flights
    EXPECT_THROW(walk_crafted(lb, w), ckpt::CkptError);
  }
  {
    app::ClientParams params;
    params.lb = 0;
    app::ClientEndpoint client(params);
    ckpt::Writer w;
    put_words(w, 4 + 1);  // rng, request sequence
    w.u64(kHugeCount);    // outstanding requests
    EXPECT_THROW(walk_crafted(client, w), ckpt::CkptError);
  }
}

TEST(CorruptCounts, BlockMustBeWalkedExactly) {
  app::LoadBalancerParams lb_params;
  lb_params.backends = {1, 2};
  for (const std::uint64_t words : {0u, 2u}) {
    // The round-robin policy walks one word; a block recording 0 or 2 words
    // is a layout mismatch, reported before the next field is read.
    app::LoadBalancerEndpoint lb(lb_params);
    ckpt::Writer w;
    w.u64(0);  // flight sequence
    w.u64(words);
    put_words(w, static_cast<int>(words));
    put_words(w, 8);  // room for the rest of the endpoint
    EXPECT_THROW(walk_crafted(lb, w), ckpt::CkptError) << words << " words";
  }
}

TEST(CorruptCounts, EveryWordOfAnEmulatorSnapshotRejectsCleanly) {
  // Overwrite each 8-byte window of a real RPC snapshot with 2^60 in turn:
  // every restore either succeeds (the window held a plain value) or fails
  // with one of the two documented errors — a CkptError for bytes that do
  // not parse, std::invalid_argument for a snapshot that does not match
  // the rebuilt emulator. Any other exception fails the test.
  app::LbScenarioParams params;
  params.backends = 2;
  params.client_hosts = 1;
  params.users_per_host = 10;
  params.rate_per_user = 20;
  params.duration_s = 1.0;
  params.policy = app::PolicyKind::PeakEwma;
  const app::LbScenario scenario = app::make_lb_scenario(params);
  const routing::RoutingTables tables =
      routing::RoutingTables::build(scenario.net);
  const app::LbWorkload workload(scenario, params);
  const auto build = [&] {
    std::vector<int> placement(
        static_cast<std::size_t>(scenario.net.node_count()));
    for (std::size_t i = 0; i < placement.size(); ++i)
      placement[i] = static_cast<int>(i % 2);
    emu::EmulatorConfig config;
    config.collect_netflow = false;  // its counts have their own test
    config.reliable.base_timeout_s = 0.05;
    auto emulator = std::make_unique<emu::Emulator>(
        scenario.net, tables, std::move(placement), 2, config);
    workload.install(*emulator);
    return emulator;
  };

  std::string path;
  {
    auto emulator = build();
    emu::CheckpointConfig cfg = schedule(fresh_dir("mutate"), 10.0);
    cfg.first_s = 0.5;
    cfg.on_checkpoint = [&path](std::uint64_t, const std::string& p) {
      path = p;
    };
    emulator->set_checkpoint_schedule(cfg, 0.6);
    emulator->run(0.6);
  }
  const std::vector<unsigned char> payload =
      ckpt_scenario::snapshot_payload(path);
  ASSERT_GT(payload.size(), 64u);
  {
    auto emulator = build();
    ckpt::Reader r(payload, "intact");
    ckpt::Io io(r);
    EXPECT_DOUBLE_EQ(emulator->checkpoint(io), 0.5);
  }

  std::size_t rejected = 0;
  for (std::size_t at = 0; at + 8 <= payload.size(); ++at) {
    std::vector<unsigned char> bytes = payload;
    for (int b = 0; b < 8; ++b)
      bytes[at + static_cast<std::size_t>(b)] =
          static_cast<unsigned char>(kHugeCount >> (8 * b));
    auto emulator = build();
    ckpt::Reader r(std::move(bytes), "mutated");
    ckpt::Io io(r);
    try {
      emulator->checkpoint(io);
    } catch (const ckpt::CkptError&) {
      ++rejected;
    } catch (const std::invalid_argument&) {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0u);
}

// ---------------------------------------------------------------------------
// Kill-and-restore chaos harness (campus scale)
// ---------------------------------------------------------------------------

/// Campus network with mixed CBR traffic: reliable + best-effort flows,
/// Poisson jitter (per-endpoint RNG state), staggered starts.
struct ChaosNet {
  Network net = topology::make_campus();
  routing::RoutingTables tables = routing::RoutingTables::build(net);
  std::shared_ptr<traffic::CompositeWorkload> workload =
      std::make_shared<traffic::CompositeWorkload>();

  ChaosNet() {
    const auto hosts = net.hosts();
    const int n = static_cast<int>(hosts.size());
    std::vector<traffic::CbrFlowSpec> reliable, plain;
    for (int i = 0; i < 16; ++i) {
      traffic::CbrFlowSpec f;
      // Disjoint sender-host pools per workload (one endpoint per source).
      const int src_index = (i % 3 == 0) ? i % 8 : 8 + i % 8;
      f.src = hosts[static_cast<std::size_t>(src_index)];
      f.dst = hosts[static_cast<std::size_t>((src_index + 7 + i) % n)];
      if (f.src == f.dst)
        f.dst = hosts[static_cast<std::size_t>((src_index + 1) % n)];
      f.message_bytes = 6000 + 500.0 * (i % 4);
      f.interval_s = 0.7 + 0.05 * (i % 3);
      f.jitter = (i % 2) != 0 ? 1.0 : 0.0;
      f.start_s = 0.1 * i;
      ((i % 3 == 0) ? reliable : plain).push_back(f);
    }
    traffic::CbrParams rp;
    rp.duration_s = kDuration;
    rp.seed = 11;
    rp.reliable = true;
    workload->add(std::make_shared<traffic::CbrTraffic>(std::move(reliable),
                                                        rp));
    traffic::CbrParams pp;
    pp.duration_s = kDuration;
    pp.seed = 12;
    workload->add(
        std::make_shared<traffic::CbrTraffic>(std::move(plain), pp));
  }

  std::unique_ptr<emu::Emulator> make(int engines, des::SyncMode sync,
                                      const fault::FaultTimeline* faults) {
    std::vector<int> placement(static_cast<std::size_t>(net.node_count()));
    for (std::size_t i = 0; i < placement.size(); ++i)
      placement[i] = static_cast<int>(i) % engines;
    emu::EmulatorConfig cfg;
    cfg.sync_mode = sync;
    auto emulator = std::make_unique<emu::Emulator>(
        net, tables, std::move(placement), engines, cfg);
    if (faults != nullptr) emulator->set_fault_timeline(faults);
    workload->install(*emulator);
    return emulator;
  }
};

struct RunOutcome {
  std::uint64_t hash = 0;
  emu::EmulatorStats stats{};
};

void expect_same_run(const RunOutcome& base, const RunOutcome& other,
                     const std::string& label) {
  EXPECT_EQ(base.hash, other.hash) << label;
  EXPECT_EQ(base.stats.trains_injected, other.stats.trains_injected) << label;
  EXPECT_EQ(base.stats.trains_delivered, other.stats.trains_delivered)
      << label;
  EXPECT_EQ(base.stats.messages_delivered, other.stats.messages_delivered)
      << label;
  EXPECT_EQ(base.stats.reliable_messages_acked,
            other.stats.reliable_messages_acked)
      << label;
  EXPECT_EQ(base.stats.retransmissions, other.stats.retransmissions) << label;
  EXPECT_DOUBLE_EQ(base.stats.bytes_delivered, other.stats.bytes_delivered)
      << label;
}

RunOutcome uninterrupted(ChaosNet& fx, int engines, des::SyncMode sync,
                         des::ExecutionMode mode,
                         const fault::FaultTimeline* faults,
                         const std::string& dir) {
  auto emulator = fx.make(engines, sync, faults);
  emulator->set_checkpoint_schedule(schedule(dir, kPeriod), kHorizon);
  emulator->run(kHorizon, mode);
  return {emulator->kernel_stats().history_hash, emulator->stats()};
}

/// Kill the run via the crash hook at the `kill_at`-th occurrence of
/// `kill_phase`, then rebuild, restore from the latest valid snapshot (or
/// start fresh if none survived), and finish the run.
RunOutcome crash_then_recover(ChaosNet& fx, int engines, des::SyncMode sync,
                              des::ExecutionMode mode,
                              const fault::FaultTimeline* faults,
                              const std::string& dir, const char* kill_phase,
                              int kill_at) {
  {
    auto victim = fx.make(engines, sync, faults);
    victim->set_checkpoint_schedule(schedule(dir, kPeriod), kHorizon);
    int calls = 0;
    CrashGuard guard([&](const char* phase) {
      if (std::strcmp(phase, kill_phase) == 0 && ++calls == kill_at)
        throw ckpt::InjectedCrash(std::string("chaos kill at ") + phase);
    });
    EXPECT_THROW(victim->run(kHorizon, mode), ckpt::InjectedCrash);
  }

  auto revived = fx.make(engines, sync, faults);
  const auto snaps = ckpt::list_checkpoints(dir);
  std::uint64_t next_seq = 0;
  if (!snaps.empty()) {
    EXPECT_GT(restore(*revived, snaps.back().second), 0.0);
    next_seq = snaps.back().first + 1;
  }
  revived->set_checkpoint_schedule(schedule(dir, kPeriod, 32, next_seq),
                                   kHorizon);
  revived->run(kHorizon, mode);
  return {revived->kernel_stats().history_hash, revived->stats()};
}

TEST(ChaosRecovery, KillAndRestoreBitIdenticalAcrossAllModes) {
  ChaosNet fx;
  for (const des::SyncMode sync :
       {des::SyncMode::GlobalWindow, des::SyncMode::ChannelLookahead}) {
    for (const des::ExecutionMode mode :
         {des::ExecutionMode::Sequential, des::ExecutionMode::Threaded}) {
      const std::string label =
          std::string(name(sync)) + "_" + name(mode);
      const RunOutcome base = uninterrupted(fx, 3, sync, mode, nullptr,
                                            fresh_dir("base_" + label));
      const RunOutcome recovered =
          crash_then_recover(fx, 3, sync, mode, nullptr,
                             fresh_dir("kill_" + label), "after-checkpoint",
                             /*kill_at=*/2);
      expect_same_run(base, recovered, label);
    }
  }
}

TEST(ChaosRecovery, KillAndRestoreUnderARandomFaultPlan) {
  ChaosNet fx;
  fault::RandomFaultParams params;
  params.seed = 7;
  params.horizon_s = kHorizon;
  params.link_faults = 3;
  params.router_faults = 1;
  const fault::FaultPlan plan = fault::FaultPlan::random(fx.net, params);
  const fault::FaultTimeline timeline(fx.net, plan);
  EXPECT_EQ(timeline.plan_seed(), 7u);

  for (const des::SyncMode sync :
       {des::SyncMode::GlobalWindow, des::SyncMode::ChannelLookahead}) {
    for (const des::ExecutionMode mode :
         {des::ExecutionMode::Sequential, des::ExecutionMode::Threaded}) {
      const std::string label =
          std::string("faulty_") + name(sync) + "_" + name(mode);
      const RunOutcome base = uninterrupted(fx, 3, sync, mode, &timeline,
                                            fresh_dir("base_" + label));
      const RunOutcome recovered =
          crash_then_recover(fx, 3, sync, mode, &timeline,
                             fresh_dir("kill_" + label), "after-checkpoint",
                             /*kill_at=*/3);
      expect_same_run(base, recovered, label);
    }
  }
}

TEST(ChaosRecovery, RandomizedKillPointsAllRecover) {
  ChaosNet fx;
  const RunOutcome base =
      uninterrupted(fx, 3, des::SyncMode::GlobalWindow,
                    des::ExecutionMode::Sequential, nullptr,
                    fresh_dir("rand_base"));
  const char* phases[] = {"before-checkpoint", "mid-write",
                          "after-checkpoint"};
  Rng rng(99);
  for (int round = 0; round < 4; ++round) {
    const char* phase = phases[rng() % 3];
    // kill_at 1 at "before-checkpoint" leaves no snapshot at all: recovery
    // degrades to a fresh start, which must still match the baseline.
    const int kill_at = 1 + static_cast<int>(rng() % 3);
    const std::string label = std::string("round") + std::to_string(round) +
                              "_" + phase + "#" + std::to_string(kill_at);
    const RunOutcome recovered = crash_then_recover(
        fx, 3, des::SyncMode::GlobalWindow, des::ExecutionMode::Sequential,
        nullptr, fresh_dir("rand_" + std::to_string(round)), phase, kill_at);
    expect_same_run(base, recovered, label);
  }
}

// ---------------------------------------------------------------------------
// Supervised runs (Experiment::run_supervised)
// ---------------------------------------------------------------------------

/// Line network wrapped in an Experiment: small enough that the watchdog
/// test's wall-clock budgets are generous.
struct TinyExperiment {
  TinyNet tiny;
  std::shared_ptr<traffic::CbrTraffic> workload;

  TinyExperiment() {
    std::vector<traffic::CbrFlowSpec> flows;
    traffic::CbrFlowSpec ab;
    ab.src = tiny.a;
    ab.dst = tiny.b;
    ab.message_bytes = 9000;
    ab.interval_s = 0.5;
    ab.jitter = 1.0;
    flows.push_back(ab);
    traffic::CbrFlowSpec ba;
    ba.src = tiny.b;
    ba.dst = tiny.a;
    ba.message_bytes = 5000;
    ba.interval_s = 0.7;
    flows.push_back(ba);
    traffic::CbrParams params;
    params.duration_s = 16;
    params.seed = 21;
    params.reliable = true;
    workload =
        std::make_shared<traffic::CbrTraffic>(std::move(flows), params);
  }

  mapping::ExperimentSetup setup() {
    mapping::ExperimentSetup s;
    s.network = &tiny.net;
    s.routes = tiny.tables.get();
    s.workload = workload;
    s.engines = 2;
    s.horizon = 20;
    return s;
  }
};

mapping::SuperviseOptions supervise_options(const std::string& dir) {
  mapping::SuperviseOptions opt;
  opt.ckpt_dir = dir;
  opt.checkpoint_period_s = 4.0;
  opt.keep = 4;
  return opt;
}

TEST(Supervised, ValidatesOptions) {
  TinyExperiment fx;
  mapping::Experiment ex(fx.setup());
  const mapping::MappingResult mapped = ex.map(mapping::Approach::Top);
  mapping::SuperviseOptions opt;  // no ckpt_dir
  EXPECT_THROW(ex.run_supervised(mapped, opt), std::invalid_argument);
  opt.ckpt_dir = fresh_dir("sup_bad");
  opt.max_attempts = 0;
  EXPECT_THROW(ex.run_supervised(mapped, opt), std::invalid_argument);
}

TEST(Supervised, CleanRunMatchesAnUnsupervisedRun) {
  TinyExperiment fx;
  mapping::Experiment ex(fx.setup());
  const mapping::MappingResult mapped = ex.map(mapping::Approach::Top);
  const mapping::RunMetrics plain = ex.run(mapped);
  EXPECT_NE(plain.history_hash, 0u);
  EXPECT_EQ(plain.exec_mode, des::ExecutionMode::Sequential);
  EXPECT_EQ(plain.fault_seed, 0u);  // no fault timeline attached

  const mapping::SuperviseResult res = ex.run_supervised(
      mapped, supervise_options(fresh_dir("sup_clean")));
  EXPECT_EQ(res.attempts, 1);
  EXPECT_EQ(res.restored_from, -1);
  EXPECT_EQ(res.checkpoints_written, 4u);  // t = 4, 8, 12, 16
  // Checkpointing is hash-transparent: the supervised run's history is
  // bit-identical to the plain run's.
  EXPECT_EQ(res.metrics.history_hash, plain.history_hash);
}

TEST(Supervised, RetriesFromTheLatestSnapshotAfterACrash) {
  TinyExperiment fx;
  mapping::Experiment ex(fx.setup());
  const mapping::MappingResult mapped = ex.map(mapping::Approach::Top);
  const mapping::RunMetrics plain = ex.run(mapped);

  int after_calls = 0;
  CrashGuard guard([&](const char* phase) {
    if (std::strcmp(phase, "after-checkpoint") == 0 && ++after_calls == 2)
      throw ckpt::InjectedCrash("chaos kill after the second snapshot");
  });
  const mapping::SuperviseResult res = ex.run_supervised(
      mapped, supervise_options(fresh_dir("sup_retry")));
  EXPECT_EQ(res.attempts, 2);
  EXPECT_EQ(res.restored_from, 1);  // the t=8 snapshot (seq 1) survived
  EXPECT_EQ(res.checkpoints_written, 4u);  // 2 before the kill + 2 after
  EXPECT_EQ(res.metrics.history_hash, plain.history_hash);
}

TEST(Supervised, FallsBackPastACorruptedNewestSnapshot) {
  TinyExperiment fx;
  mapping::Experiment ex(fx.setup());
  const mapping::MappingResult mapped = ex.map(mapping::Approach::Top);
  const mapping::RunMetrics plain = ex.run(mapped);

  const std::string dir = fresh_dir("sup_corrupt");
  const mapping::SuperviseResult first =
      ex.run_supervised(mapped, supervise_options(dir));
  ASSERT_EQ(first.attempts, 1);
  const auto snaps = ckpt::list_checkpoints(dir);
  ASSERT_EQ(snaps.size(), 4u);
  // Corrupt the newest snapshot's payload; the supervisor must reject it
  // (CRC) and restore the second-newest instead.
  flip_byte(snaps.back().second, 20 + 40);

  const mapping::SuperviseResult second =
      ex.run_supervised(mapped, supervise_options(dir));
  EXPECT_EQ(second.attempts, 1);
  EXPECT_EQ(second.restored_from,
            static_cast<std::int64_t>(snaps[snaps.size() - 2].first));
  EXPECT_EQ(second.metrics.history_hash, plain.history_hash);
}

TEST(Supervised, WatchdogRestartsAHungAttempt) {
  TinyExperiment fx;
  mapping::Experiment ex(fx.setup());
  const mapping::MappingResult mapped = ex.map(mapping::Approach::Top);
  const mapping::RunMetrics plain = ex.run(mapped);

  bool stalled = false;
  CrashGuard guard([&](const char* phase) {
    if (!stalled && std::strcmp(phase, "before-checkpoint") == 0) {
      stalled = true;  // stall exactly once, in the first attempt
      std::this_thread::sleep_for(std::chrono::milliseconds(2000));
    }
  });
  mapping::SuperviseOptions opt = supervise_options(fresh_dir("sup_hang"));
  opt.watchdog_timeout_s = 0.5;
  opt.max_attempts = 2;
  const mapping::SuperviseResult res = ex.run_supervised(mapped, opt);
  EXPECT_EQ(res.attempts, 2);
  EXPECT_EQ(res.restored_from, 0);  // the snapshot committed after the stall
  EXPECT_EQ(res.metrics.history_hash, plain.history_hash);
}

TEST(Supervised, RecoversUnderARandomFaultPlanAndRecordsItsSeed) {
  ChaosNet fx;
  fault::RandomFaultParams params;
  params.seed = 7;
  params.horizon_s = kHorizon;
  params.link_faults = 3;
  const fault::FaultPlan plan = fault::FaultPlan::random(fx.net, params);
  const fault::FaultTimeline timeline(fx.net, plan);

  mapping::ExperimentSetup setup;
  setup.network = &fx.net;
  setup.routes = &fx.tables;
  setup.workload = fx.workload;
  setup.engines = 3;
  setup.horizon = kHorizon;
  setup.faults = &timeline;
  mapping::Experiment ex(std::move(setup));
  const mapping::MappingResult mapped = ex.map(mapping::Approach::Top);
  const mapping::RunMetrics plain = ex.run(mapped);
  EXPECT_EQ(plain.fault_seed, 7u);

  int after_calls = 0;
  CrashGuard guard([&](const char* phase) {
    if (std::strcmp(phase, "after-checkpoint") == 0 && ++after_calls == 2)
      throw ckpt::InjectedCrash("chaos kill under the fault plan");
  });
  mapping::SuperviseOptions opt = supervise_options(fresh_dir("sup_faults"));
  opt.checkpoint_period_s = kPeriod;
  const mapping::SuperviseResult res = ex.run_supervised(mapped, opt);
  EXPECT_EQ(res.attempts, 2);
  EXPECT_GE(res.restored_from, 0);
  EXPECT_EQ(res.metrics.history_hash, plain.history_hash);
  EXPECT_EQ(res.metrics.fault_seed, 7u);
}

TEST(Supervised, AdaptiveRunKeepsItsDecisionsAcrossACrash) {
  // The rebalance controller rides in the snapshot's extra section: a crash
  // mid-run restores it, and the supervised run (snapshots included) makes
  // the same decisions with the same history as an unsupervised one.
  const ckpt_scenario::AppNet fx;
  constexpr double kAppHorizon = ckpt_scenario::kDuration + 2.0;
  mapping::ExperimentSetup setup;
  setup.network = &fx.net();
  setup.routes = &fx.tables;
  setup.workload = fx.workload(
      {ckpt_scenario::Family::LbPeakEwma, ckpt_scenario::Family::Cbr});
  setup.engines = 2;
  setup.horizon = kAppHorizon;
  setup.faults = &fx.timeline;
  setup.emulator.reliable.base_timeout_s = 0.25;
  mapping::Experiment ex(std::move(setup));
  mapping::MappingResult mapped = ex.map(mapping::Approach::Top);
  // Every node on engine 0 but the last host: real imbalance to act on.
  mapped.node_engine.assign(static_cast<std::size_t>(fx.net().node_count()),
                            0);
  mapped.node_engine[static_cast<std::size_t>(fx.net().hosts().back())] = 1;

  rebalance::RebalanceConfig rcfg;
  rcfg.start_s = 1.0;
  rcfg.period_s = 1.0;
  rcfg.window_s = 30.0;
  rcfg.max_safepoints = 5;
  rcfg.policy.trigger = 0.05;
  rcfg.policy.hysteresis = 1;
  rcfg.policy.cooldown_s = 0.0;
  rcfg.policy.min_gain_s = -1e9;  // accept any genuine imbalance win
  rebalance::Controller controller(fx.net(), fx.tables, rcfg);
  ex.set_emulator_hook([&controller](emu::Emulator& emulator, double horizon) {
    controller.install(emulator, horizon);
  });

  const mapping::RunMetrics plain = ex.run(mapped);
  const std::vector<rebalance::RebalanceDecision> expected =
      controller.decisions();
  ASSERT_EQ(expected.size(), 5u);
  int migrations = 0;
  for (const auto& d : expected) migrations += d.migrated ? 1 : 0;
  EXPECT_GE(migrations, 2);

  mapping::SuperviseOptions opt =
      supervise_options(fresh_dir("sup_controller"));
  opt.checkpoint_period_s = 1.5;  // snapshot-only safepoints between decisions
  opt.keep = 8;
  ckpt_scenario::carry_controller(opt, controller);
  int after_calls = 0;
  CrashGuard guard([&](const char* phase) {
    if (std::strcmp(phase, "after-checkpoint") == 0 && ++after_calls == 2)
      throw ckpt::InjectedCrash("chaos kill between two migrations");
  });
  const mapping::SuperviseResult res = ex.run_supervised(mapped, opt);
  EXPECT_EQ(res.attempts, 2);
  EXPECT_EQ(res.restored_from, 1);  // the t=3 snapshot
  EXPECT_EQ(res.metrics.history_hash, plain.history_hash);

  const std::vector<rebalance::RebalanceDecision>& got = controller.decisions();
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "decision " << i);
    EXPECT_EQ(got[i].t, expected[i].t);
    EXPECT_EQ(got[i].imbalance, expected[i].imbalance);
    EXPECT_EQ(got[i].projected_before, expected[i].projected_before);
    EXPECT_EQ(got[i].projected_after, expected[i].projected_after);
    EXPECT_EQ(got[i].migration_bytes, expected[i].migration_bytes);
    EXPECT_EQ(got[i].nodes_moved, expected[i].nodes_moved);
    EXPECT_EQ(got[i].migrated, expected[i].migrated);
  }
}

}  // namespace
}  // namespace massf
