// Snapshot safety net (DESIGN.md §12).
//
//   * Golden digest: an FNV-1a digest of one full snapshot payload of a run
//     that holds every checkpointed kind — the RPC/LB scenario under
//     peak-EWMA with reliable messages pending and requests in flight,
//     CBR, HTTP, ScaLapack and GridNPB endpoints, NetFlow, a fault
//     timeline, a rebalance migration and an extra section carrying the
//     rebalance controller. Sequential only, under both sync modes: the
//     per-engine idle_wait/parks fields measure wall time under Threaded.
//     A changed digest means the snapshot layout or a field's value moved.
//   * Kill-and-restore identity per endpoint family: a run killed after
//     its second snapshot and restored into a rebuilt emulator finishes
//     with the uninterrupted run's history_hash.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "ckpt_scenario.hpp"

namespace massf {
namespace {

using ckpt_scenario::AppNet;
using ckpt_scenario::Family;

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "massf_ckpt_golden_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

/// Installs a ckpt crash hook for the enclosing scope, clears it on exit.
struct CrashGuard {
  explicit CrashGuard(ckpt::CrashHook hook) {
    ckpt::set_crash_hook(std::move(hook));
  }
  ~CrashGuard() { ckpt::set_crash_hook(nullptr); }
};

/// Kill the run at the `kill_at`-th "after-checkpoint" phase.
CrashGuard kill_after_checkpoint(int kill_at) {
  return CrashGuard([kill_at, calls = 0](const char* phase) mutable {
    if (std::strcmp(phase, "after-checkpoint") == 0 && ++calls == kill_at)
      throw ckpt::InjectedCrash("kill after a snapshot");
  });
}

const char* sync_name(des::SyncMode m) {
  return m == des::SyncMode::GlobalWindow ? "global" : "channel";
}

std::uint64_t fnv1a(const std::vector<unsigned char>& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char b : bytes) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

rebalance::RebalanceConfig eager_rebalance() {
  rebalance::RebalanceConfig rcfg;
  rcfg.start_s = 1.0;
  rcfg.period_s = 1.0;
  rcfg.window_s = 30.0;
  rcfg.max_safepoints = 5;
  rcfg.policy.trigger = 0.05;
  rcfg.policy.hysteresis = 1;
  rcfg.policy.cooldown_s = 0.0;
  rcfg.policy.min_gain_s = -1e9;  // accept any genuine imbalance win
  return rcfg;
}

/// Every node on engine 0 but the last host, so the controller sees real
/// imbalance and migrates.
std::vector<int> skewed_placement(const topology::Network& net) {
  std::vector<int> placement(static_cast<std::size_t>(net.node_count()), 0);
  placement[static_cast<std::size_t>(net.hosts().back())] = 1;
  return placement;
}

// ---------------------------------------------------------------------------
// Golden digest
// ---------------------------------------------------------------------------

constexpr double kGoldenAt = 3.0;

struct GoldenCase {
  des::SyncMode sync;
  std::uint64_t digest;
};

TEST(CkptGolden, SnapshotPayloadDigestIsStable) {
  const AppNet fx;
  const GoldenCase cases[] = {
      {des::SyncMode::GlobalWindow, 0x700ad7255d8468b3ULL},
      {des::SyncMode::ChannelLookahead, 0xae8d2a67845797c2ULL},
  };
  for (const GoldenCase& g : cases) {
    SCOPED_TRACE(sync_name(g.sync));
    const auto lb = fx.family(Family::LbPeakEwma);
    const auto apps = fx.workload(
        {Family::Cbr, Family::Http, Family::Scalapack, Family::GridNpb});

    emu::EmulatorConfig config;
    config.sync_mode = g.sync;
    config.reliable.base_timeout_s = 0.25;
    emu::Emulator emulator(fx.net(), fx.tables, skewed_placement(fx.net()), 2,
                           config);
    emulator.set_fault_timeline(&fx.timeline);
    lb->install(emulator);
    apps->install(emulator);
    rebalance::Controller controller(fx.net(), fx.tables, eager_rebalance());
    controller.install(emulator, kGoldenAt + 0.25);

    emu::CheckpointConfig cfg;
    cfg.dir = fresh_dir(std::string("digest_") + sync_name(g.sync));
    cfg.first_s = kGoldenAt;
    cfg.period_s = 100.0;
    ckpt_scenario::carry_controller(cfg, controller);
    std::string path;
    const auto& counters = static_cast<const app::LbWorkload&>(*lb);
    cfg.on_checkpoint = [&](std::uint64_t, const std::string& written) {
      path = written;
      // The snapshot holds live in-flight state of every kind it claims.
      const app::LbCounters c = counters.lb_counters();
      EXPECT_GT(c.requests_forwarded, c.responses_relayed + c.backend_errors)
          << "requests in flight";
      const emu::EmulatorStats s = emulator.stats();
      EXPECT_GT(s.reliable_messages_sent,
                s.reliable_messages_acked + s.reliable_messages_failed)
          << "reliable messages pending";
      EXPECT_EQ(emulator.rebalance_stats().rebalances, 1u);
    };
    emulator.set_checkpoint_schedule(cfg, kGoldenAt + 0.25);
    emulator.run(kGoldenAt + 0.25);
    ASSERT_FALSE(path.empty());
    ASSERT_GE(controller.decisions().size(), 2u);

    const std::vector<unsigned char> payload =
        ckpt_scenario::snapshot_payload(path);
    ASSERT_FALSE(payload.empty());
    const std::uint64_t digest = fnv1a(payload);
    char hex[32];
    std::snprintf(hex, sizeof hex, "0x%016llxULL",
                  static_cast<unsigned long long>(digest));
    EXPECT_EQ(digest, g.digest) << "payload digest " << hex << " over "
                                << payload.size() << " bytes";
  }
}

// ---------------------------------------------------------------------------
// Kill-and-restore identity per endpoint family
// ---------------------------------------------------------------------------

constexpr double kHorizon = ckpt_scenario::kDuration + 2.0;
constexpr double kPeriod = 1.5;

struct Outcome {
  std::uint64_t hash = 0;
  emu::EmulatorStats stats{};
};

std::unique_ptr<emu::Emulator> build(const AppNet& fx, Family family,
                                     des::SyncMode sync) {
  std::vector<int> placement(static_cast<std::size_t>(fx.net().node_count()));
  for (std::size_t i = 0; i < placement.size(); ++i)
    placement[i] = static_cast<int>(i) % 3;
  emu::EmulatorConfig config;
  config.sync_mode = sync;
  config.reliable.base_timeout_s = 0.25;
  auto emulator = std::make_unique<emu::Emulator>(
      fx.net(), fx.tables, std::move(placement), 3, config);
  emulator->set_fault_timeline(&fx.timeline);
  fx.family(family)->install(*emulator);
  return emulator;
}

emu::CheckpointConfig every_period(const std::string& dir,
                                   std::uint64_t first_seq = 0) {
  emu::CheckpointConfig cfg;
  cfg.dir = dir;
  cfg.period_s = kPeriod;
  cfg.keep = 8;
  cfg.first_seq = first_seq;
  return cfg;
}

Outcome finish(emu::Emulator& emulator) {
  emulator.run(kHorizon);
  return {emulator.kernel_stats().history_hash, emulator.stats()};
}

class FamilyRestore
    : public ::testing::TestWithParam<std::tuple<Family, des::SyncMode>> {};

TEST_P(FamilyRestore, KillAndRestoreIsBitIdentical) {
  const auto [family, sync] = GetParam();
  const AppNet fx;
  const std::string label =
      std::string(ckpt_scenario::family_name(family)) + "_" + sync_name(sync);

  auto base = build(fx, family, sync);
  base->set_checkpoint_schedule(every_period(fresh_dir("base_" + label)),
                                kHorizon);
  const Outcome uninterrupted = finish(*base);
  EXPECT_GT(uninterrupted.stats.messages_delivered, 0u);

  const std::string dir = fresh_dir("kill_" + label);
  {
    auto victim = build(fx, family, sync);
    victim->set_checkpoint_schedule(every_period(dir), kHorizon);
    const CrashGuard guard = kill_after_checkpoint(2);
    EXPECT_THROW(victim->run(kHorizon), ckpt::InjectedCrash);
  }
  const auto snapshots = ckpt::list_checkpoints(dir);
  ASSERT_EQ(snapshots.size(), 2u);
  auto revived = build(fx, family, sync);
  EXPECT_DOUBLE_EQ(
      ckpt_scenario::restore_from(*revived, snapshots.back().second),
      2 * kPeriod);
  revived->set_checkpoint_schedule(
      every_period(dir, snapshots.back().first + 1), kHorizon);
  const Outcome recovered = finish(*revived);

  EXPECT_EQ(recovered.hash, uninterrupted.hash);
  EXPECT_EQ(recovered.stats.messages_delivered,
            uninterrupted.stats.messages_delivered);
  EXPECT_EQ(recovered.stats.reliable_messages_acked,
            uninterrupted.stats.reliable_messages_acked);
  EXPECT_EQ(recovered.stats.retransmissions,
            uninterrupted.stats.retransmissions);
  EXPECT_DOUBLE_EQ(recovered.stats.bytes_delivered,
                   uninterrupted.stats.bytes_delivered);
}

INSTANTIATE_TEST_SUITE_P(
    Families, FamilyRestore,
    ::testing::Combine(
        ::testing::Values(Family::LbLeastRequest, Family::LbPeakEwma,
                          Family::Cbr, Family::Http, Family::Scalapack,
                          Family::GridNpb),
        ::testing::Values(des::SyncMode::GlobalWindow,
                          des::SyncMode::ChannelLookahead)),
    [](const auto& info) {
      return std::string(ckpt_scenario::family_name(std::get<0>(info.param))) +
             "_" + sync_name(std::get<1>(info.param));
    });

}  // namespace
}  // namespace massf
