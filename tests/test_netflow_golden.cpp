// Golden NetFlow digest: a fixed campus workload whose profiling output is
// pinned to one recorded FNV-1a value. Covered: node_packets(),
// link_packets(), node_series(), every node_flows(v) and the bytes of the
// collector's checkpoint section. The workload gives routers hundreds of
// flows each and migrates every fifth node at one rehoming safepoint, so
// flow records keep accumulating on a node after it changed engines.
//
// The digest must be the same under every sync mode × execution mode
// combination, and must not move when the collector's storage changes:
// record order in every output is by flow id, never by storage layout.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "ckpt/ckpt.hpp"
#include "emu/emulator.hpp"
#include "routing/routing.hpp"
#include "topology/topologies.hpp"

namespace massf::emu {
namespace {

class Fnv {
 public:
  void bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t k = 0; k < size; ++k) {
      hash_ ^= p[k];
      hash_ *= 1099511628211ULL;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof(v)); }
  void f64(double v) { bytes(&v, sizeof(v)); }
  void row(const std::vector<double>& values) {
    u64(values.size());
    for (double v : values) f64(v);
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 1469598103934665603ULL;
};

constexpr int kEngines = 3;
constexpr double kSafepoint = 10.0;
constexpr double kEndTime = 40.0;

/// FNV-1a over everything the collector reports after the fixed workload.
std::uint64_t run_digest(const topology::Network& net,
                         const routing::RoutingTables& tables,
                         des::SyncMode sync, des::ExecutionMode exec) {
  std::vector<int> placement(static_cast<std::size_t>(net.node_count()));
  for (std::size_t i = 0; i < placement.size(); ++i)
    placement[i] = static_cast<int>(i) % kEngines;
  std::vector<int> target = placement;
  for (std::size_t i = 0; i < target.size(); i += 5)
    target[i] = (target[i] + 1) % kEngines;

  EmulatorConfig config;
  config.sync_mode = sync;
  config.bucket_width = 1.5;
  Emulator emulator(net, tables, placement, kEngines, config);

  // Every host opens 24 flows (distinct destination/tag pairs) spread over
  // the run, both before and after the safepoint.
  const auto hosts = net.hosts();
  const int n = static_cast<int>(hosts.size());
  for (int i = 0; i < n; ++i) {
    for (int k = 0; k < 24; ++k) {
      const NodeId src = hosts[static_cast<std::size_t>(i)];
      const NodeId dst = hosts[static_cast<std::size_t>((i * 7 + 3 + k * 11) % n)];
      if (src == dst) continue;
      const double at = 0.37 * static_cast<double>((i * 13 + k * 5) % 71);
      emulator.send_message(src, dst, 3000.0 + 1500.0 * ((i + k) % 7), k, at);
    }
  }
  emulator.add_rebalance_safepoint(kSafepoint);
  emulator.set_rebalance_hook(
      [&emulator, target](des::SimTime) { emulator.migrate_nodes(target); });
  emulator.run(kEndTime, exec);
  EXPECT_EQ(emulator.rebalance_stats().rebalances, 1u);

  const NetFlowCollector& flows = emulator.netflow();
  Fnv fnv;
  fnv.row(flows.node_packets());
  fnv.row(flows.link_packets());
  const auto series = flows.node_series();
  fnv.u64(series.size());
  for (const auto& row : series) fnv.row(row);
  std::size_t records = 0;
  for (NodeId v = 0; v < net.node_count(); ++v) {
    const std::vector<FlowRecord> at = flows.node_flows(v);
    records += at.size();
    fnv.u64(at.size());
    for (const FlowRecord& r : at) {
      fnv.u64(r.flow);
      fnv.f64(r.packets);
      fnv.f64(r.bytes);
      fnv.f64(r.first_seen);
      fnv.f64(r.last_seen);
    }
  }
  EXPECT_GT(records, 2000u);  // many flows per node, not a handful
  NetFlowCollector walked(flows);
  ckpt::Writer w;
  ckpt::Io io(w);
  walked.checkpoint(io);
  fnv.u64(w.size());
  fnv.bytes(w.payload().data(), w.size());
  return fnv.value();
}

TEST(NetFlowGolden, DigestPinnedAcrossAllModes) {
  const topology::Network net = topology::make_campus();
  const routing::RoutingTables tables = routing::RoutingTables::build(net);
  constexpr std::uint64_t kExpected = 0x3932d14a0c713a27ULL;
  for (const auto sync : {des::SyncMode::GlobalWindow,
                          des::SyncMode::ChannelLookahead}) {
    for (const auto exec : {des::ExecutionMode::Sequential,
                            des::ExecutionMode::Threaded}) {
      SCOPED_TRACE(std::string(des::to_string(sync)) +
                   (exec == des::ExecutionMode::Sequential ? " sequential"
                                                           : " threaded"));
      EXPECT_EQ(run_digest(net, tables, sync, exec), kExpected);
    }
  }
}

}  // namespace
}  // namespace massf::emu
