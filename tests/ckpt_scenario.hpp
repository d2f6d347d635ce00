// Every checkpointed endpoint family on one small network, shared by the
// snapshot golden digest and the per-family kill-and-restore tests
// (tests/test_ckpt_golden.cpp).
//
// The topology is the two-tier RPC/LB scenario (app/scenario.hpp) plus one
// extra "apps" rack hanging off the core router; each family runs on its
// own slice of that rack, so any subset can be installed side by side (an
// emulator host carries at most one endpoint). The rack-0 backend uplink
// is cut for part of the run, so every family crosses a fault epoch.
//
// The snapshot plumbing — reading a committed payload, restoring a rebuilt
// emulator from it, carrying a rebalance controller's state in the
// snapshot's extra section — lives here too, next to the fixture.
#pragma once

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "app/scenario.hpp"
#include "ckpt/ckpt.hpp"
#include "core/pipeline.hpp"
#include "emu/emulator.hpp"
#include "fault/fault.hpp"
#include "rebalance/rebalancer.hpp"
#include "routing/routing.hpp"
#include "traffic/cbr.hpp"
#include "traffic/gridnpb.hpp"
#include "traffic/http.hpp"
#include "traffic/scalapack.hpp"
#include "traffic/workload.hpp"

namespace massf::ckpt_scenario {

using topology::NodeId;

/// One checkpointed endpoint family (the RPC server, client and LB roles
/// always run together, under the named LB policy).
enum class Family { LbLeastRequest, LbPeakEwma, Cbr, Http, Scalapack, GridNpb };

inline const char* family_name(Family f) {
  switch (f) {
    case Family::LbLeastRequest: return "lb_least_request";
    case Family::LbPeakEwma: return "lb_peak_ewma";
    case Family::Cbr: return "cbr";
    case Family::Http: return "http";
    case Family::Scalapack: return "scalapack";
    case Family::GridNpb: return "gridnpb";
  }
  return "?";
}

/// Simulated seconds the generators run for; the fault window and the
/// snapshot instants all fall inside it.
constexpr double kDuration = 6.0;

/// Hosts on the apps rack per family slice.
constexpr int kSliceHosts = 8;

inline app::LbScenarioParams lb_params(app::PolicyKind policy) {
  app::LbScenarioParams p;
  p.backends = 4;
  p.client_hosts = 4;
  p.users_per_host = 100;
  p.rate_per_user = 4.0;
  p.duration_s = kDuration;
  p.policy = policy;
  return p;
}

struct AppNet {
  app::LbScenario scenario;
  std::vector<NodeId> apps;  // the apps rack, kSliceHosts per family slice
  routing::RoutingTables tables;
  fault::FaultTimeline timeline;

  AppNet()
      : scenario(build()),
        apps(app_hosts(scenario)),
        tables(routing::RoutingTables::build(scenario.net)),
        timeline(scenario.net, outage(scenario)) {}

  const topology::Network& net() const { return scenario.net; }

  /// Hosts of one family slice on the apps rack.
  std::vector<NodeId> slice(int index) const {
    const auto first = apps.begin() + index * kSliceHosts;
    return {first, first + kSliceHosts};
  }

  /// The workload for a set of families, each on its own hosts.
  std::shared_ptr<traffic::CompositeWorkload> workload(
      const std::vector<Family>& families) const {
    auto composite = std::make_shared<traffic::CompositeWorkload>();
    for (Family f : families) composite->add(family(f));
    return composite;
  }

  static app::LbScenario build() {
    app::LbScenario s =
        app::make_lb_scenario(lb_params(app::PolicyKind::PeakEwma));
    const NodeId rack = s.net.add_router("rackA");
    s.net.add_link(rack, s.core, topology::Mbps(1000),
                   topology::milliseconds(0.5));
    for (int h = 0; h < 4 * kSliceHosts; ++h) {
      const NodeId host = s.net.add_host("app" + std::to_string(h));
      s.net.add_link(host, rack, topology::Mbps(1000),
                     topology::milliseconds(0.2));
    }
    return s;
  }

  static std::vector<NodeId> app_hosts(const app::LbScenario& s) {
    std::vector<NodeId> out;
    for (int h = 0; h < 4 * kSliceHosts; ++h)
      out.push_back(s.net.find_node("app" + std::to_string(h)));
    return out;
  }

  static fault::FaultPlan outage(const app::LbScenario& s) {
    fault::FaultPlan plan;
    plan.link_outage(s.degraded_uplink, 1.5, 3.5);
    return plan;
  }

  /// One family's workload on its own hosts.
  std::shared_ptr<traffic::Workload> family(Family f) const {
    switch (f) {
      case Family::LbLeastRequest:
        return std::make_shared<app::LbWorkload>(
            scenario, lb_params(app::PolicyKind::LeastRequest));
      case Family::LbPeakEwma:
        return std::make_shared<app::LbWorkload>(
            scenario, lb_params(app::PolicyKind::PeakEwma));
      case Family::Cbr: {
        const std::vector<NodeId> hosts = slice(0);
        std::vector<traffic::CbrFlowSpec> flows;
        for (int i = 0; i < 4; ++i) {
          traffic::CbrFlowSpec flow;
          flow.src = hosts[static_cast<std::size_t>(i)];
          flow.dst = hosts[static_cast<std::size_t>(4 + i)];
          flow.message_bytes = 6000 + 1000.0 * i;
          flow.interval_s = 0.05 + 0.01 * i;
          flow.jitter = 1.0;
          flow.start_s = 0.1 * i;
          flows.push_back(flow);
        }
        traffic::CbrParams params;
        params.duration_s = kDuration;
        params.seed = 31;
        params.reliable = true;
        return std::make_shared<traffic::CbrTraffic>(std::move(flows),
                                                     params);
      }
      case Family::Http: {
        const std::vector<NodeId> mine = slice(1);
        std::vector<NodeId> excluded;
        for (NodeId h : scenario.net.hosts())
          if (std::find(mine.begin(), mine.end(), h) == mine.end())
            excluded.push_back(h);
        traffic::HttpParams params;
        params.server_number = 2;
        params.clients_per_server = 3;
        params.think_time_s = 0.3;
        params.request_size_bytes = 40e3;
        params.duration_s = kDuration;
        params.seed = 41;
        return std::make_shared<traffic::HttpBackground>(scenario.net, params,
                                                         excluded);
      }
      case Family::Scalapack: {
        traffic::ScalapackParams params;
        params.matrix_n = 1000;
        params.block_nb = 100;
        params.total_compute_s = 24;
        params.reliable = true;
        return std::make_shared<traffic::ScalapackApp>(slice(2), params);
      }
      case Family::GridNpb: {
        traffic::GridNpbParams params;
        params.rounds = 2;
        params.unit_compute_s = 0.5;
        params.unit_bytes = 30e3;
        params.reliable = true;
        return std::make_shared<traffic::WorkflowApp>(
            traffic::make_gridnpb(slice(3), params));
      }
    }
    return nullptr;
  }
};

/// The committed payload of a snapshot file (the bytes after the container
/// header that the CRC covers).
inline std::vector<unsigned char> snapshot_payload(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::vector<unsigned char> bytes((std::istreambuf_iterator<char>(in)),
                                   std::istreambuf_iterator<char>());
  constexpr std::size_t kHeaderBytes = 20;
  if (bytes.size() < kHeaderBytes) return {};
  return {bytes.begin() + kHeaderBytes, bytes.end()};
}

/// Carry a rebalance controller's state in every snapshot's extra section.
inline void carry_controller(emu::CheckpointConfig& cfg,
                             rebalance::Controller& controller) {
  cfg.extra = [&controller](ckpt::Io& io) { controller.checkpoint(io); };
}

inline void carry_controller(mapping::SuperviseOptions& options,
                             rebalance::Controller& controller) {
  options.extra = [&controller](ckpt::Io& io) { controller.checkpoint(io); };
}

/// Restore a freshly rebuilt emulator from the snapshot at `path`; returns
/// the snapshot's simulation time.
inline des::SimTime restore_from(emu::Emulator& emulator,
                                 const std::string& path) {
  ckpt::Reader reader = ckpt::Reader::from_file(path);
  ckpt::Io io(reader);
  return emulator.checkpoint(io);
}

}  // namespace massf::ckpt_scenario
