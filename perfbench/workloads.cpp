#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "app/scenario.hpp"
#include "bench/common.hpp"
#include "core/mapper.hpp"
#include "emu/emulator.hpp"
#include "fault/fault.hpp"
#include "partition/partition.hpp"
#include "routing/hierarchical.hpp"
#include "routing/routing.hpp"
#include "topology/topologies.hpp"
#include "traffic/cbr.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace perfbench {
namespace {

using massf::mix_seed;
using massf::Rng;
using massf::topology::NodeId;
namespace emu = massf::emu;
namespace des = massf::des;

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

void put(Record& record, const std::string& name, double value) {
  auto it = record.stats.find(name);
  if (it == record.stats.end())
    throw std::logic_error("unknown per-layer stat '" + name + "'");
  it->second = value;
}

void check(Record& record, const std::string& name, bool ok,
           const std::string& detail) {
  record.checks.push_back({name, ok, detail});
}

/// Names of the per-layer counters a Record carries.
const std::vector<std::string>& stat_names() {
  static const std::vector<std::string> names = {
      "topology.build_s",
      "routing.build_s",
      "routing.memory_mb",
      "routing.lookup_ns",
      "mapper.map_top_s",
      "mapper.profile_run_s",
      "mapper.estimate_profile_s",
      "mapper.partition_s",
      "mapper.worst_balance",
      "mapper.links_cut",
      "mapper.lookahead_ms",
      "mapper.segments",
      "partition.build_s",
      "partition.edge_cut",
      "partition.worst_balance",
      "emu.setup_s",
      "emu.trains_per_s",
      "emu.trains_delivered",
      "emu.trains_dropped",
      "emu.retransmissions",
      "des.events",
      "des.events_per_s",
      "des.windows",
      "des.remote_share",
      "des.events_per_handoff",
      "des.threaded_s",
      "des.parks",
      "des.idle_wait_share",
      "des.channel_advances",
      "des.idle_jumps",
      "app.requests",
      "app.responses",
      "app.stale_responses",
      "app.send_failures",
      "app.backend_errors",
      "app.p50_ms",
      "app.p99_ms",
      "app.degraded_p99_ms",
      "fault.epochs",
      "fault.trains_dropped",
  };
  return names;
}

Record empty_record() {
  Record record;
  for (const std::string& name : stat_names()) record.stats[name] = 0;
  return record;
}

// ---- Checks and probes shared by the workloads ---------------------------

void check_placement(Record& record, const std::vector<int>& node_engine,
                     NodeId nodes, int engines) {
  bool ok = static_cast<NodeId>(node_engine.size()) == nodes;
  for (const int e : node_engine) ok = ok && e >= 0 && e < engines;
  std::ostringstream detail;
  detail << node_engine.size() << " nodes on " << engines << " engines";
  check(record, "placement_in_range", ok, detail.str());
}

/// EmulatorStats counter identities: every injected train ends at most
/// once, and the drop ledger matches the per-link drop counters.
void check_counters(Record& record, const emu::Emulator& emulator) {
  const emu::EmulatorStats s = emulator.stats();
  const std::uint64_t ended = s.trains_delivered + s.trains_dropped +
                              s.trains_dropped_fault +
                              s.trains_dropped_unreachable + s.trains_expired;
  std::uint64_t ledger = 0;
  const auto links = emulator.network().link_count();
  for (massf::topology::LinkId l = 0; l < links; ++l)
    ledger += emulator.link_drops(l, 0) + emulator.link_drops(l, 1);
  std::ostringstream detail;
  detail << "injected " << s.trains_injected << ", ended " << ended
         << ", drop ledger " << ledger << "/" << s.trains_dropped
         << ", messages " << s.messages_delivered << "/" << s.messages_sent;
  check(record, "emulator_counters",
        ended <= s.trains_injected && ledger == s.trains_dropped &&
            s.messages_delivered <= s.messages_sent &&
            s.reliable_messages_acked <= s.reliable_messages_sent &&
            s.trains_injected > 0,
        detail.str());
}

/// Sampled route_into paths are walks over adjacent links from src that
/// end at dst.
void check_routes(Record& record, const massf::topology::Network& net,
                  const massf::routing::RoutingView& routes,
                  const std::vector<NodeId>& hosts, std::uint64_t seed) {
  Rng rng(mix_seed(seed, 0x7a1c));
  std::vector<NodeId> path;
  int bad = 0;
  constexpr int kSamples = 200;
  for (int i = 0; i < kSamples; ++i) {
    const NodeId src = hosts[rng.next_below(hosts.size())];
    const NodeId dst = hosts[rng.next_below(hosts.size())];
    routes.route_into(src, dst, path);
    bool ok = !path.empty() && path.front() == src && path.back() == dst;
    for (std::size_t h = 1; ok && h < path.size(); ++h)
      ok = net.find_link(path[h - 1], path[h]).has_value();
    bad += ok ? 0 : 1;
  }
  std::ostringstream detail;
  detail << bad << " of " << kSamples << " sampled paths invalid";
  check(record, "route_walks", bad == 0, detail.str());
}

/// Mean host nanoseconds per hop of route_into over a seeded sample of
/// host pairs, timed from outside the routing layer.
double lookup_ns(const massf::routing::RoutingView& routes,
                 const std::vector<NodeId>& hosts, std::uint64_t seed,
                 int samples) {
  Rng rng(mix_seed(seed, 0x100c));
  std::vector<std::pair<NodeId, NodeId>> pairs(
      static_cast<std::size_t>(samples));
  for (auto& [src, dst] : pairs) {
    src = hosts[rng.next_below(hosts.size())];
    dst = hosts[rng.next_below(hosts.size())];
  }
  std::vector<NodeId> path;
  std::size_t hops = 0;
  const auto t0 = Clock::now();
  for (const auto& [src, dst] : pairs) {
    routes.route_into(src, dst, path);
    if (!path.empty()) hops += path.size() - 1;
  }
  const double elapsed = seconds_since(t0);
  return hops == 0 ? 0 : elapsed * 1e9 / static_cast<double>(hops);
}

/// Kernel and emulator counters of the measured run.
void record_run(Record& record, const emu::Emulator& emulator,
                const Tracer& tracer) {
  const des::KernelStats& ks = emulator.kernel_stats();
  const emu::EmulatorStats es = emulator.stats();
  const double emulate_s = tracer.duration("emulate");

  record.load_imbalance = massf::normalized_imbalance(ks.loads());
  record.modeled_time_s = ks.coupled_time;
  record.history_hash = ks.history_hash;

  double events = 0;
  for (const std::uint64_t e : ks.events_per_lp)
    events += static_cast<double>(e);
  const auto remote = static_cast<double>(ks.remote_messages);

  put(record, "des.events", events);
  put(record, "des.events_per_s", events / emulate_s);
  put(record, "des.windows", static_cast<double>(ks.windows));
  put(record, "des.remote_share", events > 0 ? remote / events : 0);
  put(record, "des.events_per_handoff",
      ks.handoff_runs > 0 ? remote / static_cast<double>(ks.handoff_runs) : 0);
  put(record, "des.channel_advances",
      static_cast<double>(ks.channel_advances));
  put(record, "des.idle_jumps", static_cast<double>(ks.idle_jumps));

  put(record, "emu.trains_per_s",
      static_cast<double>(es.trains_injected) / emulate_s);
  put(record, "emu.trains_delivered",
      static_cast<double>(es.trains_delivered));
  put(record, "emu.trains_dropped", static_cast<double>(es.trains_dropped));
  put(record, "emu.retransmissions", static_cast<double>(es.retransmissions));

  put(record, "fault.epochs",
      static_cast<double>(emulator.epoch_stats().size()));
  put(record, "fault.trains_dropped",
      static_cast<double>(es.trains_dropped_fault +
                          es.trains_dropped_unreachable));

  record.failed_share =
      es.messages_sent == 0
          ? 0
          : static_cast<double>(es.messages_sent - es.messages_delivered) /
                static_cast<double>(es.messages_sent);
}

void record_setup_spans(Record& record, const Tracer& tracer) {
  put(record, "topology.build_s", tracer.duration("topology.build"));
  put(record, "routing.build_s", tracer.duration("routing.build"));
  put(record, "partition.build_s", tracer.duration("partition.build"));
  put(record, "emu.setup_s", tracer.duration("emu.setup"));
}

// ---- profile-brite -------------------------------------------------------
// The paper's Table 2 case: BriteLarge, ScaLapack + HTTP background, 20
// engines, PROFILE mapping, Sequential × GlobalWindow.

Record run_profile_brite(const Options& options, Tracer& tr) {
  Record record = empty_record();
  std::unique_ptr<massf::bench::TopologyCase> topo;
  massf::bench::WorkloadBundle bundle;
  massf::mapping::ExperimentSetup setup;
  std::unique_ptr<massf::mapping::Mapper> mapper;
  std::unique_ptr<emu::NetFlowCollector> netflow;
  std::vector<std::vector<double>> series;
  massf::mapping::MappingResult mapped;
  std::unique_ptr<emu::Emulator> emulator;
  double horizon = 0;

  tr.phase("experiment", "", [&] {
    tr.phase("setup", "", [&] {
      // bench/common.cpp's "BriteLarge" case (Table 2), built in two spans.
      massf::topology::Network net = tr.span("topology.build", "topology", [&] {
        massf::topology::BriteParams params;
        if (!options.smoke) {
          params.routers = 200;
          params.hosts = 364;
          params.seed = 97;
        }
        return massf::topology::make_brite(params);
      });
      massf::routing::RoutingTables routes =
          tr.span("routing.build", "routing", [&] {
            return massf::routing::RoutingTables::build(net);
          });
      topo = std::make_unique<massf::bench::TopologyCase>(
          massf::bench::TopologyCase{"BriteLarge", std::move(net),
                                     std::move(routes),
                                     options.smoke ? 4 : 20});
      bundle = tr.span("traffic.build", "traffic", [&] {
        return massf::bench::make_workload(*topo, massf::bench::App::Scalapack,
                                           options.seed);
      });
      const massf::traffic::Workload& workload = *bundle.workload;
      setup = massf::bench::make_setup(*topo, bundle, 0);
      setup.mapping.engines = topo->engines;
      setup.emulator.bucket_width =
          std::max(setup.emulator.bucket_width, 1e-3);
      horizon = workload.duration() * (options.smoke ? 0.5 : 2.5);

      mapper = std::make_unique<massf::mapping::Mapper>(topo->network,
                                                        topo->routes);
      const massf::mapping::MappingResult top =
          tr.span("mapper.map_top", "mapper",
                  [&] { return mapper->map_top(setup.mapping); });
      // PROFILE's profiling run: the TOP partition, NetFlow on.
      tr.span("mapper.profile_run", "mapper", [&] {
        emu::EmulatorConfig config = setup.emulator;
        config.collect_netflow = true;
        emu::Emulator profiler(topo->network, topo->routes, top.node_engine,
                               topo->engines, config);
        workload.install(profiler);
        profiler.run(horizon, des::ExecutionMode::Sequential);
        netflow = std::make_unique<emu::NetFlowCollector>(profiler.netflow());
        series = profiler.kernel_stats().load_series;
      });
      mapped = tr.span("mapper.map_profile", "mapper", [&] {
        return mapper->map_profile(*netflow, series, setup.mapping);
      });
      tr.span("emu.setup", "emu", [&] {
        emulator = std::make_unique<emu::Emulator>(
            topo->network, topo->routes, mapped.node_engine, topo->engines,
            setup.emulator);
        workload.install(*emulator);
      });
    });
    tr.phase("emulate", "emulate", [&] {
      emulator->run(horizon, des::ExecutionMode::Sequential);
    });
  });

  record_run(record, *emulator, tr);
  record_setup_spans(record, tr);
  put(record, "routing.memory_mb", topo->routes.memory_bytes() / 1e6);
  put(record, "mapper.worst_balance", mapped.worst_balance);
  put(record, "mapper.links_cut", mapped.links_cut);
  put(record, "mapper.lookahead_ms", mapped.lookahead * 1e3);
  put(record, "mapper.segments", mapped.segments_used);
  put(record, "mapper.map_top_s", tr.duration("mapper.map_top"));
  put(record, "mapper.profile_run_s", tr.duration("mapper.profile_run"));

  const std::vector<NodeId> hosts = topo->network.hosts();
  check_placement(record, mapped.node_engine, topo->network.node_count(),
                  topo->engines);
  check_counters(record, *emulator);
  check_routes(record, topo->network, topo->routes, hosts, options.seed);
  if (tr.enabled()) {
    // map_profile = estimate_profile + partition + finish; the partition
    // share is derived by timing estimate_profile alone on the same inputs.
    const auto t0 = Clock::now();
    (void)mapper->estimate_profile(*netflow, series, setup.mapping);
    const double estimate_s = seconds_since(t0);
    put(record, "mapper.estimate_profile_s", estimate_s);
    put(record, "mapper.partition_s",
        tr.duration("mapper.map_profile") - estimate_s);
    put(record, "routing.lookup_ns",
        lookup_ns(topo->routes, hosts, options.seed, 200000));
  }
  return record;
}

// ---- lb-threaded ---------------------------------------------------------
// The RPC/LB scenario of bench_lb_policies with the peak-EWMA policy on 3
// engines under ChannelLookahead; rack 0's uplink is cut for the middle
// third of the 6 s generation window.
//
// The measured run executes Sequential. Threaded wall time on a shared
// 4-CPU host follows the CPU time the hypervisor steals from the three busy
// workers (4.8 s at ~1 s of steal, 10.7 s at ~8 s, same inputs), so it
// cannot be held to a bound. The traced run also runs the scenario Threaded
// on 3 workers: it must reproduce the Sequential history_hash, and its
// wall time and park/idle-wait counters are reported as des.threaded_s,
// des.parks and des.idle_wait_share.

constexpr int kLbEngines = 3;

struct LbRun {
  std::unique_ptr<emu::Emulator> emulator;
  std::unique_ptr<massf::app::LbWorkload> workload;
};

LbRun build_lb(const massf::app::LbScenario& scenario,
               const massf::app::LbScenarioParams& params,
               const massf::routing::RoutingView& routes,
               const massf::fault::FaultTimeline& timeline) {
  // Round-robin placement and configuration as in app::run_lb_scenario.
  std::vector<int> placement(
      static_cast<std::size_t>(scenario.net.node_count()));
  for (std::size_t i = 0; i < placement.size(); ++i)
    placement[i] = static_cast<int>(i) % kLbEngines;
  emu::EmulatorConfig config;
  config.reliable.base_timeout_s = params.reliable_timeout_s;
  config.sync_mode = des::SyncMode::ChannelLookahead;
  LbRun run;
  run.emulator = std::make_unique<emu::Emulator>(
      scenario.net, routes, std::move(placement), kLbEngines, config);
  run.emulator->set_fault_timeline(&timeline);
  run.workload = std::make_unique<massf::app::LbWorkload>(scenario, params);
  run.workload->install(*run.emulator);
  return run;
}

Record run_lb_threaded(const Options& options, Tracer& tr) {
  Record record = empty_record();
  massf::app::LbScenarioParams params;
  const std::int64_t users = options.smoke ? 5000 : 100000;
  params.backends = 16;
  params.client_hosts = static_cast<int>(
      std::min<std::int64_t>(40, std::max<std::int64_t>(1, users / 250)));
  params.users_per_host = static_cast<int>(
      (users + params.client_hosts - 1) / params.client_hosts);
  // ~20k requests/s offered regardless of the user count.
  params.rate_per_user = 0.2 * (100000.0 / static_cast<double>(users));
  params.duration_s = options.smoke ? 1.5 : 6.0;
  params.server.workers = 4;
  params.server.mean_s = 2e-3;
  params.policy = massf::app::PolicyKind::PeakEwma;
  params.seed = mix_seed(options.seed, 0x1b5ce);
  const double horizon = 2.0 * params.duration_s + 10.0;

  std::unique_ptr<massf::app::LbScenario> scenario;
  std::unique_ptr<massf::routing::RoutingTables> routes;
  std::unique_ptr<massf::fault::FaultTimeline> timeline;
  LbRun run;

  // Set-up takes about a millisecond here, too little to time once on a
  // shared host, so it is repeated and setup_s reports the median. The last
  // repetition's objects run.
  constexpr int kLbSetups = 9;
  tr.phase("experiment", "", [&] {
    for (int i = 0; i < kLbSetups; ++i) {
      run = {};
      timeline.reset();
      routes.reset();
      scenario.reset();
      tr.phase("setup", "", [&] {
        scenario = tr.span("topology.build", "topology", [&] {
          return std::make_unique<massf::app::LbScenario>(
              massf::app::make_lb_scenario(params));
        });
        routes = tr.span("routing.build", "routing", [&] {
          return std::make_unique<massf::routing::RoutingTables>(
              massf::routing::RoutingTables::build(scenario->net));
        });
        timeline = tr.span("fault.timeline", "fault", [&] {
          massf::fault::FaultPlan plan;
          // The middle third of the generation window: t = 2..4 s.
          plan.link_outage(scenario->degraded_uplink, params.duration_s / 3,
                           2 * params.duration_s / 3);
          return std::make_unique<massf::fault::FaultTimeline>(
              scenario->net, plan);
        });
        run = tr.span("emu.setup", "emu", [&] {
          return build_lb(*scenario, params, *routes, *timeline);
        });
      });
    }
    tr.phase("emulate", "emulate", [&] {
      run.emulator->run(horizon, des::ExecutionMode::Sequential);
    });
  });

  record_run(record, *run.emulator, tr);
  record_setup_spans(record, tr);
  put(record, "routing.memory_mb", routes->memory_bytes() / 1e6);

  const massf::app::ClientCounters clients = run.workload->client_totals();
  const massf::app::LbCounters lb = run.workload->lb_counters();
  const double requests = static_cast<double>(clients.requests_sent);
  const double responses = static_cast<double>(clients.responses_received);
  put(record, "app.requests", requests);
  put(record, "app.responses", responses);
  put(record, "app.stale_responses",
      static_cast<double>(clients.stale_responses + lb.stale_responses));
  put(record, "app.send_failures", static_cast<double>(clients.send_failures));
  put(record, "app.backend_errors", static_cast<double>(lb.backend_errors));
  record.failed_share = requests > 0 ? (requests - responses) / requests : 0;

  const std::vector<emu::LatencySummary> latency =
      run.emulator->latency_summaries();
  const bool one_series = latency.size() == 1;
  if (one_series) {
    const emu::LatencySummary& series = latency.front();
    put(record, "app.p50_ms", series.total.quantile(0.50) * 1e3);
    put(record, "app.p99_ms", series.total.quantile(0.99) * 1e3);
    if (series.per_epoch.size() > 1 && !series.per_epoch[1].empty())
      put(record, "app.degraded_p99_ms",
          series.per_epoch[1].quantile(0.99) * 1e3);
  }

  check_placement(record, run.emulator->node_engine(),
                  scenario->net.node_count(), kLbEngines);
  check_counters(record, *run.emulator);
  {
    std::ostringstream detail;
    detail << responses << " responses to " << requests << " requests";
    check(record, "requests_drain_99pct",
          requests > 0 && responses >= 0.99 * requests, detail.str());
  }
  {
    const std::size_t epochs = run.emulator->epoch_stats().size();
    check(record, "three_fault_epochs",
          epochs == 3 && timeline->epoch_count() == 3,
          std::to_string(epochs) + " epochs");
  }
  check(record, "one_latency_series", one_series,
        std::to_string(latency.size()) + " series");

  std::vector<NodeId> hosts = scenario->net.hosts();
  check_routes(record, scenario->net, *routes, hosts, options.seed);
  if (tr.enabled()) {
    put(record, "routing.lookup_ns",
        lookup_ns(*routes, hosts, options.seed, 200000));
    // The Sequential/Threaded bit-identity spine on this workload.
    LbRun threaded = build_lb(*scenario, params, *routes, *timeline);
    const auto t0 = Clock::now();
    threaded.emulator->run(horizon, des::ExecutionMode::Threaded);
    const double threaded_s = seconds_since(t0);
    const des::KernelStats& ks = threaded.emulator->kernel_stats();
    record.threaded_history_hash = ks.history_hash;
    record.max_threads = kLbEngines;
    double idle_wait = 0;
    for (const double w : ks.idle_wait_per_lp) idle_wait += w;
    put(record, "des.threaded_s", threaded_s);
    put(record, "des.parks", static_cast<double>(ks.parks));
    put(record, "des.idle_wait_share", idle_wait / (threaded_s * kLbEngines));
  }
  return record;
}

// ---- hier-1m -------------------------------------------------------------
// The 10^6-node AS/pod hierarchy: hierarchical routing, coarsen-once
// partition to 4 engines, a seeded set of cross-domain CBR flows,
// Sequential × GlobalWindow.

constexpr int kHierEngines = 4;

Record run_hier_1m(const Options& options, Tracer& tr) {
  Record record = empty_record();
  const std::int64_t target = options.smoke ? 10000 : 1000000;
  const int flow_count = options.smoke ? 50 : 500;
  constexpr double kFlowSeconds = 10.0;

  massf::topology::Network net;
  std::unique_ptr<massf::routing::HierarchicalRoutingTables> routes;
  massf::partition::PartitionResult part;
  std::unique_ptr<massf::traffic::CbrTraffic> traffic;
  std::unique_ptr<emu::Emulator> emulator;

  tr.phase("experiment", "", [&] {
    tr.phase("setup", "", [&] {
      net = tr.span("topology.build", "topology", [&] {
        return massf::topology::make_hierarchy(
            massf::topology::hierarchy_params_for_nodes(target));
      });
      routes = tr.span("routing.build", "routing", [&] {
        return std::make_unique<massf::routing::HierarchicalRoutingTables>(
            massf::routing::HierarchicalRoutingTables::build(net));
      });
      part = tr.span("partition.build", "partition", [&] {
        massf::partition::PartitionOptions popts;
        popts.parts = kHierEngines;
        popts.seed = 7;
        return massf::partition::partition_hierarchical(
            net.to_graph(), net.domain_of_nodes(), popts);
      });
      traffic = tr.span("traffic.build", "traffic", [&] {
        // Seeded CBR flows between hosts in different domains.
        const std::vector<NodeId> hosts = net.hosts();
        Rng rng(mix_seed(options.seed, 0xcb7));
        std::vector<massf::traffic::CbrFlowSpec> flows;
        flows.reserve(static_cast<std::size_t>(flow_count));
        for (int i = 0; i < flow_count; ++i) {
          massf::traffic::CbrFlowSpec flow;
          flow.src = hosts[rng.next_below(hosts.size())];
          do {
            flow.dst = hosts[rng.next_below(hosts.size())];
          } while (net.node_domain(flow.dst) == net.node_domain(flow.src));
          flow.message_bytes = 15000;
          flow.interval_s = 0.1;
          flow.jitter = 1;
          flow.start_s = rng.next_double(0, flow.interval_s);
          flows.push_back(flow);
        }
        massf::traffic::CbrParams params;
        params.duration_s = kFlowSeconds;
        params.seed = mix_seed(options.seed, 0xcb8);
        return std::make_unique<massf::traffic::CbrTraffic>(std::move(flows),
                                                            params);
      });
      tr.span("emu.setup", "emu", [&] {
        emulator = std::make_unique<emu::Emulator>(
            net, *routes, part.assignment, kHierEngines, emu::EmulatorConfig{});
        traffic->install(*emulator);
      });
    });
    tr.phase("emulate", "emulate", [&] {
      emulator->run(kFlowSeconds + 1.0, des::ExecutionMode::Sequential);
    });
  });

  record_run(record, *emulator, tr);
  record_setup_spans(record, tr);
  put(record, "routing.memory_mb", routes->memory_bytes() / 1e6);
  put(record, "partition.edge_cut", part.edge_cut);
  put(record, "partition.worst_balance", part.worst_balance);

  const std::vector<NodeId> hosts = net.hosts();
  check_placement(record, part.assignment, net.node_count(), kHierEngines);
  check_counters(record, *emulator);
  check_routes(record, net, *routes, hosts, options.seed);
  check(record, "partition_balance_le_2", part.worst_balance <= 2.0,
        "worst_balance " + std::to_string(part.worst_balance));
  if (tr.enabled())
    put(record, "routing.lookup_ns",
        lookup_ns(*routes, hosts, options.seed, 20000));
  return record;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"profile-brite",
                                                 "lb-threaded", "hier-1m"};
  return names;
}

Record run_workload(const Options& options, Tracer& tracer) {
  if (options.workload == "profile-brite")
    return run_profile_brite(options, tracer);
  if (options.workload == "lb-threaded")
    return run_lb_threaded(options, tracer);
  if (options.workload == "hier-1m") return run_hier_1m(options, tracer);
  throw std::invalid_argument("unknown workload '" + options.workload + "'");
}

}  // namespace perfbench
