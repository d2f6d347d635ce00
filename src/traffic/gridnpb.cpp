#include "traffic/gridnpb.hpp"

#include <algorithm>
#include <memory>

#include "ckpt/ckpt.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace massf::traffic {

std::vector<int> TaskGraph::roots() const {
  std::vector<int> out;
  for (std::size_t t = 0; t < tasks.size(); ++t)
    if (tasks[t].inputs_required == 0) out.push_back(static_cast<int>(t));
  return out;
}

double TaskGraph::total_bytes() const {
  double total = 0;
  for (const WorkflowTask& t : tasks)
    for (const auto& [succ, bytes] : t.outputs) total += bytes;
  return total;
}

double TaskGraph::total_compute() const {
  double total = 0;
  for (const WorkflowTask& t : tasks) total += t.compute_s;
  return total;
}

namespace {

/// Validate DAG shape: successor indices in range and strictly increasing
/// edge direction (guarantees acyclicity); input counts consistent.
void validate_graph(const TaskGraph& graph) {
  std::vector<int> in_degree(graph.tasks.size(), 0);
  for (std::size_t t = 0; t < graph.tasks.size(); ++t) {
    for (const auto& [succ, bytes] : graph.tasks[t].outputs) {
      MASSF_REQUIRE(succ >= 0 &&
                        static_cast<std::size_t>(succ) < graph.tasks.size(),
                    "workflow successor out of range");
      MASSF_REQUIRE(static_cast<std::size_t>(succ) > t,
                    "workflow edges must point forward (acyclic)");
      MASSF_REQUIRE(bytes > 0, "workflow edge bytes must be positive");
      ++in_degree[static_cast<std::size_t>(succ)];
    }
  }
  for (std::size_t t = 0; t < graph.tasks.size(); ++t)
    MASSF_REQUIRE(graph.tasks[t].inputs_required == in_degree[t],
                  "task " << t << " expects " << graph.tasks[t].inputs_required
                          << " inputs but has in-degree " << in_degree[t]);
}

/// Mutable per-run workflow state shared by one install's endpoints.
/// arrived[t] is only touched on task t's host's engine, so sharing the
/// struct across endpoints stays race-free in threaded mode.
struct RunState {
  TaskGraph graph;
  std::vector<int> arrived;  // inputs received so far, per task
  bool reliable = false;
};

class WorkflowEndpoint : public emu::AppEndpoint {
 public:
  WorkflowEndpoint(std::shared_ptr<RunState> state, NodeId host)
      : state_(std::move(state)), host_(host) {}

  void start(emu::AppApi& api) override {
    for (int root : state_->graph.roots())
      if (state_->graph.tasks[static_cast<std::size_t>(root)].host == host_)
        fire(api, root);
  }

  void receive(emu::AppApi& api, const emu::AppMessage& message) override {
    const int task_index = message.tag;
    MASSF_REQUIRE(task_index >= 0 &&
                      static_cast<std::size_t>(task_index) <
                          state_->graph.tasks.size(),
                  "workflow message with unknown task tag");
    const WorkflowTask& task =
        state_->graph.tasks[static_cast<std::size_t>(task_index)];
    MASSF_REQUIRE(task.host == host_,
                  "workflow input delivered to the wrong host");
    if (++state_->arrived[static_cast<std::size_t>(task_index)] ==
        task.inputs_required)
      fire(api, task_index);
  }

  /// Timer tag = task index: the task's compute phase finished.
  void on_timer(emu::AppApi& api, std::int64_t tag) override {
    const WorkflowTask& task =
        state_->graph.tasks[static_cast<std::size_t>(tag)];
    for (const auto& [succ, bytes] : task.outputs) {
      const WorkflowTask& successor =
          state_->graph.tasks[static_cast<std::size_t>(succ)];
      if (successor.host == host_) {
        // Co-located tasks hand data over in memory — no network traffic;
        // the input still counts.
        if (++state_->arrived[static_cast<std::size_t>(succ)] ==
            successor.inputs_required)
          fire(api, succ);
      } else if (state_->reliable) {
        api.send_reliable(successor.host, bytes, succ);
      } else {
        api.send(successor.host, bytes, succ);
      }
    }
  }

  /// Each endpoint owns the arrived-input counts of its host's tasks (the
  /// shared RunState is partitioned by host, matching the race-freedom
  /// rule), so together the endpoints serialize the whole workflow state.
  void checkpoint(ckpt::Io& io) override {
    // The arrival counts of the tasks this host runs; a snapshot taken with
    // a different task graph fails the emulator's block-length check.
    for (std::size_t t = 0; t < state_->graph.tasks.size(); ++t)
      if (state_->graph.tasks[t].host == host_) io.i64(state_->arrived[t]);
  }

 private:
  void fire(emu::AppApi& api, int task_index) {
    api.set_timer(
        state_->graph.tasks[static_cast<std::size_t>(task_index)].compute_s,
        task_index);
  }

  std::shared_ptr<RunState> state_;
  NodeId host_;
};

/// Helper collecting tasks during graph construction.
class GraphBuilder {
 public:
  explicit GraphBuilder(const std::vector<NodeId>& hosts) : hosts_(hosts) {
    MASSF_REQUIRE(hosts.size() >= 2, "workflow needs >= 2 hosts");
  }

  int add_task(int host_index, double compute_s) {
    WorkflowTask task;
    task.host = hosts_[static_cast<std::size_t>(host_index) % hosts_.size()];
    task.compute_s = compute_s;
    graph_.tasks.push_back(task);
    return static_cast<int>(graph_.tasks.size() - 1);
  }

  void add_edge(int from, int to, double bytes) {
    MASSF_REQUIRE(from < to, "workflow edges must point forward");
    graph_.tasks[static_cast<std::size_t>(from)].outputs.emplace_back(to,
                                                                      bytes);
    ++graph_.tasks[static_cast<std::size_t>(to)].inputs_required;
  }

  TaskGraph take() {
    validate_graph(graph_);
    return std::move(graph_);
  }

  TaskGraph& graph() { return graph_; }

 private:
  const std::vector<NodeId>& hosts_;
  TaskGraph graph_;
};

/// Append one benchmark's tasks to `builder`; returns (entry tasks, exit
/// tasks) indices for chaining.
struct Ports {
  std::vector<int> entries;
  std::vector<int> exits;
};

Ports append_helical_chain(GraphBuilder& builder, const GridNpbParams& params,
                           Rng& rng, int host_offset) {
  // 9 solver tasks in a chain (BT, SP, LU repeated 3x), hopping hosts.
  Ports ports;
  int prev = -1;
  for (int i = 0; i < 9; ++i) {
    const double compute =
        params.unit_compute_s * rng.next_double(0.6, 1.8);
    const int task = builder.add_task(host_offset + i * 2, compute);
    if (prev >= 0) {
      const double bytes =
          params.unit_bytes * (i % 3 == 0 ? 1.0 : 0.3) *
          rng.next_double(0.7, 1.3);
      builder.add_edge(prev, task, bytes);
    } else {
      ports.entries.push_back(task);
    }
    prev = task;
  }
  ports.exits.push_back(prev);
  return ports;
}

Ports append_visualization_pipeline(GraphBuilder& builder,
                                    const GridNpbParams& params, Rng& rng,
                                    int host_offset) {
  // 3 frames × (BT → MG → FT) with frame sequencing on the first stage.
  Ports ports;
  int prev_bt = -1;
  std::vector<int> fts;
  for (int frame = 0; frame < 3; ++frame) {
    const int bt = builder.add_task(host_offset,
                                    params.unit_compute_s *
                                        rng.next_double(1.2, 2.0));
    const int mg = builder.add_task(host_offset + 3,
                                    params.unit_compute_s *
                                        rng.next_double(0.4, 0.8));
    const int ft = builder.add_task(host_offset + 6,
                                    params.unit_compute_s *
                                        rng.next_double(0.8, 1.2));
    if (prev_bt >= 0)
      builder.add_edge(prev_bt, bt, params.unit_bytes * 0.1);
    else
      ports.entries.push_back(bt);
    builder.add_edge(bt, mg, params.unit_bytes * 1.6);
    builder.add_edge(mg, ft, params.unit_bytes * 0.8);
    prev_bt = bt;
    fts.push_back(ft);
  }
  // FT frames feed a visualization collector.
  const int collector = builder.add_task(
      host_offset + 8, params.unit_compute_s * 0.5);
  for (int ft : fts)
    builder.add_edge(ft, collector, params.unit_bytes * 0.4);
  ports.exits.push_back(collector);
  return ports;
}

Ports append_mixed_bag(GraphBuilder& builder, const GridNpbParams& params,
                       Rng& rng, int host_offset) {
  // Three independent chains of different lengths/weights joined by a
  // report task — deliberately lopsided.
  Ports ports;
  static constexpr int kChainLength[3] = {2, 3, 4};
  static constexpr double kChainWeight[3] = {2.5, 1.0, 0.4};
  std::vector<int> tails;
  for (int chain = 0; chain < 3; ++chain) {
    int prev = -1;
    for (int i = 0; i < kChainLength[chain]; ++i) {
      const double compute = params.unit_compute_s * kChainWeight[chain] *
                             rng.next_double(0.5, 1.5);
      const int task =
          builder.add_task(host_offset + chain * 3 + i, compute);
      if (prev >= 0)
        builder.add_edge(prev, task,
                         params.unit_bytes * kChainWeight[chain] *
                             rng.next_double(0.5, 1.5));
      else
        ports.entries.push_back(task);
      prev = task;
    }
    tails.push_back(prev);
  }
  const int report =
      builder.add_task(host_offset + 1, params.unit_compute_s * 0.3);
  for (int tail : tails)
    builder.add_edge(tail, report, params.unit_bytes * 0.2);
  ports.exits.push_back(report);
  return ports;
}

TaskGraph build_single(const std::vector<NodeId>& hosts,
                       const GridNpbParams& params,
                       Ports (*append)(GraphBuilder&, const GridNpbParams&,
                                       Rng&, int)) {
  GraphBuilder builder(hosts);
  Rng rng(params.seed);
  append(builder, params, rng, 0);
  return builder.take();
}

}  // namespace

TaskGraph make_helical_chain(const std::vector<NodeId>& hosts,
                             const GridNpbParams& params) {
  return build_single(hosts, params, append_helical_chain);
}

TaskGraph make_visualization_pipeline(const std::vector<NodeId>& hosts,
                                      const GridNpbParams& params) {
  return build_single(hosts, params, append_visualization_pipeline);
}

TaskGraph make_mixed_bag(const std::vector<NodeId>& hosts,
                         const GridNpbParams& params) {
  return build_single(hosts, params, append_mixed_bag);
}

TaskGraph make_gridnpb_graph(const std::vector<NodeId>& hosts,
                             const GridNpbParams& params) {
  MASSF_REQUIRE(params.rounds >= 1, "need at least one round");
  GraphBuilder builder(hosts);
  Rng rng(params.seed);

  std::vector<int> previous_exits;
  for (int round = 0; round < params.rounds; ++round) {
    // Offset host assignment each round so the hot tasks wander across the
    // network over time — the load-variation behavior Figure 2 shows.
    const int shift = round * 5;
    Ports hc = append_helical_chain(builder, params, rng, shift);
    Ports vp = append_visualization_pipeline(builder, params, rng, shift + 7);
    Ports mb = append_mixed_bag(builder, params, rng, shift + 13);

    std::vector<int> entries;
    for (const Ports& p : {hc, vp, mb})
      entries.insert(entries.end(), p.entries.begin(), p.entries.end());

    if (!previous_exits.empty()) {
      // Chain rounds: a tiny barrier task joins the previous round's exits
      // and releases this round's entries. Entries must stay *after* the
      // barrier in index order — they already are, because the barrier was
      // appended in the previous iteration.
      for (int exit_task : previous_exits)
        for (int entry : entries)
          builder.add_edge(exit_task, entry, 2048);
    }
    previous_exits.clear();
    for (const Ports& p : {hc, vp, mb})
      previous_exits.insert(previous_exits.end(), p.exits.begin(),
                            p.exits.end());
  }
  return builder.take();
}

WorkflowApp::WorkflowApp(TaskGraph graph, double nominal_duration,
                         bool reliable)
    : graph_(std::move(graph)),
      nominal_duration_(nominal_duration),
      reliable_(reliable) {
  validate_graph(graph_);
  MASSF_REQUIRE(nominal_duration_ > 0, "duration must be positive");
}

void WorkflowApp::install(emu::Emulator& emulator) const {
  auto state = std::make_shared<RunState>();
  state->graph = graph_;
  state->arrived.assign(graph_.tasks.size(), 0);
  state->reliable = reliable_;

  std::vector<char> installed(
      static_cast<std::size_t>(emulator.network().node_count()), 0);
  for (const WorkflowTask& task : graph_.tasks) {
    if (installed[static_cast<std::size_t>(task.host)]) continue;
    installed[static_cast<std::size_t>(task.host)] = 1;
    emulator.install_endpoint(
        task.host, std::make_unique<WorkflowEndpoint>(state, task.host));
  }
}

std::vector<NodeId> WorkflowApp::injection_points() const {
  std::vector<NodeId> hosts;
  for (const WorkflowTask& task : graph_.tasks)
    if (std::find(hosts.begin(), hosts.end(), task.host) == hosts.end())
      hosts.push_back(task.host);
  return hosts;
}

WorkflowApp make_gridnpb(const std::vector<NodeId>& hosts,
                         const GridNpbParams& params) {
  TaskGraph graph = make_gridnpb_graph(hosts, params);
  // Nominal duration: per-round critical path is roughly the helical chain
  // (9 tasks) at the mean task weight, plus transfer slack.
  const double nominal =
      params.rounds * 9.5 * params.unit_compute_s * 1.3 + 60.0;
  return WorkflowApp(std::move(graph), nominal, params.reliable);
}

}  // namespace massf::traffic
