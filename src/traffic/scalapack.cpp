#include "traffic/scalapack.hpp"

#include <algorithm>
#include <memory>

#include "ckpt/ckpt.hpp"
#include "util/error.hpp"

namespace massf::traffic {

namespace {

constexpr int kTagPanel = 200;
constexpr int kTagUpdate = 201;
constexpr int kTagAck = 202;
constexpr int kTagBaton = 203;

// Timer tags: (iteration << 8) | phase, mirroring the message tag scheme.
constexpr int kTimerPeerDone = 0;   // peer's update compute finished
constexpr int kTimerOwnerDone = 1;  // owner's trailing compute finished

/// Shared immutable schedule (sizes per iteration), referenced by every
/// rank endpoint of one install.
struct Schedule {
  std::vector<NodeId> hosts;
  std::vector<double> panel_bytes;
  std::vector<double> update_bytes;
  std::vector<double> compute_s;
  bool reliable = false;

  int ranks() const { return static_cast<int>(hosts.size()); }
  int iterations() const { return static_cast<int>(panel_bytes.size()); }
  int rank_of(NodeId host) const {
    for (int r = 0; r < ranks(); ++r)
      if (hosts[static_cast<std::size_t>(r)] == host) return r;
    return -1;
  }
  int owner(int iteration) const { return iteration % ranks(); }
};

/// One MPI-rank-like endpoint. The iteration protocol:
///   owner: broadcast panel to all peers (P-1 messages)
///   peer:  on panel -> compute update -> send trailing piece to ring
///          neighbor + ack to owner
///   owner: on P-1 acks -> own compute -> next iteration's owner starts
///          (owner sends a tiny "token" panel when ownership moves — it is
///          the panel broadcast itself, so no extra control traffic).
class ScalapackRank : public emu::AppEndpoint {
 public:
  ScalapackRank(std::shared_ptr<const Schedule> schedule, int rank)
      : schedule_(std::move(schedule)), rank_(rank) {}

  void start(emu::AppApi& api) override {
    if (rank_ == schedule_->owner(0)) begin_iteration(api, 0);
  }

  void receive(emu::AppApi& api, const emu::AppMessage& message) override {
    const int iteration = message.tag >> 8;
    const int tag = message.tag & 0xff;
    switch (tag) {
      case kTagPanel:
        // Peer: apply the update (compute), then trailing exchange + ack.
        api.set_timer(
            schedule_->compute_s[static_cast<std::size_t>(iteration)] /
                schedule_->ranks(),
            (iteration << 8) | kTimerPeerDone);
        break;
      case kTagAck:
        if (++acks_ == schedule_->ranks() - 1) {
          acks_ = 0;
          // Owner's own trailing update, then hand off.
          api.set_timer(
              schedule_->compute_s[static_cast<std::size_t>(iteration)] /
                  schedule_->ranks(),
              (iteration << 8) | kTimerOwnerDone);
        }
        break;
      case kTagBaton:
        // Baton: this rank owns iteration `iteration` — start it.
        begin_iteration(api, iteration);
        break;
      case kTagUpdate:
      default:
        break;  // trailing-matrix data needs no action
    }
  }

  void on_timer(emu::AppApi& api, std::int64_t tag) override {
    const int iteration = static_cast<int>(tag >> 8);
    const int phase = static_cast<int>(tag & 0xff);
    if (phase == kTimerPeerDone) {
      const int next_rank = (rank_ + 1) % schedule_->ranks();
      if (next_rank != rank_)
        post(api, schedule_->hosts[static_cast<std::size_t>(next_rank)],
             schedule_->update_bytes[static_cast<std::size_t>(iteration)],
             (iteration << 8) | kTagUpdate);
      const int owner = schedule_->owner(iteration);
      post(api, schedule_->hosts[static_cast<std::size_t>(owner)], 256,
           (iteration << 8) | kTagAck);
      return;
    }
    // Owner compute finished: advance the factorization.
    const int next = iteration + 1;
    if (next >= schedule_->iterations()) return;  // factorized
    const int next_owner = schedule_->owner(next);
    if (next_owner == rank_) {
      begin_iteration(api, next);
    } else {
      // The panel broadcast of iteration `next` starts at its owner; send
      // it the baton (tiny message tagged as that iteration's trigger).
      post(api, schedule_->hosts[static_cast<std::size_t>(next_owner)], 128,
           (next << 8) | kTagBaton);
    }
  }

  void checkpoint(ckpt::Io& io) override { io.i64(acks_); }

 private:
  /// All protocol traffic goes through here so the reliable flag applies
  /// to every message kind (a lost control message stalls the ring).
  void post(emu::AppApi& api, NodeId dst, double bytes, int tag) {
    if (schedule_->reliable)
      api.send_reliable(dst, bytes, tag);
    else
      api.send(dst, bytes, tag);
  }

  void begin_iteration(emu::AppApi& api, int iteration) {
    const double bytes =
        schedule_->panel_bytes[static_cast<std::size_t>(iteration)];
    for (int r = 0; r < schedule_->ranks(); ++r) {
      if (r == rank_) continue;
      post(api, schedule_->hosts[static_cast<std::size_t>(r)], bytes,
           (iteration << 8) | kTagPanel);
    }
  }

  std::shared_ptr<const Schedule> schedule_;
  int rank_;
  int acks_ = 0;
};

}  // namespace

ScalapackApp::ScalapackApp(std::vector<NodeId> hosts, ScalapackParams params)
    : hosts_(std::move(hosts)), params_(params) {
  MASSF_REQUIRE(hosts_.size() >= 2, "ScaLapack model needs >= 2 hosts");
  MASSF_REQUIRE(params_.matrix_n > 0 && params_.block_nb > 0,
                "matrix/block sizes must be positive");
  MASSF_REQUIRE(params_.block_nb <= params_.matrix_n,
                "block must not exceed the matrix");
  MASSF_REQUIRE(params_.size_scale > 0, "size_scale must be positive");
}

int ScalapackApp::iterations() const {
  return params_.matrix_n / params_.block_nb;
}

double ScalapackApp::panel_bytes(int iteration) const {
  const int remaining = params_.matrix_n - iteration * params_.block_nb;
  return std::max(1.0, 8.0 * params_.block_nb * remaining *
                           params_.size_scale);
}

double ScalapackApp::update_bytes(int iteration) const {
  return std::max(1.0, panel_bytes(iteration) * 0.5);
}

double ScalapackApp::compute_seconds(int iteration) const {
  // Proportional to the true (N - k*nb)^2 * nb flop profile, normalized so
  // the sum over iterations is total_compute_s.
  double total_weight = 0;
  for (int k = 0; k < iterations(); ++k) {
    const double remaining = params_.matrix_n - k * params_.block_nb;
    total_weight += remaining * remaining;
  }
  const double remaining =
      params_.matrix_n - iteration * params_.block_nb;
  return params_.total_compute_s * (remaining * remaining) / total_weight;
}

double ScalapackApp::duration() const {
  // Compute plus a generous allowance for communication.
  return params_.total_compute_s * 1.8;
}

void ScalapackApp::install(emu::Emulator& emulator) const {
  auto schedule = std::make_shared<Schedule>();
  schedule->hosts = hosts_;
  schedule->reliable = params_.reliable;
  for (int k = 0; k < iterations(); ++k) {
    schedule->panel_bytes.push_back(panel_bytes(k));
    schedule->update_bytes.push_back(update_bytes(k));
    schedule->compute_s.push_back(compute_seconds(k));
  }
  for (int r = 0; r < static_cast<int>(hosts_.size()); ++r)
    emulator.install_endpoint(
        hosts_[static_cast<std::size_t>(r)],
        std::make_unique<ScalapackRank>(schedule, r));
}

}  // namespace massf::traffic
