#include "traffic/cbr.hpp"

#include <memory>

#include "ckpt/ckpt.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace massf::traffic {

namespace {

constexpr int kTagCbr = 300;

/// Sender endpoint driving one or more flows that originate at its host.
class CbrSender : public emu::AppEndpoint {
 public:
  CbrSender(std::vector<CbrFlowSpec> flows, double duration,
            std::uint64_t seed, bool reliable)
      : flows_(std::move(flows)),
        duration_(duration),
        rng_(seed),
        reliable_(reliable) {}

  void start(emu::AppApi& api) override {
    for (std::size_t i = 0; i < flows_.size(); ++i)
      arm(api, i, /*first=*/true);
  }

  /// Timer tag = flow index; each firing sends one message and re-arms.
  void on_timer(emu::AppApi& api, std::int64_t tag) override {
    if (api.now() >= duration_) return;
    const auto index = static_cast<std::size_t>(tag);
    const CbrFlowSpec& flow = flows_[index];
    if (reliable_)
      api.send_reliable(flow.dst, flow.message_bytes, kTagCbr);
    else
      api.send(flow.dst, flow.message_bytes, kTagCbr);
    arm(api, index, /*first=*/false);
  }

  void checkpoint(ckpt::Io& io) override { io.rng(rng_); }

 private:
  void arm(emu::AppApi& api, std::size_t index, bool first) {
    const CbrFlowSpec& flow = flows_[index];
    double gap = flow.interval_s;
    if (flow.jitter > 0)
      gap = (1 - flow.jitter) * flow.interval_s +
            flow.jitter * rng_.next_exponential(flow.interval_s);
    if (first)  // start offset plus desynchronization
      gap = flow.start_s + rng_.next_double(0, flow.interval_s);
    api.set_timer(gap, static_cast<std::int64_t>(index));
  }

  std::vector<CbrFlowSpec> flows_;
  double duration_;
  Rng rng_;
  bool reliable_;
};

/// Sink endpoint (messages need a receiver object only if someone reacts;
/// CBR sinks silently, so no endpoint is required at the destination).

}  // namespace

CbrTraffic::CbrTraffic(std::vector<CbrFlowSpec> flows, CbrParams params)
    : flows_(std::move(flows)), params_(params) {
  for (const CbrFlowSpec& f : flows_) {
    MASSF_REQUIRE(f.src >= 0 && f.dst >= 0 && f.src != f.dst,
                  "CBR flow endpoints invalid");
    MASSF_REQUIRE(f.message_bytes > 0 && f.interval_s > 0,
                  "CBR flow parameters must be positive");
    MASSF_REQUIRE(f.jitter >= 0 && f.jitter <= 1, "jitter must be in [0,1]");
    MASSF_REQUIRE(f.start_s >= 0, "flow start must be non-negative");
  }
}

void CbrTraffic::install(emu::Emulator& emulator) const {
  // Group flows by source host: one sender endpoint per host.
  std::vector<std::vector<CbrFlowSpec>> by_host(
      static_cast<std::size_t>(emulator.network().node_count()));
  for (const CbrFlowSpec& f : flows_)
    by_host[static_cast<std::size_t>(f.src)].push_back(f);
  for (std::size_t h = 0; h < by_host.size(); ++h) {
    if (by_host[h].empty()) continue;
    emulator.install_endpoint(
        static_cast<NodeId>(h),
        std::make_unique<CbrSender>(std::move(by_host[h]),
                                    params_.duration_s,
                                    mix_seed(params_.seed, h),
                                    params_.reliable));
  }
}

std::vector<Flow> CbrTraffic::predicted_background(
    const topology::Network& network) const {
  (void)network;
  std::vector<Flow> out;
  for (const CbrFlowSpec& f : flows_)
    out.push_back(
        {f.src, f.dst, f.message_bytes / 1500.0 / f.interval_s});
  return out;
}

}  // namespace massf::traffic
