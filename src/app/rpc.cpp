#include "app/rpc.hpp"

#include <algorithm>
#include <utility>

#include "ckpt/ckpt.hpp"
#include "util/error.hpp"

namespace massf::app {

// ---- ServerEndpoint --------------------------------------------------------

ServerEndpoint::ServerEndpoint(ServerParams params)
    : params_(std::move(params)) {
  MASSF_REQUIRE(params_.workers >= 1, "server needs >= 1 worker");
  MASSF_REQUIRE(params_.mean_s > 0, "service mean must be positive");
  MASSF_REQUIRE(params_.pareto_shape > 1,
                "pareto shape must exceed 1 so the mean exists");
  worker_free_.assign(static_cast<std::size_t>(params_.workers), 0.0);
}

void ServerEndpoint::start(emu::AppApi& api) {
  // Per-host stream: two servers with the same params draw independently.
  rng_.reseed(mix_seed(params_.seed, static_cast<std::uint64_t>(api.self())));
  jobs_.reserve(64);
}

double ServerEndpoint::draw_service() {
  switch (params_.dist) {
    case ServiceDist::Deterministic:
      return params_.mean_s;
    case ServiceDist::Exponential:
      return rng_.next_exponential(params_.mean_s);
    case ServiceDist::Pareto: {
      // Pareto(shape a, scale s) has mean a·s/(a−1); invert for mean_s.
      const double scale =
          params_.mean_s * (params_.pareto_shape - 1) / params_.pareto_shape;
      return rng_.next_pareto(params_.pareto_shape, scale);
    }
  }
  return params_.mean_s;
}

void ServerEndpoint::receive(emu::AppApi& api,
                             const emu::AppMessage& message) {
  MASSF_REQUIRE(message.tag == kTagRequest,
                "server received a non-request message");
  // Earliest-free worker, lowest index on ties: FIFO queueing whose delay
  // grows with backlog — the signal load-aware policies exploit.
  std::size_t worker = 0;
  for (std::size_t w = 1; w < worker_free_.size(); ++w)
    if (worker_free_[w] < worker_free_[worker]) worker = w;
  const double now = api.now();
  const double begin = std::max(now, worker_free_[worker]);
  const double done = begin + draw_service();
  worker_free_[worker] = done;
  const std::uint64_t job = ++job_seq_;
  // massf-analyze: allow(hot-path-alloc) — bounded by in-flight jobs; the
  // table is reserve()d at start and rehash cost is amortized O(1).
  jobs_.emplace(job, Job{message.src, message.corr});
  api.set_timer(done - now, static_cast<std::int64_t>(job));
}

void ServerEndpoint::on_timer(emu::AppApi& api, std::int64_t tag) {
  const auto it = jobs_.find(static_cast<std::uint64_t>(tag));
  MASSF_REQUIRE(it != jobs_.end(), "server timer for unknown job");
  const Job job = it->second;
  jobs_.erase(it);
  if (params_.reliable)
    api.send_reliable(job.reply_to, params_.response_bytes, kTagResponse,
                      job.corr);
  else
    api.send(job.reply_to, params_.response_bytes, kTagResponse, job.corr);
}

void ServerEndpoint::checkpoint(ckpt::Io& io) {
  io.rng(rng_);
  io.u64(job_seq_);
  for (double& f : worker_free_) io.f64(f);
  io.sorted_map(jobs_, 24, "server job count", [&io](Job& job) {
    io.i64(job.reply_to);
    io.u64(job.corr);
  });
}

// ---- LoadBalancerEndpoint --------------------------------------------------

LoadBalancerEndpoint::LoadBalancerEndpoint(
    LoadBalancerParams params, std::shared_ptr<LbCounters> counters)
    : params_(std::move(params)), counters_(std::move(counters)) {
  MASSF_REQUIRE(!params_.backends.empty(), "load balancer needs backends");
  std::vector<std::uint64_t> ids;
  ids.reserve(params_.backends.size());
  for (NodeId backend : params_.backends)
    ids.push_back(static_cast<std::uint64_t>(backend));
  policy_ = make_policy(params_.policy, std::move(ids), params_.policy_config);
  if (counters_ == nullptr) counters_ = std::make_shared<LbCounters>();
}

void LoadBalancerEndpoint::start(emu::AppApi& api) {
  (void)api;
  inflight_.reserve(256);
}

// massf-analyze: hot-path-root
void LoadBalancerEndpoint::receive(emu::AppApi& api,
                                   const emu::AppMessage& message) {
  const double now = api.now();
  if (message.tag == kTagRequest) {
    // Key on (client host, user id) so affinity policies distinguish the
    // whole simulated user population, not just the client hosts.
    const std::uint64_t key =
        mix_seed(static_cast<std::uint64_t>(message.src),
                 corr_user(message.corr));
    const std::size_t backend = policy_->pick(key, now);
    const std::uint64_t flight = ++flight_seq_;
    // massf-analyze: allow(hot-path-alloc) — bounded by in-flight requests;
    // the table is reserve()d at start.
    inflight_.emplace(flight,
                      Flight{message.src, message.corr, message.bytes, now,
                             static_cast<std::uint32_t>(backend)});
    policy_->on_start(backend, now);
    ++counters_->requests_forwarded;
    if (params_.reliable)
      api.send_reliable(params_.backends[backend], message.bytes, kTagRequest,
                        flight);
    else
      api.send(params_.backends[backend], message.bytes, kTagRequest, flight);
    return;
  }
  MASSF_REQUIRE(message.tag == kTagResponse,
                "load balancer received a non-RPC message");
  const auto it = inflight_.find(message.corr);
  if (it == inflight_.end()) {
    // The flight was written off (reliable retries exhausted on lost ACKs)
    // but a copy of the request had been delivered anyway.
    ++counters_->stale_responses;
    return;
  }
  const Flight flight = it->second;
  inflight_.erase(it);
  policy_->on_finish(flight.backend, now, now - flight.t0);
  ++counters_->responses_relayed;
  if (params_.reliable)
    api.send_reliable(flight.client, message.bytes, kTagResponse,
                      flight.client_corr);
  else
    api.send(flight.client, message.bytes, kTagResponse, flight.client_corr);
}

void LoadBalancerEndpoint::on_send_failed(emu::AppApi& api,
                                          const emu::AppMessage& message) {
  if (message.tag == kTagResponse) {
    // LB → client relay failed; the flight is already closed.
    ++counters_->relay_errors;
    return;
  }
  const auto it = inflight_.find(message.corr);
  if (it == inflight_.end()) return;
  policy_->on_error(it->second.backend, api.now());
  inflight_.erase(it);
  ++counters_->backend_errors;
}

void LoadBalancerEndpoint::checkpoint(ckpt::Io& io) {
  io.u64(flight_seq_);
  io.block("LB policy state", [&] { policy_->checkpoint(io); });
  io.sorted_map(inflight_, 48, "LB flight count", [&io](Flight& f) {
    io.i64(f.client);
    io.u64(f.client_corr);
    io.f64(f.bytes);
    io.f64(f.t0);
    io.u64(f.backend);
  });
  io.u64(counters_->requests_forwarded);
  io.u64(counters_->responses_relayed);
  io.u64(counters_->backend_errors);
  io.u64(counters_->relay_errors);
  io.u64(counters_->stale_responses);
}

// ---- ClientEndpoint --------------------------------------------------------

ClientEndpoint::ClientEndpoint(ClientParams params,
                               std::shared_ptr<ClientCounters> counters)
    : params_(std::move(params)), counters_(std::move(counters)) {
  MASSF_REQUIRE(params_.lb >= 0, "client needs a load-balancer host");
  MASSF_REQUIRE(params_.users >= 1, "client aggregates >= 1 user");
  MASSF_REQUIRE(params_.rate_per_user > 0, "request rate must be positive");
  MASSF_REQUIRE(params_.duration_s > 0, "duration must be positive");
  if (counters_ == nullptr) counters_ = std::make_shared<ClientCounters>();
}

void ClientEndpoint::start(emu::AppApi& api) {
  rng_.reseed(mix_seed(params_.seed, static_cast<std::uint64_t>(api.self())));
  outstanding_.reserve(256);
  arm_next(api);
}

void ClientEndpoint::arm_next(emu::AppApi& api) {
  // Superposed Poisson arrivals: rate = users × rate_per_user, so one
  // exponential-gap timer chain stands in for the whole user population.
  const double rate =
      static_cast<double>(params_.users) * params_.rate_per_user;
  const double gap = rng_.next_exponential(1.0 / rate);
  if (api.now() + gap <= params_.duration_s) api.set_timer(gap, 0);
}

void ClientEndpoint::on_timer(emu::AppApi& api, std::int64_t tag) {
  (void)tag;
  const std::uint64_t user =
      params_.user_base +
      rng_.next_below(static_cast<std::uint64_t>(params_.users));
  const std::uint64_t corr = pack_corr(user, seq_++);
  // massf-analyze: allow(hot-path-alloc) — bounded by in-flight requests;
  // the table is reserve()d at start.
  outstanding_.emplace(corr, api.now());
  ++counters_->requests_sent;
  if (params_.reliable)
    api.send_reliable(params_.lb, params_.request_bytes, kTagRequest, corr);
  else
    api.send(params_.lb, params_.request_bytes, kTagRequest, corr);
  arm_next(api);
}

// massf-analyze: determinism-root
void ClientEndpoint::receive(emu::AppApi& api,
                             const emu::AppMessage& message) {
  MASSF_REQUIRE(message.tag == kTagResponse,
                "client received a non-response message");
  const auto it = outstanding_.find(message.corr);
  if (it == outstanding_.end()) {
    ++counters_->stale_responses;
    return;
  }
  api.record_latency(params_.series, api.now() - it->second);
  outstanding_.erase(it);
  ++counters_->responses_received;
}

void ClientEndpoint::on_send_failed(emu::AppApi& api,
                                    const emu::AppMessage& message) {
  (void)api;
  if (message.tag != kTagRequest) return;
  const auto it = outstanding_.find(message.corr);
  if (it == outstanding_.end()) return;
  outstanding_.erase(it);
  ++counters_->send_failures;
}

void ClientEndpoint::checkpoint(ckpt::Io& io) {
  io.rng(rng_);
  io.u64(seq_);
  io.sorted_map(outstanding_, 16, "client request count",
                [&io](double& t0) { io.f64(t0); });
  io.u64(counters_->requests_sent);
  io.u64(counters_->responses_received);
  io.u64(counters_->send_failures);
  io.u64(counters_->stale_responses);
}

}  // namespace massf::app
