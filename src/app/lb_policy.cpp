#include "app/lb_policy.hpp"

#include <algorithm>
#include <cmath>

#include "ckpt/ckpt.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace massf::app {

namespace {

constexpr std::uint64_t kRingKeySalt = 0x72696e676bULL;   // "ringk"
constexpr std::uint64_t kMaglevSkipSalt = 0x6d67736bULL;  // "mgsk"
constexpr std::uint64_t kMaglevKeySalt = 0x6d676b79ULL;   // "mgky"

class RoundRobin final : public LbPolicy {
 public:
  explicit RoundRobin(std::vector<std::uint64_t> ids)
      : LbPolicy(std::move(ids)) {}

  const char* name() const override { return policy_name(PolicyKind::RoundRobin); }

  std::size_t pick(std::uint64_t key, double now) override {
    (void)key;
    (void)now;
    const std::size_t chosen = next_;
    next_ = (next_ + 1) % backend_ids_.size();
    return chosen;
  }

  void checkpoint(ckpt::Io& io) override {
    io.u64(next_);
    next_ %= backend_ids_.size();
  }

 private:
  std::size_t next_ = 0;
};

class LeastRequest final : public LbPolicy {
 public:
  explicit LeastRequest(std::vector<std::uint64_t> ids)
      : LbPolicy(std::move(ids)), outstanding_(backend_ids_.size(), 0) {}

  const char* name() const override {
    return policy_name(PolicyKind::LeastRequest);
  }

  std::size_t pick(std::uint64_t key, double now) override {
    (void)key;
    (void)now;
    // Argmin over outstanding requests; strict < keeps the lowest index on
    // ties, so the choice is deterministic.
    std::size_t best = 0;
    for (std::size_t b = 1; b < outstanding_.size(); ++b)
      if (outstanding_[b] < outstanding_[best]) best = b;
    return best;
  }

  void on_start(std::size_t backend, double now) override {
    (void)now;
    ++outstanding_[backend];
  }
  void on_finish(std::size_t backend, double now, double latency_s) override {
    (void)now;
    (void)latency_s;
    if (outstanding_[backend] > 0) --outstanding_[backend];
  }
  void on_error(std::size_t backend, double now) override {
    (void)now;
    if (outstanding_[backend] > 0) --outstanding_[backend];
  }

  void checkpoint(ckpt::Io& io) override {
    for (std::int64_t& v : outstanding_) io.i64(v);
  }

 private:
  std::vector<std::int64_t> outstanding_;
};

/// Peak-EWMA (Finagle style): the latency estimate jumps to any observation
/// above it ("peak") and otherwise decays exponentially toward zero with
/// time constant tau — so a backend that degrades is avoided immediately,
/// and re-probed a few tau after it stops producing slow responses. The
/// pick cost multiplies the decayed estimate by (outstanding + 1), folding
/// in queue depth the way least-request does.
class PeakEwma final : public LbPolicy {
 public:
  PeakEwma(std::vector<std::uint64_t> ids, const PolicyConfig& config)
      : LbPolicy(std::move(ids)),
        tau_(config.ewma_tau_s),
        initial_(config.ewma_initial_s),
        state_(backend_ids_.size()) {
    MASSF_REQUIRE(tau_ > 0, "peak-EWMA needs a positive time constant");
  }

  const char* name() const override { return policy_name(PolicyKind::PeakEwma); }

  std::size_t pick(std::uint64_t key, double now) override {
    (void)key;
    std::size_t best = 0;
    double best_cost = cost(0, now);
    for (std::size_t b = 1; b < state_.size(); ++b) {
      const double c = cost(b, now);
      if (c < best_cost) {
        best = b;
        best_cost = c;
      }
    }
    return best;
  }

  void on_start(std::size_t backend, double now) override {
    (void)now;
    ++state_[backend].outstanding;
  }

  void on_finish(std::size_t backend, double now, double latency_s) override {
    Backend& b = state_[backend];
    if (b.outstanding > 0) --b.outstanding;
    b.ewma_s = std::max(latency_s, decayed(b, now));
    b.stamp_s = now;
  }

  void on_error(std::size_t backend, double now) override {
    // A failed request is observed as a response slower than anything the
    // backend has produced: double the current estimate (floor one tau's
    // worth of seconds) so errors repel traffic as hard as slowness does.
    Backend& b = state_[backend];
    if (b.outstanding > 0) --b.outstanding;
    const double prev = decayed(b, now);
    b.ewma_s = std::max(prev * 2.0, tau_);
    b.stamp_s = now;
  }

  void checkpoint(ckpt::Io& io) override {
    for (Backend& b : state_) {
      io.f64(b.ewma_s);
      io.f64(b.stamp_s);
      io.i64(b.outstanding);
    }
  }

 private:
  struct Backend {
    double ewma_s = -1;  // < 0: no observation yet
    double stamp_s = 0;
    std::int64_t outstanding = 0;
  };

  double decayed(const Backend& b, double now) const {
    if (b.ewma_s < 0) return initial_;
    return b.ewma_s * std::exp(-(now - b.stamp_s) / tau_);
  }

  double cost(std::size_t backend, double now) const {
    const Backend& b = state_[backend];
    return decayed(b, now) * static_cast<double>(b.outstanding + 1);
  }

  double tau_;
  double initial_;
  std::vector<Backend> state_;
};

/// Consistent hashing on a sorted ring of backend vnodes. Vnode positions
/// are derived from the backend's stable *id* (not its index), so a policy
/// rebuilt over a backend subset keeps every surviving id's vnodes exactly
/// where they were — removing one of n backends remaps only ~1/n of keys.
class RingHash final : public LbPolicy {
 public:
  RingHash(std::vector<std::uint64_t> ids, const PolicyConfig& config)
      : LbPolicy(std::move(ids)), seed_(config.seed) {
    MASSF_REQUIRE(config.ring_vnodes >= 1, "ring needs >= 1 vnode/backend");
    ring_.reserve(backend_ids_.size() *
                  static_cast<std::size_t>(config.ring_vnodes));
    for (std::size_t b = 0; b < backend_ids_.size(); ++b) {
      const std::uint64_t base = mix_seed(seed_, backend_ids_[b]);
      for (int v = 0; v < config.ring_vnodes; ++v)
        ring_.push_back({mix_seed(base, static_cast<std::uint64_t>(v)), b});
    }
    std::sort(ring_.begin(), ring_.end());
  }

  const char* name() const override { return policy_name(PolicyKind::RingHash); }

  std::size_t pick(std::uint64_t key, double now) override {
    (void)now;
    const std::uint64_t h = mix_seed(seed_ ^ kRingKeySalt, key);
    // First vnode clockwise from the key's position, wrapping at the top.
    const auto it = std::lower_bound(
        ring_.begin(), ring_.end(), h,
        [](const Vnode& v, std::uint64_t value) { return v.hash < value; });
    return it != ring_.end() ? it->backend : ring_.front().backend;
  }

 private:
  struct Vnode {
    std::uint64_t hash = 0;
    std::size_t backend = 0;
    bool operator<(const Vnode& other) const {
      return hash != other.hash ? hash < other.hash
                                : backend < other.backend;
    }
  };

  std::uint64_t seed_;
  std::vector<Vnode> ring_;
};

/// Maglev hashing: each backend fills a prime-sized lookup table through
/// its own permutation of the slots; slots are claimed round-robin, so the
/// table is balanced within one slot and mostly stable when a backend
/// leaves (its slots are re-claimed, everyone else's stay).
class Maglev final : public LbPolicy {
 public:
  Maglev(std::vector<std::uint64_t> ids, const PolicyConfig& config)
      : LbPolicy(std::move(ids)),
        seed_(config.seed),
        table_(static_cast<std::size_t>(config.maglev_table_size)) {
    const std::size_t m = table_.size();
    const std::size_t n = backend_ids_.size();
    MASSF_REQUIRE(m > n,
                  "maglev table must be larger than the backend set "
                  "(and prime for the permutations to cover it)");
    std::vector<std::size_t> offset(n), skip(n), next(n, 0);
    for (std::size_t b = 0; b < n; ++b) {
      offset[b] = mix_seed(seed_, backend_ids_[b]) % m;
      skip[b] = mix_seed(seed_ ^ kMaglevSkipSalt, backend_ids_[b]) % (m - 1) +
                1;
    }
    std::fill(table_.begin(), table_.end(), n);  // n = unclaimed
    std::size_t filled = 0;
    while (filled < m) {
      for (std::size_t b = 0; b < n && filled < m; ++b) {
        std::size_t slot = (offset[b] + next[b] * skip[b]) % m;
        while (table_[slot] != n) {
          ++next[b];
          slot = (offset[b] + next[b] * skip[b]) % m;
        }
        table_[slot] = b;
        ++next[b];
        ++filled;
      }
    }
  }

  const char* name() const override { return policy_name(PolicyKind::Maglev); }

  std::size_t pick(std::uint64_t key, double now) override {
    (void)now;
    return table_[mix_seed(seed_ ^ kMaglevKeySalt, key) % table_.size()];
  }

 private:
  std::uint64_t seed_;
  std::vector<std::size_t> table_;
};

}  // namespace

LbPolicy::LbPolicy(std::vector<std::uint64_t> backend_ids)
    : backend_ids_(std::move(backend_ids)) {
  MASSF_REQUIRE(!backend_ids_.empty(), "policy needs at least one backend");
}

const char* policy_name(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::RoundRobin:
      return "round-robin";
    case PolicyKind::LeastRequest:
      return "least-request";
    case PolicyKind::PeakEwma:
      return "peak-ewma";
    case PolicyKind::RingHash:
      return "ring-hash";
    case PolicyKind::Maglev:
      return "maglev";
  }
  return "unknown";
}

std::unique_ptr<LbPolicy> make_policy(PolicyKind kind,
                                      std::vector<std::uint64_t> backend_ids,
                                      const PolicyConfig& config) {
  switch (kind) {
    case PolicyKind::RoundRobin:
      return std::make_unique<RoundRobin>(std::move(backend_ids));
    case PolicyKind::LeastRequest:
      return std::make_unique<LeastRequest>(std::move(backend_ids));
    case PolicyKind::PeakEwma:
      return std::make_unique<PeakEwma>(std::move(backend_ids), config);
    case PolicyKind::RingHash:
      return std::make_unique<RingHash>(std::move(backend_ids), config);
    case PolicyKind::Maglev:
      return std::make_unique<Maglev>(std::move(backend_ids), config);
  }
  MASSF_REQUIRE(false, "unknown policy kind");
  return nullptr;
}

}  // namespace massf::app
