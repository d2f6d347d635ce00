// Application layer: message-passing endpoints hosted on emulated hosts.
//
// MaSSF directly executes real applications (ScaLAPACK over MPICH-G,
// GridNPB) whose sockets are redirected into the emulator. Our substitute
// is a deterministic message-passing framework: an AppEndpoint instance
// lives on each participating host, receives start/receive upcalls on that
// host's engine (LP), and interacts with the network exclusively through
// AppApi — so all endpoint state is partitioned per host and the framework
// is race-free in threaded kernel mode. Traffic models (HTTP background,
// ScaLapack-like, GridNPB-like) are built on this interface.
#pragma once

#include <cstdint>
#include <memory>

#include "emu/packet.hpp"

namespace massf::ckpt {
class Io;
}  // namespace massf::ckpt

namespace massf::emu {

class Emulator;

// AppMessage lives in emu/packet.hpp: the last train of a message embeds it
// so delivery needs no per-message closure.

/// Capability handle passed to endpoint upcalls; valid only for the
/// duration of the upcall and only on the endpoint's host.
class AppApi {
 public:
  AppApi(Emulator& emulator, NodeId host)
      : emulator_(emulator), host_(host) {}

  /// The host this endpoint lives on.
  NodeId self() const { return host_; }

  /// Current simulation time.
  SimTime now() const;

  /// Send an application message to another host; returns its message id.
  /// The message is packetized and injected on this host's access link.
  /// `corr` is an opaque correlation token delivered unchanged in
  /// AppMessage::corr (request/response matching for the RPC layer).
  std::uint64_t send(NodeId dst, double bytes, int tag = 0,
                     std::uint64_t corr = 0);

  /// Like send(), but with at-least-once delivery: the receiver ACKs and
  /// this host retransmits on timeout with exponential backoff until the
  /// retry budget (EmulatorConfig::reliable) is exhausted. The receiver
  /// endpoint sees the message exactly once (duplicates are suppressed).
  /// When the budget runs out the sender endpoint gets on_send_failed().
  std::uint64_t send_reliable(NodeId dst, double bytes, int tag = 0,
                              std::uint64_t corr = 0);

  /// Model a compute phase: after `delay` seconds of simulated
  /// computation, the endpoint's on_timer(api, tag) upcall runs on this
  /// host. The pending timer is a typed control event, so it survives
  /// checkpoint/restore bit-identically.
  void set_timer(double delay, std::int64_t tag = 0);

  /// Record one per-request latency sample into a histogram series the
  /// emulator folds per (series × fault epoch × engine); see
  /// Emulator::register_latency_series. Pure counter update — never
  /// schedules an event, so it cannot perturb history_hash.
  void record_latency(int series, double seconds);

  Emulator& emulator() { return emulator_; }

 private:
  Emulator& emulator_;
  NodeId host_;
};

/// Base class for application endpoints. Default upcalls do nothing.
class AppEndpoint {
 public:
  virtual ~AppEndpoint() = default;

  /// Invoked once at the endpoint's start time.
  virtual void start(AppApi& api) { (void)api; }

  /// Invoked when an application message addressed to this host is fully
  /// delivered.
  virtual void receive(AppApi& api, const AppMessage& message) {
    (void)api;
    (void)message;
  }

  /// Invoked when a timer armed with AppApi::set_timer expires.
  virtual void on_timer(AppApi& api, std::int64_t tag) {
    (void)api;
    (void)tag;
  }

  /// Invoked on the *sender* when a send_reliable exhausts its retry
  /// budget: `message` carries the failed message's dst/bytes/tag/id/corr
  /// and its first-send time. Runs on the sender's engine at the final
  /// timeout, so it is race-free and deterministic like every other upcall.
  virtual void on_send_failed(AppApi& api, const AppMessage& message) {
    (void)api;
    (void)message;
  }

  /// Checkpoint walk over this endpoint's mutable state: one list of
  /// fields that `io` writes or reads back (ckpt::Io). The emulator frames
  /// it as a block of 8-byte words, so the walk uses only u64/i64/f64
  /// fields and counts, and a restore that reads a different number of
  /// words than was saved is rejected. Endpoints with no mutable state may
  /// keep the default; stateful endpoints must override it or their
  /// restored runs diverge.
  virtual void checkpoint(ckpt::Io& io) { (void)io; }
};

}  // namespace massf::emu
