// Test-only closure events on top of the kernel's typed event path.
//
// The kernel dispatches every event to one EventSink as a POD PacketEvent.
// Tests that want "run this lambda at t on LP i" use ClosureSink: it
// registers itself as the kernel's sink and stores each closure in a side
// table it owns; the event's payload points at the stored closure.
//
// Threading: an LP's table is appended to only by the thread executing that
// LP (or by the caller before the run / inside a safepoint hook, when no
// event executes), and a stored closure is read by the executing receiver
// only after the kernel's own handoff has ordered it after the write. A
// std::deque never moves its elements on push_back, so Threaded runs need
// no extra locking. Closures live until the adapter is destroyed, so events
// still pending when a run ends leak nothing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <utility>
#include <vector>

#include "des/kernel.hpp"

namespace massf::des {

class ClosureSink : public EventSink {
 public:
  explicit ClosureSink(Kernel& kernel)
      : kernel_(kernel), tables_(static_cast<std::size_t>(kernel.lp_count())) {
    kernel_.set_event_sink(this);
  }

  /// Kernel::schedule_packet with a closure; `key` is the rehome key
  /// (PacketEvent::node; -1 pins the event to its LP).
  void schedule(int lp, SimTime t, std::function<void()> fn,
                std::int32_t key = -1) {
    kernel_.schedule_packet(lp, t, {store(std::move(fn)), key});
  }

  /// Kernel::schedule_packet_remote with a closure.
  void schedule_remote(int to_lp, SimTime t, std::function<void()> fn,
                       std::int32_t key = -1) {
    kernel_.schedule_packet_remote(to_lp, t, {store(std::move(fn)), key});
  }

  void on_packet_event(const PacketEvent& event) override {
    auto* slot = static_cast<std::function<void()>*>(event.payload);
    // Move out first so the captures are released once the event ran.
    const std::function<void()> fn = std::move(*slot);
    *slot = nullptr;
    fn();
  }

 private:
  std::function<void()>* store(std::function<void()> fn) {
    const int lp = kernel_.current_lp();
    auto& table = tables_[lp < 0 ? 0 : static_cast<std::size_t>(lp)];
    table.push_back(std::move(fn));
    return &table.back();
  }

  Kernel& kernel_;
  std::vector<std::deque<std::function<void()>>> tables_;
};

}  // namespace massf::des
