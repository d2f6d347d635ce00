#include "des/kernel.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <exception>
#include <memory>
#include <thread>
#include <type_traits>

#include "ckpt/ckpt.hpp"
#include "util/spinwait.hpp"
#include "util/thread_annotations.hpp"

namespace massf::des {

namespace {

constexpr std::uint64_t kHashSeed = 1469598103934665603ULL;

// Cap on the number of load-series buckets pre-reserved from the run
// horizon: callers sometimes pass a generous end_time (run-until-quiet) and
// reserving gigabytes for buckets that will never be touched helps nobody.
constexpr std::size_t kMaxReservedBuckets = 1 << 16;

// One step of the per-LP history stream hash: xor-in then a splitmix64-style
// finalizer round. Runs twice per executed event, so it must be a handful of
// instructions — the byte-granular FNV-1a it replaced cost 16 multiplies per
// event on the hot path.
std::uint64_t hash_mix(std::uint64_t hash, std::uint64_t value) {
  hash ^= value;
  hash *= 0xff51afd7ed558ccdULL;
  hash ^= hash >> 33;
  return hash;
}

std::uint64_t time_bits(SimTime t) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(t));
  std::memcpy(&bits, &t, sizeof(bits));
  return bits;
}

// Execution context of the thread currently running events. Thread-local so
// Threaded mode is race-free; Sequential mode uses the caller's thread.
thread_local int tl_current_lp = -1;
thread_local SimTime tl_now = 0;

// Section tags for the checkpoint payload (ckpt::Reader::expect_tag turns
// layout drift into an actionable error instead of garbage fields).
constexpr std::uint32_t kTagKernel = 0x6b726e6c;    // "krnl"
constexpr std::uint32_t kTagChannels = 0x6b636873;  // "kchs"
constexpr std::uint32_t kTagLp = 0x6b6c7073;        // "klps"
constexpr std::uint32_t kTagKernelEnd = 0x6b656e64; // "kend"

/// First-exception box shared by the worker threads of a run. `failed` is
/// the lock-free flag the hot loops poll; the exception itself travels
/// under the mutex. Cold by construction (touched only on failure), but the
/// polled flag still gets its own cache line so reading it never contends
/// with the slot the mutex protects.
struct FailureBox {
  util::Mutex m;
  std::exception_ptr first MASSF_GUARDED_BY(m);
  alignas(64) std::atomic<bool> failed{false};

  void record(std::exception_ptr e) {
    {
      util::MutexLock lock(m);
      if (!first) first = std::move(e);
    }
    failed.store(true, std::memory_order_release);
  }

  /// Null when no worker failed. Call after the threads are joined.
  std::exception_ptr take() {
    util::MutexLock lock(m);
    return first;
  }

  /// Run one per-LP step unless a failure is already recorded — a failed
  /// run executes nothing more — and record whatever it throws. Workers
  /// then carry on through the barrier and stall protocols unchanged until
  /// a completion sees `failed` and stops the run, so no worker ever waits
  /// for one that left.
  template <typename Step>
  void guard(Step&& step) {
    if (failed.load(std::memory_order_relaxed)) return;
    try {
      step();
    } catch (...) {
      tl_current_lp = -1;  // the step threw out of an executing event
      record(std::current_exception());
    }
  }
};

}  // namespace

const char* to_string(SyncMode mode) {
  return mode == SyncMode::GlobalWindow ? "global-window" : "channel-lookahead";
}

std::vector<double> KernelStats::loads() const {
  std::vector<double> out(events_per_lp.size());
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i] = static_cast<double>(events_per_lp[i]);
  return out;
}

struct Kernel::Impl {
  /// One scheduled event: the PacketEvent (payload, node) handed to the
  /// sink plus its (t, origin, seq) order key, packed into 32 trivially-
  /// copyable bytes. Heap sifts — the single hottest operation in the
  /// kernel — move events by plain memcpy, two to a cache line. The kernel
  /// owns nothing an event points to, so pending events need no cleanup.
  struct Event {
    SimTime t;
    std::uint64_t seq;
    void* payload;
    std::uint32_t origin;
    std::int32_t node;  // PacketEvent::node, also the rehome key

    PacketEvent packet() const { return {payload, node}; }
  };
  static_assert(std::is_trivially_copyable_v<Event>);
  static_assert(sizeof(Event) == 32);
  struct EventLater {
    bool operator()(const Event& a, const Event& b) const {
      if (a.t != b.t) return a.t > b.t;
      if (a.origin != b.origin) return a.origin > b.origin;
      return a.seq > b.seq;
    }
  };

  /// Pending-event queue over the (t, origin, seq) total order. Replaces
  /// std::priority_queue so the drain phase can append a window's incoming
  /// batch in bulk, and so pop() can move events out without the const_cast
  /// dance. Two representations of the same set:
  ///
  ///   * heap mode (default): binary min-time heap, O(log n) push/pop;
  ///   * sorted mode: descending (t, origin, seq) array popped from the
  ///     back in O(1) — entered when a bulk drain lands in an empty queue
  ///     (the common case for remote-hop traffic, where a window consumes
  ///     exactly the batch the previous window delivered). The first push
  ///     re-heapifies the remainder, so mid-window rescheduling stays
  ///     correct.
  ///
  /// Every event is unique under the total order, so the pop sequence is
  /// the sorted sequence in either representation; determinism is
  /// layout-independent.
  struct EventHeap {
    std::vector<Event> v;
    bool sorted = false;

    bool empty() const { return v.empty(); }
    std::size_t size() const { return v.size(); }
    const Event& top() const { return sorted ? v.back() : v.front(); }
    void push(Event e) {
      to_heap();
      v.push_back(std::move(e));
      std::push_heap(v.begin(), v.end(), EventLater{});
    }
    Event pop() {
      if (!sorted) std::pop_heap(v.begin(), v.end(), EventLater{});
      Event e = std::move(v.back());
      v.pop_back();
      if (v.empty()) sorted = false;
      return e;
    }
    void to_heap() {
      if (!sorted) return;
      std::make_heap(v.begin(), v.end(), EventLater{});
      sorted = false;
    }
  };

  /// Per-destination staging slot for cross-LP sends. Under ChannelLookahead
  /// events accumulate here until the run is big enough to publish
  /// (KernelTuning::outbox_flush_events) or a flush is forced; min_t tracks
  /// the earliest held timestamp so the sender's published clock can be
  /// capped while it hoards (see flush_channels). GlobalWindow hands whole
  /// windows off at the barrier and ignores min_t.
  struct Outbox {
    std::vector<Event> events;
    SimTime min_t = Kernel::never();
  };

  /// alignas(64): each LP's hot state (queue, outboxes, counters) lives on
  /// its own cache lines so one engine's bookkeeping never falsely shares
  /// with a neighbour's in threaded runs.
  struct alignas(64) Lp {
    EventHeap queue;
    std::uint64_t seq_counter = 0;
    std::vector<Outbox> outbox;  // one slot per destination LP
    /// Destinations whose outbox slot became non-empty this window; flushed
    /// into the receivers' pending_sources at the window barrier so the
    /// drain phase only visits live sender/receiver pairs instead of
    /// scanning all k^2 slots.
    std::vector<std::uint32_t> dirty_dsts;
    /// Sources with output waiting for this LP (ascending; written
    /// single-threaded at the barrier, read by this LP's drain).
    std::vector<std::uint32_t> pending_sources;
    double window_busy = 0;
    std::uint64_t events = 0;
    double busy_total = 0;
    std::uint64_t remote_sent = 0;
    std::uint64_t history = kHashSeed;
    SimTime max_time = 0;
    /// Reused staging buffer for inbox/mailbox merges (this LP only).
    std::vector<Event> scratch;
    /// ChannelLookahead: advance-loop iterations that executed something.
    std::uint64_t advances = 0;
    /// ChannelLookahead + Threaded: wall seconds spent stalled.
    double idle_wait = 0;
    /// Doorbell for the threaded stall/park protocol: senders ring it after
    /// publishing a run or advancing their clock (ChannelRun::advance).
    util::WaitSlot wake;
    /// Batched outbox runs this LP published (ChannelLookahead only;
    /// deterministic in Sequential mode — the outbox-threshold observable).
    std::uint64_t handoff_runs = 0;
    /// Times this LP's worker parked on its wait slot (Threaded only).
    std::uint64_t parks = 0;
    std::vector<double> series;  // event counts per sim-time bucket
  };

  /// One directed cross-LP channel under SyncMode::ChannelLookahead. The
  /// mailbox is a single-producer single-consumer unbounded run queue
  /// (Vyukov-style stub-swinging linked list): the sender publishes a whole
  /// outbox run with ONE release store (`head->next.store(node, release)`),
  /// the receiver consumes runs in publish order by walking `tail->next`,
  /// and spent stubs return through the `recycled` stack. Nodes — and the
  /// vector capacity inside them — cycle sender → queue → receiver →
  /// recycled → sender, so the steady state allocates nothing and the only
  /// cross-core traffic is the run handoff itself.
  struct Channel {
    std::uint32_t src = 0;
    std::uint32_t dst = 0;
    double lookahead = 0;
    /// One published run plus the queue link. A node is written by exactly
    /// one side at a time (the sender fills `events` before its release
    /// store of the link; the receiver reads them after its acquire load),
    /// and the alignment keeps a node being filled off the line the
    /// receiver is polling.
    struct alignas(64) RunNode {
      std::vector<Event> events;
      std::atomic<RunNode*> next{nullptr};
    };
    /// Sender-side cursor: the most recently published node (queue head).
    /// Only the src LP touches it.
    alignas(64) RunNode* head = nullptr;
    /// Sender-local stash of free nodes popped off `recycled` in bulk.
    RunNode* free_cache = nullptr;
    /// Every node this channel ever allocated (setup or sender side); the
    /// queue, the stash and `recycled` link them by raw pointer.
    std::vector<std::unique_ptr<RunNode>> nodes;
    /// Receiver-side cursor: the consumed stub; `tail->next` is the oldest
    /// unconsumed run (null = empty — the receiver's poll/stall predicate).
    alignas(64) RunNode* tail = nullptr;
    // Receiver-side stats (single-writer: the dst LP's thread).
    std::uint64_t delivered = 0;
    std::uint64_t throttled = 0;
    double max_lag = 0;
    /// Spent stubs returned receiver → sender (Treiber stack: the receiver
    /// CAS-pushes, the sender takes the whole chain with one exchange).
    alignas(64) std::atomic<RunNode*> recycled{nullptr};
  };

  std::vector<Lp> lps;
  /// Registered channels (unique_ptr: Channel is neither movable nor
  /// copyable, and stable addresses let workers hold raw references).
  std::vector<std::unique_ptr<Channel>> channels;
  /// Dense (src * k + dst) → channel index, -1 when unregistered.
  std::vector<std::int32_t> channel_of;
  /// Per-LP inbound channel indices, ascending by src (deterministic bound
  /// and throttle attribution regardless of registration order).
  std::vector<std::vector<std::uint32_t>> inbound;
  /// Per-LP outbound channel indices (doorbell fan-out after a clock
  /// publish; order is irrelevant, only membership matters).
  std::vector<std::vector<std::uint32_t>> outbound;
  /// KernelTuning::outbox_flush_events, latched by run_until.
  std::uint32_t flush_threshold = 1;

  explicit Impl(int lp_count) : lps(static_cast<std::size_t>(lp_count)) {
    for (Lp& lp : lps) {
      lp.outbox.resize(static_cast<std::size_t>(lp_count));
      // Pre-size the per-packet-send vectors so the first window pays no
      // allocations: dirty_dsts holds at most one entry per destination
      // engine, and each outbox batch publishes at kOutboxFlushEvents.
      lp.dirty_dsts.reserve(static_cast<std::size_t>(lp_count));
      for (Outbox& box : lp.outbox) box.events.reserve(kOutboxFlushEvents);
    }
    // massf-lint: allow(quadratic-reserve) — engine-count², not node-count².
    channel_of.assign(lps.size() * lps.size(), -1);
  }

  /// Earliest queued event over all LPs (never() when every queue is
  /// empty). Callers hold every worker parked.
  SimTime earliest_queued() const {
    SimTime m = Kernel::never();
    for (const Lp& lp : lps)
      if (!lp.queue.empty()) m = std::min(m, lp.queue.top().t);
    return m;
  }

  std::int32_t channel_index(std::size_t src, std::size_t dst) const {
    return channel_of[src * lps.size() + dst];
  }

  /// Drop the whole channel graph so a restoring checkpoint walk can
  /// rebuild it from the snapshot (registration order and per-channel
  /// stats included).
  /// Pre-run only: setup-time channels hold no events.
  void clear_channels() {
    channels.clear();
    // massf-lint: allow(quadratic-reserve) — engine-count², not node-count².
    channel_of.assign(lps.size() * lps.size(), -1);
  }

  Channel& ensure_channel(int src, int dst, double la) {
    std::int32_t& slot =
        channel_of[static_cast<std::size_t>(src) * lps.size() +
                   static_cast<std::size_t>(dst)];
    if (slot < 0) {
      slot = static_cast<std::int32_t>(channels.size());
      auto ch = std::make_unique<Channel>();
      ch->src = static_cast<std::uint32_t>(src);
      ch->dst = static_cast<std::uint32_t>(dst);
      // Queue stub (the consumed sentinel).
      ch->head = ch->tail =
          ch->nodes.emplace_back(std::make_unique<Channel::RunNode>()).get();
      channels.push_back(std::move(ch));
    }
    Channel& ch = *channels[static_cast<std::size_t>(slot)];
    ch.lookahead = la;
    return ch;
  }

  /// (Re)build the per-LP inbound and outbound channel lists. Rebuilds
  /// strictly in place: a mid-run safepoint can register new channels while
  /// parked worker threads hold references to the inner vectors, so the
  /// outer vectors must never reallocate after the first call.
  void build_inbound() {
    if (inbound.size() != lps.size()) inbound.resize(lps.size());
    if (outbound.size() != lps.size()) outbound.resize(lps.size());
    for (auto& list : inbound) list.clear();
    for (auto& list : outbound) list.clear();
    for (std::uint32_t c = 0; c < channels.size(); ++c) {
      inbound[channels[c]->dst].push_back(c);
      outbound[channels[c]->src].push_back(c);
    }
    for (auto& list : inbound)
      std::sort(list.begin(), list.end(),
                [this](std::uint32_t a, std::uint32_t b) {
                  return channels[a]->src < channels[b]->src;
                });
  }

  /// Shared per-event accounting + dispatch to the sink.
  /// `inv_bucket_width` is the precomputed reciprocal: a multiply here
  /// instead of a divide per event.
  // massf-analyze: hot-path-root (the per-event dispatch loop)
  // massf-analyze: determinism-root (mixes lp.history via hash_mix)
  void execute_event(Lp& lp, const Event& e, double per_event_cost,
                     double inv_bucket_width, EventSink* sink) {
    tl_now = e.t;
    lp.window_busy += per_event_cost;
    ++lp.events;
    lp.max_time = std::max(lp.max_time, e.t);
    lp.history = hash_mix(lp.history, time_bits(e.t));
    lp.history = hash_mix(
        lp.history, (static_cast<std::uint64_t>(e.origin) << 32) ^ e.seq);
    const auto bucket = static_cast<std::size_t>(e.t * inv_bucket_width);
    if (lp.series.size() <= bucket) lp.series.resize(bucket + 1, 0.0);
    lp.series[bucket] += 1;
    sink->on_packet_event(e.packet());
  }

  /// Execute LP i's events with t < limit in (t, origin, seq) order, with
  /// this thread's execution context set to LP i. Returns whether any ran.
  bool execute_below(std::size_t i, SimTime limit, double per_event_cost,
                     double inv_bucket_width, EventSink* sink) {
    Lp& lp = lps[i];
    bool executed = false;
    tl_current_lp = static_cast<int>(i);
    while (!lp.queue.empty() && lp.queue.top().t < limit) {
      execute_event(lp, lp.queue.pop(), per_event_cost, inv_bucket_width,
                    sink);
      executed = true;
    }
    tl_current_lp = -1;
    return executed;
  }

  /// Route every sender's dirty destination list into the receivers'
  /// pending_sources. Must run single-threaded (WindowRun::account, a
  /// barrier completion); iterating senders in index order keeps
  /// pending_sources ascending.
  void flush_dirty_senders() {
    for (std::size_t s = 0; s < lps.size(); ++s) {
      Lp& sender = lps[s];
      for (std::uint32_t dst : sender.dirty_dsts)
        lps[dst].pending_sources.push_back(static_cast<std::uint32_t>(s));
      sender.dirty_dsts.clear();
    }
  }

  /// Merge a batch of remote events into `receiver`'s queue, charging the
  /// per-message receive cost. Batches below kBulkHeapifyThreshold (or that
  /// are a small fraction of the queue) go through ordinary heap pushes;
  /// bulk append+rebuild only pays when the batch dominates the queue:
  /// rebuilding costs O(old + new) while appending costs O(new log n) —
  /// and in practice far less, because drained remote events carry later
  /// timestamps than the locals already queued and sift-up exits almost
  /// immediately. Consumes (clears) the batch.
  void merge_batch(Lp& receiver, std::vector<Event>& batch,
                   double per_remote_cost) {
    if (batch.empty()) return;
    const std::size_t incoming = batch.size();
    EventHeap& queue = receiver.queue;
    const bool was_empty = queue.empty();
    const bool bulk = incoming >= kBulkHeapifyThreshold &&
                      (was_empty || incoming > queue.size());
    for (Event& event : batch) {
      if (bulk)
        queue.v.push_back(event);
      else
        queue.push(event);
    }
    batch.clear();
    if (bulk) {
      if (was_empty) {
        // The whole batch in one sorted run: O(1) pops next window.
        std::sort(queue.v.begin(), queue.v.end(), EventLater{});
        queue.sorted = true;
      } else {
        // Rebuild over old contents + appendees, whichever mode held.
        queue.sorted = false;
        std::make_heap(queue.v.begin(), queue.v.end(), EventLater{});
      }
    }
    receiver.window_busy += per_remote_cost * static_cast<double>(incoming);
  }

  /// Deliver pending outbox slots into dst's queue (second half of the
  /// GlobalWindow per-LP step). Only senders recorded in pending_sources
  /// are visited.
  // massf-analyze: hot-path-root (per-LP mailbox drain, once per window)
  void drain_inboxes(std::size_t dst, double per_remote_cost) {
    Lp& receiver = lps[dst];
    if (receiver.pending_sources.empty()) return;
    receiver.scratch.clear();
    for (std::uint32_t src : receiver.pending_sources) {
      Outbox& box = lps[src].outbox[dst];
      // massf-analyze: allow(hot-path-alloc) — scratch keeps its capacity
      // across windows (clear() never shrinks); steady state reuses it.
      receiver.scratch.insert(receiver.scratch.end(), box.events.begin(),
                              box.events.end());
      box.events.clear();
      box.min_t = Kernel::never();
    }
    receiver.pending_sources.clear();
    merge_batch(receiver, receiver.scratch, per_remote_cost);
  }

  /// Pop a free run node for `ch` (sender side): the local stash first,
  /// else the whole recycled chain with one exchange, else the allocator.
  Channel::RunNode* take_node(Channel& ch) {
    if (ch.free_cache == nullptr)
      ch.free_cache = ch.recycled.exchange(nullptr, std::memory_order_acquire);
    if (Channel::RunNode* node = ch.free_cache) {
      ch.free_cache = node->next.load(std::memory_order_relaxed);
      return node;
    }
    // Cold path: the steady state recycles.
    // massf-analyze: allow(hot-path-alloc) — node-pool refill, runs only
    // until the free list reaches the in-flight high-water mark.
    return ch.nodes.emplace_back(std::make_unique<Channel::RunNode>()).get();
  }

  /// Return a spent stub to the sender (receiver side of the Treiber
  /// stack; contends only with the sender's rare bulk exchange).
  void recycle_node(Channel& ch, Channel::RunNode* node) {
    Channel::RunNode* top = ch.recycled.load(std::memory_order_relaxed);
    do {
      node->next.store(top, std::memory_order_relaxed);
    } while (!ch.recycled.compare_exchange_weak(
        top, node, std::memory_order_release, std::memory_order_relaxed));
  }

  /// Publish one outbox slot as a run: a single release store makes the
  /// whole batch visible, then the receiver's doorbell rings. The caller
  /// publishes its (possibly capped) clock only afterwards, so a receiver
  /// that observes the new clock is guaranteed to also observe these
  /// events.
  void flush_box(std::size_t src, std::uint32_t dst) {
    Lp& sender = lps[src];
    Outbox& box = sender.outbox[dst];
    Channel& ch = *channels[static_cast<std::size_t>(channel_index(src, dst))];
    Channel::RunNode* node = take_node(ch);
    node->events.swap(box.events);  // vector capacity recycles both ways
    box.min_t = Kernel::never();
    node->next.store(nullptr, std::memory_order_relaxed);
    ch.head->next.store(node, std::memory_order_release);
    ch.head = node;
    ++sender.handoff_runs;
    lps[dst].wake.signal();
  }

  /// ChannelLookahead sender flush at a publish point. Slots holding at
  /// least flush_threshold events (all of them when `force`) are published;
  /// smaller runs stay hoarded to amortize the cross-core handoff. Returns
  /// the hoard cap: min over still-held slots of (earliest held event −
  /// that channel's lookahead). Capping the sender's published clock there
  /// keeps hoarding conservative-safe — a receiver's bound through a
  /// hoarded channel never reaches the earliest event the hoard still owes
  /// it. ChannelRun::advance force-flushes whenever it executes nothing
  /// (the prelude to every stall, rendezvous, and safepoint), so hoards
  /// never outlive the sender's attention.
  SimTime flush_channels(std::size_t src, bool force) {
    Lp& sender = lps[src];
    SimTime cap = Kernel::never();
    auto keep = sender.dirty_dsts.begin();
    for (std::uint32_t dst : sender.dirty_dsts) {
      Outbox& box = sender.outbox[dst];
      if (force || box.events.size() >= flush_threshold) {
        flush_box(src, dst);
      } else {
        const Channel& ch =
            *channels[static_cast<std::size_t>(channel_index(src, dst))];
        cap = std::min(cap, box.min_t - ch.lookahead);
        *keep++ = dst;
      }
    }
    sender.dirty_dsts.erase(keep, sender.dirty_dsts.end());
    return cap;
  }

  /// ChannelLookahead receiver drain of one inbound channel: consume every
  /// published run in publish order, recycle the spent stubs, and merge the
  /// whole batch through the bulk-heapify path. The acquire load of `next`
  /// pairs with the sender's release publish in flush_box.
  void drain_channel(Channel& ch, Lp& receiver, double per_remote_cost) {
    Channel::RunNode* next = ch.tail->next.load(std::memory_order_acquire);
    if (next == nullptr) return;
    receiver.scratch.clear();
    do {
      // massf-analyze: allow(hot-path-alloc) — scratch keeps its capacity
      // across drains (clear() never shrinks); steady state reuses it.
      receiver.scratch.insert(receiver.scratch.end(), next->events.begin(),
                              next->events.end());
      next->events.clear();  // keep the capacity; the node recycles
      Channel::RunNode* spent = ch.tail;
      ch.tail = next;
      recycle_node(ch, spent);
      next = ch.tail->next.load(std::memory_order_acquire);
    } while (next != nullptr);
    ch.delivered += receiver.scratch.size();
    merge_batch(receiver, receiver.scratch, per_remote_cost);
  }

  /// Safepoint normalization for ChannelLookahead: force-flush every
  /// hoarded outbox, then force-drain every channel queue into its
  /// receiver's queue, so the hook — and rehome_events — sees the complete
  /// pending-event set in LP queues. A queue can legitimately be non-empty
  /// at quiescence (the receiver stalls on its bound without polling runs
  /// it cannot use yet); draining in channel index order charges the
  /// per-message receive cost exactly once, whatever the execution mode.
  /// Runs single-threaded with every worker parked. Receive costs are
  /// folded straight into busy_total, which advance keeps folded
  /// (window_busy is 0 on entry).
  void drain_all_channels(double per_remote_cost) {
    for (std::size_t s = 0; s < lps.size(); ++s) flush_channels(s, true);
    for (auto& chp : channels)
      drain_channel(*chp, lps[chp->dst], per_remote_cost);
    for (Lp& lp : lps) {
      lp.busy_total += lp.window_busy;
      lp.window_busy = 0;
    }
  }
};

Kernel::Kernel(int lp_count, double lookahead, CostModel cost)
    : lp_count_(lp_count),
      lookahead_(lookahead),
      cost_(cost),
      impl_(std::make_unique<Impl>(lp_count)) {
  MASSF_REQUIRE(lp_count >= 1, "kernel needs at least one LP");
  MASSF_REQUIRE(lookahead > 0, "lookahead must be positive");
  stats_.events_per_lp.assign(static_cast<std::size_t>(lp_count), 0);
  stats_.busy_per_lp.assign(static_cast<std::size_t>(lp_count), 0.0);
}

Kernel::~Kernel() = default;

int Kernel::current_lp() const { return tl_current_lp; }
SimTime Kernel::now() const { return tl_now; }

void Kernel::set_bucket_width(double width) {
  MASSF_REQUIRE(width > 0, "bucket width must be positive");
  MASSF_REQUIRE(!ran_, "set bucket width before running");
  stats_.bucket_width = width;
}

void Kernel::set_event_sink(EventSink* sink) {
  MASSF_REQUIRE(sink != nullptr, "event sink must not be null");
  sink_ = sink;
}

void Kernel::set_sync_mode(SyncMode mode) {
  MASSF_REQUIRE(!ran_, "set the sync mode before running");
  sync_mode_ = mode;
}

void Kernel::set_tuning(const KernelTuning& tuning) {
  MASSF_REQUIRE(!ran_, "set tuning before running");
  MASSF_REQUIRE(tuning.outbox_flush_events >= 1,
                "outbox flush threshold must be >= 1 (1 = publish every "
                "iteration-end flush)");
  tuning_ = tuning;
}

void Kernel::set_channel_lookahead(int src, int dst, double la) {
  MASSF_REQUIRE(!ran_ || in_safepoint_,
                "register channel lookaheads before running or from inside "
                "a safepoint hook");
  MASSF_REQUIRE(src >= 0 && src < lp_count_ && dst >= 0 && dst < lp_count_,
                "channel LP index out of range");
  MASSF_REQUIRE(src != dst, "a channel must connect two distinct LPs");
  MASSF_REQUIRE(std::isfinite(la) && la >= lookahead_,
                "channel lookahead "
                    << la << " must be finite and >= the global lookahead "
                    << lookahead_
                    << " (the global value is the min over all engine pairs)");
  impl_->ensure_channel(src, dst, la);
  // Mid-run registration (parked safepoint): keep the receivers' inbound
  // bound lists current. build_inbound rebuilds in place, so references the
  // parked workers hold stay valid; they re-read sizes after resuming.
  if (ran_) impl_->build_inbound();
}

double Kernel::channel_lookahead(int src, int dst) const {
  MASSF_REQUIRE(src >= 0 && src < lp_count_ && dst >= 0 && dst < lp_count_,
                "channel LP index out of range");
  if (impl_->channels.empty()) return lookahead_;
  const std::int32_t c = impl_->channel_index(static_cast<std::size_t>(src),
                                              static_cast<std::size_t>(dst));
  return c < 0 ? never() : impl_->channels[static_cast<std::size_t>(c)]->lookahead;
}

// massf-analyze: hot-path-root (per-packet local enqueue)
void Kernel::schedule_packet(int lp, SimTime t, PacketEvent event) {
  MASSF_REQUIRE(lp >= 0 && lp < lp_count_, "LP index out of range");
  MASSF_REQUIRE(std::isfinite(t) && t >= 0, "event time must be finite, >=0");
  if (tl_current_lp >= 0) {
    MASSF_REQUIRE(lp == tl_current_lp,
                  "during execution, schedule_packet() may only target the "
                  "executing LP (use schedule_packet_remote)");
    MASSF_REQUIRE(t >= tl_now, "cannot schedule into the past (t="
                                   << t << " < now=" << tl_now << ")");
  }
  MASSF_REQUIRE(sink_ != nullptr,
                "register an EventSink before scheduling packet events");
  Impl::Lp& state = impl_->lps[static_cast<std::size_t>(lp)];
  state.queue.push({t, state.seq_counter++, event.payload,
                    static_cast<std::uint32_t>(lp), event.node});
}

// massf-analyze: hot-path-root (per-packet cross-engine enqueue)
void Kernel::schedule_packet_remote(int to_lp, SimTime t, PacketEvent event) {
  MASSF_REQUIRE(tl_current_lp >= 0,
                "schedule_packet_remote may only be called from an executing "
                "event");
  MASSF_REQUIRE(to_lp >= 0 && to_lp < lp_count_, "LP index out of range");
  const double lookahead = channel_lookahead(tl_current_lp, to_lp);
  MASSF_REQUIRE(lookahead != never(),
                "no channel registered from LP "
                    << tl_current_lp << " to LP " << to_lp
                    << ": once any per-channel lookahead is set, cross-LP "
                       "sends are restricted to registered channels");
  // Conservative safety: the receiver may already be executing events up to
  // now + lookahead. A tiny epsilon absorbs floating-point latency sums.
  MASSF_REQUIRE(t >= tl_now + lookahead - 1e-12,
                "remote event at t=" << t << " violates lookahead (now="
                                     << tl_now << ", lookahead=" << lookahead
                                     << ")");
  MASSF_REQUIRE(sink_ != nullptr,
                "register an EventSink before scheduling packet events");
  Impl::Lp& sender = impl_->lps[static_cast<std::size_t>(tl_current_lp)];
  Impl::Outbox& box = sender.outbox[static_cast<std::size_t>(to_lp)];
  if (box.events.empty())
    sender.dirty_dsts.push_back(static_cast<std::uint32_t>(to_lp));
  box.min_t = std::min(box.min_t, t);
  box.events.push_back({t, sender.seq_counter++, event.payload,
                        static_cast<std::uint32_t>(tl_current_lp), event.node});
  sender.window_busy += cost_.per_remote_message;
  ++sender.remote_sent;
}

// ---- Safepoints -----------------------------------------------------------

void Kernel::add_safepoint(SimTime t) {
  MASSF_REQUIRE(!ran_, "add safepoints before running");
  MASSF_REQUIRE(std::isfinite(t) && t > 0,
                "safepoint time must be positive and finite");
  safepoints_.push_back(t);
}

void Kernel::set_safepoint_hook(SafepointHook hook) {
  MASSF_REQUIRE(!ran_, "set the safepoint hook before running");
  safepoint_hook_ = std::move(hook);
}

void Kernel::run_safepoint_hook(SimTime sp) {
  ++stats_.safepoints;
  if (!safepoint_hook_) return;
  // The hook runs outside any event: current_lp() is -1, now() reports the
  // safepoint time. in_safepoint_ gates the migration mutators.
  in_safepoint_ = true;
  tl_now = sp;
  try {
    safepoint_hook_(sp);
  } catch (...) {
    in_safepoint_ = false;
    tl_now = 0;
    throw;
  }
  in_safepoint_ = false;
  tl_now = 0;
}

std::uint64_t Kernel::rehome_events(
    const std::function<int(std::int32_t)>& target_of) {
  MASSF_REQUIRE(in_safepoint_,
                "rehome_events may only be called from a safepoint hook");
  MASSF_REQUIRE(target_of, "rehome target function must be callable");
  auto& lps = impl_->lps;
  // Extract every keyed event whose target LP differs from its current
  // home. The moved set is determined purely by keys and the pending-event
  // set — identical across renditions at a safepoint — and push() restores
  // the (t, origin, seq) order at the destination, so per-LP pop order
  // (and with it history_hash) is unaffected by the traversal order here.
  std::vector<std::pair<int, Impl::Event>> moved;
  for (std::size_t i = 0; i < lps.size(); ++i) {
    Impl::EventHeap& queue = lps[i].queue;
    auto keep = queue.v.begin();
    for (Impl::Event& e : queue.v) {
      const std::int32_t key = e.node;
      int target = static_cast<int>(i);
      if (key >= 0) {
        target = target_of(key);
        MASSF_REQUIRE(target >= 0 && target < lp_count_,
                      "rehome target LP " << target << " for key " << key
                                          << " out of range");
      }
      if (target == static_cast<int>(i))
        *keep++ = e;
      else
        moved.emplace_back(target, e);
    }
    if (keep != queue.v.end()) {
      queue.v.erase(keep, queue.v.end());
      // Removal keeps sorted mode sorted; heap mode must re-heapify.
      if (!queue.sorted)
        std::make_heap(queue.v.begin(), queue.v.end(), Impl::EventLater{});
    }
  }
  for (auto& [target, e] : moved)
    lps[static_cast<std::size_t>(target)].queue.push(e);
  stats_.events_rehomed += moved.size();
  return static_cast<std::uint64_t>(moved.size());
}

void Kernel::lower_global_lookahead(double la) {
  MASSF_REQUIRE(in_safepoint_,
                "lower_global_lookahead may only be called from a "
                "safepoint hook");
  MASSF_REQUIRE(std::isfinite(la) && la > 0 && la <= lookahead_,
                "the global lookahead may only be lowered mid-run (got "
                    << la << ", current " << lookahead_ << ")");
  lookahead_ = la;
}

std::uint64_t Kernel::events_executed(int lp) const {
  MASSF_REQUIRE(lp >= 0 && lp < lp_count_, "LP index out of range");
  return impl_->lps[static_cast<std::size_t>(lp)].events;
}

// ---- Checkpoint / restore -------------------------------------------------

// massf-analyze: determinism-root (every byte written must be reproducible)
void Kernel::checkpoint(ckpt::Io& io, const PayloadIo& payload,
                        const std::function<void(void*)>& drop_payload) {
  MASSF_REQUIRE(payload && drop_payload,
                "payload walk and drop functions must be callable");
  if (io.reading()) {
    MASSF_REQUIRE(!ran_, "a checkpoint must be restored before run_until");
  } else {
    MASSF_REQUIRE(in_safepoint_,
                  "a checkpoint may only be saved from a safepoint hook — "
                  "the quiescent pause is what makes the kernel state well "
                  "defined");
    // Quiescence audit. The safepoint protocol guarantees all of this (see
    // drain_all_channels and WindowRun's phase order); a violation here
    // means pending events would be silently dropped from the snapshot.
    for (const Impl::Lp& lp : impl_->lps) {
      MASSF_CHECK(lp.dirty_dsts.empty() && lp.pending_sources.empty(),
                  "safepoint quiescence violated: staged cross-LP routing");
      for (const Impl::Outbox& box : lp.outbox)
        MASSF_CHECK(box.events.empty(),
                    "safepoint quiescence violated: non-empty outbox slot");
    }
    for (const auto& ch : impl_->channels)
      MASSF_CHECK(ch->tail->next.load(std::memory_order_acquire) == nullptr,
                  "safepoint quiescence violated: undrained channel run");
  }

  io.tag(kTagKernel, "kernel section");
  auto lp_count = static_cast<std::uint32_t>(lp_count_);
  io.u32(lp_count);
  MASSF_REQUIRE(lp_count == static_cast<std::uint32_t>(lp_count_),
                "checkpoint was taken with "
                    << lp_count << " engines but this kernel has " << lp_count_
                    << " — rebuild with the same engine count before "
                       "restoring");
  auto mode = static_cast<std::uint8_t>(sync_mode_);
  io.u8(mode);
  MASSF_REQUIRE(mode == static_cast<std::uint8_t>(sync_mode_),
                "checkpoint was taken under sync mode "
                    << to_string(static_cast<SyncMode>(mode))
                    << " but this kernel is configured for "
                    << to_string(sync_mode_)
                    << " — modeled-time continuity requires the same "
                       "protocol");
  CostModel cost = cost_;
  io.f64(cost.per_event);
  io.f64(cost.per_remote_message);
  io.f64(cost.per_window_sync);
  MASSF_REQUIRE(cost.per_event == cost_.per_event &&
                    cost.per_remote_message == cost_.per_remote_message &&
                    cost.per_window_sync == cost_.per_window_sync,
                "checkpointed cost model differs from this kernel's — "
                "modeled-time continuity would break");
  double la = lookahead_;
  io.f64(la);
  MASSF_REQUIRE(std::isfinite(la) && la > 0 && la <= lookahead_,
                "checkpointed global lookahead "
                    << la << " is not a valid lowering of the current "
                    << lookahead_);
  lookahead_ = la;
  io.f64(stats_.bucket_width);
  io.f64(sim_position_);
  // The safepoint time: the restored run resumes here.
  SimTime resume = now();
  io.f64(resume);

  // Live aggregate counters. GlobalWindow charges the safepoint rendezvous
  // *after* the hook returns (WindowRun::decide), and the restored run
  // skips this safepoint entirely, so the charge is folded into the
  // snapshot here. Channel mode recomputes both times in
  // ChannelRun::finish from counters that are all saved below.
  const double sync_charge =
      !io.reading() && sync_mode_ == SyncMode::GlobalWindow
          ? cost_.per_window_sync
          : 0.0;
  double modeled = stats_.modeled_time + sync_charge;
  double coupled = stats_.coupled_time + sync_charge;
  io.u64(stats_.windows);
  io.u64(stats_.safepoints);  // already counts the in-progress safepoint
  io.u64(stats_.idle_jumps);
  io.u64(stats_.events_rehomed);
  io.f64(modeled);
  io.f64(coupled);

  io.tag(kTagChannels, "channel section");
  if (io.reading()) {
    resume_time_ = resume;
    stats_.modeled_time = modeled;
    stats_.coupled_time = coupled;
    // Discard the setup population: the caller rebuilt the emulator from
    // scratch, so every event scheduled so far (endpoint starts, epoch
    // boundaries) is superseded by the checkpointed queues. The channel
    // graph is rebuilt from the snapshot, registration order included.
    for (Impl::Lp& lp : impl_->lps) {
      for (const Impl::Event& e : lp.queue.v)
        if (e.payload != nullptr) drop_payload(e.payload);
      lp.queue.v.clear();
      lp.queue.sorted = false;
    }
    impl_->clear_channels();
  }
  // Counts are bounded by the bytes left before anything is sized from them
  // (a channel record is 40 bytes, a bucket 8, an event at least 28).
  const std::uint64_t channel_count =
      io.bounded_count(impl_->channels.size(), 40, "channel count");
  for (std::uint64_t c = 0; c < channel_count; ++c) {
    std::uint32_t src = 0;
    std::uint32_t dst = 0;
    double ch_la = 0;
    if (!io.reading()) {
      const Impl::Channel& saved = *impl_->channels[c];
      src = saved.src;
      dst = saved.dst;
      ch_la = saved.lookahead;
    }
    io.u32(src);
    io.u32(dst);
    io.f64(ch_la);
    MASSF_REQUIRE(src < lp_count && dst < lp_count && src != dst,
                  "checkpointed channel endpoints out of range");
    Impl::Channel& ch =
        io.reading() ? impl_->ensure_channel(static_cast<int>(src),
                                             static_cast<int>(dst), ch_la)
                     : *impl_->channels[c];
    io.u64(ch.delivered);
    io.u64(ch.throttled);
    io.f64(ch.max_lag);
  }

  for (Impl::Lp& lp : impl_->lps) {
    io.tag(kTagLp, "per-engine section");
    io.u64(lp.seq_counter);
    io.u64(lp.events);
    io.f64(lp.busy_total);
    // GlobalWindow: the drain phase already charged receive costs for the
    // next window into window_busy; they must survive the restore.
    io.f64(lp.window_busy);
    io.u64(lp.remote_sent);
    io.u64(lp.history);
    io.f64(lp.max_time);
    io.u64(lp.advances);
    io.f64(lp.idle_wait);
    io.u64(lp.handoff_runs);
    io.u64(lp.parks);
    io.f64s(lp.series, "load-series length");

    // Pending events in ascending (t, origin, seq) order — the canonical
    // pop order, independent of the queue's current heap/sorted layout.
    std::vector<Impl::Event> pending;
    if (!io.reading()) {
      pending = lp.queue.v;
      std::sort(pending.begin(), pending.end(),
                [](const Impl::Event& a, const Impl::Event& b) {
                  return Impl::EventLater{}(b, a);
                });
    }
    pending.resize(io.bounded_count(pending.size(), 28, "pending-event count"));
    for (Impl::Event& e : pending) {
      io.f64(e.t);
      io.u32(e.origin);
      MASSF_REQUIRE(std::isfinite(e.t) && e.t >= resume &&
                        e.origin < lp_count,
                    "checkpointed event (t=" << e.t << ", origin LP "
                        << e.origin << ") must have a finite time at or after "
                           "the resume time "
                        << resume << " and an origin below " << lp_count);
      io.u64(e.seq);
      io.i64(e.node);
      payload(io, e.payload);
    }
    if (io.reading()) {
      // Saved ascending; the sorted representation pops descending arrays
      // from the back, so a reverse hands the queue back in O(1)-pop form.
      lp.queue.v.reserve(pending.size());
      lp.queue.v.assign(pending.rbegin(), pending.rend());
      lp.queue.sorted = !lp.queue.v.empty();
    }
  }
  io.tag(kTagKernelEnd, "kernel trailer");
}

namespace {

/// The one run driver for both protocols. Sequential runs the single
/// worker inline on the caller's thread — no thread, no pinning, and its
/// barriers have one participant. Threaded runs worker i on its own thread
/// with LP i. Either way the first exception any worker recorded is
/// rethrown once every worker has finished.
template <typename Run>
void drive(Run& run, ExecutionMode mode, std::size_t lp_count, bool pin) {
  if (mode == ExecutionMode::Sequential) {
    run.worker(0, lp_count);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(lp_count);
    for (std::size_t i = 0; i < lp_count; ++i)
      threads.emplace_back([&run, i, pin] {
        if (pin) util::pin_current_thread(static_cast<unsigned>(i));
        run.worker(i, i + 1);
      });
    for (auto& t : threads) t.join();
  }
  if (auto first = run.failure.take()) std::rethrow_exception(first);
}

}  // namespace

// ---------------------------------------------------------------------------
// SyncMode::GlobalWindow — lockstep windows [W, W + lookahead).
//
// Every worker loops: barrier A (completion `decide` fires due safepoints
// and picks the next window from the LPs' queue heads), process each owned
// LP's events below the window end, barrier B (completion `account` charges
// the window and routes dirty sender/receiver pairs), then drain each owned
// LP's inbox. Both completions run single-threaded with every worker
// parked.
// ---------------------------------------------------------------------------

struct Kernel::WindowRun {
  WindowRun(Kernel& kernel, SimTime end, int workers)
      : k(kernel),
        impl(*kernel.impl_),
        end_time(end),
        inv_bucket(1.0 / kernel.stats_.bucket_width),
        barrier_a(workers, [this] { decide(); },
                  kernel.tuning_.spin_iterations, kernel.tuning_.park_on_idle),
        barrier_b(workers, [this] { account(); },
                  kernel.tuning_.spin_iterations, kernel.tuning_.park_on_idle) {}

  Kernel& k;
  Impl& impl;
  const SimTime end_time;
  const double inv_bucket;
  alignas(64) std::atomic<bool> stop{false};
  SimTime window_end = 0;
  FailureBox failure;
  util::SpinBarrier barrier_a;
  util::SpinBarrier barrier_b;

  /// Per-LP step, first half: execute LP i's events below the window end
  /// (the second half is drain_inboxes, after barrier B).
  // massf-analyze: hot-path-root (per-LP window step)
  void process(std::size_t i) {
    impl.execute_below(i, window_end, k.cost_.per_event, inv_bucket, k.sink_);
  }

  /// Barrier A completion: fire every safepoint the run has fully caught up
  /// to (all events before it executed, outboxes drained — the quiescent
  /// state the hook contract promises), charging each one cluster-wide
  /// rendezvous, then pick the next window from the LPs' queue heads —
  /// never crossing a pending safepoint — or stop. With every worker
  /// parked the queues are safe to read. A throwing hook is routed through
  /// the FailureBox like any worker exception.
  // massf-analyze: hot-path-root (window decision, once per window)
  // massf-analyze: determinism-root (safepoint firing and window bounds)
  void decide() noexcept {
    SimTime global_min = impl.earliest_queued();
    try {
      while (k.next_safepoint() < end_time &&
             global_min >= k.next_safepoint() &&
             !failure.failed.load(std::memory_order_relaxed)) {
        k.run_safepoint_hook(k.next_safepoint());
        // Channel-mode runs charge theirs in ChannelRun::finish instead.
        k.stats_.modeled_time += k.cost_.per_window_sync;
        k.stats_.coupled_time += k.cost_.per_window_sync;
        ++k.next_sp_;
        // The hook may have rehomed events between queues.
        global_min = impl.earliest_queued();
      }
    } catch (...) {
      failure.record(std::current_exception());
    }
    if (global_min >= end_time || global_min == never() ||
        failure.failed.load(std::memory_order_relaxed))
      stop.store(true, std::memory_order_relaxed);
    else
      window_end =
          std::min({global_min + k.lookahead_, end_time, k.next_safepoint()});
  }

  /// Barrier B completion: account the finished window — critical path =
  /// max busy + barrier cost; the coupled (application) time additionally
  /// floors each window at the simulated-time advance (live apps execute
  /// in real time) — and route the dirty sender/receiver pairs for the
  /// drain that follows.
  // massf-analyze: hot-path-root (window accounting, once per window)
  // massf-analyze: determinism-root (modeled-time accumulation)
  void account() noexcept {
    double max_busy = 0;
    for (const Impl::Lp& lp : impl.lps)
      max_busy = std::max(max_busy, lp.window_busy);
    const double engine_time = max_busy + k.cost_.per_window_sync;
    k.stats_.modeled_time += engine_time;
    k.stats_.coupled_time +=
        std::max(engine_time, window_end - k.sim_position_);
    k.sim_position_ = window_end;
    ++k.stats_.windows;
    for (Impl::Lp& lp : impl.lps) {
      lp.busy_total += lp.window_busy;
      lp.window_busy = 0;
    }
    impl.flush_dirty_senders();
  }

  void worker(std::size_t first, std::size_t last) {
    while (true) {
      barrier_a.arrive_and_wait();
      if (stop.load(std::memory_order_relaxed)) break;
      for (std::size_t i = first; i < last; ++i)
        failure.guard([&] { process(i); });
      barrier_b.arrive_and_wait();
      // Second half of the step: the receive cost lands in the next
      // window's busy time — that is where the work happens.
      for (std::size_t i = first; i < last; ++i)
        failure.guard(
            [&] { impl.drain_inboxes(i, k.cost_.per_remote_message); });
    }
  }
};

// ---------------------------------------------------------------------------
// SyncMode::ChannelLookahead — CMB-style per-channel safe-time advancement.
//
// Invariant: LP i may execute events with t < bound_i, where bound_i = min
// over inbound channels (src → i) of clock_src + lookahead(src → i). A
// sender's published clock never exceeds min(its queue head, its own
// bound), so everything it executes later — and therefore everything it can
// still send — has t >= clock + channel lookahead >= the receiver's bound.
// Since every LP still executes its events in the unique (t, origin, seq)
// order, per-LP histories (and thus history_hash) are bit-identical to
// GlobalWindow runs in either execution mode.
//
// Idle spans are the protocol's weakness (clocks creep by one lookahead per
// exchange — the classic null-message avalanche), so when no worker can
// execute anything the run takes one rendezvous barrier, computes the
// global earliest pending event, and jumps every clock there (or stops).
// ---------------------------------------------------------------------------

struct Kernel::ChannelRun {
  /// Lock-free published clock, one cache line each so a publish never
  /// invalidates a neighbour LP's slot.
  struct alignas(64) ClockSlot {
    std::atomic<SimTime> v{0.0};
  };

  ChannelRun(Kernel& kernel, SimTime end, int workers)
      : k(kernel),
        impl(*kernel.impl_),
        end_time(end),
        inv_bucket(1.0 / kernel.stats_.bucket_width),
        workers(workers),
        clocks(std::make_unique<ClockSlot[]>(impl.lps.size())),
        rendezvous(workers, [this] { rendezvous_step(); },
                   kernel.tuning_.spin_iterations, kernel.tuning_.park_on_idle) {}

  Kernel& k;
  Impl& impl;
  const SimTime end_time;
  const double inv_bucket;
  const int workers;
  const std::unique_ptr<ClockSlot[]> clocks;
  /// Stall tokens: a worker with nothing safely executable parks one here
  /// and waits. When all workers' tokens are present they meet in the
  /// rendezvous barrier — the "barrier only for idle-jumps and termination"
  /// fallback.
  alignas(64) std::atomic<int> stalled{0};
  alignas(64) std::atomic<bool> stop{false};
  FailureBox failure;
  util::SpinBarrier rendezvous;

  /// The per-LP step: drain LP i's inbound channels while computing its
  /// bound, execute everything safely below it, record the binding
  /// channel's throttle, flush eligible outbox runs and publish the new
  /// clock. Returns whether anything executed.
  // massf-analyze: hot-path-root (per-LP channel advance)
  bool advance(std::size_t i) {
    Impl::Lp& lp = impl.lps[i];
    // Loading the sender's clock with acquire *before* touching the run
    // queue pairs with the sender's flush-then-release-publish: any run not
    // yet visible here must carry events with t >= clock + lookahead, i.e.
    // >= our bound.
    SimTime bound = never();
    Impl::Channel* limiter = nullptr;
    for (std::uint32_t ci : impl.inbound[i]) {
      Impl::Channel& ch = *impl.channels[ci];
      const SimTime c = clocks[ch.src].v.load(std::memory_order_acquire);
      impl.drain_channel(ch, lp, k.cost_.per_remote_message);
      const SimTime b = c + ch.lookahead;
      if (b < bound) {
        bound = b;
        limiter = &ch;
      }
    }
    // Execution never crosses a pending safepoint (the clip, not the bound:
    // throttle attribution below stays a per-channel property).
    // next_safepoint() only moves inside the rendezvous completion, while
    // every worker is parked in the same barrier.
    const SimTime limit = std::min({bound, end_time, k.next_safepoint()});
    const bool executed =
        impl.execute_below(i, limit, k.cost_.per_event, inv_bucket, k.sink_);
    if (executed) ++lp.advances;
    // Throttle observability: a pending event this LP cares about is held
    // unsafe by the binding channel; record who and by how much.
    if (limiter != nullptr && !lp.queue.empty() &&
        lp.queue.top().t < end_time && lp.queue.top().t >= bound) {
      ++limiter->throttled;
      limiter->max_lag = std::max(limiter->max_lag, lp.queue.top().t - bound);
    }
    // Flush before the release publish (see the drain comment above); the
    // flush is forced when nothing ran — this LP is about to stall, and a
    // parked receiver must never wait on a hoarded run.
    const SimTime cap = impl.flush_channels(i, /*force=*/!executed);
    lp.busy_total += lp.window_busy;
    lp.window_busy = 0;
    // Publish: nothing this LP will ever execute — hence send — precedes
    // min(queue head, bound); hoarded runs additionally cap the promise at
    // (earliest hoarded event − that channel's lookahead). Clocks are
    // monotone.
    const SimTime next = lp.queue.empty() ? never() : lp.queue.top().t;
    const SimTime published = std::min({next, bound, cap});
    if (published > clocks[i].v.load(std::memory_order_relaxed)) {
      clocks[i].v.store(published, std::memory_order_release);
      // Doorbell every receiver whose bound may have grown. A lone worker
      // owns every receiver and never waits.
      if (workers > 1)
        for (std::uint32_t ci : impl.outbound[i])
          impl.lps[impl.channels[ci]->dst].wake.signal();
    }
    return executed;
  }

  /// Earliest pending event anywhere (queues and in-flight channel runs):
  /// the rendezvous GVT. Every worker is parked in the barrier and stalled
  /// only after a forced flush, so the outboxes are empty and the channel
  /// run queues are quiescent: walking them unsynchronized is safe and
  /// complete.
  SimTime global_next() const {
    SimTime m = impl.earliest_queued();
    for (const auto& ch : impl.channels)
      for (Impl::Channel::RunNode* n =
               ch->tail->next.load(std::memory_order_acquire);
           n != nullptr; n = n->next.load(std::memory_order_acquire))
        for (const Impl::Event& e : n->events) m = std::min(m, e.t);
    return m;
  }

  /// Rendezvous completion. Safepoints the run has caught up to fire here
  /// (gvt >= sp certifies that every pre-safepoint event has executed —
  /// execution is clipped at sp), after force-draining the mailboxes so the
  /// hook sees the full pending set in LP queues. Clocks then restart from
  /// the safepoint time: migration may have handed an LP events earlier
  /// than its published clock, and sp is a valid promise for every LP
  /// because nothing pending precedes sp. Finally the run stops or jumps
  /// every clock over the idle span. The completion is noexcept; a throwing
  /// hook becomes a recorded failure and a stop, like any worker exception.
  // massf-analyze: hot-path-root (rendezvous, once per idle jump)
  // massf-analyze: determinism-root (safepoint firing and idle jumps)
  void rendezvous_step() noexcept {
    stalled.store(0, std::memory_order_relaxed);
    if (failure.failed.load(std::memory_order_relaxed)) {
      stop.store(true, std::memory_order_relaxed);
      return;
    }
    const std::size_t lps = impl.lps.size();
    SimTime gvt = global_next();
    try {
      while (k.next_safepoint() < end_time && gvt >= k.next_safepoint()) {
        const SimTime sp = k.next_safepoint();
        impl.drain_all_channels(k.cost_.per_remote_message);
        k.run_safepoint_hook(sp);
        ++k.next_sp_;
        for (std::size_t i = 0; i < lps; ++i)
          clocks[i].v.store(sp, std::memory_order_relaxed);
        gvt = global_next();
      }
    } catch (...) {
      failure.record(std::current_exception());
      stop.store(true, std::memory_order_relaxed);
      return;
    }
    if (gvt >= end_time || gvt == never()) {
      stop.store(true, std::memory_order_relaxed);
    } else {
      for (std::size_t i = 0; i < lps; ++i)
        if (clocks[i].v.load(std::memory_order_relaxed) < gvt)
          clocks[i].v.store(gvt, std::memory_order_relaxed);
      ++k.stats_.idle_jumps;
    }
  }

  /// Park a stall token, then wait — spin, then park on `home`'s wait slot
  /// — until the last staller rings everyone into the rendezvous (taken
  /// before returning) or the doorbell epoch has moved past `seen` (new
  /// work may have arrived; the token is withdrawn). A lone worker is
  /// always the last staller, so it never spins or parks.
  void stall(Impl::Lp& home, std::uint32_t seen) {
    // The last staller rings every doorbell: parked workers cannot observe
    // the all-stalled transition through their own inbound channels.
    if (stalled.fetch_add(1, std::memory_order_acq_rel) + 1 == workers)
      for (Impl::Lp& lp : impl.lps) lp.wake.signal();
    auto wake_early = [&] { return home.wake.prepare() != seen; };
    util::SpinWait spin(k.tuning_.spin_iterations, k.tuning_.park_on_idle);
    while (true) {
      if (stalled.load(std::memory_order_acquire) == workers) {
        rendezvous.arrive_and_wait();  // consumes our stall token
        return;
      }
      if (wake_early()) {
        // Withdraw the token — unless the last staller already counted it:
        // once every worker is stalled, all of them take the rendezvous.
        int n = stalled.load(std::memory_order_acquire);
        while (n != workers &&
               !stalled.compare_exchange_weak(n, n - 1,
                                              std::memory_order_acq_rel)) {
        }
        if (n != workers) return;
        continue;
      }
      if (spin.should_park()) {
        // Eventcount handshake: snapshot the epoch, re-check both wake
        // conditions, park. Every state change we could miss here is
        // followed by a signal() to this slot, which either bumps the
        // epoch before we sleep or wakes us after.
        const std::uint32_t epoch = home.wake.prepare();
        if (stalled.load(std::memory_order_acquire) != workers &&
            !wake_early()) {
          home.wake.park(epoch);
          ++home.parks;
        }
        spin.reset();
      }
    }
  }

  void worker(std::size_t first, std::size_t last) {
    // Only the Sequential worker owns several LPs, and it never waits, so
    // the waiting state (wait slot, parks, idle wait) lives on `home`.
    Impl::Lp& home = impl.lps[first];
    while (!stop.load(std::memory_order_acquire)) {
      // Every inbound clock advance and run publish rings the doorbell
      // after the fact, so an epoch that moved since this round began
      // means new work may have arrived.
      const std::uint32_t seen = home.wake.prepare();
      bool executed = false;
      for (std::size_t i = first; i < last; ++i)
        failure.guard([&] { executed |= advance(i); });
      if (executed) continue;
      // A failed run executes nothing, so every worker stalls and the
      // rendezvous completion stops it.
      const auto wait_start = std::chrono::steady_clock::now();
      stall(home, seen);
      if (workers > 1)  // a lone worker never waits
        home.idle_wait += std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - wait_start)
                              .count();
    }
  }

  /// Channel mode has no windows: the modeled critical path is the busiest
  /// engine plus one rendezvous per idle-jump, per safepoint (a global
  /// quiescent pause) and one final one for termination — the
  /// perfect-overlap lower bound on cluster time (DESIGN.md §8 discusses
  /// when this is and is not achievable). The coupled (application) time
  /// is additionally floored by the simulated span, since live
  /// applications execute through it in real time.
  void finish() {
    double max_busy = 0;
    SimTime reached = 0;
    for (const Impl::Lp& lp : impl.lps) {
      max_busy = std::max(max_busy, lp.busy_total);
      reached = std::max(reached, lp.max_time);
    }
    KernelStats& stats = k.stats_;
    stats.modeled_time =
        max_busy +
        static_cast<double>(stats.idle_jumps + stats.safepoints + 1) *
            k.cost_.per_window_sync;
    const SimTime span = std::min(reached, end_time);
    stats.coupled_time = std::max(stats.modeled_time, span);
    k.sim_position_ = span;
    for (const auto& ch : impl.channels)
      stats.channels.push_back({static_cast<int>(ch->src),
                                static_cast<int>(ch->dst), ch->lookahead,
                                ch->delivered, ch->throttled, ch->max_lag});
    std::sort(stats.channels.begin(), stats.channels.end(),
              [](const ChannelStat& a, const ChannelStat& b) {
                return a.src != b.src ? a.src < b.src : a.dst < b.dst;
              });
  }
};

void Kernel::run_until(SimTime end_time, ExecutionMode mode) {
  MASSF_REQUIRE(!ran_, "run_until may only be called once");
  MASSF_REQUIRE(end_time > 0, "end time must be positive");
  MASSF_REQUIRE(tl_current_lp < 0, "run_until cannot be nested");
  ran_ = true;
  stats_.sync_mode = sync_mode_;
  stats_.idle_wait_per_lp.assign(static_cast<std::size_t>(lp_count_), 0.0);
  impl_->flush_threshold = tuning_.outbox_flush_events;
  // Sequential is one worker owning every LP, Threaded one worker per LP.
  const int workers = mode == ExecutionMode::Sequential ? 1 : lp_count_;

  // Canonical safepoint schedule: ascending, duplicates coalesced (two
  // registrations at the same time are one quiescent pause).
  std::sort(safepoints_.begin(), safepoints_.end());
  safepoints_.erase(std::unique(safepoints_.begin(), safepoints_.end()),
                    safepoints_.end());
  // A restored kernel resumes mid-schedule: safepoints at or before the
  // checkpoint time (including the one the snapshot was taken at) already
  // fired in the original run.
  while (next_sp_ < safepoints_.size() &&
         safepoints_[next_sp_] <= resume_time_)
    ++next_sp_;

  // Pre-reserve the load series from the run horizon (capped) so the
  // per-event bucket append never reallocates mid-run.
  const double horizon_buckets = end_time / stats_.bucket_width;
  const auto reserve_buckets = static_cast<std::size_t>(std::min(
      horizon_buckets + 1, static_cast<double>(kMaxReservedBuckets)));
  for (auto& lp : impl_->lps) {
    lp.series.reserve(reserve_buckets);
    lp.pending_sources.reserve(static_cast<std::size_t>(lp_count_));
  }

  if (sync_mode_ == SyncMode::ChannelLookahead) {
    // No channels registered → every LP pair is implicitly coupled at the
    // global lookahead, so the protocol degrades to per-pair advancement
    // with uniform bounds (still barrier-free).
    if (impl_->channels.empty())
      for (int s = 0; s < lp_count_; ++s)
        for (int d = 0; d < lp_count_; ++d)
          if (s != d) impl_->ensure_channel(s, d, lookahead_);
    impl_->build_inbound();
    ChannelRun run(*this, end_time, workers);
    drive(run, mode, impl_->lps.size(), tuning_.pin_threads);
    run.finish();
  } else {
    WindowRun run(*this, end_time, workers);
    drive(run, mode, impl_->lps.size(), tuning_.pin_threads);
  }

  // Fold per-LP results into stats_.
  std::size_t max_buckets = 0;
  for (int i = 0; i < lp_count_; ++i) {
    const Impl::Lp& lp = impl_->lps[static_cast<std::size_t>(i)];
    stats_.events_per_lp[static_cast<std::size_t>(i)] = lp.events;
    stats_.busy_per_lp[static_cast<std::size_t>(i)] = lp.busy_total;
    stats_.idle_wait_per_lp[static_cast<std::size_t>(i)] = lp.idle_wait;
    stats_.remote_messages += lp.remote_sent;
    stats_.channel_advances += lp.advances;
    stats_.handoff_runs += lp.handoff_runs;
    stats_.parks += lp.parks;
    stats_.sim_time_reached = std::max(stats_.sim_time_reached, lp.max_time);
    stats_.history_hash ^=
        lp.history * (static_cast<std::uint64_t>(i) * 2654435761ULL + 1);
    max_buckets = std::max(max_buckets, lp.series.size());
  }
  stats_.load_series.assign(static_cast<std::size_t>(lp_count_), {});
  for (int i = 0; i < lp_count_; ++i) {
    auto& row = stats_.load_series[static_cast<std::size_t>(i)];
    row = impl_->lps[static_cast<std::size_t>(i)].series;
    row.resize(max_buckets, 0.0);
  }
}

}  // namespace massf::des
