// NetFlow-like traffic profiling (paper §3.3).
//
// MaSSF implements "the Cisco NetFlow-like function on each emulated
// router": every flow's packet count, byte count and first/last timestamps
// are recorded per router; dump files are parsed into aggregated per-router
// and per-link traffic. This collector is the in-memory equivalent, plus
// the time-bucketed per-node load series the segment-clustering algorithm
// consumes. Measurements are in *packets* because "the real load in the
// emulator depends on the number of packets it processes" (§3.3).
//
// Storage: one pointer per node, null until the node processes its first
// packet. A node that has seen traffic owns a flat table: its packet total,
// its time-bucket series, a dense array of 40-byte flow records in
// first-seen order and an open-addressed, linear-probing index of 4-byte
// slots (record position + 1, 0 = empty) keyed by flow id and kept at most
// 3/4 full. Recording a hop therefore touches O(1) cache lines however many
// flows the node carries, at 45-91 bytes per record. Every output is
// produced in flow-id order when read, so no result depends on hashing or
// on insertion order.
//
// Thread safety in Threaded kernel mode: per-node tables are only touched
// by the LP owning the node, and per-link counters are split by direction
// (updated by the transmitting endpoint's LP), so no locks are needed.
// Rehoming a node moves nothing: its table simply gets a new owner.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "ckpt/ckpt.hpp"
#include "emu/packet.hpp"

namespace massf::emu {

/// Per-(node, flow) record — one line of a NetFlow dump file.
struct FlowRecord {
  std::uint64_t flow = 0;
  double packets = 0;
  double bytes = 0;
  SimTime first_seen = 0;
  SimTime last_seen = 0;

  /// Average bandwidth (bytes/s) over the record's lifetime.
  double average_bandwidth() const {
    const double duration = last_seen - first_seen;
    return duration > 0 ? bytes / duration : 0.0;
  }
};

class NetFlowCollector {
 public:
  /// bucket_width: sim-time bucket (seconds) for the per-node load series.
  NetFlowCollector(NodeId node_count, LinkId link_count,
                   double bucket_width = 2.0);

  /// Copies are deep: the copy owns its own per-node tables.
  NetFlowCollector(const NetFlowCollector& other);
  NetFlowCollector& operator=(const NetFlowCollector& other);
  NetFlowCollector(NetFlowCollector&&) noexcept = default;
  NetFlowCollector& operator=(NetFlowCollector&&) noexcept = default;
  ~NetFlowCollector() = default;

  /// Record a packet train being processed at `node` at time `t`.
  void record_node(NodeId node, const Packet& packet, SimTime t);

  /// Record a packet train transmitted on `link`; `dir` is 0 when sent from
  /// link.a, 1 when sent from link.b.
  void record_link(LinkId link, int dir, const Packet& packet);

  // -- Aggregated views (paper: "parsing the dump files allows computation
  //    of the aggregated traffic on every router and link") --------------

  /// Total packets processed per node.
  std::vector<double> node_packets() const;

  /// Total packets per link (both directions summed).
  std::vector<double> link_packets() const;

  /// Per-node per-bucket packet counts (rows = nodes). Rows are padded to
  /// equal length.
  std::vector<std::vector<double>> node_series() const;

  double bucket_width() const { return bucket_width_; }

  /// Flow records observed at a node, ordered by flow id (the "dump file").
  std::vector<FlowRecord> node_flows(NodeId node) const;

  /// Sum of packets over all node records (for conservation tests).
  double total_node_packets() const;

  /// Checkpoint walk over the full collector state. Flow records are
  /// written in flow-id order, so the bytes never depend on the table
  /// layout. Restoring requires a collector constructed with the same
  /// dimensions and rejects (std::invalid_argument) a node's records that
  /// are not in strictly ascending flow-id order.
  void checkpoint(ckpt::Io& io);

 private:
  /// One node's profile: load series plus its flow table.
  struct NodeTable {
    double packets = 0;                // total packets processed
    std::vector<double> buckets;       // packets per time bucket
    std::vector<FlowRecord> records;   // dense, first-seen order
    std::vector<std::uint32_t> slots;  // power-of-two open-addressed index

    /// The record for `flow`, appended (first_seen = t) if it is new.
    FlowRecord& find_or_add(std::uint64_t flow, SimTime t);
    /// Put record `r` into the first free slot from its home slot.
    void index(std::size_t r);
    /// Index every record into a table of `capacity` slots.
    void rehash(std::size_t capacity);
    /// Records sorted by flow id.
    std::vector<FlowRecord> sorted_records() const;
  };

  NodeTable& table(NodeId node);

  double bucket_width_;
  std::vector<double> link_packets_by_dir_;  // 2 per link
  std::vector<std::unique_ptr<NodeTable>> node_tables_;  // null = no traffic
};

}  // namespace massf::emu
