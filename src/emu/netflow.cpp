#include "emu/netflow.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace massf::emu {

namespace {

constexpr std::size_t kMinSlots = 4;

/// Home slot of a flow id: Fibonacci hashing, so ids that differ only in
/// their low bits (small test ids, counters) still spread.
std::size_t home_slot(std::uint64_t flow, std::size_t mask) {
  return static_cast<std::size_t>((flow * 0x9e3779b97f4a7c15ULL) >> 32) & mask;
}

}  // namespace

NetFlowCollector::NetFlowCollector(NodeId node_count, LinkId link_count,
                                   double bucket_width)
    : bucket_width_(bucket_width),
      link_packets_by_dir_(2 * static_cast<std::size_t>(link_count), 0.0),
      node_tables_(static_cast<std::size_t>(node_count)) {
  MASSF_REQUIRE(bucket_width > 0, "bucket width must be positive");
}

NetFlowCollector::NetFlowCollector(const NetFlowCollector& other)
    : bucket_width_(other.bucket_width_),
      link_packets_by_dir_(other.link_packets_by_dir_),
      node_tables_(other.node_tables_.size()) {
  for (std::size_t v = 0; v < node_tables_.size(); ++v)
    if (other.node_tables_[v])
      node_tables_[v] = std::make_unique<NodeTable>(*other.node_tables_[v]);
}

NetFlowCollector& NetFlowCollector::operator=(const NetFlowCollector& other) {
  if (this != &other) *this = NetFlowCollector(other);
  return *this;
}

FlowRecord& NetFlowCollector::NodeTable::find_or_add(std::uint64_t flow,
                                                     SimTime t) {
  if (!slots.empty()) {
    const std::size_t mask = slots.size() - 1;
    for (std::size_t i = home_slot(flow, mask);; i = (i + 1) & mask) {
      const std::uint32_t slot = slots[i];
      if (slot == 0) break;
      FlowRecord& record = records[slot - 1];
      if (record.flow == flow) return record;
    }
  }
  // New flow: append it, then index it, growing the index once it would
  // pass 3/4 full.
  MASSF_CHECK(records.size() < UINT32_MAX, "flow table index overflow");
  // massf-analyze: allow(hot-path-alloc) — flow-table growth: the dense
  // record array doubles, once per doubling of the node's flow count.
  records.push_back(FlowRecord{flow, 0, 0, t, 0});
  if (4 * records.size() > 3 * slots.size())
    rehash(std::max(kMinSlots, 2 * slots.size()));
  else
    index(records.size() - 1);
  return records.back();
}

void NetFlowCollector::NodeTable::index(std::size_t r) {
  const std::size_t mask = slots.size() - 1;
  std::size_t i = home_slot(records[r].flow, mask);
  while (slots[i] != 0) i = (i + 1) & mask;
  slots[i] = static_cast<std::uint32_t>(r + 1);
}

void NetFlowCollector::NodeTable::rehash(std::size_t capacity) {
  // massf-analyze: allow(hot-path-alloc) — flow-table growth: the index
  // doubles, once per doubling of the node's flow count.
  slots.assign(capacity, 0);
  for (std::size_t r = 0; r < records.size(); ++r) index(r);
}

std::vector<FlowRecord> NetFlowCollector::NodeTable::sorted_records() const {
  std::vector<FlowRecord> out = records;
  std::sort(out.begin(), out.end(), [](const FlowRecord& a, const FlowRecord& b) {
    return a.flow < b.flow;
  });
  return out;
}

NetFlowCollector::NodeTable& NetFlowCollector::table(NodeId node) {
  auto& slot = node_tables_[static_cast<std::size_t>(node)];
  // massf-analyze: allow(hot-path-alloc) — one table per node, allocated
  // when the node processes its first packet.
  if (!slot) slot = std::make_unique<NodeTable>();
  return *slot;
}

void NetFlowCollector::record_node(NodeId node, const Packet& packet,
                                   SimTime t) {
  NodeTable& node_table = table(node);
  node_table.packets += packet.packets;

  auto& buckets = node_table.buckets;
  const auto bucket = static_cast<std::size_t>(t / bucket_width_);
  // massf-analyze: allow(hot-path-alloc) — time-bucket growth: one
  // high-water resize per bucket width of sim time, doubling-amortized.
  if (buckets.size() <= bucket) buckets.resize(bucket + 1, 0.0);
  buckets[bucket] += packet.packets;

  FlowRecord& record = node_table.find_or_add(packet.flow, t);
  record.packets += packet.packets;
  record.bytes += packet.bytes;
  record.last_seen = std::max(record.last_seen, t);
}

void NetFlowCollector::record_link(LinkId link, int dir,
                                   const Packet& packet) {
  MASSF_REQUIRE(dir == 0 || dir == 1, "link direction must be 0 or 1");
  link_packets_by_dir_[2 * static_cast<std::size_t>(link) +
                       static_cast<std::size_t>(dir)] += packet.packets;
}

std::vector<double> NetFlowCollector::link_packets() const {
  std::vector<double> out(link_packets_by_dir_.size() / 2, 0.0);
  for (std::size_t l = 0; l < out.size(); ++l)
    out[l] = link_packets_by_dir_[2 * l] + link_packets_by_dir_[2 * l + 1];
  return out;
}

std::vector<std::vector<double>> NetFlowCollector::node_series() const {
  std::size_t width = 0;
  for (const auto& t : node_tables_)
    if (t) width = std::max(width, t->buckets.size());
  std::vector<std::vector<double>> out(node_tables_.size());
  for (std::size_t v = 0; v < out.size(); ++v) {
    if (node_tables_[v]) out[v] = node_tables_[v]->buckets;
    out[v].resize(width, 0.0);
  }
  return out;
}

std::vector<FlowRecord> NetFlowCollector::node_flows(NodeId node) const {
  MASSF_REQUIRE(node >= 0 && static_cast<std::size_t>(node) <
                                 node_tables_.size(),
                "node out of range");
  const auto& t = node_tables_[static_cast<std::size_t>(node)];
  return t ? t->sorted_records() : std::vector<FlowRecord>{};
}

std::vector<double> NetFlowCollector::node_packets() const {
  std::vector<double> out(node_tables_.size(), 0.0);
  for (std::size_t v = 0; v < out.size(); ++v)
    if (node_tables_[v]) out[v] = node_tables_[v]->packets;
  return out;
}

double NetFlowCollector::total_node_packets() const {
  double total = 0;
  for (const auto& t : node_tables_)
    if (t) total += t->packets;
  return total;
}

namespace {
constexpr std::uint32_t kTagNetflow = 0x6e666c77;  // "nflw"
}  // namespace

void NetFlowCollector::checkpoint(ckpt::Io& io) {
  io.tag(kTagNetflow, "NetFlow section");
  io.f64(bucket_width_);
  std::uint64_t nodes = node_tables_.size();
  io.u64(nodes);
  MASSF_REQUIRE(nodes == node_tables_.size() && bucket_width_ > 0,
                "checkpointed NetFlow dimensions do not match this network — "
                "rebuild the emulator against the checkpointed topology");
  if (io.reading())
    for (auto& t : node_tables_) t.reset();
  for (std::size_t v = 0; v < node_tables_.size(); ++v) {
    double packets = node_tables_[v] ? node_tables_[v]->packets : 0.0;
    io.f64(packets);
    if (io.reading() && packets != 0.0)
      table(static_cast<NodeId>(v)).packets = packets;
  }
  std::uint64_t link_slots = link_packets_by_dir_.size();
  io.u64(link_slots);
  MASSF_REQUIRE(link_slots == link_packets_by_dir_.size(),
                "checkpointed NetFlow link table does not match this network");
  for (double& p : link_packets_by_dir_) io.f64(p);
  for (std::size_t v = 0; v < node_tables_.size(); ++v) {
    const std::uint64_t n = io.bounded_count(
        node_tables_[v] ? node_tables_[v]->buckets.size() : 0, sizeof(double),
        "NetFlow buckets");
    if (n == 0) continue;
    std::vector<double>& buckets = table(static_cast<NodeId>(v)).buckets;
    buckets.resize(n);
    for (double& b : buckets) io.f64(b);
  }
  constexpr std::size_t kRecordBytes = 8 + 4 * sizeof(double);
  for (std::size_t v = 0; v < node_tables_.size(); ++v) {
    std::vector<FlowRecord> records;
    if (!io.reading() && node_tables_[v])
      records = node_tables_[v]->sorted_records();
    records.resize(
        io.bounded_count(records.size(), kRecordBytes, "NetFlow records"));
    for (std::size_t i = 0; i < records.size(); ++i) {
      FlowRecord& record = records[i];
      io.u64(record.flow);
      io.f64(record.packets);
      io.f64(record.bytes);
      io.f64(record.first_seen);
      io.f64(record.last_seen);
      MASSF_REQUIRE(i == 0 || records[i - 1].flow < record.flow,
                    "checkpointed NetFlow records are not in ascending "
                    "flow-id order");
    }
    if (io.reading() && !records.empty()) {
      NodeTable& t = table(static_cast<NodeId>(v));
      t.records = std::move(records);
      std::size_t capacity = kMinSlots;
      while (4 * t.records.size() > 3 * capacity) capacity *= 2;
      t.rehash(capacity);
    }
  }
}

}  // namespace massf::emu
