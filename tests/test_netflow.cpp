// Focused tests for the NetFlow collector and emulator edge cases not
// covered by test_emulator: flow-record details, directional link
// accounting, series padding, ICMP TTL semantics, and link serialization
// order.
#include <gtest/gtest.h>

#include "ckpt/ckpt.hpp"
#include "emu/emulator.hpp"
#include "emu/netflow.hpp"
#include "routing/routing.hpp"
#include "topology/network.hpp"

namespace massf::emu {
namespace {

Packet make_packet(NodeId src, NodeId dst, std::uint64_t flow, int packets,
                   double bytes) {
  Packet p;
  p.src = src;
  p.dst = dst;
  p.flow = flow;
  p.packets = packets;
  p.bytes = bytes;
  return p;
}

TEST(NetFlow, FlowRecordAccumulates) {
  NetFlowCollector collector(3, 2, 1.0);
  collector.record_node(1, make_packet(0, 2, 42, 3, 4500), 1.0);
  collector.record_node(1, make_packet(0, 2, 42, 2, 3000), 5.0);
  const auto flows = collector.node_flows(1);
  ASSERT_EQ(flows.size(), 1u);
  EXPECT_EQ(flows[0].flow, 42u);
  EXPECT_DOUBLE_EQ(flows[0].packets, 5);
  EXPECT_DOUBLE_EQ(flows[0].bytes, 7500);
  EXPECT_DOUBLE_EQ(flows[0].first_seen, 1.0);
  EXPECT_DOUBLE_EQ(flows[0].last_seen, 5.0);
  // "Average bandwidth and duration of every flow" (§3.3).
  EXPECT_DOUBLE_EQ(flows[0].average_bandwidth(), 7500 / 4.0);
}

TEST(NetFlow, SeparatesFlowsAndNodes) {
  NetFlowCollector collector(3, 2, 1.0);
  collector.record_node(0, make_packet(0, 2, 1, 1, 100), 0.5);
  collector.record_node(0, make_packet(2, 0, 2, 1, 100), 0.6);
  collector.record_node(1, make_packet(0, 2, 1, 1, 100), 0.7);
  EXPECT_EQ(collector.node_flows(0).size(), 2u);
  EXPECT_EQ(collector.node_flows(1).size(), 1u);
  EXPECT_EQ(collector.node_flows(2).size(), 0u);
  EXPECT_DOUBLE_EQ(collector.total_node_packets(), 3.0);
}

TEST(NetFlow, DirectionalLinkCounters) {
  NetFlowCollector collector(2, 1, 1.0);
  collector.record_link(0, 0, make_packet(0, 1, 1, 3, 100));
  collector.record_link(0, 1, make_packet(1, 0, 2, 4, 100));
  const auto totals = collector.link_packets();
  ASSERT_EQ(totals.size(), 1u);
  EXPECT_DOUBLE_EQ(totals[0], 7.0);
  EXPECT_THROW(collector.record_link(0, 2, make_packet(0, 1, 1, 1, 1)),
               std::invalid_argument);
}

TEST(NetFlow, SeriesPaddedToEqualWidth) {
  NetFlowCollector collector(2, 1, 1.0);
  collector.record_node(0, make_packet(0, 1, 1, 1, 100), 0.5);
  collector.record_node(1, make_packet(0, 1, 1, 2, 100), 7.5);
  const auto series = collector.node_series();
  ASSERT_EQ(series.size(), 2u);
  EXPECT_EQ(series[0].size(), series[1].size());
  EXPECT_DOUBLE_EQ(series[0][0], 1.0);
  EXPECT_DOUBLE_EQ(series[1][7], 2.0);
  EXPECT_DOUBLE_EQ(series[0][7], 0.0);
}

TEST(NetFlow, CheckpointRoundTripIsByteIdentical) {
  NetFlowCollector collector(4, 3, 1.0);
  for (std::uint64_t flow : {900u, 7u, 300u, 42u})
    collector.record_node(2, make_packet(0, 3, flow, 2, 3000), 0.25 * flow);
  collector.record_node(0, make_packet(0, 3, 7, 1, 1500), 4.5);
  collector.record_link(1, 1, make_packet(3, 0, 7, 1, 1500));
  ckpt::Writer first;
  ckpt::Io save_first(first);
  collector.checkpoint(save_first);

  NetFlowCollector restored(4, 3, 1.0);
  ckpt::Reader reader(first.payload());
  ckpt::Io load(reader);
  restored.checkpoint(load);
  ckpt::Writer second;
  ckpt::Io save_second(second);
  restored.checkpoint(save_second);
  EXPECT_EQ(first.payload(), second.payload());
  const auto flows = restored.node_flows(2);
  ASSERT_EQ(flows.size(), 4u);
  EXPECT_EQ(flows.front().flow, 7u);  // flow-id order, not first-seen order
  EXPECT_EQ(flows.back().flow, 900u);
  EXPECT_EQ(restored.node_packets(), collector.node_packets());
  EXPECT_EQ(restored.node_series(), collector.node_series());
}

/// A one-node, zero-link NetFlow section whose node holds `flows` records
/// (claiming `claimed`) and one load bucket (claiming `buckets`).
std::vector<unsigned char> crafted_section(const std::vector<std::uint64_t>& flows,
                                           std::uint64_t claimed,
                                           std::uint64_t buckets = 1) {
  ckpt::Writer w;
  w.tag(0x6e666c77);  // "nflw"
  w.f64(1.0);         // bucket width
  w.u64(1);           // nodes
  w.f64(static_cast<double>(flows.size()));
  w.u64(0);           // link directions
  w.u64(buckets);     // bucket row of node 0
  w.f64(static_cast<double>(flows.size()));
  w.u64(claimed);
  for (std::uint64_t flow : flows) {
    w.u64(flow);
    w.f64(1);
    w.f64(1500);
    w.f64(0.5);
    w.f64(0.5);
  }
  return w.payload();
}

/// Restore `collector` from a crafted section.
void restore(NetFlowCollector& collector, std::vector<unsigned char> bytes) {
  ckpt::Reader reader(std::move(bytes));
  ckpt::Io io(reader);
  collector.checkpoint(io);
}

TEST(NetFlow, LoadRejectsMalformedRecordLists) {
  {
    NetFlowCollector collector(1, 0, 1.0);
    restore(collector, crafted_section({3, 9}, 2));
    EXPECT_EQ(collector.node_flows(0).size(), 2u);
  }
  for (const auto& flows : {std::vector<std::uint64_t>{9, 3},
                            std::vector<std::uint64_t>{5, 5}}) {
    NetFlowCollector collector(1, 0, 1.0);
    EXPECT_THROW(restore(collector, crafted_section(flows, 2)),
                 std::invalid_argument);
  }
  for (const std::uint64_t huge : {1ULL << 40, 1ULL << 60}) {
    NetFlowCollector records(1, 0, 1.0);
    EXPECT_THROW(restore(records, crafted_section({3}, huge)),
                 ckpt::CkptError);
    NetFlowCollector buckets(1, 0, 1.0);
    EXPECT_THROW(restore(buckets, crafted_section({3}, 1, huge)),
                 ckpt::CkptError);
  }
}

// ---------------------------------------------------------------------------
// Emulator edge cases.
// ---------------------------------------------------------------------------

struct ChainFixture {
  topology::Network net;
  std::vector<topology::NodeId> nodes;  // h0 r1 r2 r3 h4
  std::unique_ptr<routing::RoutingTables> tables;

  ChainFixture() {
    nodes.push_back(net.add_host("h0", 0));
    for (int i = 1; i <= 3; ++i)
      nodes.push_back(net.add_router("r" + std::to_string(i), 0));
    nodes.push_back(net.add_host("h4", 0));
    for (int i = 0; i < 4; ++i)
      net.add_link(nodes[static_cast<std::size_t>(i)],
                   nodes[static_cast<std::size_t>(i + 1)],
                   topology::Mbps(100), topology::milliseconds(1));
    tables = std::make_unique<routing::RoutingTables>(
        routing::RoutingTables::build(net));
  }

  Emulator make() {
    return Emulator(net, *tables,
                    std::vector<int>(static_cast<std::size_t>(
                                         net.node_count()),
                                     0),
                    1);
  }
};

TEST(Icmp, ShortTtlProbeNeverReachesDestination) {
  ChainFixture fx;
  Emulator emulator = fx.make();
  std::vector<std::pair<PacketKind, topology::NodeId>> replies;
  emulator.set_icmp_handler([&](const Packet& packet, SimTime) {
    replies.emplace_back(packet.kind, packet.reporter);
  });
  // TTL 1 dies at the first router; TTL 4 reaches h4.
  emulator.send_probe(fx.nodes[0], fx.nodes[4], 1, 1, 0.0);
  emulator.send_probe(fx.nodes[0], fx.nodes[4], 4, 2, 0.0);
  emulator.run(10.0);
  ASSERT_EQ(replies.size(), 2u);
  // Both replies arrive back at the prober; order by arrival time.
  bool saw_exceeded = false, saw_echo = false;
  for (const auto& [kind, reporter] : replies) {
    if (kind == PacketKind::IcmpTtlExceeded) {
      saw_exceeded = true;
      EXPECT_EQ(reporter, fx.nodes[1]);
    }
    if (kind == PacketKind::IcmpEchoReply) {
      saw_echo = true;
      EXPECT_EQ(reporter, fx.nodes[4]);
    }
  }
  EXPECT_TRUE(saw_exceeded);
  EXPECT_TRUE(saw_echo);
}

TEST(Icmp, DataPacketsAlsoExpireOnTtl) {
  // A data packet with a tiny TTL is dropped silently (loop protection),
  // with no ICMP generated and no delivery.
  ChainFixture fx;
  Emulator emulator = fx.make();
  int icmp = 0;
  emulator.set_icmp_handler([&](const Packet&, SimTime) { ++icmp; });
  // send_message does not expose TTL (apps always use the default 255), so
  // verify via probes only; a 255-TTL data message crosses 4 hops fine.
  emulator.send_message(fx.nodes[0], fx.nodes[4], 1000, 0, 0.0);
  emulator.run(10.0);
  EXPECT_EQ(emulator.stats().messages_delivered, 1u);
  EXPECT_EQ(icmp, 0);
}

TEST(EmulatorTiming, SerializationQueuesBackToBack) {
  // Two max-size trains injected simultaneously on one 100 Mb/s link:
  // the second departs after the first finishes serializing.
  topology::Network net;
  const auto a = net.add_host("a", 0);
  const auto b = net.add_host("b", 0);  // hosts may peer directly
  net.add_link(a, b, topology::Mbps(100), topology::milliseconds(1));
  const auto tables = routing::RoutingTables::build(net);
  EmulatorConfig config;
  config.train_packets = 10;  // 15 kB trains
  Emulator emulator(net, tables, {0, 0}, 1, config);

  std::vector<double> deliveries;
  class Sink : public AppEndpoint {
   public:
    explicit Sink(std::vector<double>& out) : out_(out) {}
    void receive(AppApi&, const AppMessage& message) override {
      out_.push_back(message.delivered_at);
    }
    std::vector<double>& out_;
  };
  emulator.install_endpoint(b, std::make_unique<Sink>(deliveries));
  emulator.send_message(a, b, 15000, 0, 0.0);
  emulator.send_message(a, b, 15000, 1, 0.0);
  emulator.run(10.0);

  ASSERT_EQ(deliveries.size(), 2u);
  const double tx = 15000 * 8.0 / topology::Mbps(100);  // 1.2 ms
  EXPECT_NEAR(deliveries[0], tx + 1e-3, 1e-9);
  EXPECT_NEAR(deliveries[1], 2 * tx + 1e-3, 1e-9);  // queued behind #1
}

TEST(EmulatorTiming, IndependentDirectionsDoNotQueue) {
  // Full duplex: a->b and b->a at the same instant each see an empty queue.
  topology::Network net;
  const auto a = net.add_host("a", 0);
  const auto b = net.add_host("b", 0);
  net.add_link(a, b, topology::Mbps(100), topology::milliseconds(1));
  const auto tables = routing::RoutingTables::build(net);
  EmulatorConfig config;
  config.train_packets = 10;
  Emulator emulator(net, tables, {0, 0}, 1, config);

  std::vector<double> deliveries;
  class Sink : public AppEndpoint {
   public:
    explicit Sink(std::vector<double>& out) : out_(out) {}
    void receive(AppApi&, const AppMessage& message) override {
      out_.push_back(message.delivered_at);
    }
    std::vector<double>& out_;
  };
  emulator.install_endpoint(a, std::make_unique<Sink>(deliveries));
  emulator.install_endpoint(b, std::make_unique<Sink>(deliveries));
  emulator.send_message(a, b, 15000, 0, 0.0);
  emulator.send_message(b, a, 15000, 1, 0.0);
  emulator.run(10.0);
  ASSERT_EQ(deliveries.size(), 2u);
  const double expected = 15000 * 8.0 / topology::Mbps(100) + 1e-3;
  EXPECT_NEAR(deliveries[0], expected, 1e-9);
  EXPECT_NEAR(deliveries[1], expected, 1e-9);
}

}  // namespace
}  // namespace massf::emu
