#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "membership/messages.h"
#include "net/builders.h"
#include "net/transport.h"
#include "sim/simulation.h"

namespace tamp::net {
namespace {

Payload bytes(std::initializer_list<uint8_t> data) {
  return make_payload(std::vector<uint8_t>(data));
}

struct TransportFixture : public ::testing::Test {
  sim::Simulation sim{1};
  Topology topo;
};

TEST_F(TransportFixture, UnicastDelivers) {
  auto layout = build_single_segment(topo, 2);
  Network net(sim, topo);
  std::vector<uint8_t> got;
  net.bind(layout.hosts[1], 7, [&](const Packet& p) {
    got.assign(p.data(), p.data() + p.size());
    EXPECT_EQ(p.from.host, layout.hosts[0]);
    EXPECT_EQ(p.kind, DeliveryKind::kUnicast);
  });
  net.send_unicast(layout.hosts[0], {layout.hosts[1], 7}, bytes({1, 2, 3}));
  sim.run();
  EXPECT_EQ(got, (std::vector<uint8_t>{1, 2, 3}));
}

TEST_F(TransportFixture, UnicastToUnboundPortCountsWireTraffic) {
  auto layout = build_single_segment(topo, 2);
  Network net(sim, topo);
  net.send_unicast(layout.hosts[0], {layout.hosts[1], 9}, bytes({1}));
  sim.run();
  const obs::MetricsRegistry& m = net.obs().metrics;
  EXPECT_EQ(m.counter_value(obs::Protocol::kNet, "rx_messages",
                            layout.hosts[1]),
            1u);
  EXPECT_GT(m.counter_value(obs::Protocol::kNet, "rx_wire_bytes",
                            layout.hosts[1]),
            0u);
}

TEST_F(TransportFixture, MulticastReachesOnlyGroupMembers) {
  auto layout = build_single_segment(topo, 4);
  Network net(sim, topo);
  std::vector<HostId> receivers;
  for (HostId h : layout.hosts) {
    net.bind(h, 7, [&receivers, h](const Packet&) { receivers.push_back(h); });
  }
  net.join_group(layout.hosts[1], 42);
  net.join_group(layout.hosts[2], 42);
  net.send_multicast(layout.hosts[0], 42, 1, 7, bytes({9}));
  sim.run();
  EXPECT_EQ(receivers, (std::vector<HostId>{layout.hosts[1], layout.hosts[2]}));
}

TEST_F(TransportFixture, MulticastTtlScoping) {
  RackedClusterParams params;
  params.racks = 2;
  params.hosts_per_rack = 2;
  auto layout = build_racked_cluster(topo, params);
  Network net(sim, topo);
  std::vector<HostId> receivers;
  for (HostId h : layout.hosts) {
    net.join_group(h, 5);
    net.bind(h, 7, [&receivers, h](const Packet&) { receivers.push_back(h); });
  }
  // TTL 1: stays within the sender's rack.
  net.send_multicast(layout.racks[0][0], 5, 1, 7, bytes({1}));
  sim.run();
  EXPECT_EQ(receivers, (std::vector<HostId>{layout.racks[0][1]}));

  // TTL 2: crosses the core router to the other rack.
  receivers.clear();
  net.send_multicast(layout.racks[0][0], 5, 2, 7, bytes({1}));
  sim.run();
  EXPECT_EQ(receivers.size(), 3u);
}

TEST_F(TransportFixture, SenderDoesNotReceiveOwnMulticast) {
  auto layout = build_single_segment(topo, 2);
  Network net(sim, topo);
  bool self_rx = false;
  net.join_group(layout.hosts[0], 5);
  net.bind(layout.hosts[0], 7, [&](const Packet&) { self_rx = true; });
  net.send_multicast(layout.hosts[0], 5, 1, 7, bytes({1}));
  sim.run();
  EXPECT_FALSE(self_rx);
}

TEST_F(TransportFixture, DownHostNeitherSendsNorReceives) {
  auto layout = build_single_segment(topo, 3);
  Network net(sim, topo);
  int rx = 0;
  net.bind(layout.hosts[1], 7, [&](const Packet&) { ++rx; });

  net.set_host_up(layout.hosts[0], false);
  EXPECT_FALSE(
      net.send_unicast(layout.hosts[0], {layout.hosts[1], 7}, bytes({1})));
  net.set_host_up(layout.hosts[0], true);

  net.set_host_up(layout.hosts[1], false);
  net.send_unicast(layout.hosts[0], {layout.hosts[1], 7}, bytes({1}));
  sim.run();
  EXPECT_EQ(rx, 0);

  // Back up: traffic flows again (sockets survived the outage).
  net.set_host_up(layout.hosts[1], true);
  net.send_unicast(layout.hosts[0], {layout.hosts[1], 7}, bytes({1}));
  sim.run();
  EXPECT_EQ(rx, 1);
}

TEST_F(TransportFixture, ExtraLossDropsRoughlyAtRate) {
  auto layout = build_single_segment(topo, 2);
  Network net(sim, topo);
  int rx = 0;
  net.bind(layout.hosts[1], 7, [&](const Packet&) { ++rx; });
  net.set_extra_loss(0.3);
  const int sent = 5000;
  for (int i = 0; i < sent; ++i) {
    net.send_unicast(layout.hosts[0], {layout.hosts[1], 7}, bytes({1}));
  }
  sim.run();
  EXPECT_NEAR(static_cast<double>(rx) / sent, 0.7, 0.03);
  EXPECT_EQ(net.obs().metrics.counter_value(obs::Protocol::kNet,
                                            "dropped_messages",
                                            layout.hosts[1]),
            static_cast<uint64_t>(sent - rx));
}

TEST_F(TransportFixture, DeliveryDelayIncludesPathLatency) {
  auto layout = build_single_segment(topo, 2);
  Network net(sim, topo);
  sim::Time delivered_at = -1;
  net.bind(layout.hosts[1], 7,
           [&](const Packet&) { delivered_at = sim.now(); });
  net.send_unicast(layout.hosts[0], {layout.hosts[1], 7}, bytes({1}));
  sim.run();
  // Two 50 us access links + min delivery delay + transmission time.
  EXPECT_GE(delivered_at, 100 * sim::kMicrosecond);
  EXPECT_LT(delivered_at, sim::kMillisecond);
}

TEST_F(TransportFixture, WireBytesIncludeOverheadAndFragments) {
  auto layout = build_single_segment(topo, 2);
  Network net(sim, topo);
  net.send_unicast(layout.hosts[0], {layout.hosts[1], 7},
                   make_payload(std::vector<uint8_t>(2 * kMtu + 1, 0)));
  sim.run();
  // 2 MTUs + 1 byte -> 3 fragments, each with its header bytes.
  EXPECT_EQ(net.obs().metrics.counter_value(obs::Protocol::kNet,
                                            "tx_wire_bytes"),
            2 * kMtu + 1 + 3 * kPerFragmentOverhead);
}

TEST_F(TransportFixture, VirtualIpFollowsOwner) {
  auto layout = build_single_segment(topo, 3);
  Network net(sim, topo);
  std::vector<HostId> receivers;
  for (HostId h : layout.hosts) {
    net.bind(h, 7, [&receivers, h](const Packet&) { receivers.push_back(h); });
  }
  VirtualIpId vip = net.allocate_virtual_ip();
  EXPECT_EQ(net.virtual_ip_owner(vip), kInvalidHost);
  net.send_to_virtual(layout.hosts[0], vip, 7, bytes({1}));  // unowned: void
  sim.run();
  EXPECT_TRUE(receivers.empty());

  net.assign_virtual_ip(vip, layout.hosts[1]);
  net.send_to_virtual(layout.hosts[0], vip, 7, bytes({1}));
  sim.run();
  EXPECT_EQ(receivers, (std::vector<HostId>{layout.hosts[1]}));

  // Failover: reassign to another host.
  receivers.clear();
  net.assign_virtual_ip(vip, layout.hosts[2]);
  net.send_to_virtual(layout.hosts[0], vip, 7, bytes({1}));
  sim.run();
  EXPECT_EQ(receivers, (std::vector<HostId>{layout.hosts[2]}));
}

TEST_F(TransportFixture, StatsAccumulateAndReset) {
  auto layout = build_single_segment(topo, 2);
  Network net(sim, topo);
  net.join_group(layout.hosts[1], 3);
  net.bind(layout.hosts[1], 7, [](const Packet&) {});
  net.send_multicast(layout.hosts[0], 3, 1, 7, bytes({1, 2}));
  sim.run();
  const obs::MetricsRegistry& m = net.obs().metrics;
  EXPECT_EQ(m.counter_value(obs::Protocol::kNet, "tx_messages",
                            layout.hosts[0]),
            1u);
  EXPECT_EQ(m.counter_value(obs::Protocol::kNet, "rx_multicast_messages",
                            layout.hosts[1]),
            1u);
  EXPECT_EQ(m.counter_value(obs::Protocol::kNet, "rx_messages"), 1u);
  net.obs().metrics.reset(obs::Protocol::kNet);
  EXPECT_EQ(m.counter_value(obs::Protocol::kNet, "tx_messages",
                            layout.hosts[0]),
            0u);
  EXPECT_EQ(m.counter_value(obs::Protocol::kNet, "rx_messages"), 0u);
}

TEST_F(TransportFixture, LeaveGroupStopsDelivery) {
  auto layout = build_single_segment(topo, 2);
  Network net(sim, topo);
  int rx = 0;
  net.join_group(layout.hosts[1], 3);
  net.bind(layout.hosts[1], 7, [&](const Packet&) { ++rx; });
  net.send_multicast(layout.hosts[0], 3, 1, 7, bytes({1}));
  sim.run();
  EXPECT_EQ(rx, 1);
  net.leave_group(layout.hosts[1], 3);
  net.send_multicast(layout.hosts[0], 3, 1, 7, bytes({1}));
  sim.run();
  EXPECT_EQ(rx, 1);
}

// Multicast fan-out reuses each (channel, ttl, sender) receiver set; a
// join, a leave or a topology change must still show on the next send.
TEST_F(TransportFixture, ReceiverSetsFollowJoinsAndTopologyChanges) {
  RackedClusterParams params;
  params.racks = 2;
  params.hosts_per_rack = 2;
  auto layout = build_racked_cluster(topo, params);
  Network net(sim, topo);
  std::vector<HostId> receivers;
  for (HostId h : layout.hosts) {
    net.bind(h, 7, [&receivers, h](const Packet&) { receivers.push_back(h); });
  }
  const HostId sender = layout.racks[0][0];
  const HostId late = layout.racks[1][1];
  for (HostId h : layout.hosts) {
    if (h != late) net.join_group(h, 5);
  }
  auto send = [&] {
    receivers.clear();
    net.send_multicast(sender, 5, 2, 7, bytes({1}));
    sim.run();
    std::sort(receivers.begin(), receivers.end());
    return receivers;
  };
  const std::vector<HostId> before = send();
  EXPECT_EQ(before,
            (std::vector<HostId>{layout.racks[0][1], layout.racks[1][0]}));

  net.join_group(late, 5);
  EXPECT_EQ(send().size(), 3u);

  const LinkId uplink = topo.uplink_of(layout.racks[1][0]);
  topo.set_link_up(uplink, false);
  EXPECT_EQ(send(), (std::vector<HostId>{layout.racks[0][1], late}));
  topo.set_link_up(uplink, true);
  EXPECT_EQ(send().size(), 3u);

  net.leave_group(late, 5);
  EXPECT_EQ(send(), before);
}

// --- shared decode -----------------------------------------------------------
//
// Every receiver of one payload gets the message its encoder stored; the
// receive-side counters still count each of them.

struct SharedDecodeFixture : public TransportFixture {
  std::vector<std::shared_ptr<const membership::Message>> decoded;
  std::vector<HostId> receivers;

  // Binds port 7 on every host to read what arrives; holding each result
  // keeps the messages alive, so distinct sends cannot reuse an address.
  void decode_on_receipt(Network& net, const std::vector<HostId>& hosts) {
    for (HostId h : hosts) {
      net.bind(h, 7, [this, &net, h](const Packet& p) {
        decoded.push_back(membership::decode_message(p));
        receivers.push_back(h);
      });
    }
  }

  static Payload election(membership::NodeId candidate) {
    return membership::encode_message(
        membership::ElectionMsg{candidate, /*level=*/0});
  }
};

TEST_F(SharedDecodeFixture, MulticastReceiversShareOneDecode) {
  auto layout = build_single_segment(topo, 4);
  Network net(sim, topo);
  decode_on_receipt(net, layout.hosts);
  for (HostId h : layout.hosts) net.join_group(h, 42);
  net.send_multicast(layout.hosts[0], 42, 1, 7, election(9));
  sim.run();

  ASSERT_EQ(decoded.size(), 3u);
  ASSERT_NE(decoded[0], nullptr);
  EXPECT_EQ(std::get<membership::ElectionMsg>(*decoded[0]).candidate, 9u);
  for (const auto& message : decoded) {
    EXPECT_EQ(message.get(), decoded[0].get());
  }
  const obs::MetricsRegistry& m = net.obs().metrics;
  EXPECT_EQ(m.counter_value(obs::Protocol::kNet, "rx_messages"), 3u);
  EXPECT_EQ(m.counter_value(obs::Protocol::kNet, "rx_multicast_messages"), 3u);
  for (size_t i = 1; i < layout.hosts.size(); ++i) {
    EXPECT_EQ(m.counter_value(obs::Protocol::kNet, "rx_multicast_messages",
                              layout.hosts[i]),
              1u);
  }
}

TEST_F(SharedDecodeFixture, MalformedMulticastDroppedByEveryReceiver) {
  auto layout = build_single_segment(topo, 4);
  Network net(sim, topo);
  decode_on_receipt(net, layout.hosts);
  for (HostId h : layout.hosts) net.join_group(h, 42);
  // Bytes no encoder built carry no message.
  const Payload whole = election(9);
  net.send_multicast(layout.hosts[0], 42, 1, 7,
                     make_payload({whole->begin(), whole->end() - 1}));
  sim.run();

  ASSERT_EQ(receivers.size(), 3u);
  for (const auto& message : decoded) EXPECT_EQ(message, nullptr);
}

TEST_F(SharedDecodeFixture, ByteEqualPayloadsNeverShareADecode) {
  auto layout = build_single_segment(topo, 3);
  Network net(sim, topo);
  decode_on_receipt(net, layout.hosts);
  for (HostId h : layout.hosts) net.join_group(h, 42);
  // Two encodings of one message are byte-equal but separate payloads; a
  // payload sent again is the same bytes and keeps its message.
  const Payload first = election(9);
  const Payload second = election(9);
  ASSERT_EQ(*first, *second);
  net.send_multicast(layout.hosts[0], 42, 1, 7, first);
  net.send_multicast(layout.hosts[0], 42, 1, 7, second);
  net.send_multicast(layout.hosts[0], 42, 1, 7, first);
  sim.run();

  ASSERT_EQ(receivers.size(), 6u);
  for (const auto& message : decoded) ASSERT_NE(message, nullptr);
  EXPECT_NE(decoded[0].get(), decoded[2].get());
  for (size_t i : {1, 4, 5}) EXPECT_EQ(decoded[i].get(), decoded[0].get());
  EXPECT_EQ(decoded[3].get(), decoded[2].get());
}

}  // namespace
}  // namespace tamp::net

namespace tamp::net {
namespace {

TEST(TransportFragmentation, MessageLostIfAnyFragmentLost) {
  // IP fragmentation semantics: an F-fragment message survives with
  // probability (1-p)^F, so large messages suffer more under loss.
  sim::Simulation sim{3};
  Topology topo;
  DeviceId sw = topo.add_l2_switch("sw");
  HostId a = topo.add_host("a");
  HostId b = topo.add_host("b");
  topo.connect(a, sw, {50 * sim::kMicrosecond, 100e6, 0.05});
  topo.connect(b, sw, {50 * sim::kMicrosecond, 100e6, 0.0});
  Network net(sim, topo);

  int small_rx = 0, large_rx = 0;
  net.bind(b, 7, [&](const Packet& p) {
    (p.size() <= 100 ? small_rx : large_rx) += 1;
  });
  const int sent = 4000;
  for (int i = 0; i < sent; ++i) {
    net.send_unicast(a, {b, 7}, make_payload(std::vector<uint8_t>(100, 1)));
    net.send_unicast(a, {b, 7},
                     make_payload(std::vector<uint8_t>(6000, 2)));  // 4 frags
  }
  sim.run();
  double small_rate = static_cast<double>(small_rx) / sent;
  double large_rate = static_cast<double>(large_rx) / sent;
  EXPECT_NEAR(small_rate, 0.95, 0.02);
  EXPECT_NEAR(large_rate, std::pow(0.95, 4), 0.03);
}

TEST(TransportFragmentation, TransmissionDelayScalesWithSize) {
  sim::Simulation sim{5};
  Topology topo;
  auto layout = build_single_segment(topo, 2);
  Network net(sim, topo);
  std::vector<sim::Time> deliveries;
  net.bind(layout.hosts[1], 7,
           [&](const Packet&) { deliveries.push_back(sim.now()); });
  // 100 KB at 100 Mb/s ~ 8 ms of transmission time; 100 B ~ negligible.
  net.send_unicast(layout.hosts[0], {layout.hosts[1], 7},
                   make_payload(std::vector<uint8_t>(100'000, 0)));
  net.send_unicast(layout.hosts[0], {layout.hosts[1], 7},
                   make_payload(std::vector<uint8_t>(100, 0)));
  sim.run();
  ASSERT_EQ(deliveries.size(), 2u);
  // The small message overtakes the big one (independent delays model
  // parallel paths through the switch fabric; FIFO per flow isn't claimed).
  sim::Duration gap = deliveries[1] - deliveries[0];
  EXPECT_GT(gap, 7 * sim::kMillisecond);
}

}  // namespace
}  // namespace tamp::net
