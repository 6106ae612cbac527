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

// A payload carrying `data`, charged its length.
Payload bytes(std::initializer_list<uint8_t> data) {
  return make_payload(std::vector<uint8_t>(data), data.size());
}

// A payload charged `size` bytes.
Payload sized(size_t size) { return make_payload(size, size); }

struct TransportFixture : public ::testing::Test {
  sim::Simulation sim{1};
  Topology topo;
};

TEST_F(TransportFixture, UnicastDelivers) {
  auto layout = build_single_segment(topo, 2);
  Network net(sim, topo);
  std::vector<uint8_t> got;
  net.bind(layout.hosts[1], 7, [&](const Packet& p) {
    got = *carried<std::vector<uint8_t>>(p.payload);
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
                   sized(2 * kMtu + 1));
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

// --- egress model ------------------------------------------------------------
//
// At 1 MB/s a 1000-byte datagram (954 B payload + one 46 B header)
// serializes in exactly 1 ms, and a 2500-byte queue holds two of them: the
// third back-to-back send overflows.

struct EgressFixture : public TransportFixture {
  static constexpr size_t kWire = 1000;
  static constexpr uint8_t kProbe = 1;  // wire kind of every test payload

  ClusterLayout layout = build_single_segment(topo, 3);
  Network net{sim, topo, NetworkConfig{0.0, 1e6, 2500}};
  std::vector<sim::Time> deliveries;

  EgressFixture() {
    net.set_wire_kind_names({"unknown", "probe"});
    net.obs().tracer.set_enabled(true);
    for (HostId h : {layout.hosts[1], layout.hosts[2]}) {
      net.join_group(h, 5);
      net.bind(h, 7,
               [this](const Packet&) { deliveries.push_back(sim.now()); });
    }
  }

  static Payload probe() {
    return make_payload(0, kWire - kPerFragmentOverhead, kProbe);
  }
  uint64_t counter(const char* name, obs::NodeId node = obs::kNoNode) const {
    return net.obs().metrics.counter_value(obs::Protocol::kNet, name, node);
  }
  // Asserts the one overflow the fixture's three sends cause.
  void expect_one_egress_drop() const {
    const HostId sender = layout.hosts[0];
    EXPECT_EQ(counter("tx_dropped_egress", sender), 1u);
    EXPECT_EQ(counter("tx_dropped_egress"), 1u);
    EXPECT_EQ(counter("tx_egress_drop_kind_probe"), 1u);
    EXPECT_EQ(counter("tx_messages", sender), 2u);
    EXPECT_EQ(counter("tx_wire_bytes"), 2 * kWire);
    const auto& events = net.obs().tracer.events();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].kind, obs::TraceKind::kEgressDrop);
    EXPECT_EQ(events[0].node, sender);
    EXPECT_EQ(events[0].a, kProbe);
    EXPECT_EQ(events[0].b, kWire);
  }
};

TEST_F(EgressFixture, BackToBackSendWaitsForTheFirstToSerialize) {
  const Address to{layout.hosts[1], 7};
  EXPECT_TRUE(net.send_unicast(layout.hosts[0], to, probe()));
  EXPECT_TRUE(net.send_unicast(layout.hosts[0], to, probe()));
  sim.run();
  ASSERT_EQ(deliveries.size(), 2u);
  EXPECT_EQ(deliveries[1] - deliveries[0], sim::kMillisecond);
  EXPECT_EQ(counter("tx_dropped_egress"), 0u);
}

TEST_F(EgressFixture, OverflowingUnicastIsDroppedAtTheSender) {
  const Address to{layout.hosts[1], 7};
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(net.send_unicast(layout.hosts[0], to, probe()));
  }
  sim.run();
  EXPECT_EQ(deliveries.size(), 2u);
  expect_one_egress_drop();
}

TEST_F(EgressFixture, OverflowingMulticastLosesItsWholeFanOut) {
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(net.send_multicast(layout.hosts[0], 5, 1, 7, probe()));
  }
  sim.run();
  // Two admitted sends, each to both receivers; nothing of the third.
  EXPECT_EQ(deliveries.size(), 4u);
  EXPECT_EQ(counter("rx_multicast_messages"), 4u);
  expect_one_egress_drop();
}

TEST_F(EgressFixture, DownSenderCountsOnlyTxDown) {
  net.set_host_up(layout.hosts[0], false);
  EXPECT_FALSE(
      net.send_unicast(layout.hosts[0], {layout.hosts[1], 7}, probe()));
  EXPECT_FALSE(net.send_multicast(layout.hosts[0], 5, 1, 7, probe()));
  sim.run();
  EXPECT_TRUE(deliveries.empty());
  EXPECT_EQ(counter("tx_down_kind_probe"), 2u);
  EXPECT_EQ(counter("tx_messages"), 0u);
  EXPECT_EQ(counter("tx_wire_bytes"), 0u);
  EXPECT_EQ(counter("tx_kind_probe"), 0u);
  EXPECT_EQ(counter("tx_dropped_egress"), 0u);
  EXPECT_EQ(counter("tx_egress_drop_kind_probe"), 0u);
  EXPECT_TRUE(net.obs().tracer.events().empty());
}

// Unicast and a one-receiver multicast go through the same per-receiver
// decision, so two identically seeded networks must draw the same verdict,
// loss and jitter for each and deliver the same copies at the same times.
TEST(TransportDecision, UnicastAndMulticastDecideAlike) {
  struct Storm : FaultInjector {
    Verdict verdict(const Packet&) override {
      Verdict v;
      v.extra_loss = 0.3;
      v.extra_delay = 2 * sim::kMillisecond;
      v.jitter = sim::kMillisecond;
      v.duplicates = 2;
      return v;
    }
  };
  struct Outcome {
    std::vector<sim::Time> deliveries;
    uint64_t dropped = 0;
  };
  auto run = [](bool multicast) {
    sim::Simulation sim{17};
    Topology topo;
    auto layout = build_single_segment(topo, 2);
    Network net(sim, topo);
    Storm storm;
    net.set_fault_injector(&storm);
    Outcome outcome;
    net.join_group(layout.hosts[1], 5);
    net.bind(layout.hosts[1], 7,
             [&](const Packet&) { outcome.deliveries.push_back(sim.now()); });
    for (int i = 0; i < 200; ++i) {
      if (multicast) {
        net.send_multicast(layout.hosts[0], 5, 1, 7, bytes({1}));
      } else {
        net.send_unicast(layout.hosts[0], {layout.hosts[1], 7}, bytes({1}));
      }
    }
    sim.run();
    outcome.dropped = net.obs().metrics.counter_value(
        obs::Protocol::kNet, "dropped_messages", layout.hosts[1]);
    return outcome;
  };
  const Outcome unicast = run(false);
  const Outcome multicast = run(true);
  EXPECT_GT(unicast.dropped, 0u);
  EXPECT_EQ(unicast.deliveries.size(), 3 * (200 - unicast.dropped));
  EXPECT_EQ(multicast.dropped, unicast.dropped);
  EXPECT_EQ(multicast.deliveries, unicast.deliveries);
}

// --- fan-out batches ---------------------------------------------------------
//
// A multicast's receivers on one path share one scheduled event, which holds
// the packet once and stamps each receiver's address on it as it delivers.
struct FanOutFixture : public TransportFixture {
  struct Delivery {
    HostId socket;  // whose socket the packet reached
    Address to;
    sim::Time at;
    bool operator==(const Delivery&) const = default;
  };

  // Two racks of three: from racks[0][0], its two rack-mates share one
  // path and the other rack's three share another, so one send at TTL 2
  // makes two delay groups.
  static ClusterLayout two_racks_of_three(Topology& topo) {
    RackedClusterParams params;
    params.racks = 2;
    params.hosts_per_rack = 3;
    return build_racked_cluster(topo, params);
  }

  FanOutFixture() {
    for (HostId h : layout.hosts) {
      net.join_group(h, kChannel);
      net.bind(h, kPort, [this, h](const Packet& p) {
        deliveries.push_back(Delivery{h, p.to, sim.now()});
      });
    }
  }

  // Each receiver other than the sender, in member (join) order.
  std::vector<HostId> receivers() const {
    std::vector<HostId> out;
    for (HostId h : layout.hosts) {
      if (h != sender) out.push_back(h);
    }
    return out;
  }

  static constexpr ChannelId kChannel = 11;
  static constexpr Port kPort = 7;
  ClusterLayout layout = two_racks_of_three(topo);
  Network net{sim, topo};  // after the layout: it sizes itself to topo
  HostId sender = layout.racks[0][0];
  std::vector<Delivery> deliveries;
};

TEST_F(FanOutFixture, OneEventPerDelayGroupEachReceiverItsOwnAddress) {
  net.send_multicast(sender, kChannel, 2, kPort, bytes({1}));
  EXPECT_EQ(sim.run(), 2u);  // the rack-mates' group, then the far rack's

  ASSERT_EQ(deliveries.size(), 5u);
  std::vector<HostId> order;
  for (const Delivery& d : deliveries) {
    order.push_back(d.socket);
    EXPECT_EQ(d.to.host, d.socket);
    EXPECT_EQ(d.to.port, kPort);
  }
  EXPECT_EQ(order, receivers());
  EXPECT_EQ(deliveries[0].at, deliveries[1].at);
  EXPECT_LT(deliveries[1].at, deliveries[2].at);
  EXPECT_EQ(deliveries[2].at, deliveries[4].at);
}

TEST_F(FanOutFixture, DuplicatesDeliverEachReceiverTwiceInMemberOrder) {
  struct Twice : FaultInjector {
    Verdict verdict(const Packet&) override {
      Verdict v;
      v.duplicates = 1;
      return v;
    }
  } twice;
  net.set_fault_injector(&twice);
  net.send_multicast(sender, kChannel, 2, kPort, bytes({1}));
  EXPECT_EQ(sim.run(), 2u);  // a copy lands with its original's group

  std::vector<HostId> order;
  for (const Delivery& d : deliveries) {
    order.push_back(d.socket);
    EXPECT_EQ(d.to, (Address{d.socket, kPort}));
  }
  std::vector<HostId> expected;
  for (HostId h : receivers()) {
    expected.push_back(h);
    expected.push_back(h);
  }
  EXPECT_EQ(order, expected);
}

TEST_F(FanOutFixture, ReceiverThatLeavesInFlightIsSkipped) {
  const HostId leaver = layout.racks[1][1];
  net.send_multicast(sender, kChannel, 2, kPort, bytes({1}));
  net.leave_group(leaver, kChannel);
  EXPECT_EQ(sim.run(), 2u);

  std::vector<HostId> order;
  for (const Delivery& d : deliveries) {
    order.push_back(d.socket);
    EXPECT_EQ(d.to, (Address{d.socket, kPort}));
  }
  std::vector<HostId> expected = receivers();
  expected.erase(std::find(expected.begin(), expected.end(), leaver));
  EXPECT_EQ(order, expected);
  EXPECT_EQ(net.obs().metrics.counter_value(obs::Protocol::kNet,
                                            "rx_messages", leaver),
            0u);
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
  // A payload that carries no Message (here the election's bytes) reads
  // as none.
  const std::vector<uint8_t> frame =
      membership::encode_message_bytes(membership::ElectionMsg{9, 0});
  net.send_multicast(layout.hosts[0], 42, 1, 7,
                     make_payload(frame, frame.size()));
  sim.run();

  ASSERT_EQ(receivers.size(), 3u);
  for (const auto& message : decoded) EXPECT_EQ(message, nullptr);
}

TEST_F(SharedDecodeFixture, ByteEqualPayloadsNeverShareADecode) {
  auto layout = build_single_segment(topo, 3);
  Network net(sim, topo);
  decode_on_receipt(net, layout.hosts);
  for (HostId h : layout.hosts) net.join_group(h, 42);
  // Two encodings of one message are equal in size and kind but separate
  // payloads; a payload sent again keeps its message.
  const Payload first = election(9);
  const Payload second = election(9);
  ASSERT_EQ(first->size, second->size);
  ASSERT_EQ(first->kind, second->kind);
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
    net.send_unicast(a, {b, 7}, sized(100));
    net.send_unicast(a, {b, 7}, sized(6000));  // 4 frags
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
  net.send_unicast(layout.hosts[0], {layout.hosts[1], 7}, sized(100'000));
  net.send_unicast(layout.hosts[0], {layout.hosts[1], 7}, sized(100));
  sim.run();
  ASSERT_EQ(deliveries.size(), 2u);
  // The small message overtakes the big one (independent delays model
  // parallel paths through the switch fabric; FIFO per flow isn't claimed).
  sim::Duration gap = deliveries[1] - deliveries[0];
  EXPECT_GT(gap, 7 * sim::kMillisecond);
}

}  // namespace
}  // namespace tamp::net
