// Transport fault-injection hook + the DESIGN.md hardening guarantees that
// motivated it: tombstone/heartbeat interplay across partition heals, and
// incarnation-scoped update streams under crash-restart churn with loss.
#include <gtest/gtest.h>

#include <memory>

#include "membership/messages.h"
#include "net/builders.h"
#include "protocols/cluster.h"

namespace tamp::protocols {
namespace {

// Minimal injector for direct hook tests: cut one sender's outbound
// traffic, or duplicate everything.
class TestInjector : public net::FaultInjector {
 public:
  Verdict verdict(const net::Packet& packet) override {
    Verdict verdict;
    if (packet.from.host == cut_sender_) verdict.cut = true;
    verdict.duplicates = duplicates_;
    return verdict;
  }
  void cut_outbound(net::HostId sender) { cut_sender_ = sender; }
  void set_duplicates(int copies) { duplicates_ = copies; }

 private:
  net::HostId cut_sender_ = net::kInvalidHost;
  int duplicates_ = 0;
};

// An asymmetric outbound cut: the victim's packets vanish but it still
// hears everyone. Peers must (correctly) remove the mute node; the mute
// node must keep its complete view — exactly the directional semantics the
// FaultInjector contract promises.
TEST(FaultInjection, AsymmetricCutIsDirectional) {
  sim::Simulation sim(1);
  net::Topology topo;
  auto layout = net::build_single_segment(topo, 5);
  net::Network net(sim, topo);
  TestInjector injector;
  net.set_fault_injector(&injector);

  Cluster::Options opts;
  opts.scheme = Scheme::kAllToAll;
  Cluster cluster(sim, net, layout.hosts, opts);
  cluster.start_all();
  sim.run_until(10 * sim::kSecond);
  ASSERT_TRUE(cluster.converged());

  net::HostId mute = layout.hosts[2];
  injector.cut_outbound(mute);
  sim.run_until(sim.now() + 10 * sim::kSecond);

  for (size_t i = 0; i < cluster.size(); ++i) {
    if (i == 2) continue;
    EXPECT_FALSE(cluster.daemon(i).table().contains(mute))
        << "peer " << i << " still lists the mute node";
  }
  // The mute node hears every peer, so its view must still be complete.
  EXPECT_EQ(cluster.daemon(2).view_size(), cluster.size());

  // Heal: direct heartbeats resume and everyone re-adds the node.
  injector.cut_outbound(net::kInvalidHost);
  sim.run_until(sim.now() + 10 * sim::kSecond);
  EXPECT_TRUE(cluster.converged());
}

// Packet duplication must be harmless: processing is idempotent, so a
// cluster formed entirely under 3x duplication converges normally.
TEST(FaultInjection, DuplicationIsIdempotent) {
  sim::Simulation sim(2);
  net::Topology topo;
  net::RackedClusterParams params;
  params.racks = 3;
  params.hosts_per_rack = 4;
  auto layout = net::build_racked_cluster(topo, params);
  net::Network net(sim, topo);
  TestInjector injector;
  injector.set_duplicates(2);
  net.set_fault_injector(&injector);

  Cluster::Options opts;
  opts.scheme = Scheme::kHierarchical;
  Cluster cluster(sim, net, layout.hosts, opts);
  cluster.start_all();
  sim.run_until(15 * sim::kSecond);
  EXPECT_TRUE(cluster.converged())
      << cluster.converged_count() << "/" << cluster.size();
}

// Injected duplicates are copies of one transmission, so they share its
// decode with every other receiver of it, and each copy is still counted.
TEST(FaultInjection, DuplicatesShareOneDecode) {
  sim::Simulation sim(3);
  net::Topology topo;
  auto layout = net::build_single_segment(topo, 3);
  net::Network net(sim, topo);
  TestInjector injector;
  injector.set_duplicates(2);
  net.set_fault_injector(&injector);
  std::vector<std::shared_ptr<const membership::Message>> decoded;
  for (net::HostId h : layout.hosts) {
    net.join_group(h, 42);
    net.bind(h, 7, [&](const net::Packet& p) {
      decoded.push_back(
          membership::decode_message(p, membership::row_pool(net)));
    });
  }
  const auto election = [](membership::NodeId candidate) {
    return membership::encode_message(membership::ElectionMsg{candidate, 0});
  };

  net.send_multicast(layout.hosts[0], 42, 1, 7, election(1));
  sim.run();
  ASSERT_EQ(decoded.size(), 6u);  // 2 receivers x 3 copies
  for (const auto& message : decoded) {
    ASSERT_NE(message, nullptr);
    EXPECT_EQ(message.get(), decoded[0].get());
  }
  EXPECT_EQ(net.obs().metrics.counter_value(obs::Protocol::kNet,
                                            "rx_multicast_messages"),
            6u);

  decoded.clear();
  net.send_unicast(layout.hosts[0], {layout.hosts[1], 7}, election(2));
  sim.run();
  ASSERT_EQ(decoded.size(), 3u);
  for (const auto& message : decoded) {
    ASSERT_NE(message, nullptr);
    EXPECT_EQ(message.get(), decoded[0].get());
  }
  EXPECT_EQ(std::get<membership::ElectionMsg>(*decoded[0]).candidate, 2u);
  EXPECT_EQ(net.obs().metrics.counter_value(obs::Protocol::kNet,
                                            "rx_messages"),
            9u);
}

// With no injector installed the transport must draw the same RNG sequence
// as before the hook existed: two runs, one with a no-op Verdict-returning
// injector and one with none, stay step-for-step identical because the
// injector only *adds* draws when a verdict demands them.
TEST(FaultInjection, NoopInjectorPreservesDeterminism) {
  auto run = [](bool with_injector) {
    sim::Simulation sim(7);
    net::Topology topo;
    auto layout = net::build_single_segment(topo, 6);
    net::Network net(sim, topo);
    net.set_extra_loss(0.05);  // force RNG draws on the delivery path
    TestInjector injector;
    if (with_injector) net.set_fault_injector(&injector);
    Cluster::Options opts;
    opts.scheme = Scheme::kAllToAll;
    Cluster cluster(sim, net, layout.hosts, opts);
    cluster.start_all();
    sim.run_until(12 * sim::kSecond);
    return std::make_pair(sim.events_executed(),
                          net.obs().metrics.counter_value(
                              obs::Protocol::kNet, "dropped_messages"));
  };
  EXPECT_EQ(run(false), run(true));
}

// DESIGN.md hardening item 8, first half: a partition held past the
// tombstone TTL re-merges cleanly on heal — the LEAVE tombstones both sides
// recorded have expired, so the relayed re-joins are accepted and nobody's
// incarnation had to change.
TEST(FaultInjection, PartitionHealRemergesWithSameIncarnations) {
  sim::Simulation sim(3);
  net::Topology topo;
  net::RackedClusterParams params;
  params.racks = 3;
  params.hosts_per_rack = 4;
  auto layout = net::build_racked_cluster(topo, params);
  net::Network net(sim, topo);
  Cluster::Options opts;
  opts.scheme = Scheme::kHierarchical;
  opts.hier.refresh_interval = 10 * sim::kSecond;  // prompt anti-entropy
  Cluster cluster(sim, net, layout.hosts, opts);
  cluster.start_all();
  sim.run_until(15 * sim::kSecond);
  ASSERT_TRUE(cluster.converged());

  // Cut rack 0 off for twice the tombstone TTL.
  topo.set_link_up(layout.rack_uplinks[0], false);
  sim.run_until(sim.now() + 2 * kTombstoneTtl);
  net::HostId islander = layout.racks[0][1];
  net::HostId mainlander = layout.racks[1][1];
  EXPECT_FALSE(cluster.daemon_for(mainlander)->table().contains(islander));
  EXPECT_FALSE(cluster.daemon_for(islander)->table().contains(mainlander));

  topo.set_link_up(layout.rack_uplinks[0], true);
  sim.run_until(sim.now() + 20 * sim::kSecond);

  EXPECT_TRUE(cluster.converged())
      << cluster.converged_count() << "/" << cluster.size();
  const auto* entry = cluster.daemon_for(mainlander)->table().find(islander);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->data().incarnation, 1u) << "re-merge must not need a new life";
}

// DESIGN.md hardening item 8, second half: a tombstone never outlasts the
// evidence — hearing the node's own heartbeat overrides the quarantine
// immediately. One node's NIC cable is pulled long enough to be removed,
// then restored *within* the tombstone TTL; same-segment peers must re-add
// it within a few heartbeat periods, not after tombstone expiry.
TEST(FaultInjection, DirectHeartbeatOverridesTombstoneImmediately) {
  sim::Simulation sim(4);
  net::Topology topo;
  auto layout = net::build_single_segment(topo, 8);
  net::Network net(sim, topo);
  Cluster::Options opts;
  opts.scheme = Scheme::kHierarchical;
  Cluster cluster(sim, net, layout.hosts, opts);
  cluster.start_all();
  sim.run_until(15 * sim::kSecond);
  ASSERT_TRUE(cluster.converged());

  net::HostId victim = layout.hosts[3];
  topo.set_link_up(topo.uplink_of(victim), false);
  // Long enough for the level-0 timeout + LEAVE propagation, well inside
  // the 15 s tombstone TTL.
  sim.run_until(sim.now() + 8 * sim::kSecond);
  for (size_t i = 0; i < cluster.size(); ++i) {
    if (i == 3) continue;
    ASSERT_FALSE(cluster.daemon(i).table().contains(victim))
        << "peer " << i << " never removed the unplugged node";
  }

  topo.set_link_up(topo.uplink_of(victim), true);
  sim.run_until(sim.now() + 3 * opts.hier.period);
  for (size_t i = 0; i < cluster.size(); ++i) {
    if (i == 3) continue;
    EXPECT_TRUE(cluster.daemon(i).table().contains(victim))
        << "peer " << i << " kept quarantining a directly heard node";
  }
}

// DESIGN.md hardening item 5: a crash-restart under 10% packet loss comes
// back as a fresh incarnation whose update stream is accepted everywhere —
// the per-origin sequence cursors are incarnation-scoped, so the new
// stream's records are not discarded against the old stream's cursor.
TEST(FaultInjection, CrashRestartNewIncarnationAcceptedUnderLoss) {
  sim::Simulation sim(5);
  net::Topology topo;
  net::RackedClusterParams params;
  params.racks = 3;
  params.hosts_per_rack = 4;
  auto layout = net::build_racked_cluster(topo, params);
  net::Network net(sim, topo);
  Cluster::Options opts;
  opts.scheme = Scheme::kHierarchical;
  Cluster cluster(sim, net, layout.hosts, opts);
  cluster.start_all();
  sim.run_until(15 * sim::kSecond);
  ASSERT_TRUE(cluster.converged());

  net.set_extra_loss(0.10);
  size_t victim_index = 5;
  net::HostId victim = layout.hosts[victim_index];
  cluster.kill(victim_index);
  sim.run_until(sim.now() + 25 * sim::kSecond);
  ASSERT_TRUE(cluster.converged());

  cluster.restart(victim_index);
  sim.run_until(sim.now() + 20 * sim::kSecond);
  ASSERT_TRUE(cluster.converged())
      << cluster.converged_count() << "/" << cluster.size();
  for (size_t i = 0; i < cluster.size(); ++i) {
    const auto* entry = cluster.daemon(i).table().find(victim);
    ASSERT_NE(entry, nullptr) << "view " << i;
    EXPECT_EQ(entry->data().incarnation, 2u) << "view " << i;
  }

  // The fresh incarnation's update stream must work end to end: a value
  // published by the revenant reaches every receiver promptly despite the
  // continuing loss.
  cluster.daemon(victim_index).update_value("epoch", "second-life");
  sim.run_until(sim.now() + 5 * opts.hier.period);
  for (size_t i = 0; i < cluster.size(); ++i) {
    const auto* entry = cluster.daemon(i).table().find(victim);
    ASSERT_NE(entry, nullptr) << "view " << i;
    auto it = entry->data().values.find("epoch");
    ASSERT_NE(it, entry->data().values.end())
        << "view " << i << " never accepted the new stream's update";
    EXPECT_EQ(it->second, "second-life");
  }
}

}  // namespace
}  // namespace tamp::protocols
