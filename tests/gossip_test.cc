#include <gtest/gtest.h>

#include <cmath>

#include "expiry_probe.h"
#include "net/builders.h"
#include "protocols/cluster.h"
#include "protocols/oracle.h"

namespace tamp::protocols {
namespace {

struct GossipFixture : public ::testing::Test {
  sim::Simulation sim{11};
  net::Topology topo;

  Cluster::Options options() {
    Cluster::Options opts;
    opts.scheme = Scheme::kGossip;
    return opts;
  }
};

TEST_F(GossipFixture, ViewsFillInFromSeeds) {
  auto layout = net::build_single_segment(topo, 16);
  net::Network net(sim, topo);
  Cluster cluster(sim, net, layout.hosts, options());
  cluster.start_all();
  // Each node starts with 3 seeds; epidemic spread completes in O(log n).
  sim.run_until(15 * sim::kSecond);
  EXPECT_TRUE(cluster.converged());
}

TEST_F(GossipFixture, AdaptiveTfailGrowsWithViewSize) {
  auto layout = net::build_single_segment(topo, 32);
  net::Network net(sim, topo);
  Cluster cluster(sim, net, layout.hosts, options());
  cluster.start_all();
  sim.run_until(15 * sim::kSecond);
  auto* daemon = static_cast<GossipDaemon*>(&cluster.daemon(0));
  sim::Duration tfail32 = daemon->effective_tfail();
  // c0 + c1 * log2(32) periods.
  double expected = (5.5 + 1.75 * 5.0) * 1e9;
  EXPECT_NEAR(static_cast<double>(tfail32), expected, 1e6);
}

// The calibration stated in gossip.h: ~13 s at 20 nodes, ~17 s at 100.
TEST(GossipTfail, MatchesHeaderCalibration) {
  EXPECT_NEAR(static_cast<double>(gossip_tfail(20)) / 1e9, 13.06, 0.005);
  EXPECT_NEAR(static_cast<double>(gossip_tfail(100)) / 1e9, 17.13, 0.005);
  EXPECT_EQ(gossip_tfail(0), gossip_tfail(2));  // views clamp to 2 nodes
}

// The oracle's detection bound is the daemon's own timeout plus the
// O(log n) dissemination spread, both from the same definitions.
TEST_F(GossipFixture, OracleDetectionBoundUsesGossipTfail) {
  auto layout = net::build_single_segment(topo, 20);
  net::Network net(sim, topo);
  Cluster cluster(sim, net, layout.hosts, options());
  MembershipOracle oracle(sim, net, topo, cluster);
  const auto spread = static_cast<sim::Duration>(
      static_cast<double>(kGossipPeriod) * (std::log2(20.0) + 2.0));
  EXPECT_EQ(oracle.detection_bound(), gossip_tfail(20) + spread);
}

TEST_F(GossipFixture, FailureEventuallyDetectedEverywhere) {
  auto layout = net::build_single_segment(topo, 12);
  net::Network net(sim, topo);
  Cluster cluster(sim, net, layout.hosts, options());

  net::HostId victim = layout.hosts[5];
  sim::Time first = -1, last = -1;
  int leave_events = 0;
  cluster.set_change_listener(
      [&](membership::NodeId subject, bool alive, sim::Time when) {
        if (subject == victim && !alive) {
          if (first < 0) first = when;
          last = when;
          ++leave_events;
        }
      });
  cluster.start_all();
  sim.run_until(20 * sim::kSecond);
  ASSERT_TRUE(cluster.converged());

  const sim::Time kill_at = sim.now();
  cluster.kill(5);
  sim.run_until(kill_at + 60 * sim::kSecond);

  EXPECT_TRUE(cluster.converged());
  EXPECT_EQ(leave_events, 11);  // every survivor notices exactly once
  // Detection takes at least tfail (~11.8 s at n=12) — much slower than the
  // heartbeat schemes, as the paper's Figure 12 shows.
  EXPECT_GE(first - kill_at, 10 * sim::kSecond);
  EXPECT_LE(last - kill_at, 45 * sim::kSecond);
}

TEST_F(GossipFixture, DeadNodeIsNotResurrectedByStaleGossip) {
  auto layout = net::build_single_segment(topo, 8);
  net::Network net(sim, topo);
  Cluster cluster(sim, net, layout.hosts, options());

  net::HostId victim = layout.hosts[2];
  int rejoin_events = 0;
  cluster.set_change_listener(
      [&](membership::NodeId subject, bool alive, sim::Time when) {
        (void)when;
        if (subject == victim && alive && when > 30 * sim::kSecond) {
          ++rejoin_events;
        }
      });
  cluster.start_all();
  sim.run_until(15 * sim::kSecond);
  cluster.kill(2);
  sim.run_until(120 * sim::kSecond);
  EXPECT_TRUE(cluster.converged());
  EXPECT_EQ(rejoin_events, 0);
}

TEST_F(GossipFixture, GossipMessagesCarryFullView) {
  auto layout = net::build_single_segment(topo, 24);
  net::Network net(sim, topo);
  Cluster cluster(sim, net, layout.hosts, options());
  cluster.start_all();
  sim.run_until(20 * sim::kSecond);
  net.obs().metrics.reset(obs::Protocol::kNet);
  sim.run_until(30 * sim::kSecond);
  // Aggregate bytes per second ~ n * (n * entry_size): with n=24 and ~230 B
  // entries each message is ~5.5 KB; 24 msg/s -> ~130 KB/s.
  double bytes_per_sec =
      static_cast<double>(net.obs().metrics.counter_value(
          obs::Protocol::kNet, "rx_wire_bytes")) /
      10.0;
  EXPECT_GT(bytes_per_sec, 80e3);
  EXPECT_LT(bytes_per_sec, 250e3);
}

TEST_F(GossipFixture, WorksAcrossRoutedTopology) {
  // Gossip is topology-oblivious: unicast works across routers unchanged.
  net::RackedClusterParams params;
  params.racks = 3;
  params.hosts_per_rack = 5;
  auto layout = net::build_racked_cluster(topo, params);
  net::Network net(sim, topo);
  Cluster cluster(sim, net, layout.hosts, options());
  cluster.start_all();
  sim.run_until(20 * sim::kSecond);
  EXPECT_TRUE(cluster.converged());
}

TEST_F(GossipFixture, RestartWithHigherIncarnationRejoins) {
  auto layout = net::build_single_segment(topo, 8);
  net::Network net(sim, topo);
  Cluster cluster(sim, net, layout.hosts, options());
  cluster.start_all();
  sim.run_until(15 * sim::kSecond);
  cluster.kill(3);
  sim.run_until(80 * sim::kSecond);
  ASSERT_TRUE(cluster.converged());

  cluster.restart(3);
  sim.run_until(120 * sim::kSecond);
  EXPECT_TRUE(cluster.converged());
  const auto* entry = cluster.daemon(0).table().find(layout.hosts[3]);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->data().incarnation, 2u);
}

// The scan timer fires only once some peer can have failed. A crash must
// still be declared on the first 200 ms tick strictly past the peer's last
// counter increase plus tfail, as a scan on every tick declares it. Between
// two nodes every gossip the observer receives comes from its one peer and
// raises that peer's counter.
TEST_F(GossipFixture, CrashDeclaredOnFirstScanTickPastTimeout) {
  auto layout = net::build_single_segment(topo, 2);
  net::Network net(sim, topo);
  trace_expiries(net);
  Cluster cluster(sim, net, layout.hosts, options());
  ChangeTimes heard(sim, net_counter(net, layout.hosts[0], "rx_messages"));
  cluster.start_all();
  sim.run_until(10 * sim::kSecond);
  ASSERT_TRUE(cluster.converged());

  cluster.kill(1);
  sim.run_until(sim.now() + 20 * sim::kSecond);

  const sim::Time declared =
      declared_dead_at(net, layout.hosts[0], layout.hosts[1], /*level=*/-1);
  ASSERT_GE(declared, 0);
  const sim::Duration late = declared - heard.last() - gossip_tfail(2);
  EXPECT_GT(late, 0);
  EXPECT_LE(late, kGossipScanInterval);
}

}  // namespace
}  // namespace tamp::protocols
