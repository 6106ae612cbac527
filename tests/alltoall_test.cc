#include <gtest/gtest.h>

#include "expiry_probe.h"
#include "net/builders.h"
#include "protocols/cluster.h"

namespace tamp::protocols {
namespace {

struct AllToAllFixture : public ::testing::Test {
  sim::Simulation sim{7};
  net::Topology topo;

  Cluster::Options options() {
    Cluster::Options opts;
    opts.scheme = Scheme::kAllToAll;
    return opts;
  }
};

TEST_F(AllToAllFixture, ViewsConvergeToFullCluster) {
  auto layout = net::build_single_segment(topo, 10);
  net::Network net(sim, topo);
  Cluster cluster(sim, net, layout.hosts, options());
  cluster.start_all();
  sim.run_until(5 * sim::kSecond);
  EXPECT_TRUE(cluster.converged());
  for (size_t i = 0; i < cluster.size(); ++i) {
    EXPECT_EQ(cluster.daemon(i).view_size(), 10u);
  }
}

TEST_F(AllToAllFixture, FailureDetectedWithinKPeriods) {
  auto layout = net::build_single_segment(topo, 8);
  net::Network net(sim, topo);
  Cluster cluster(sim, net, layout.hosts, options());

  sim::Time detected = -1;
  net::HostId victim = layout.hosts[3];
  cluster.set_change_listener(
      [&](membership::NodeId subject, bool alive, sim::Time when) {
        if (subject == victim && !alive && detected < 0) detected = when;
      });
  cluster.start_all();
  sim.run_until(5 * sim::kSecond);
  ASSERT_TRUE(cluster.converged());

  const sim::Time kill_at = sim.now();
  cluster.kill(3);
  sim.run_until(kill_at + 20 * sim::kSecond);

  ASSERT_GE(detected, 0);
  sim::Duration detection = detected - kill_at;
  // Paper: detection time ~ max_losses * period (5 s), independent of size.
  EXPECT_GE(detection, 4 * sim::kSecond);
  EXPECT_LE(detection, 7 * sim::kSecond);
  EXPECT_TRUE(cluster.converged());
}

TEST_F(AllToAllFixture, JoinIsDiscovered) {
  auto layout = net::build_single_segment(topo, 6);
  net::Network net(sim, topo);
  Cluster cluster(sim, net, layout.hosts, options());
  cluster.start_all();
  cluster.kill(5);  // node 5 starts out dead
  sim.run_until(10 * sim::kSecond);
  EXPECT_EQ(cluster.daemon(0).view_size(), 5u);

  cluster.restart(5);
  sim.run_until(15 * sim::kSecond);
  EXPECT_TRUE(cluster.converged());
  EXPECT_EQ(cluster.daemon(0).view_size(), 6u);
}

TEST_F(AllToAllFixture, RestartedNodeHasNewIncarnation) {
  auto layout = net::build_single_segment(topo, 4);
  net::Network net(sim, topo);
  Cluster cluster(sim, net, layout.hosts, options());
  cluster.start_all();
  sim.run_until(5 * sim::kSecond);

  cluster.kill(2);
  sim.run_until(15 * sim::kSecond);
  cluster.restart(2);
  sim.run_until(25 * sim::kSecond);

  const auto* entry = cluster.daemon(0).table().find(layout.hosts[2]);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->data().incarnation, 2u);
}

TEST_F(AllToAllFixture, TrafficGrowsQuadratically) {
  auto measure = [&](int n) {
    sim::Simulation local_sim{7};
    net::Topology local_topo;
    auto layout = net::build_single_segment(local_topo, n);
    net::Network net(local_sim, local_topo);
    Cluster cluster(local_sim, net, layout.hosts, options());
    cluster.start_all();
    local_sim.run_until(5 * sim::kSecond);
    net.obs().metrics.reset(obs::Protocol::kNet);
    local_sim.run_until(15 * sim::kSecond);
    return net.obs().metrics.counter_value(obs::Protocol::kNet,
                                           "rx_wire_bytes");
  };
  uint64_t at10 = measure(10);
  uint64_t at20 = measure(20);
  // Doubling the cluster should ~quadruple aggregate received bytes.
  double ratio = static_cast<double>(at20) / static_cast<double>(at10);
  EXPECT_GT(ratio, 3.2);
  EXPECT_LT(ratio, 4.8);
}

TEST_F(AllToAllFixture, SurvivesModeratePacketLoss) {
  auto layout = net::build_single_segment(topo, 8);
  net::Network net(sim, topo);
  net.set_extra_loss(0.05);
  Cluster cluster(sim, net, layout.hosts, options());
  cluster.start_all();
  sim.run_until(20 * sim::kSecond);
  // 5% loss never produces 5 consecutive losses here: no false failures.
  EXPECT_TRUE(cluster.converged());
}

TEST_F(AllToAllFixture, StopUnbindsCleanly) {
  auto layout = net::build_single_segment(topo, 3);
  net::Network net(sim, topo);
  Cluster cluster(sim, net, layout.hosts, options());
  cluster.start_all();
  sim.run_until(2 * sim::kSecond);
  cluster.stop_all();
  cluster.start_all();  // re-binding must not trip the port-in-use check
  sim.run_until(8 * sim::kSecond);
  EXPECT_TRUE(cluster.converged());
}

// The scan timer fires only once some row can have expired. A crash must
// still be declared on the first 100 ms tick strictly past the last
// heartbeat plus max_losses periods, as a scan on every tick declares it.
// Two nodes keep "last heard" observable: every multicast the observer
// takes delivery of comes from its one peer.
TEST_F(AllToAllFixture, CrashDeclaredOnFirstScanTickPastTimeout) {
  auto layout = net::build_single_segment(topo, 2);
  net::Network net(sim, topo);
  trace_expiries(net);
  Cluster cluster(sim, net, layout.hosts, options());
  ChangeTimes heard(
      sim, net_counter(net, layout.hosts[0], "rx_multicast_messages"));
  cluster.start_all();
  sim.run_until(10 * sim::kSecond);
  ASSERT_TRUE(cluster.converged());

  cluster.kill(1);
  sim.run_until(sim.now() + 10 * sim::kSecond);

  const sim::Time declared =
      declared_dead_at(net, layout.hosts[0], layout.hosts[1], /*level=*/-1);
  ASSERT_GE(declared, 0);
  const AllToAllConfig config;
  const sim::Duration late =
      declared - heard.last() - config.max_losses * config.period;
  EXPECT_GT(late, 0);
  EXPECT_LE(late, kAllToAllScanInterval);
}

}  // namespace
}  // namespace tamp::protocols
