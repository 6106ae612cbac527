// Event budget of a quiet cluster: the events each daemon pops per simulated
// second once membership has settled. A membership scan that fires on every
// grid tick whether or not any deadline has passed shows up here first: it
// is most of a steady state's events.
#include <gtest/gtest.h>

#include <cstdio>

#include "net/builders.h"
#include "protocols/cluster.h"

namespace tamp::protocols {
namespace {

// Events per node per simulated second over 60 s of a converged 12-node
// racked cluster (3 racks of 4), measured after 30 s of formation.
double steady_state_events_per_node_s(Scheme scheme) {
  sim::Simulation sim{1};
  net::Topology topo;
  net::RackedClusterParams params;
  params.racks = 3;
  params.hosts_per_rack = 4;
  const auto layout = net::build_racked_cluster(topo, params);
  net::Network net(sim, topo);
  Cluster::Options options;
  options.scheme = scheme;
  Cluster cluster(sim, net, layout.hosts, options);
  cluster.start_all();
  sim.run_until(30 * sim::kSecond);
  EXPECT_TRUE(cluster.converged());
  const uint64_t before = sim.events_executed();
  sim.run_until(90 * sim::kSecond);
  EXPECT_TRUE(cluster.converged());
  const double rate = static_cast<double>(sim.events_executed() - before) /
                      static_cast<double>(layout.hosts.size()) / 60.0;
  std::printf("%s: %.2f events per node per simulated second\n",
              scheme_name(scheme), rate);
  return rate;
}

// Each bound sits between the rate of a scan polled every tick (first
// number) and of a scan fired on deadlines (second).
TEST(EventBudget, AllToAllSteadyState) {
  // Polled 100 ms scan: 13.00. Deadline scan: 3.49.
  EXPECT_LT(steady_state_events_per_node_s(Scheme::kAllToAll), 8.0);
}

TEST(EventBudget, GossipSteadyState) {
  // Polled 200 ms scan: 7.00. Deadline scan: 2.21.
  EXPECT_LT(steady_state_events_per_node_s(Scheme::kGossip), 4.5);
}

TEST(EventBudget, HierarchicalSteadyState) {
  // Polled 100 ms scan: 12.30. Deadline scan: 2.84.
  EXPECT_LT(steady_state_events_per_node_s(Scheme::kHierarchical), 7.0);
}

}  // namespace
}  // namespace tamp::protocols
