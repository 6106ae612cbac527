#include <gtest/gtest.h>

#include "net/builders.h"
#include "service/multidc.h"
#include "service/search.h"

namespace tamp::service {
namespace {

struct SearchFixture : public ::testing::Test {
  sim::Simulation sim{61};
  net::Topology topo;
  net::ClusterLayout layout;
  std::unique_ptr<net::Network> net;
  std::unique_ptr<protocols::Cluster> cluster;
  std::unique_ptr<SearchDeployment> deployment;

  void build(int hosts) {
    layout = net::build_single_segment(topo, hosts);
    net = std::make_unique<net::Network>(sim, topo);
    protocols::Cluster::Options opts;
    opts.scheme = protocols::Scheme::kHierarchical;
    opts.hier.max_ttl = 1;
    cluster = std::make_unique<protocols::Cluster>(sim, *net, layout.hosts,
                                                   opts);
    cluster->start_all();
    SearchParams params;
    deployment = std::make_unique<SearchDeployment>(sim, *net, *cluster,
                                                    params);
    deployment->start();
    sim.run_until(10 * sim::kSecond);
    ASSERT_TRUE(cluster->converged());
  }
};

TEST_F(SearchFixture, SingleQueryCompletes) {
  build(24);
  QueryResult got;
  bool done = false;
  deployment->gateways()[0]->query([&](const QueryResult& result) {
    got = result;
    done = true;
  });
  sim.run_until(sim.now() + 2 * sim::kSecond);
  ASSERT_TRUE(done);
  EXPECT_TRUE(got.ok);
  EXPECT_FALSE(got.used_proxy);
  // Two phases of ~10ms services plus polling overhead.
  EXPECT_GT(got.latency, 5 * sim::kMillisecond);
  EXPECT_LT(got.latency, 300 * sim::kMillisecond);
}

TEST_F(SearchFixture, WorkloadSustainsThroughput) {
  build(24);
  SearchWorkload workload(sim, deployment->gateways(), 40.0);
  workload.run_for(20 * sim::kSecond);
  sim.run_until(sim.now() + 22 * sim::kSecond);

  EXPECT_GT(workload.total_completed(), 600u);
  EXPECT_EQ(workload.total_failed(), 0u);
  // Mean completion rate tracks the arrival rate (open loop, ~40 qps).
  double seconds = 20.0;
  double qps = static_cast<double>(workload.total_completed()) / seconds;
  EXPECT_NEAR(qps, 40.0, 6.0);
  EXPECT_LT(workload.latencies().median(), 150.0);  // ms
}

TEST_F(SearchFixture, SurvivesSingleDocReplicaFailure) {
  build(24);
  // Kill one doc node; remaining replicas of that partition absorb the
  // traffic after (and even during) failure detection.
  size_t victim = deployment->doc_nodes()[0];
  cluster->kill(victim);

  SearchWorkload workload(sim, deployment->gateways(), 20.0);
  workload.run_for(15 * sim::kSecond);
  sim.run_until(sim.now() + 18 * sim::kSecond);
  EXPECT_EQ(workload.total_failed(), 0u);
  EXPECT_GT(workload.total_completed(), 200u);
}

// Cluster::restart replaces the victim's daemon; re-deploying its providers
// must tear down the old provider without touching the destroyed daemon.
TEST_F(SearchFixture, RestartedDocReplicaServesAgain) {
  build(24);
  size_t victim = deployment->doc_nodes()[0];
  cluster->kill(victim);
  sim.run_until(sim.now() + 5 * sim::kSecond);
  cluster->restart(victim);
  deployment->restart_providers_on(victim);
  sim.run_until(sim.now() + 10 * sim::kSecond);

  SearchWorkload workload(sim, deployment->gateways(), 20.0);
  workload.run_for(10 * sim::kSecond);
  sim.run_until(sim.now() + 12 * sim::kSecond);
  EXPECT_EQ(workload.total_failed(), 0u);
  EXPECT_GT(workload.total_completed(), 150u);
}

TEST(SearchMultiDc, DocFailureFailsOverToRemoteDatacenter) {
  sim::Simulation sim(71);
  MultiDcParams params = default_two_dc_params();
  MultiDcHarness harness(sim, params);

  SearchParams search;
  search.replicas = 2;
  SearchDeployment east(sim, harness.network(), harness.cluster(0), search);
  SearchDeployment west(sim, harness.network(), harness.cluster(1), search);

  harness.start();
  east.start();
  west.start();
  sim.run_until(15 * sim::kSecond);
  ASSERT_TRUE(harness.cluster(0).converged());
  ASSERT_TRUE(harness.cluster(1).converged());

  // Baseline: local query in DC 0 is fast.
  QueryResult local;
  bool local_done = false;
  east.gateways()[0]->query([&](const QueryResult& r) {
    local = r;
    local_done = true;
  });
  sim.run_until(sim.now() + 2 * sim::kSecond);
  ASSERT_TRUE(local_done);
  ASSERT_TRUE(local.ok);
  EXPECT_LT(local.latency, 100 * sim::kMillisecond);

  // Kill the whole doc service in DC 0.
  std::set<size_t> doc_nodes(east.doc_nodes().begin(), east.doc_nodes().end());
  for (size_t node : doc_nodes) harness.cluster(0).kill(node);
  // Wait past detection so the directory is clean.
  sim.run_until(sim.now() + 10 * sim::kSecond);

  QueryResult failover;
  bool failover_done = false;
  east.gateways()[0]->query([&](const QueryResult& r) {
    failover = r;
    failover_done = true;
  });
  sim.run_until(sim.now() + 5 * sim::kSecond);
  ASSERT_TRUE(failover_done);
  EXPECT_TRUE(failover.ok);
  EXPECT_TRUE(failover.used_proxy);
  // Doc phase crossed the WAN: ~2+ RTTs at 90 ms (paper: >200 ms responses).
  EXPECT_GT(failover.latency, 180 * sim::kMillisecond);
}

}  // namespace
}  // namespace tamp::service
