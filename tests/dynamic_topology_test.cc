// Runtime topology mutation end-to-end: the hierarchical daemons must
// re-scope their TTL groups when the network changes shape under them —
// host migration, router power cycles, new links — and the oracle's
// scope-reconvergence invariant (11) must grade the final shape on the
// canned router-flap / rewire-heal chaos plans.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "net/builders.h"
#include "protocols/cluster.h"
#include "sim/scenario.h"

namespace tamp::protocols {
namespace {

bool contains(const std::vector<membership::NodeId>& members,
              membership::NodeId node) {
  return std::find(members.begin(), members.end(), node) != members.end();
}

// A migrated host must leave its old level-0 group and show up in the new
// segment's group — on both sides — while staying in everyone's full
// directory throughout (it never died).
TEST(DynamicTopology, MigrationRescopesLevelZeroGroups) {
  sim::Simulation sim{42};
  net::Topology topo;
  net::RackedClusterParams params;
  params.racks = 2;
  params.hosts_per_rack = 4;
  net::ClusterLayout layout = net::build_racked_cluster(topo, params);
  net::Network net(sim, topo);

  Cluster::Options opts;
  opts.scheme = Scheme::kHierarchical;
  opts.hier.refresh_interval = 10 * sim::kSecond;
  Cluster cluster(sim, net, layout.hosts, opts);
  cluster.start_all();
  sim.run_until(15 * sim::kSecond);
  ASSERT_TRUE(cluster.converged());

  net::HostId mover = layout.racks[0][3];
  topo.migrate_host(mover, layout.rack_switches[1]);
  sim.run_until(sim.now() + 25 * sim::kSecond);

  auto* moved = static_cast<HierDaemon*>(cluster.daemon_for(mover));
  ASSERT_NE(moved, nullptr);
  std::vector<membership::NodeId> group = moved->group_members(0);
  for (net::HostId h : layout.racks[1]) {
    EXPECT_TRUE(contains(group, h)) << "mover missing new segment peer " << h;
  }
  for (net::HostId h : layout.racks[0]) {
    if (h == mover) continue;
    EXPECT_FALSE(contains(group, h)) << "mover still tracks old peer " << h;
    auto* d = static_cast<HierDaemon*>(cluster.daemon_for(h));
    EXPECT_FALSE(contains(d->group_members(0), mover))
        << "old segment peer " << h << " still tracks the mover at level 0";
  }
  // The epoch watch (not a timeout) did the pruning on the mover: it saw
  // every old-rack peer fall out of TTL-1 scope in one reaction.
  EXPECT_GE(net.obs().metrics.counter_value(obs::Protocol::kHier,
                                            "topology_rescopes", mover),
            3u);
  // Full-cluster membership is unaffected — the mover stayed alive.
  EXPECT_TRUE(cluster.converged())
      << cluster.converged_count() << "/" << cluster.size();
}

// The topology reaction is always on: a cluster built from default options
// re-scopes a migrated host's level-0 groups on both sides within two
// heartbeat periods, long before any failure timeout could.
TEST(DynamicTopology, DefaultConfigReactsWithinTwoPeriods) {
  sim::Simulation sim{42};
  net::Topology topo;
  net::RackedClusterParams params;
  params.racks = 2;
  params.hosts_per_rack = 4;
  net::ClusterLayout layout = net::build_racked_cluster(topo, params);
  net::Network net(sim, topo);

  const Cluster::Options opts;
  Cluster cluster(sim, net, layout.hosts, opts);
  cluster.start_all();
  sim.run_until(15 * sim::kSecond);
  ASSERT_TRUE(cluster.converged());

  net::HostId mover = layout.racks[0][3];
  topo.migrate_host(mover, layout.rack_switches[1]);
  sim.run_until(sim.now() + 2 * opts.hier.period);

  EXPECT_GT(net.obs().metrics.counter_value(obs::Protocol::kHier,
                                            "topology_rescopes", mover),
            0u);
  auto* moved = static_cast<HierDaemon*>(cluster.daemon_for(mover));
  ASSERT_NE(moved, nullptr);
  std::vector<membership::NodeId> group = moved->group_members(0);
  for (net::HostId h : layout.racks[1]) {
    EXPECT_TRUE(contains(group, h)) << "mover missing new segment peer " << h;
  }
  for (net::HostId h : layout.racks[0]) {
    if (h == mover) continue;
    EXPECT_FALSE(contains(group, h)) << "mover still tracks old peer " << h;
    auto* d = static_cast<HierDaemon*>(cluster.daemon_for(h));
    EXPECT_FALSE(contains(d->group_members(0), mover))
        << "old segment peer " << h << " still tracks the mover at level 0";
  }
  EXPECT_TRUE(cluster.converged())
      << cluster.converged_count() << "/" << cluster.size();
}

// Crashing the core router must *not* make anyone declare cross-rack peers
// dead-and-gone forever: after the router powers back, the directory and
// the level groups must both return to the pre-crash shape.
TEST(DynamicTopology, RouterPowerCycleReformsHierarchy) {
  sim::Simulation sim{7};
  net::Topology topo;
  net::RackedClusterParams params;
  params.racks = 3;
  params.hosts_per_rack = 3;
  net::ClusterLayout layout = net::build_racked_cluster(topo, params);
  net::Network net(sim, topo);

  Cluster::Options opts;
  opts.scheme = Scheme::kHierarchical;
  opts.hier.refresh_interval = 10 * sim::kSecond;
  Cluster cluster(sim, net, layout.hosts, opts);
  cluster.start_all();
  sim.run_until(15 * sim::kSecond);
  ASSERT_TRUE(cluster.converged());

  topo.set_device_up(layout.routers[0], false);
  sim.run_until(sim.now() + 20 * sim::kSecond);
  // Dark phase: each rack's level-0 group is intact (intra-rack paths never
  // died), but no daemon may track a cross-rack peer in any group.
  for (size_t rack = 0; rack < layout.racks.size(); ++rack) {
    for (net::HostId h : layout.racks[rack]) {
      auto* d = static_cast<HierDaemon*>(cluster.daemon_for(h));
      std::vector<membership::NodeId> group = d->group_members(0);
      for (net::HostId peer : layout.racks[rack]) {
        if (peer != h) {
          EXPECT_TRUE(contains(group, peer));
        }
      }
      for (size_t other = 0; other < layout.racks.size(); ++other) {
        if (other == rack) continue;
        for (net::HostId peer : layout.racks[other]) {
          EXPECT_FALSE(contains(group, peer))
              << h << " tracks cross-rack " << peer << " through a dead core";
        }
      }
    }
  }

  topo.set_device_up(layout.routers[0], true);
  sim.run_until(sim.now() + 30 * sim::kSecond);
  EXPECT_TRUE(cluster.converged())
      << cluster.converged_count() << "/" << cluster.size()
      << " after router recovery";
  // The level-1 tree re-forms: exactly one root leader spanning the racks.
  int level1_leaders = 0;
  for (net::HostId h : layout.hosts) {
    auto* d = static_cast<HierDaemon*>(cluster.daemon_for(h));
    if (d->is_leader(1)) ++level1_leaders;
  }
  EXPECT_EQ(level1_leaders, 1);
}

// The canned mutation plans, end-to-end through the scenario runner with
// the oracle grading all eleven invariants (scope reconvergence included).
TEST(DynamicTopology, RouterFlapScenarioPassesEveryShape) {
  for (chaos::ShapeKind shape : chaos::kAllShapeKinds) {
    chaos::ScenarioSpec spec;
    spec.scheme = Scheme::kHierarchical;
    spec.shape = shape;
    spec.plan = chaos::PlanKind::kRouterFlap;
    spec.seed = 2;
    chaos::ScenarioResult result = chaos::run_scenario(spec);
    EXPECT_TRUE(result.passed) << result.name << "\n" << result.report;
    EXPECT_GT(result.oracle_checks, 0u);
  }
}

TEST(DynamicTopology, RewireHealScenarioPassesEveryShape) {
  for (chaos::ShapeKind shape : chaos::kAllShapeKinds) {
    chaos::ScenarioSpec spec;
    spec.scheme = Scheme::kHierarchical;
    spec.shape = shape;
    spec.plan = chaos::PlanKind::kRewireHeal;
    spec.seed = 3;
    chaos::ScenarioResult result = chaos::run_scenario(spec);
    EXPECT_TRUE(result.passed) << result.name << "\n" << result.report;
    EXPECT_GT(result.oracle_checks, 0u);
  }
}

}  // namespace
}  // namespace tamp::protocols
