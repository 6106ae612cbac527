// Parameterized property suites run against all three membership schemes:
// the invariants every membership protocol must satisfy, swept over scheme
// x cluster shape x seed.
#include <gtest/gtest.h>

#include <tuple>

#include "net/builders.h"
#include "protocols/cluster.h"

namespace tamp::protocols {
namespace {

struct ClusterShape {
  int racks;
  int hosts_per_rack;
};

using Param = std::tuple<Scheme, ClusterShape, uint64_t /*seed*/>;

std::string param_name(const ::testing::TestParamInfo<Param>& info) {
  const auto& [scheme, shape, seed] = info.param;
  std::string name = scheme_name(scheme);
  for (auto& c : name) {
    if (c == '-') c = '_';
  }
  return name + "_" + std::to_string(shape.racks) + "x" +
         std::to_string(shape.hosts_per_rack) + "_s" + std::to_string(seed);
}

class MembershipProperty : public ::testing::TestWithParam<Param> {
 protected:
  void SetUp() override {
    const auto& [scheme, shape, seed] = GetParam();
    sim_ = std::make_unique<sim::Simulation>(seed);
    if (shape.racks == 1) {
      layout_ = net::build_single_segment(topo_, shape.hosts_per_rack);
    } else {
      net::RackedClusterParams params;
      params.racks = shape.racks;
      params.hosts_per_rack = shape.hosts_per_rack;
      layout_ = net::build_racked_cluster(topo_, params);
    }
    net_ = std::make_unique<net::Network>(*sim_, topo_);
    Cluster::Options opts;
    opts.scheme = scheme;
    cluster_ = std::make_unique<Cluster>(*sim_, *net_, layout_.hosts, opts);
  }

  // Generous time bound that covers gossip's slow convergence too.
  sim::Duration settle() const {
    return std::get<0>(GetParam()) == Scheme::kGossip ? 40 * sim::kSecond
                                                      : 15 * sim::kSecond;
  }
  sim::Duration detect() const {
    return std::get<0>(GetParam()) == Scheme::kGossip ? 60 * sim::kSecond
                                                      : 20 * sim::kSecond;
  }

  std::unique_ptr<sim::Simulation> sim_;
  net::Topology topo_;
  net::ClusterLayout layout_;
  std::unique_ptr<net::Network> net_;
  std::unique_ptr<Cluster> cluster_;
};

// Property: from a cold start, every node's view converges to exactly the
// live node set (completeness + accuracy).
TEST_P(MembershipProperty, ColdStartConverges) {
  cluster_->start_all();
  sim_->run_until(settle());
  EXPECT_TRUE(cluster_->converged())
      << cluster_->converged_count() << "/" << cluster_->size();
}

// Property: a single failure is (a) detected by everyone, (b) exactly once
// per observer, and (c) no live node is ever falsely removed.
TEST_P(MembershipProperty, SingleFailureDetectedExactlyOnceEach) {
  size_t victim_index = cluster_->size() / 2;
  net::HostId victim = layout_.hosts[victim_index];
  std::map<membership::NodeId, int> false_leaves;
  int victim_leaves = 0;
  cluster_->set_change_listener(
      [&](membership::NodeId subject, bool alive, sim::Time) {
        if (alive) return;
        if (subject == victim) {
          ++victim_leaves;
        } else {
          ++false_leaves[subject];
        }
      });
  cluster_->start_all();
  sim_->run_until(settle());
  ASSERT_TRUE(cluster_->converged());

  cluster_->kill(victim_index);
  sim_->run_until(sim_->now() + detect());

  EXPECT_TRUE(cluster_->converged());
  EXPECT_EQ(victim_leaves, static_cast<int>(cluster_->size()) - 1);
  EXPECT_TRUE(false_leaves.empty());
}

// Property: views never contain nodes that were never started.
TEST_P(MembershipProperty, NoPhantomMembers) {
  cluster_->start_all();
  sim_->run_until(settle());
  std::set<net::HostId> valid(layout_.hosts.begin(), layout_.hosts.end());
  for (size_t i = 0; i < cluster_->size(); ++i) {
    for (auto id : cluster_->daemon(i).table().node_ids()) {
      EXPECT_TRUE(valid.contains(id));
    }
  }
}

// Property: kill then restart returns the cluster to full membership, and
// the new incarnation is what survives.
TEST_P(MembershipProperty, ChurnRoundTrip) {
  cluster_->start_all();
  sim_->run_until(settle());
  ASSERT_TRUE(cluster_->converged());

  cluster_->kill(0);
  sim_->run_until(sim_->now() + detect());
  ASSERT_TRUE(cluster_->converged());

  cluster_->restart(0);
  sim_->run_until(sim_->now() + detect());
  EXPECT_TRUE(cluster_->converged());
  const auto* entry =
      cluster_->daemon(1).table().find(layout_.hosts[0]);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->data().incarnation, 2u);
}

// Property: under sustained moderate packet loss, no false failure
// detections occur (the schemes' loss tolerance parameters hold).
TEST_P(MembershipProperty, ModerateLossCausesNoFalseFailures) {
  int leaves = 0;
  cluster_->set_change_listener(
      [&](membership::NodeId, bool alive, sim::Time) {
        if (!alive) ++leaves;
      });
  cluster_->start_all();
  sim_->run_until(settle());
  ASSERT_TRUE(cluster_->converged());
  net_->set_extra_loss(0.03);
  sim_->run_until(sim_->now() + 30 * sim::kSecond);
  EXPECT_EQ(leaves, 0);
  EXPECT_TRUE(cluster_->converged());
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, MembershipProperty,
    ::testing::Combine(
        ::testing::Values(Scheme::kAllToAll, Scheme::kGossip,
                          Scheme::kHierarchical),
        ::testing::Values(ClusterShape{1, 8}, ClusterShape{3, 6}),
        ::testing::Values(1u, 2u)),
    param_name);

// A listener installed through the Cluster also hears the fresh daemon that
// restart() builds, under the revenant's index: the revenant reports each
// peer alive exactly once as its empty view fills, every other observer
// reports the revenant alive exactly once, and no survivor re-adds another.
TEST(ClusterListener, HearsRestartedDaemon) {
  for (Scheme scheme : {Scheme::kAllToAll, Scheme::kHierarchical}) {
    SCOPED_TRACE(scheme_name(scheme));
    sim::Simulation sim(7);
    net::Topology topo;
    net::RackedClusterParams params;
    params.racks = 2;
    params.hosts_per_rack = 4;
    auto layout = net::build_racked_cluster(topo, params);
    net::Network net(sim, topo);
    Cluster::Options opts;
    opts.scheme = scheme;
    Cluster cluster(sim, net, layout.hosts, opts);

    const size_t revenant_index = 2;
    const net::HostId revenant = layout.hosts[revenant_index];
    bool restarted = false;
    std::map<std::pair<size_t, membership::NodeId>, int> adds;
    cluster.set_change_listener([&](size_t observer,
                                    membership::NodeId subject, bool alive,
                                    sim::Time) {
      if (restarted && alive) ++adds[{observer, subject}];
    });
    cluster.start_all();
    sim.run_until(20 * sim::kSecond);
    ASSERT_TRUE(cluster.converged());

    cluster.kill(revenant_index);
    sim.run_until(50 * sim::kSecond);
    restarted = true;
    cluster.restart(revenant_index);
    sim.run_until(80 * sim::kSecond);

    ASSERT_TRUE(cluster.converged());
    for (size_t i = 0; i < layout.hosts.size(); ++i) {
      if (i == revenant_index) continue;
      EXPECT_EQ((adds[{revenant_index, layout.hosts[i]}]), 1)
          << "revenant hearing peer " << layout.hosts[i];
      EXPECT_EQ((adds[{i, revenant}]), 1) << "observer " << i;
    }
    // No survivor drops and re-adds another survivor meanwhile.
    for (const auto& [key, count] : adds) {
      if (key.first == revenant_index || key.second == revenant) continue;
      EXPECT_EQ(count, 0) << "observer " << key.first << " re-adding peer "
                          << key.second;
    }
  }
}

// Hierarchical-only sweep: formation must work on every topology family.
class HierTopologyProperty
    : public ::testing::TestWithParam<std::tuple<int /*racks*/,
                                                 int /*hosts*/, uint64_t>> {};

TEST_P(HierTopologyProperty, ConvergesAndElectsOneLeaderPerRack) {
  const auto& [racks, hosts, seed] = GetParam();
  sim::Simulation sim(seed);
  net::Topology topo;
  net::RackedClusterParams params;
  params.racks = racks;
  params.hosts_per_rack = hosts;
  auto layout = net::build_racked_cluster(topo, params);
  net::Network net(sim, topo);
  Cluster::Options opts;
  opts.scheme = Scheme::kHierarchical;
  Cluster cluster(sim, net, layout.hosts, opts);
  cluster.start_all();
  sim.run_until(15 * sim::kSecond);

  EXPECT_TRUE(cluster.converged())
      << cluster.converged_count() << "/" << cluster.size();
  for (const auto& rack : layout.racks) {
    int leaders = 0;
    for (net::HostId h : rack) {
      if (static_cast<HierDaemon*>(cluster.daemon_for(h))->is_leader(0)) {
        ++leaders;
      }
    }
    EXPECT_EQ(leaders, 1);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, HierTopologyProperty,
    ::testing::Combine(::testing::Values(2, 4, 8), ::testing::Values(3, 10),
                       ::testing::Values(3u, 4u)));

}  // namespace
}  // namespace tamp::protocols
