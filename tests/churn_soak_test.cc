// Randomized churn soak: a scripted adversary kills and restarts random
// nodes (sometimes under packet loss) for a long stretch of virtual time;
// after a quiet period every surviving view must equal the live set, no
// node may ever be counted dead twice in a row without a rejoin between,
// each node's notifications must add up to its view, and leadership
// invariants must hold. Parameterized over seeds and cluster shapes — each
// seed generates a different adversary schedule.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <ranges>
#include <set>
#include <vector>

#include "net/builders.h"
#include "protocols/cluster.h"

namespace tamp::protocols {
namespace {

using Param = std::tuple<uint64_t /*seed*/, int /*racks*/, int /*hosts*/,
                         double /*loss*/>;

class ChurnSoak : public ::testing::TestWithParam<Param> {};

TEST_P(ChurnSoak, EventuallyConvergesWithConsistentNotifications) {
  const auto& [seed, racks, hosts_per_rack, loss] = GetParam();
  sim::Simulation sim(seed);
  net::Topology topo;
  net::RackedClusterParams params;
  params.racks = racks;
  params.hosts_per_rack = hosts_per_rack;
  auto layout = net::build_racked_cluster(topo, params);
  net::Network net(sim, topo);
  Cluster::Options opts;
  opts.scheme = Scheme::kHierarchical;
  Cluster cluster(sim, net, layout.hosts, opts);

  // Notification sanity: per (observer, subject), alive-state transitions
  // must alternate (no double-leave, no double-join). A restart builds a
  // fresh daemon whose view starts empty, so that observer's beliefs are
  // cleared first.
  std::vector<std::map<membership::NodeId, bool>> believed_alive(
      cluster.size());
  int violations = 0;
  cluster.set_change_listener([&](size_t observer, membership::NodeId subject,
                                  bool alive, sim::Time) {
    auto it = believed_alive[observer].try_emplace(subject, false).first;
    if (it->second == alive) ++violations;
    it->second = alive;
  });
  auto restart = [&](size_t i) {
    believed_alive[i].clear();
    cluster.restart(i);
  };

  cluster.start_all();
  sim.run_until(15 * sim::kSecond);
  ASSERT_TRUE(cluster.converged());
  net.set_extra_loss(loss);

  // Adversary: 12 random churn actions, 4-9 s apart, touching random
  // nodes; at most half the cluster may be down at once.
  util::Rng adversary(seed * 2654435761u + 7);
  std::set<size_t> down;
  for (int action = 0; action < 12; ++action) {
    sim.run_until(sim.now() +
                  sim::kSecond * adversary.uniform_int(4, 9));
    if (!down.empty() && adversary.bernoulli(0.45)) {
      // Restart a random down node.
      auto it = down.begin();
      std::advance(it, static_cast<long>(
                           adversary.uniform_u64(down.size())));
      size_t index = *it;
      down.erase(it);
      restart(index);
    } else if (down.size() < cluster.size() / 2) {
      size_t index = static_cast<size_t>(
          adversary.uniform_u64(cluster.size()));
      if (!down.contains(index)) {
        cluster.kill(index);
        down.insert(index);
      }
    }
  }

  // Quiet period: loss off, restarts of everything still down, then let
  // the protocol settle (tombstones + anti-entropy horizon).
  net.set_extra_loss(0.0);
  for (size_t index : down) restart(index);
  sim.run_until(sim.now() + 100 * sim::kSecond);

  EXPECT_TRUE(cluster.converged())
      << cluster.converged_count() << "/" << cluster.size() << " seed "
      << seed;
  EXPECT_EQ(violations, 0);
  // Every observer was heard, each revenant included: each ends believing
  // exactly the other nodes alive.
  for (size_t i = 0; i < cluster.size(); ++i) {
    EXPECT_EQ(std::ranges::count(believed_alive[i] | std::views::values, true),
              static_cast<long>(cluster.size() - 1))
        << "observer " << i;
  }

  // Leadership invariants after the dust settles: exactly one level-0
  // leader audible per node, and every node agrees with its own group.
  for (size_t i = 0; i < cluster.size(); ++i) {
    auto* daemon = cluster.hier_daemon(i);
    ASSERT_TRUE(daemon->running());
    EXPECT_TRUE(daemon->joined(0));
    EXPECT_NE(daemon->leader_of(0), membership::kInvalidNode)
        << "node " << daemon->self() << " has no level-0 leader";
    // Pending-exchange bookkeeping must not leak across churn: per level,
    // at most one outstanding sync per known member plus one bootstrap
    // slot. (The old last_sync_request map grew monotonically here.)
    for (int level = 0; level < opts.hier.max_ttl; ++level) {
      EXPECT_LE(daemon->pending_exchanges(level),
                cluster.size() + 1)
          << "node " << daemon->self() << " leaked pending exchanges at level "
          << level;
    }
  }
}

std::string soak_name(const ::testing::TestParamInfo<Param>& info) {
  const auto& [seed, racks, hosts, loss] = info.param;
  return "s" + std::to_string(seed) + "_" + std::to_string(racks) + "x" +
         std::to_string(hosts) + "_loss" +
         std::to_string(static_cast<int>(loss * 100));
}

INSTANTIATE_TEST_SUITE_P(
    Adversaries, ChurnSoak,
    ::testing::Values(Param{11, 2, 6, 0.0}, Param{12, 3, 5, 0.0},
                      Param{13, 2, 8, 0.02}, Param{14, 4, 4, 0.02},
                      Param{15, 3, 7, 0.05}, Param{16, 2, 10, 0.05}),
    soak_name);

}  // namespace
}  // namespace tamp::protocols
