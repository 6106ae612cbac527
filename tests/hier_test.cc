#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "expiry_probe.h"
#include "net/builders.h"
#include "protocols/cluster.h"

namespace tamp::protocols {
namespace {

struct HierFixture : public ::testing::Test {
  sim::Simulation sim{23};
  net::Topology topo;

  Cluster::Options options(int max_ttl = 4) {
    Cluster::Options opts;
    opts.scheme = Scheme::kHierarchical;
    opts.hier.max_ttl = max_ttl;
    return opts;
  }

  HierDaemon* leader_of_level0_group(Cluster& cluster,
                                     const std::vector<net::HostId>& rack) {
    for (net::HostId h : rack) {
      auto* d = static_cast<HierDaemon*>(cluster.daemon_for(h));
      if (d != nullptr && d->is_leader(0)) return d;
    }
    return nullptr;
  }
};

TEST_F(HierFixture, SingleSegmentConverges) {
  auto layout = net::build_single_segment(topo, 10);
  net::Network net(sim, topo);
  Cluster cluster(sim, net, layout.hosts, options(1));
  cluster.start_all();
  sim.run_until(10 * sim::kSecond);
  EXPECT_TRUE(cluster.converged());
}

TEST_F(HierFixture, SingleSegmentElectsExactlyOneLeader) {
  auto layout = net::build_single_segment(topo, 10);
  net::Network net(sim, topo);
  Cluster cluster(sim, net, layout.hosts, options(1));
  cluster.start_all();
  sim.run_until(10 * sim::kSecond);

  int leaders = 0;
  for (size_t i = 0; i < cluster.size(); ++i) {
    if (cluster.hier_daemon(i)->is_leader(0)) ++leaders;
  }
  EXPECT_EQ(leaders, 1);
  // Bully: lowest id wins.
  auto lowest = *std::min_element(layout.hosts.begin(), layout.hosts.end());
  EXPECT_TRUE(
      static_cast<HierDaemon*>(cluster.daemon_for(lowest))->is_leader(0));
}

TEST_F(HierFixture, RackedClusterFormsTwoLevels) {
  net::RackedClusterParams params;
  params.racks = 5;
  params.hosts_per_rack = 4;
  auto layout = net::build_racked_cluster(topo, params);
  net::Network net(sim, topo);
  Cluster cluster(sim, net, layout.hosts, options());
  cluster.start_all();
  sim.run_until(15 * sim::kSecond);

  EXPECT_TRUE(cluster.converged());

  // Exactly one level-0 leader per rack.
  std::vector<HierDaemon*> rack_leaders;
  for (const auto& rack : layout.racks) {
    int leaders = 0;
    for (net::HostId h : rack) {
      auto* d = static_cast<HierDaemon*>(cluster.daemon_for(h));
      if (d->is_leader(0)) {
        ++leaders;
        rack_leaders.push_back(d);
      }
      // Everyone agrees on who leads the rack.
      EXPECT_NE(d->leader_of(0), membership::kInvalidNode);
    }
    EXPECT_EQ(leaders, 1);
  }
  ASSERT_EQ(rack_leaders.size(), 5u);

  // Rack leaders all join level 1, and exactly one of them leads it.
  int level1_leaders = 0;
  for (auto* d : rack_leaders) {
    EXPECT_TRUE(d->joined(1));
    EXPECT_EQ(d->group_members(1).size(), 4u);  // the other four leaders
    if (d->is_leader(1)) ++level1_leaders;
  }
  EXPECT_EQ(level1_leaders, 1);

  // Non-leaders never join level 1.
  for (size_t i = 0; i < cluster.size(); ++i) {
    auto* d = cluster.hier_daemon(i);
    if (!d->is_leader(0)) {
      EXPECT_FALSE(d->joined(1));
    }
  }
}

TEST_F(HierFixture, FailureOfRegularNodeConvergesClusterWide) {
  net::RackedClusterParams params;
  params.racks = 3;
  params.hosts_per_rack = 5;
  auto layout = net::build_racked_cluster(topo, params);
  net::Network net(sim, topo);
  Cluster cluster(sim, net, layout.hosts, options());

  // Pick a non-leader victim in rack 0 (highest id in the rack is safe:
  // the bully elects the lowest).
  net::HostId victim = *std::max_element(layout.racks[0].begin(),
                                         layout.racks[0].end());
  size_t victim_index = 0;
  for (size_t i = 0; i < layout.hosts.size(); ++i) {
    if (layout.hosts[i] == victim) victim_index = i;
  }

  sim::Time first = -1, last = -1;
  int leaves = 0;
  cluster.set_change_listener(
      [&](membership::NodeId subject, bool alive, sim::Time when) {
        if (subject == victim && !alive) {
          if (first < 0) first = when;
          last = when;
          ++leaves;
        }
      });

  cluster.start_all();
  sim.run_until(15 * sim::kSecond);
  ASSERT_TRUE(cluster.converged());

  const sim::Time kill_at = sim.now();
  cluster.kill(victim_index);
  sim.run_until(kill_at + 20 * sim::kSecond);

  EXPECT_TRUE(cluster.converged());
  EXPECT_EQ(leaves, 14);  // every survivor exactly once
  // Local detection ~ max_losses * period; remote nodes learn within
  // ~tree-propagation of that.
  EXPECT_GE(first - kill_at, 4 * sim::kSecond);
  EXPECT_LE(first - kill_at, 7 * sim::kSecond);
  EXPECT_LE(last - first, 2 * sim::kSecond);
}

TEST_F(HierFixture, JoinPropagatesClusterWide) {
  net::RackedClusterParams params;
  params.racks = 3;
  params.hosts_per_rack = 4;
  auto layout = net::build_racked_cluster(topo, params);
  net::Network net(sim, topo);
  Cluster cluster(sim, net, layout.hosts, options());
  cluster.start_all();
  cluster.kill(11);  // a rack-2 node is down from the start
  sim.run_until(15 * sim::kSecond);
  EXPECT_TRUE(cluster.converged());

  cluster.restart(11);
  sim.run_until(30 * sim::kSecond);
  EXPECT_TRUE(cluster.converged());
  // Cross-rack observers see the restarted incarnation.
  const auto* seen = cluster.daemon(0).table().find(layout.hosts[11]);
  ASSERT_NE(seen, nullptr);
  EXPECT_EQ(seen->data().incarnation, 2u);
}

TEST_F(HierFixture, Level0LeaderDeathBackupTakesOver) {
  net::RackedClusterParams params;
  params.racks = 3;
  params.hosts_per_rack = 5;
  auto layout = net::build_racked_cluster(topo, params);
  net::Network net(sim, topo);
  Cluster cluster(sim, net, layout.hosts, options());
  cluster.start_all();
  sim.run_until(15 * sim::kSecond);
  ASSERT_TRUE(cluster.converged());

  HierDaemon* leader = leader_of_level0_group(cluster, layout.racks[1]);
  ASSERT_NE(leader, nullptr);
  net::HostId dead_leader = leader->self();
  size_t leader_index = 0;
  for (size_t i = 0; i < layout.hosts.size(); ++i) {
    if (layout.hosts[i] == dead_leader) leader_index = i;
  }

  cluster.kill(leader_index);
  sim.run_until(sim.now() + 25 * sim::kSecond);

  EXPECT_TRUE(cluster.converged());
  HierDaemon* new_leader = leader_of_level0_group(cluster, layout.racks[1]);
  ASSERT_NE(new_leader, nullptr);
  EXPECT_NE(new_leader->self(), dead_leader);
  EXPECT_TRUE(new_leader->joined(1));
}

TEST_F(HierFixture, BothLeaderAndBackupDieElectionRecovers) {
  net::RackedClusterParams params;
  params.racks = 2;
  params.hosts_per_rack = 6;
  auto layout = net::build_racked_cluster(topo, params);
  net::Network net(sim, topo);
  Cluster cluster(sim, net, layout.hosts, options());
  cluster.start_all();
  sim.run_until(15 * sim::kSecond);
  ASSERT_TRUE(cluster.converged());

  HierDaemon* leader = leader_of_level0_group(cluster, layout.racks[0]);
  ASSERT_NE(leader, nullptr);
  net::HostId backup = leader->backup_of(0);
  ASSERT_NE(backup, membership::kInvalidNode);

  auto index_of = [&](net::HostId h) {
    return static_cast<size_t>(
        std::find(layout.hosts.begin(), layout.hosts.end(), h) -
        layout.hosts.begin());
  };
  cluster.kill(index_of(leader->self()));
  cluster.kill(index_of(backup));
  sim.run_until(sim.now() + 30 * sim::kSecond);

  EXPECT_TRUE(cluster.converged());
  HierDaemon* new_leader = leader_of_level0_group(cluster, layout.racks[0]);
  ASSERT_NE(new_leader, nullptr);
}

TEST_F(HierFixture, DeepTreeFormsThreeLevels) {
  auto layout = net::build_router_tree(topo, 2, 1, 3);
  // Two leaf segments under each of two depth-1 routers... branching=2,
  // depth=1: root router with 2 leaf routers, each with a 3-host segment.
  // Cross-segment TTL: leaf,root,leaf = 3 routers -> TTL 4.
  net::Network net(sim, topo);
  Cluster cluster(sim, net, layout.hosts, options(4));
  cluster.start_all();
  sim.run_until(20 * sim::kSecond);
  EXPECT_TRUE(cluster.converged());

  // Each segment has a level-0 leader; those leaders can only hear each
  // other at TTL 4 => they meet at level 3 (channels for levels 1,2 are
  // singleton groups they lead trivially).
  int top_leaders = 0;
  for (size_t i = 0; i < cluster.size(); ++i) {
    auto* d = cluster.hier_daemon(i);
    if (d->is_leader(0)) {
      EXPECT_TRUE(d->joined(3));
      EXPECT_EQ(d->group_members(3).size(), 1u);
      if (d->is_leader(3)) ++top_leaders;
    }
  }
  EXPECT_EQ(top_leaders, 1);
}

TEST_F(HierFixture, Fig4OverlappingGroupsStayConsistent) {
  auto layout = net::build_fig4_overlap(topo, 2);
  net::Network net(sim, topo);
  Cluster cluster(sim, net, layout.all, options(4));
  cluster.start_all();
  sim.run_until(20 * sim::kSecond);
  EXPECT_TRUE(cluster.converged());

  // Kill a node in segment C; B's nodes are 4 TTL-hops away and can only
  // learn through the overlap leader(s).
  net::HostId victim = layout.segment_c[1];
  size_t victim_index = static_cast<size_t>(
      std::find(layout.all.begin(), layout.all.end(), victim) -
      layout.all.begin());
  cluster.kill(victim_index);
  sim.run_until(sim.now() + 20 * sim::kSecond);
  EXPECT_TRUE(cluster.converged());
  for (net::HostId h : layout.segment_b) {
    EXPECT_FALSE(cluster.daemon_for(h)->table().contains(victim));
  }
}

TEST_F(HierFixture, NoTwoLeadersSeeEachOtherOnOneChannel) {
  auto layout = net::build_fig4_overlap(topo, 2);
  net::Network net(sim, topo);
  Cluster cluster(sim, net, layout.all, options(4));
  cluster.start_all();
  sim.run_until(20 * sim::kSecond);

  // Paper invariant: on any channel, a leader never hears another leader.
  for (size_t i = 0; i < cluster.size(); ++i) {
    auto* a = cluster.hier_daemon(i);
    for (int level = 0; level < 4; ++level) {
      if (!a->is_leader(level)) continue;
      for (size_t j = 0; j < cluster.size(); ++j) {
        if (i == j) continue;
        auto* b = cluster.hier_daemon(j);
        if (!b->is_leader(level)) continue;
        int ttl = topo.ttl_required(a->self(), b->self());
        EXPECT_GT(ttl, level + 1)
            << "leaders " << a->self() << " and " << b->self()
            << " can hear each other at level " << level;
      }
    }
  }
}

TEST_F(HierFixture, UpdateLossRecoveredByPiggyback) {
  net::RackedClusterParams params;
  params.racks = 3;
  params.hosts_per_rack = 5;
  auto layout = net::build_racked_cluster(topo, params);
  net::Network net(sim, topo);
  Cluster cluster(sim, net, layout.hosts, options());
  cluster.start_all();
  sim.run_until(15 * sim::kSecond);
  ASSERT_TRUE(cluster.converged());

  // Significant loss during a churn phase: kill + restart several nodes.
  net.set_extra_loss(0.15);
  cluster.kill(4);
  cluster.kill(9);
  sim.run_until(sim.now() + 15 * sim::kSecond);
  cluster.restart(4);
  sim.run_until(sim.now() + 15 * sim::kSecond);
  net.set_extra_loss(0.0);
  sim.run_until(sim.now() + 20 * sim::kSecond);
  EXPECT_TRUE(cluster.converged());
}

TEST_F(HierFixture, HeartbeatTrafficStaysLocal) {
  net::RackedClusterParams params;
  params.racks = 5;
  params.hosts_per_rack = 20;
  auto layout = net::build_racked_cluster(topo, params);
  net::Network net(sim, topo);
  Cluster cluster(sim, net, layout.hosts, options());
  cluster.start_all();
  sim.run_until(15 * sim::kSecond);
  ASSERT_TRUE(cluster.converged());
  net.obs().metrics.reset(obs::Protocol::kNet);
  sim.run_until(25 * sim::kSecond);

  // Per node per second: ~19 intra-rack heartbeats + a few level-1 packets.
  // The all-to-all equivalent would be 99 packets per node per second.
  double per_node_per_sec =
      static_cast<double>(net.obs().metrics.counter_value(
          obs::Protocol::kNet, "rx_messages")) /
      10.0 / static_cast<double>(layout.hosts.size());
  EXPECT_LT(per_node_per_sec, 30.0);
  EXPECT_GT(per_node_per_sec, 15.0);
}

TEST_F(HierFixture, NetworkPartitionDetectedAndHealed) {
  net::RackedClusterParams params;
  params.racks = 3;
  params.hosts_per_rack = 4;
  auto layout = net::build_racked_cluster(topo, params);
  net::Network net(sim, topo);
  Cluster cluster(sim, net, layout.hosts, options());
  cluster.start_all();
  sim.run_until(15 * sim::kSecond);
  ASSERT_TRUE(cluster.converged());

  // Cut rack 2's uplink: a switch/uplink failure partitions 4 nodes.
  topo.set_link_up(layout.rack_uplinks[2], false);
  sim.run_until(sim.now() + 30 * sim::kSecond);

  // Main partition no longer lists rack-2 nodes.
  for (net::HostId h : layout.racks[0]) {
    auto& table = cluster.daemon_for(h)->table();
    for (net::HostId r2 : layout.racks[2]) {
      EXPECT_FALSE(table.contains(r2));
    }
    EXPECT_EQ(table.size(), 8u);
  }
  // Rack-2 nodes still see each other (local group survives).
  for (net::HostId h : layout.racks[2]) {
    auto& table = cluster.daemon_for(h)->table();
    for (net::HostId peer : layout.racks[2]) {
      EXPECT_TRUE(table.contains(peer));
    }
  }

  // Heal: views must re-merge despite tombstones (they expire).
  topo.set_link_up(layout.rack_uplinks[2], true);
  sim.run_until(sim.now() + 60 * sim::kSecond);
  EXPECT_TRUE(cluster.converged());
}

TEST_F(HierFixture, ValueUpdatePropagatesAcrossGroups) {
  net::RackedClusterParams params;
  params.racks = 2;
  params.hosts_per_rack = 4;
  auto layout = net::build_racked_cluster(topo, params);
  net::Network net(sim, topo);
  Cluster cluster(sim, net, layout.hosts, options());
  cluster.start_all();
  sim.run_until(15 * sim::kSecond);
  ASSERT_TRUE(cluster.converged());

  // A rack-0 node publishes a new value; a rack-1 node must see it.
  cluster.daemon(1).update_value("load", "0.75");
  sim.run_until(sim.now() + 5 * sim::kSecond);
  const auto* entry =
      cluster.daemon_for(layout.racks[1][0])->table().find(layout.hosts[1]);
  ASSERT_NE(entry, nullptr);
  auto it = entry->data().values.find("load");
  ASSERT_NE(it, entry->data().values.end());
  EXPECT_EQ(it->second, "0.75");
}

TEST_F(HierFixture, RegisterServiceVisibleClusterWide) {
  net::RackedClusterParams params;
  params.racks = 2;
  params.hosts_per_rack = 3;
  auto layout = net::build_racked_cluster(topo, params);
  net::Network net(sim, topo);
  Cluster cluster(sim, net, layout.hosts, options());
  cluster.start_all();
  sim.run_until(15 * sim::kSecond);

  cluster.daemon(0).register_service("http", {0}, {{"Port", "8080"}});
  sim.run_until(sim.now() + 5 * sim::kSecond);

  auto matches =
      cluster.daemon_for(layout.racks[1][2])->table().lookup("http", "*");
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0]->data().node, layout.hosts[0]);
  EXPECT_EQ(matches[0]->data().services.back().params.at("Port"), "8080");
}

TEST_F(HierFixture, StatsCountersMove) {
  net::RackedClusterParams params;
  params.racks = 2;
  params.hosts_per_rack = 4;
  auto layout = net::build_racked_cluster(topo, params);
  net::Network net(sim, topo);
  Cluster cluster(sim, net, layout.hosts, options());
  cluster.start_all();
  sim.run_until(15 * sim::kSecond);

  const obs::MetricsRegistry& m = net.obs().metrics;
  EXPECT_GT(m.counter_sum_over_nodes(obs::Protocol::kHier,
                                     "elections_started"),
            0u);
  EXPECT_GT(m.counter_sum_over_nodes(obs::Protocol::kHier, "heartbeats_sent"),
            8u * 10u);
  EXPECT_GT(m.counter_sum_over_nodes(obs::Protocol::kHier,
                                     "bootstraps_requested"),
            0u);
}

// --- scan deadline -----------------------------------------------------------
//
// The scan timer fires only once some member can have expired, and
// scan_level skips its walk until then. These pin that a death still lands
// on exactly the 100 ms scan tick a walk on every tick finds: the first one
// strictly past last_heard + level_timeout.
// A two-node segment keeps "last heard" observable from outside: every
// multicast the observer takes delivery of comes from its one peer.

TEST_F(HierFixture, CrashDeclaredOnFirstScanTickPastTimeout) {
  auto layout = net::build_single_segment(topo, 2);
  net::Network net(sim, topo);
  trace_expiries(net);
  Cluster cluster(sim, net, layout.hosts, options(1));
  ChangeTimes heard(
      sim, net_counter(net, layout.hosts[0], "rx_multicast_messages"));
  cluster.start_all();
  sim.run_until(10 * sim::kSecond);
  ASSERT_TRUE(cluster.converged());

  cluster.kill(1);
  sim.run_until(sim.now() + 10 * sim::kSecond);

  const sim::Time declared =
      declared_dead_at(net, layout.hosts[0], layout.hosts[1]);
  ASSERT_GE(declared, 0);
  const sim::Duration late = declared - heard.last() -
                             cluster.hier_daemon(0)->level_timeout(0);
  EXPECT_GT(late, 0);
  EXPECT_LE(late, kHierScanInterval);
}

TEST_F(HierFixture, MemberRefreshedAtTimeoutBoundaryIsNotDeclaredDead) {
  auto layout = net::build_single_segment(topo, 2);
  net::Network net(sim, topo);
  trace_expiries(net);
  // Cuts the peer's packets sent in [from, until) towards the observer.
  class WindowCut : public net::FaultInjector {
   public:
    net::HostId sender = net::kInvalidHost;
    sim::Time from = 0, until = 0;
    Verdict verdict(const net::Packet& packet) override {
      Verdict verdict;
      verdict.cut = packet.from.host == sender && packet.sent_at >= from &&
                    packet.sent_at < until;
      return verdict;
    }
  } cut;
  net.set_fault_injector(&cut);
  Cluster cluster(sim, net, layout.hosts, options(1));
  ChangeTimes heard(
      sim, net_counter(net, layout.hosts[0], "rx_multicast_messages"));
  cluster.start_all();
  sim.run_until(10 * sim::kSecond);
  ASSERT_TRUE(cluster.converged());

  // The peer heartbeats once a period and sends nothing else in steady
  // state, so cutting four of them puts the next arrival exactly one
  // level timeout after the last.
  const sim::Duration timeout = cluster.hier_daemon(0)->level_timeout(0);
  const sim::Duration period = cluster.hier_daemon(0)->config().period;
  ASSERT_EQ(timeout, 5 * period);
  cut.sender = layout.hosts[1];
  cut.from = sim.now();
  cut.until = sim.now() + 4 * period;
  sim.run_until(sim.now() + 10 * sim::kSecond);

  sim::Duration longest_gap = 0;
  const auto& times = heard.times();
  for (size_t i = 1; i < times.size(); ++i) {
    longest_gap = std::max(longest_gap, times[i] - times[i - 1]);
  }
  EXPECT_EQ(longest_gap, timeout);
  EXPECT_EQ(declared_dead_at(net, layout.hosts[0], layout.hosts[1]), -1);
  EXPECT_EQ(cluster.hier_daemon(0)->group_members(0),
            std::vector<membership::NodeId>{layout.hosts[1]});
}

TEST_F(HierFixture, RejoinedLevelDeclaresLaterCrashOnTime) {
  auto layout = net::build_single_segment(topo, 2);
  net::Network net(sim, topo);
  trace_expiries(net);
  Cluster cluster(sim, net, layout.hosts, options(1));
  ChangeTimes heard(
      sim, net_counter(net, layout.hosts[0], "rx_multicast_messages"));
  cluster.start_all();
  sim.run_until(10 * sim::kSecond);
  ASSERT_TRUE(cluster.converged());

  // Leave the level (which clears its members) and join it again on the
  // same daemon, so the level keeps whatever bound it held before.
  HierDaemon* observer = cluster.hier_daemon(0);
  observer->stop();
  sim.run_until(sim.now() + 2 * sim::kSecond);
  observer->start();
  sim.run_until(sim.now() + 10 * sim::kSecond);
  ASSERT_TRUE(observer->joined(0));
  ASSERT_EQ(observer->group_members(0),
            std::vector<membership::NodeId>{layout.hosts[1]});

  cluster.kill(1);
  sim.run_until(sim.now() + 10 * sim::kSecond);

  const sim::Time declared =
      declared_dead_at(net, layout.hosts[0], layout.hosts[1]);
  ASSERT_GE(declared, 0);
  const sim::Duration late =
      declared - heard.last() - observer->level_timeout(0);
  EXPECT_GT(late, 0);
  EXPECT_LE(late, kHierScanInterval);
}

}  // namespace
}  // namespace tamp::protocols
