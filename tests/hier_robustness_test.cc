// Robustness behaviors of the hierarchical daemon beyond the paper's happy
// path: graceful channel departure, incarnation-scoped update streams,
// heartbeat-advertised loss recovery, anti-entropy repair, failover without
// view flapping, and administrator channel overrides.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "expiry_probe.h"
#include "membership/codec.h"
#include "net/builders.h"
#include "protocols/cluster.h"
#include "sim/scenario.h"

namespace tamp::protocols {
namespace {

struct RobustnessFixture : public ::testing::Test {
  sim::Simulation sim{77};
  net::Topology topo;
  net::ClusterLayout layout;
  std::unique_ptr<net::Network> net;
  std::unique_ptr<protocols::Cluster> cluster;

  void build(int racks, int hosts_per_rack, Cluster::Options opts = {}) {
    net::RackedClusterParams params;
    params.racks = racks;
    params.hosts_per_rack = hosts_per_rack;
    layout = net::build_racked_cluster(topo, params);
    net = std::make_unique<net::Network>(sim, topo);
    opts.scheme = Scheme::kHierarchical;
    cluster = std::make_unique<Cluster>(sim, *net, layout.hosts, opts);
    cluster->start_all();
    sim.run_until(15 * sim::kSecond);
    ASSERT_TRUE(cluster->converged());
  }

  size_t index_of(net::HostId host) {
    auto it = std::find(layout.hosts.begin(), layout.hosts.end(), host);
    return static_cast<size_t>(it - layout.hosts.begin());
  }

  uint64_t hier_counter(const HierDaemon* d, std::string_view name) {
    return net->obs().metrics.counter_value(obs::Protocol::kHier, name,
                                            d->self());
  }

  HierDaemon* rack_leader(int rack) {
    for (net::HostId h : layout.racks[static_cast<size_t>(rack)]) {
      auto* d = static_cast<HierDaemon*>(cluster->daemon_for(h));
      if (d != nullptr && d->running() && d->is_leader(0)) return d;
    }
    return nullptr;
  }

  HierDaemon* rack_follower(int rack) {
    for (net::HostId h : layout.racks[static_cast<size_t>(rack)]) {
      auto* d = static_cast<HierDaemon*>(cluster->daemon_for(h));
      if (d != nullptr && d->running() && !d->is_leader(0)) return d;
    }
    return nullptr;
  }

  // A crafted level-0 BusyMsg from `responder` to `to`'s control port,
  // delivered before the next 100 ms.
  void deliver_busy(net::HostId responder, HierDaemon* to,
                    membership::BusyKind kind, sim::Duration retry_after) {
    membership::BusyMsg busy;
    busy.responder = responder;
    busy.level = 0;
    busy.kind = kind;
    busy.retry_after = retry_after;
    ASSERT_TRUE(net->send_unicast(
        responder, net::Address{to->self(), to->config().control_port},
        membership::encode_message(busy)));
    sim.run_until(sim.now() + 100 * sim::kMillisecond);
  }

  // The attempt count the node's latest retry of an exchange reported.
  uint64_t last_retry_attempts(const HierDaemon* d) {
    const auto& events = net->obs().tracer.events();
    for (auto it = events.rbegin(); it != events.rend(); ++it) {
      if (it->kind == obs::TraceKind::kRetry && it->node == d->self()) {
        return it->b;
      }
    }
    ADD_FAILURE() << "no retry traced for node " << d->self();
    return 0;
  }

  // Checks one open exchange of `requester` against crafted BusyMsgs: one of
  // the other kind and one from a node that is not the target are ignored,
  // so the poll is retried on its own schedule; the matching one defers the
  // next send by retry_after without charging an attempt. `requests` names
  // the counter the exchange's sends bump.
  void expect_busy_defers_only_its_exchange(HierDaemon* requester,
                                            net::HostId target,
                                            membership::BusyKind kind,
                                            net::HostId bystander,
                                            std::string_view requests) {
    using membership::BusyKind;
    const size_t slots = requester->pending_exchanges(0);
    ASSERT_GE(slots, 1u);
    const uint64_t deferrals = hier_counter(requester, "busy_deferrals");
    const uint64_t sent = hier_counter(requester, requests);
    const BusyKind other =
        kind == BusyKind::kSync ? BusyKind::kBootstrap : BusyKind::kSync;
    deliver_busy(target, requester, other, 10 * sim::kSecond);
    deliver_busy(bystander, requester, kind, 10 * sim::kSecond);
    EXPECT_EQ(hier_counter(requester, "busy_deferrals"), deferrals);
    // The first retry is due within 1.5 s of the opening send.
    sim.run_until(sim.now() + 1500 * sim::kMillisecond);
    const uint64_t retried = hier_counter(requester, requests);
    ASSERT_EQ(retried, sent + 1) << "ignored busies must not defer";
    const uint64_t attempts = last_retry_attempts(requester);

    const sim::Time busy_at = sim.now();
    deliver_busy(target, requester, kind, 4 * sim::kSecond);
    EXPECT_EQ(hier_counter(requester, "busy_deferrals"), deferrals + 1);
    EXPECT_EQ(requester->pending_exchanges(0), slots);
    // Without the deferral the second retry would fall within 3 s.
    sim.run_until(busy_at + 3900 * sim::kMillisecond);
    EXPECT_EQ(hier_counter(requester, requests), retried);
    // retry_after plus at most half a period of jitter.
    sim.run_until(busy_at + 4600 * sim::kMillisecond);
    EXPECT_EQ(hier_counter(requester, requests), retried + 1);
    // The deferred send is the retry the busy postponed, at the attempt
    // count the previous send left: the deferral charged nothing.
    EXPECT_EQ(last_retry_attempts(requester), attempts + 1);
  }
};

// Drops the first `count` frames of one wire type, cluster-wide — surgical,
// deterministic packet loss for regression-testing the solicited-exchange
// retry paths. Matches on the wire kind the encoder stamped on the payload,
// so the transport stays payload-agnostic.
class DropFirstOfType : public net::FaultInjector {
 public:
  Verdict verdict(const net::Packet& p) override {
    Verdict v;
    if (remaining_ > 0 && p.payload &&
        p.payload->kind == static_cast<uint8_t>(type_)) {
      --remaining_;
      ++dropped_;
      v.cut = true;
    }
    return v;
  }
  void arm(membership::MessageType type, int count = 1) {
    type_ = type;
    remaining_ = count;
  }
  int dropped() const { return dropped_; }

 private:
  membership::MessageType type_ = membership::MessageType::kHeartbeat;
  int remaining_ = 0;
  int dropped_ = 0;
};

// Losing the one BootstrapRequest a joiner sends must not strand it: with
// anti-entropy disabled there is no other path to the full image, so the
// pending-exchange retry has to re-send the request. (Before the retry
// tracker existed the daemon marked itself bootstrapped at *send* time and
// never asked again — this is the regression test for that bug.)
TEST_F(RobustnessFixture, BootstrapRequestLostIsRetriedWithinBudget) {
  Cluster::Options opts;
  // Anti-entropy pushed far past the test horizon: recovery inside the
  // window can only come from a re-sent bootstrap. (Not 0 — disabling
  // refresh entirely also arms the short orphan-expiry timeout, which
  // would start purging healthy relayed entries mid-test.)
  opts.hier.refresh_interval = 1000 * sim::kSecond;
  build(2, 5, opts);
  DropFirstOfType injector;
  net->set_fault_injector(&injector);

  net::HostId revenant = layout.racks[1][3];
  cluster->kill(index_of(revenant));
  sim.run_until(sim.now() + 15 * sim::kSecond);
  ASSERT_TRUE(cluster->converged());

  injector.arm(membership::MessageType::kBootstrapRequest);
  cluster->restart(index_of(revenant));
  sim.run_until(sim.now() + 15 * sim::kSecond);

  EXPECT_EQ(injector.dropped(), 1);
  EXPECT_TRUE(cluster->converged())
      << cluster->converged_count() << "/" << cluster->size();
  auto* daemon = static_cast<HierDaemon*>(cluster->daemon_for(revenant));
  EXPECT_EQ(daemon->view_size(), cluster->size())
      << "joiner never recovered the full image";
  EXPECT_GE(hier_counter(daemon, "exchange_retries"), 1u);
  EXPECT_GE(hier_counter(daemon, "bootstraps_requested"), 2u);
}

// Same discipline on the reply path: the server's BootstrapResponse
// evaporates, and the joiner must notice (no response before the retry
// timer) and ask again rather than believing it is bootstrapped.
TEST_F(RobustnessFixture, BootstrapResponseLostIsRetriedWithinBudget) {
  Cluster::Options opts;
  opts.hier.refresh_interval = 1000 * sim::kSecond;
  build(2, 5, opts);
  DropFirstOfType injector;
  net->set_fault_injector(&injector);

  net::HostId revenant = layout.racks[1][3];
  cluster->kill(index_of(revenant));
  sim.run_until(sim.now() + 15 * sim::kSecond);
  ASSERT_TRUE(cluster->converged());

  injector.arm(membership::MessageType::kBootstrapResponse);
  cluster->restart(index_of(revenant));
  sim.run_until(sim.now() + 15 * sim::kSecond);

  EXPECT_EQ(injector.dropped(), 1);
  EXPECT_TRUE(cluster->converged())
      << cluster->converged_count() << "/" << cluster->size();
  auto* daemon = static_cast<HierDaemon*>(cluster->daemon_for(revenant));
  EXPECT_EQ(daemon->view_size(), cluster->size());
  EXPECT_GE(hier_counter(daemon, "exchange_retries"), 1u);
}

// The gap-recovery sync poll gets the same treatment: if the one
// SyncRequest a receiver sends after noticing a stream gap is lost, the
// retry must re-poll — pre-retry code remembered the request in
// last_sync_request and never asked for that seq again.
TEST_F(RobustnessFixture, SyncRequestLostIsRetriedWithinBudget) {
  Cluster::Options opts;
  opts.hier.refresh_interval = 120 * sim::kSecond;  // recovery = sync only
  build(3, 5, opts);
  DropFirstOfType injector;
  net->set_fault_injector(&injector);

  // Lose a node, blackout the window where its LEAVE updates are relayed,
  // then heal: receivers notice the advertised gap and poll for repair.
  net::HostId victim = layout.racks[0][4];
  cluster->kill(index_of(victim));
  sim.run_until(sim.now() + 3500 * sim::kMillisecond);
  net->set_extra_loss(1.0);
  sim.run_until(sim.now() + 3 * sim::kSecond);
  net->set_extra_loss(0.0);
  injector.arm(membership::MessageType::kSyncRequest);
  sim.run_until(sim.now() + 12 * sim::kSecond);

  EXPECT_EQ(injector.dropped(), 1);
  EXPECT_TRUE(cluster->converged())
      << cluster->converged_count() << "/" << cluster->size();
  uint64_t retries = 0;
  for (size_t i = 0; i < cluster->size(); ++i) {
    auto* d = cluster->hier_daemon(i);
    if (d->running()) retries += hier_counter(d, "exchange_retries");
  }
  EXPECT_GE(retries, 1u);
}

// And the reply path: a lost SyncResponse leaves the requester's cursor
// behind, so its pending exchange must fire again until the image lands.
TEST_F(RobustnessFixture, SyncResponseLostIsRetriedWithinBudget) {
  Cluster::Options opts;
  opts.hier.refresh_interval = 120 * sim::kSecond;
  build(3, 5, opts);
  DropFirstOfType injector;
  net->set_fault_injector(&injector);

  net::HostId victim = layout.racks[0][4];
  cluster->kill(index_of(victim));
  sim.run_until(sim.now() + 3500 * sim::kMillisecond);
  net->set_extra_loss(1.0);
  sim.run_until(sim.now() + 3 * sim::kSecond);
  net->set_extra_loss(0.0);
  injector.arm(membership::MessageType::kSyncResponse);
  sim.run_until(sim.now() + 12 * sim::kSecond);

  EXPECT_EQ(injector.dropped(), 1);
  EXPECT_TRUE(cluster->converged())
      << cluster->converged_count() << "/" << cluster->size();
  uint64_t retries = 0;
  for (size_t i = 0; i < cluster->size(); ++i) {
    auto* d = cluster->hier_daemon(i);
    if (d->running()) retries += hier_counter(d, "exchange_retries");
  }
  EXPECT_GE(retries, 1u);
}

// Killing a level-0 leader must not produce *any* leave notification for a
// node that is still alive (no view flapping during failover) — the
// backup-takeover guard plus graceful goodbyes at work.
TEST_F(RobustnessFixture, LeaderFailoverCausesNoSpuriousLeaves) {
  build(3, 6);
  HierDaemon* leader = rack_leader(1);
  ASSERT_NE(leader, nullptr);
  net::HostId victim = leader->self();

  std::map<membership::NodeId, int> leaves;
  cluster->set_change_listener(
      [&](membership::NodeId subject, bool alive, sim::Time) {
        if (!alive) leaves[subject]++;
      });
  cluster->kill(index_of(victim));
  sim.run_until(sim.now() + 30 * sim::kSecond);

  EXPECT_TRUE(cluster->converged());
  ASSERT_EQ(leaves.size(), 1u);  // only the victim
  EXPECT_EQ(leaves.begin()->first, victim);
  EXPECT_EQ(leaves.begin()->second, 17);  // every survivor exactly once
}

// A node that was a leader, died, restarted, and becomes a leader again
// starts its update streams over at sequence 0 under a higher incarnation.
// Peers must accept the fresh stream rather than judging it by the old
// cursor (otherwise the restarted leader's updates are silently dropped).
TEST_F(RobustnessFixture, RestartedLeaderStreamsAreAccepted) {
  build(2, 3);
  // Rack 0 hosts: ids sorted; index 0 is the bully winner and leader.
  net::HostId old_leader = layout.racks[0][0];
  ASSERT_TRUE(static_cast<HierDaemon*>(cluster->daemon_for(old_leader))
                  ->is_leader(0));

  // Kill the leader, let the rack re-elect, then kill the other two rack-0
  // members and restart the original: it comes back alone, leads the rack,
  // and must get its (fresh-stream) updates accepted at level 1.
  cluster->kill(index_of(old_leader));
  sim.run_until(sim.now() + 15 * sim::kSecond);
  ASSERT_TRUE(cluster->converged());

  cluster->kill(index_of(layout.racks[0][1]));
  cluster->kill(index_of(layout.racks[0][2]));
  cluster->restart(index_of(old_leader));
  sim.run_until(sim.now() + 30 * sim::kSecond);

  EXPECT_TRUE(cluster->converged());
  auto* revenant = static_cast<HierDaemon*>(cluster->daemon_for(old_leader));
  EXPECT_TRUE(revenant->is_leader(0));
  // Rack-1 nodes see the new incarnation.
  const auto* entry =
      cluster->daemon_for(layout.racks[1][2])->table().find(old_leader);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->data().incarnation, 2u);
}

// With anti-entropy refresh disabled, a membership change whose update
// multicasts are all lost must still propagate: the next heartbeat
// advertises the sender's stream position, the receiver notices the gap and
// polls for a full image (paper Message Loss Detection, strengthened).
TEST_F(RobustnessFixture, HeartbeatAdvertisedGapTriggersSyncRecovery) {
  Cluster::Options opts;
  // Slow anti-entropy so recovery inside the test window can only come
  // from the heartbeat-advertised sync path.
  opts.hier.refresh_interval = 120 * sim::kSecond;
  build(3, 5, opts);

  // Blackout exactly the window where the failure is detected and its
  // LEAVE updates are relayed (3 s < the 5 s suspicion timeout, so no
  // false deaths), then heal.
  net::HostId victim = layout.racks[0][4];
  cluster->kill(index_of(victim));
  sim.run_until(sim.now() + 3500 * sim::kMillisecond);
  net->set_extra_loss(1.0);
  sim.run_until(sim.now() + 3 * sim::kSecond);  // detection under blackout
  net->set_extra_loss(0.0);
  // Within a few heartbeats the gap is noticed and synced — no 30 s
  // refresh to fall back on.
  sim.run_until(sim.now() + 8 * sim::kSecond);

  EXPECT_TRUE(cluster->converged());
  uint64_t syncs = 0;
  for (size_t i = 0; i < cluster->size(); ++i) {
    auto* d = cluster->hier_daemon(i);
    if (d->running()) syncs += hier_counter(d, "syncs_requested");
  }
  EXPECT_GT(syncs, 0u);
}

// An abdicating leader leaves its higher channels gracefully: peers on
// those channels drop it from group bookkeeping without ever declaring the
// (alive) node dead.
TEST_F(RobustnessFixture, AbdicationIsNotDeath) {
  build(3, 5);
  // Force an abdication: kill rack-0's leader; the backup takes over; when
  // the original lowest-id node restarts it stays a follower, but the
  // *takeover* leader abdicates if a lower-id member later claims... the
  // cleanest trigger is a heal-style merge: take rack 0's uplink down and
  // back up, making its leader re-meet the level-1 group.
  HierDaemon* leader0 = rack_leader(0);
  ASSERT_NE(leader0, nullptr);

  std::set<membership::NodeId> dead_reported;
  cluster->set_change_listener(
      [&](membership::NodeId subject, bool alive, sim::Time) {
        if (!alive) dead_reported.insert(subject);
      });

  topo.set_link_up(layout.rack_uplinks[0], false);
  sim.run_until(sim.now() + 25 * sim::kSecond);
  // During the partition, rack-0's leader climbed to higher levels in its
  // own island; on heal it must abdicate back under the main tree.
  topo.set_link_up(layout.rack_uplinks[0], true);
  sim.run_until(sim.now() + 60 * sim::kSecond);

  EXPECT_TRUE(cluster->converged());
  // The partition caused (correct) mutual removals, but after the heal no
  // *live* node may still be considered dead anywhere.
  for (size_t i = 0; i < cluster->size(); ++i) {
    EXPECT_EQ(cluster->daemon(i).view_size(), cluster->size());
  }
}

// Administrators can pin specific channels per level (paper Sec. 3.1.1);
// formation must work identically on the remapped channels.
TEST_F(RobustnessFixture, AdminSpecifiedLevelChannels) {
  Cluster::Options opts;
  opts.hier.level_channels = {7100, 0 /*derived*/, 7302};
  build(2, 4, opts);

  EXPECT_TRUE(cluster->converged());
  int leaders = 0;
  for (size_t i = 0; i < cluster->size(); ++i) {
    auto* d = cluster->hier_daemon(i);
    if (d->is_leader(0)) {
      ++leaders;
      EXPECT_TRUE(net->in_group(d->self(), 7100));
      EXPECT_TRUE(d->joined(1));
    }
  }
  EXPECT_EQ(leaders, 2);

  // Failure detection still works across the remapped channels.
  net::HostId victim = layout.racks[1][3];
  cluster->kill(index_of(victim));
  sim.run_until(sim.now() + 15 * sim::kSecond);
  EXPECT_TRUE(cluster->converged());
}

// Two levels on one channel would read one level's traffic as the other's.
// Overriding level 0 with base + 1 puts it on level 1's derived channel.
TEST_F(RobustnessFixture, LevelsMayNotShareAChannel) {
  Cluster::Options opts;
  opts.hier.level_channels = {kBaseChannel + 1};
  EXPECT_DEATH(build(2, 4, opts), "hier levels 0 and 1 share channel 1001");
}

// The anti-entropy refresh repairs a view that missed everything: a node
// whose updates and syncs were all suppressed for a long stretch still
// converges once traffic flows again.
TEST_F(RobustnessFixture, AntiEntropyRepairsSilentDivergence) {
  Cluster::Options opts;
  opts.hier.refresh_interval = 10 * sim::kSecond;
  build(2, 6, opts);

  // Isolate one follower's *receive* path indirectly: full loss while a
  // node joins elsewhere, then heal and wait one refresh interval.
  cluster->kill(9);
  sim.run_until(sim.now() + 10 * sim::kSecond);
  ASSERT_TRUE(cluster->converged());
  net->set_extra_loss(0.9);
  cluster->restart(9);
  sim.run_until(sim.now() + 10 * sim::kSecond);
  net->set_extra_loss(0.0);
  sim.run_until(sim.now() + 25 * sim::kSecond);
  EXPECT_TRUE(cluster->converged());
}

// Regression for the stale-leadership replay family: a leader paused across
// an election resumes believing it still leads and replays pre-pause state
// (COORDINATORs, out-log deltas, refresh images). Leadership epochs plus the
// succession fence must make it abdicate and re-bootstrap instead of purging
// live successors. Seeds 5-9 cover the formations that historically broke —
// seed 7 on the router chain is the exact non-convergence from the issue,
// where overlapping groups share a channel and naive cross-lineage epoch
// comparison severed the bridge leader.
TEST(PauseAcrossElection, StaleLeaderReplayIsFencedOnEveryShape) {
  for (chaos::ShapeKind shape : chaos::kAllShapeKinds) {
    for (uint64_t seed = 5; seed <= 9; ++seed) {
      chaos::ScenarioSpec spec;
      spec.scheme = Scheme::kHierarchical;
      spec.shape = shape;
      spec.plan = chaos::PlanKind::kPauseResume;
      spec.seed = seed;
      spec.nodes = 12;
      chaos::ScenarioResult result = chaos::run_scenario(spec);
      EXPECT_TRUE(result.passed)
          << result.name << " violated the oracle:\n"
          << result.report << "repro: " << result.repro;
      EXPECT_EQ(result.final_converged, result.final_running)
          << result.name << " ended unconverged; repro: " << result.repro;
    }
  }
}

// After a heal, two leaders of one level can yield to each other in the
// same instant: one to a newer epoch, the other to a lower id. Each then
// hears the other's non-leader heartbeat and clears its leader. Hearing a
// leader step down must arm an election, or the level stays leaderless and
// nothing relays between the segments. These four scenarios ended that way.
TEST(LeaderlessAfterHeal, SteppedDownLeaderIsReplaced) {
  struct Repro {
    chaos::PlanKind plan;
    uint64_t seed;
    size_t nodes;
  };
  for (const Repro& repro : {Repro{chaos::PlanKind::kHealStorm, 60, 12},
                             Repro{chaos::PlanKind::kHealStorm, 111, 12},
                             Repro{chaos::PlanKind::kRouterFlap, 60, 12},
                             Repro{chaos::PlanKind::kHealStorm, 24, 36}}) {
    chaos::ScenarioSpec spec;
    spec.scheme = Scheme::kHierarchical;
    spec.shape = chaos::ShapeKind::kRouterChain;
    spec.plan = repro.plan;
    spec.seed = repro.seed;
    spec.nodes = repro.nodes;
    chaos::ScenarioResult result = chaos::run_scenario(spec);
    EXPECT_TRUE(result.passed)
        << result.name << " violated the oracle:\n"
        << result.report << "repro: " << result.repro;
    EXPECT_EQ(result.final_converged, result.final_running)
        << result.name << " ended unconverged; repro: " << result.repro;
  }
}

// Digest anti-entropy under churn: a member dies and returns with a new
// incarnation, then a (likely) leader dies for good. Every running node must
// end on the same replicated rows — same members, same incarnations, same
// entry content. (Timestamps and provenance are local soft state and
// deliberately out of scope.)
TEST(DigestAntiEntropy, ConvergesToIdenticalTablesPerSeed) {
  for (uint64_t seed : {4242u, 4243u}) {
    sim::Simulation sim(seed);
    net::Topology topo;
    net::RackedClusterParams params;
    params.racks = 3;
    params.hosts_per_rack = 6;
    auto layout = net::build_racked_cluster(topo, params);
    net::Network net(sim, topo);
    Cluster::Options opts;
    opts.scheme = Scheme::kHierarchical;
    opts.hier.refresh_interval = 10 * sim::kSecond;
    Cluster cluster(sim, net, layout.hosts, opts);
    cluster.start_all();
    sim.run_until(15 * sim::kSecond);
    cluster.kill(4);
    sim.run_until(sim.now() + 20 * sim::kSecond);
    cluster.restart(4);
    sim.run_until(sim.now() + 20 * sim::kSecond);
    cluster.kill(12);
    sim.run_until(sim.now() + 40 * sim::kSecond);
    EXPECT_TRUE(cluster.converged()) << "seed " << seed;
    EXPECT_GT(net.obs().metrics.counter_sum_over_nodes(obs::Protocol::kHier,
                                                       "digests_sent"),
              0u)
        << "seed " << seed;

    std::vector<std::map<membership::NodeId, membership::EntryData>> tables;
    for (size_t i : cluster.running_indices()) {
      const auto& table = cluster.hier_daemon(i)->table();
      std::map<membership::NodeId, membership::EntryData> view;
      for (const auto& [id, entry] : table.entries()) view[id] = entry.data();
      tables.push_back(std::move(view));
    }
    ASSERT_EQ(tables.size(), layout.hosts.size() - 1) << "seed " << seed;
    for (size_t i = 1; i < tables.size(); ++i) {
      EXPECT_EQ(tables[i], tables[0])
          << "seed " << seed << ": running node " << i
          << " holds different rows than running node 0";
    }
  }
}

// The truncation backstop: a delta clipped at kDigestMaxRowsPerDelta makes
// its receiver escalate to a full-image sync with the responder. No chaos
// scenario diverges past the cap, so the delta is crafted here. Replayed
// after that leader is superseded, the same delta must be fenced as stale
// instead of escalating.
TEST_F(RobustnessFixture, TruncatedDeltaEscalatesOnlyFromTheLiveLeader) {
  Cluster::Options opts;
  // No digest rounds inside the window: every counter move below is the
  // crafted delta's.
  opts.hier.refresh_interval = 1000 * sim::kSecond;
  build(2, 6, opts);
  HierDaemon* leader = rack_leader(0);
  ASSERT_NE(leader, nullptr);

  membership::RefreshDeltaMsg delta;
  delta.responder = leader->self();
  delta.responder_incarnation = leader->own_entry().incarnation;
  delta.level = 0;
  delta.epoch = leader->epoch_of(0);
  delta.truncated = true;
  auto deliver = [&](HierDaemon* to) {
    ASSERT_TRUE(net->send_unicast(
        delta.responder, net::Address{to->self(), to->config().control_port},
        membership::encode_message(delta)));
    sim.run_until(sim.now() + 100 * sim::kMillisecond);
  };
  struct Counts {
    uint64_t fallbacks, syncs, rejects;
  };
  auto counts = [&](HierDaemon* d) {
    return Counts{hier_counter(d, "digest_full_fallbacks"),
                  hier_counter(d, "syncs_requested"),
                  hier_counter(d, "stale_epoch_rejects")};
  };

  HierDaemon* follower = nullptr;
  for (net::HostId h : layout.racks[0]) {
    auto* d = static_cast<HierDaemon*>(cluster->daemon_for(h));
    if (d != leader && d != nullptr && d->running()) follower = d;
  }
  ASSERT_NE(follower, nullptr);
  Counts before = counts(follower);
  deliver(follower);
  Counts after = counts(follower);
  EXPECT_EQ(after.fallbacks, before.fallbacks + 1);
  EXPECT_EQ(after.syncs, before.syncs + 1);
  EXPECT_EQ(after.rejects, before.rejects);

  // Supersede that leadership: only the daemon dies, so its host can still
  // put the stale delta on the wire.
  cluster->kill(index_of(leader->self()), /*host_too=*/false);
  sim.run_until(sim.now() + 10 * sim::kSecond);
  HierDaemon* successor = rack_leader(0);
  ASSERT_NE(successor, nullptr);
  ASSERT_GT(successor->epoch_of(0), delta.epoch);
  HierDaemon* member = nullptr;
  for (net::HostId h : layout.racks[0]) {
    auto* d = static_cast<HierDaemon*>(cluster->daemon_for(h));
    if (d != successor && d != nullptr && d->running()) member = d;
  }
  ASSERT_NE(member, nullptr);
  before = counts(member);
  deliver(member);
  after = counts(member);
  EXPECT_EQ(after.fallbacks, before.fallbacks);
  EXPECT_EQ(after.syncs, before.syncs);
  EXPECT_EQ(after.rejects, before.rejects + 1);
}

// A pull's bucket indices are read in the one geometry every daemon sends
// (kDigestBuckets). A digest in another geometry cannot be answered with the
// rows it asks about, so its receivers draw no pull from it; the same digest
// in the daemons' own geometry does draw pulls.
TEST_F(RobustnessFixture, DigestInAnotherBucketGeometryDrawsNoPull) {
  Cluster::Options opts;
  // No digest rounds inside the window: every pull below answers the
  // crafted digest.
  opts.hier.refresh_interval = 1000 * sim::kSecond;
  build(2, 6, opts);
  HierDaemon* leader = rack_leader(0);
  ASSERT_NE(leader, nullptr);
  auto pulls = [&] {
    uint64_t total = 0;
    for (net::HostId h : layout.hosts) {
      auto* d = static_cast<HierDaemon*>(cluster->daemon_for(h));
      if (d != nullptr) total += hier_counter(d, "digest_pulls_sent");
    }
    return total;
  };
  for (size_t buckets : {size_t{8}, size_t{1024}, kDigestBuckets}) {
    membership::RefreshDigestMsg digest;
    digest.origin = leader->self();
    digest.origin_incarnation = leader->own_entry().incarnation;
    digest.level = 0;
    digest.epoch = leader->epoch_of(0);
    digest.row_count = 1;
    digest.buckets.assign(buckets, 0);  // mismatches every non-empty bucket
    const uint64_t before = pulls();
    ASSERT_TRUE(net->send_multicast(
        leader->self(), leader->config().base_channel, 1,
        leader->config().data_port, membership::encode_message(digest)));
    sim.run_until(sim.now() + 100 * sim::kMillisecond);
    if (buckets == kDigestBuckets) {
      EXPECT_GT(pulls(), before) << buckets << " buckets";
    } else {
      EXPECT_EQ(pulls(), before) << buckets << " buckets";
    }
  }
}

// A BusyMsg defers the open bootstrap slot it names. The joiner's requests
// are all lost, so its slot stays open and retries for the whole test.
TEST_F(RobustnessFixture, BusyDefersAnOpenBootstrapWithoutChargingAnAttempt) {
  Cluster::Options opts;
  opts.hier.refresh_interval = 1000 * sim::kSecond;
  build(2, 5, opts);
  DropFirstOfType injector;
  net->set_fault_injector(&injector);
  net->obs().tracer.set_enabled(true);

  net::HostId revenant = layout.racks[1][3];
  cluster->kill(index_of(revenant));
  sim.run_until(sim.now() + 15 * sim::kSecond);
  HierDaemon* leader = rack_leader(1);
  ASSERT_NE(leader, nullptr);
  injector.arm(membership::MessageType::kBootstrapRequest, 1 << 30);
  cluster->restart(index_of(revenant));
  auto* joiner = static_cast<HierDaemon*>(cluster->daemon_for(revenant));
  // The leader's next heartbeat opens the slot; stop right after that send.
  const uint64_t before = hier_counter(joiner, "bootstraps_requested");
  while (hier_counter(joiner, "bootstraps_requested") == before) {
    sim.run_until(sim.now() + 10 * sim::kMillisecond);
  }
  ASSERT_EQ(joiner->leader_of(0), leader->self());
  expect_busy_defers_only_its_exchange(joiner, leader->self(),
                                       membership::BusyKind::kBootstrap,
                                       layout.racks[0][0],
                                       "bootstraps_requested");
}

// The same for a sync slot. A crafted truncated delta opens it, and every
// SyncRequest is lost, so it stays open and retries for the whole test.
TEST_F(RobustnessFixture, BusyDefersAnOpenSyncWithoutChargingAnAttempt) {
  Cluster::Options opts;
  opts.hier.refresh_interval = 1000 * sim::kSecond;
  build(2, 6, opts);
  DropFirstOfType injector;
  net->set_fault_injector(&injector);
  net->obs().tracer.set_enabled(true);
  HierDaemon* leader = rack_leader(0);
  HierDaemon* follower = rack_follower(0);
  ASSERT_NE(leader, nullptr);
  ASSERT_NE(follower, nullptr);
  ASSERT_EQ(follower->pending_exchanges(0), 0u);

  injector.arm(membership::MessageType::kSyncRequest, 1 << 30);
  membership::RefreshDeltaMsg delta;
  delta.responder = leader->self();
  delta.responder_incarnation = leader->own_entry().incarnation;
  delta.level = 0;
  delta.epoch = leader->epoch_of(0);
  delta.truncated = true;
  const uint64_t before = hier_counter(follower, "syncs_requested");
  ASSERT_TRUE(net->send_unicast(
      leader->self(),
      net::Address{follower->self(), follower->config().control_port},
      membership::encode_message(delta)));
  while (hier_counter(follower, "syncs_requested") == before) {
    sim.run_until(sim.now() + 10 * sim::kMillisecond);
  }
  expect_busy_defers_only_its_exchange(follower, leader->self(),
                                       membership::BusyKind::kSync,
                                       layout.racks[1][0], "syncs_requested");
}

// Digest rounds carry no sequence number, so a lost round is noticed by
// time: a receiver whose expected round is a period overdue pulls every
// bucket from its origin. With every digest lost for longer than the orphan
// horizon, the pulls alone must keep the other rack's relayed rows fresh.
TEST_F(RobustnessFixture, LostDigestRoundsArePulledBeforeRowsExpire) {
  Cluster::Options opts;
  opts.hier.refresh_interval = 10 * sim::kSecond;
  build(2, 6, opts);
  DropFirstOfType injector;
  net->set_fault_injector(&injector);
  int leaves = 0;
  cluster->set_change_listener(
      [&](membership::NodeId, bool alive, sim::Time) { leaves += !alive; });
  auto total = [&](std::string_view name) {
    uint64_t sum = 0;
    for (size_t i : cluster->running_indices()) {
      sum += hier_counter(cluster->hier_daemon(i), name);
    }
    return sum;
  };
  const uint64_t missed_before = total("digest_rounds_missed");
  const uint64_t deltas_before = total("deltas_sent");

  // Several orphan horizons (2 * refresh_interval + top-level timeout).
  injector.arm(membership::MessageType::kRefreshDigest, 1 << 30);
  sim.run_until(sim.now() + 120 * sim::kSecond);
  injector.arm(membership::MessageType::kRefreshDigest, 0);

  EXPECT_GT(injector.dropped(), 0);
  EXPECT_GT(total("digest_rounds_missed"), missed_before);
  EXPECT_GT(total("deltas_sent"), deltas_before);
  EXPECT_EQ(leaves, 0);
  EXPECT_TRUE(cluster->converged());
}

// Deterministic replay: identical seeds give identical event counts and
// final state; different seeds differ in timing but agree on convergence.
TEST_F(RobustnessFixture, DeterministicReplay) {
  auto run = [](uint64_t seed) {
    sim::Simulation sim(seed);
    net::Topology topo;
    net::RackedClusterParams params;
    params.racks = 2;
    params.hosts_per_rack = 5;
    auto layout = net::build_racked_cluster(topo, params);
    net::Network net(sim, topo);
    Cluster::Options opts;
    opts.scheme = Scheme::kHierarchical;
    Cluster cluster(sim, net, layout.hosts, opts);
    cluster.start_all();
    cluster.kill(7);
    sim.run_until(40 * sim::kSecond);
    return std::pair<uint64_t, uint64_t>(
        sim.events_executed(),
        net.obs().metrics.counter_value(obs::Protocol::kNet,
                                        "rx_wire_bytes"));
  };
  EXPECT_EQ(run(1234), run(1234));
  EXPECT_NE(run(1234), run(1235));
}

// One daemon and one crafted peer on a switch. The peer runs no daemon:
// each of its level-0 heartbeats is built here, so the stream position it
// advertises is exactly the one the test names. The daemon is a one-host
// Cluster's, so a test can subscribe to its view changes.
struct PeerRecordFixture : public ::testing::Test {
  sim::Simulation sim{5};
  net::Topology topo;
  net::HostId self_host = 0;
  net::HostId peer_host = 0;
  std::unique_ptr<net::Network> net;
  std::unique_ptr<Cluster> cluster;
  HierDaemon* daemon = nullptr;

  void SetUp() override {
    net::DeviceId sw = topo.add_l2_switch("sw");
    self_host = topo.add_host("self");
    peer_host = topo.add_host("peer");
    topo.connect(self_host, sw);
    topo.connect(peer_host, sw);
    net = std::make_unique<net::Network>(sim, topo);
    cluster = std::make_unique<Cluster>(
        sim, *net, std::vector<net::HostId>{self_host}, Cluster::Options{});
    daemon = cluster->hier_daemon(0);
    daemon->start();
    sim.run_until(5 * sim::kSecond);  // alone: it now leads level 0
    ASSERT_TRUE(daemon->is_leader(0));
  }

  void peer_heartbeat(uint64_t stream_seq) {
    membership::HeartbeatMsg heartbeat;
    heartbeat.entry = membership::make_row(
        membership::make_representative_entry(peer_host, /*incarnation=*/1));
    heartbeat.level = 0;
    heartbeat.seq = stream_seq;
    ASSERT_TRUE(net->send_multicast(peer_host, daemon->config().base_channel,
                                    /*ttl=*/1, daemon->config().data_port,
                                    membership::encode_message(heartbeat)));
    sim.run_until(sim.now() + 100 * sim::kMillisecond);
  }

  bool peer_is_member() const {
    auto members = daemon->group_members(0);
    return std::find(members.begin(), members.end(), peer_host) !=
           members.end();
  }

  bool peer_row_relayed() const {
    const auto* entry = daemon->table().find(peer_host);
    return entry != nullptr &&
           entry->liveness == membership::Liveness::kRelayed;
  }

  // The peer's row is direct, then the daemon leaves every level (a
  // restart) and the peer stays silent. Returns when the restart happened
  // and when the row was demoted (-1 if it never was within `horizon`).
  std::pair<sim::Time, sim::Time> restart_and_watch_demotion(
      sim::Duration horizon) {
    peer_heartbeat(5);
    EXPECT_TRUE(peer_is_member());
    EXPECT_FALSE(peer_row_relayed());
    daemon->stop();
    daemon->start();
    const sim::Time restarted = sim.now();
    EXPECT_FALSE(peer_is_member());
    EXPECT_FALSE(peer_row_relayed());
    ChangeTimes relayed(sim, [this] { return peer_row_relayed() ? 1 : 0; });
    sim.run_until(restarted + horizon);
    return {restarted, relayed.times().empty() ? -1 : relayed.times()[0]};
  }

  // The heartbeat walk's orphan timeout (HierDaemon::heartbeat_tick).
  sim::Duration orphan_timeout() const {
    const sim::Duration top =
        daemon->level_timeout(daemon->config().max_ttl - 1);
    return std::max(2 * top, 2 * daemon->config().refresh_interval + top);
  }
};

// A member declared dead keeps its update cursor: heard again in the same
// life at a higher stream position, it is polled for the gap (a sync
// exchange) instead of being re-anchored there.
TEST_F(PeerRecordFixture, DeadMemberKeepsItsCursor) {
  peer_heartbeat(5);
  ASSERT_TRUE(peer_is_member());
  EXPECT_EQ(daemon->pending_exchanges(0), 0u);

  sim.run_until(sim.now() + daemon->level_timeout(0) + sim::kSecond);
  ASSERT_FALSE(peer_is_member());
  EXPECT_EQ(daemon->pending_exchanges(0), 0u);

  peer_heartbeat(7);
  EXPECT_TRUE(peer_is_member());
  EXPECT_EQ(daemon->pending_exchanges(0), 1u);
}

// Leaving the level clears the cursor with the membership: after a leave
// and a re-join, the peer's first heartbeat anchors a fresh cursor, and
// only a position past that anchor opens a sync exchange.
TEST_F(PeerRecordFixture, RejoinedLevelStartsAFreshCursor) {
  peer_heartbeat(5);
  ASSERT_TRUE(peer_is_member());

  daemon->stop();
  daemon->start();
  ASSERT_TRUE(daemon->joined(0));
  EXPECT_FALSE(peer_is_member());

  peer_heartbeat(7);
  EXPECT_TRUE(peer_is_member());
  EXPECT_EQ(daemon->pending_exchanges(0), 0u);
  peer_heartbeat(7);
  EXPECT_EQ(daemon->pending_exchanges(0), 0u);
  peer_heartbeat(8);
  EXPECT_EQ(daemon->pending_exchanges(0), 1u);
}

// The heartbeat walk demotes direct rows only after a member was dropped or
// a level left. A restart leaves every level, so the row of a peer that
// was heard only there is demoted by the first walk after it: walks run
// every fifth heartbeat.
TEST_F(PeerRecordFixture, DirectRowOfAPeerNoLongerHeardIsDemotedAtTheNextWalk) {
  const sim::Duration walk_every = 5 * daemon->config().period;
  const auto [restarted, demoted] = restart_and_watch_demotion(walk_every);
  ASSERT_GE(demoted, 0) << "never demoted";
  EXPECT_GT(demoted, restarted);
  EXPECT_LE(demoted, restarted + walk_every);
}

// A relayed row nobody re-announces expires on the first walk past the
// orphan timeout since its last stamp, even though a demotion, not a relayed
// stamp, made it relayed.
TEST_F(PeerRecordFixture,
       UnannouncedRelayedRowExpiresOnTheFirstWalkPastTimeout) {
  const sim::Duration walk_every = 5 * daemon->config().period;
  sim::Time expired = -1;
  cluster->set_change_listener(
      [&](membership::NodeId subject, bool alive, sim::Time when) {
        if (subject == peer_host && !alive && expired < 0) expired = when;
      });
  const auto [restarted, demoted] = restart_and_watch_demotion(walk_every);
  ASSERT_GE(demoted, 0) << "never demoted";
  const sim::Time stamped = daemon->table().find(peer_host)->last_heard;
  ASSERT_LT(stamped, restarted);

  sim.run_until(stamped + orphan_timeout() + 2 * walk_every);
  ASSERT_GE(expired, 0) << "never expired";
  // Walks run on the demoting walk's grid, so the expiry is on one that is
  // past the timeout while the one before it was not.
  EXPECT_EQ((expired - demoted) % walk_every, 0);
  EXPECT_GT(expired - stamped, orphan_timeout());
  EXPECT_LE(expired - walk_every - stamped, orphan_timeout());
  EXPECT_EQ(daemon->table().find(peer_host), nullptr);
}

// A leader whose backup says goodbye names another backup at once. Left in
// place, the departed backup would be advertised until the leader failed,
// and the group would then fall back to a full election. The peers are
// crafted as in PeerRecordFixture; both are members before the daemon wins
// its first election, so it takes one of them as backup.
TEST(BackupGoodbye, LeaderPicksAnotherBackup) {
  sim::Simulation sim{5};
  net::Topology topo;
  const net::DeviceId sw = topo.add_l2_switch("sw");
  const net::HostId self = topo.add_host("self");
  const net::HostId peers[] = {topo.add_host("peer-a"),
                               topo.add_host("peer-b")};
  for (net::HostId host : {self, peers[0], peers[1]}) topo.connect(host, sw);
  net::Network net(sim, topo);
  HierDaemon daemon(sim, net, self,
                    membership::make_representative_entry(self));
  auto heartbeat = [&](net::HostId peer, bool leaving) {
    membership::HeartbeatMsg msg;
    msg.entry =
        membership::make_row(membership::make_representative_entry(peer));
    msg.leaving = leaving;
    ASSERT_TRUE(net.send_multicast(peer, daemon.config().base_channel,
                                   /*ttl=*/1, daemon.config().data_port,
                                   membership::encode_message(msg)));
  };

  daemon.start();
  while (!daemon.is_leader(0) && sim.now() < 5 * sim::kSecond) {
    for (net::HostId peer : peers) heartbeat(peer, /*leaving=*/false);
    sim.run_until(sim.now() + daemon.config().period);
  }
  ASSERT_TRUE(daemon.is_leader(0));
  const net::HostId backup = daemon.backup_of(0);
  ASSERT_TRUE(backup == peers[0] || backup == peers[1]) << backup;

  heartbeat(backup, /*leaving=*/true);
  sim.run_until(sim.now() + 100 * sim::kMillisecond);
  EXPECT_EQ(daemon.backup_of(0), backup == peers[0] ? peers[1] : peers[0]);
}

// A node that wins its level alone has no one to name as backup. Once
// members join it names one of them; left unnamed, its heartbeats would
// advertise no backup until it lost the leadership, and its failure would
// fall back to a full election. Peers are crafted as in BackupGoodbye.
TEST(LoneLeader, NamesABackupOnceMembersJoin) {
  sim::Simulation sim{5};
  net::Topology topo;
  const net::DeviceId sw = topo.add_l2_switch("sw");
  const net::HostId self = topo.add_host("self");
  const net::HostId peers[] = {topo.add_host("peer-a"),
                               topo.add_host("peer-b")};
  for (net::HostId host : {self, peers[0], peers[1]}) topo.connect(host, sw);
  net::Network net(sim, topo);
  HierDaemon daemon(sim, net, self,
                    membership::make_representative_entry(self));
  daemon.start();
  sim.run_until(5 * sim::kSecond);
  ASSERT_TRUE(daemon.is_leader(0));
  ASSERT_EQ(daemon.backup_of(0), membership::kInvalidNode);

  for (int round = 0; round < 5; ++round) {
    for (net::HostId peer : peers) {
      membership::HeartbeatMsg msg;
      msg.entry =
          membership::make_row(membership::make_representative_entry(peer));
      ASSERT_TRUE(net.send_multicast(peer, daemon.config().base_channel,
                                     /*ttl=*/1, daemon.config().data_port,
                                     membership::encode_message(msg)));
    }
    sim.run_until(sim.now() + daemon.config().period);
  }
  ASSERT_TRUE(daemon.is_leader(0));
  const net::HostId backup = daemon.backup_of(0);
  EXPECT_TRUE(backup == peers[0] || backup == peers[1]) << backup;
}

}  // namespace
}  // namespace tamp::protocols
