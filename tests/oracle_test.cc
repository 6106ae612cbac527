// Oracle self-tests: the invariant oracle must (a) stay silent on healthy
// runs, and (b) catch deliberately planted violations of each invariant
// class, reporting the offending node and virtual time.
#include <gtest/gtest.h>

#include <memory>

#include "net/builders.h"
#include "protocols/cluster.h"
#include "protocols/oracle.h"

namespace tamp::protocols {
namespace {

class OracleTest : public ::testing::Test {
 protected:
  void build(Scheme scheme, int racks, int hosts_per_rack,
             uint64_t seed = 1) {
    sim_ = std::make_unique<sim::Simulation>(seed);
    if (racks == 1) {
      layout_ = net::build_single_segment(topo_, hosts_per_rack);
    } else {
      net::RackedClusterParams params;
      params.racks = racks;
      params.hosts_per_rack = hosts_per_rack;
      layout_ = net::build_racked_cluster(topo_, params);
    }
    net_ = std::make_unique<net::Network>(*sim_, topo_);
    Cluster::Options opts;
    opts.scheme = scheme;
    cluster_ = std::make_unique<Cluster>(*sim_, *net_, layout_.hosts, opts);
    oracle_ = std::make_unique<MembershipOracle>(*sim_, *net_, topo_,
                                                 *cluster_);
  }

  // Index into layout_.hosts of a given host id.
  size_t index_of(net::HostId host) const {
    for (size_t i = 0; i < layout_.hosts.size(); ++i) {
      if (layout_.hosts[i] == host) return i;
    }
    ADD_FAILURE() << "unknown host " << host;
    return 0;
  }

  std::unique_ptr<sim::Simulation> sim_;
  net::Topology topo_;
  net::ClusterLayout layout_;
  std::unique_ptr<net::Network> net_;
  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<MembershipOracle> oracle_;
};

// A clean run — cold start, one real crash, one restart — produces zero
// violations: the oracle must not cry wolf on correct protocol behaviour.
TEST_F(OracleTest, CleanRunStaysSilent) {
  build(Scheme::kHierarchical, 3, 4);
  oracle_->start();
  cluster_->start_all();
  sim_->run_until(20 * sim::kSecond);

  cluster_->kill(5);
  oracle_->note_crash(5);
  sim_->run_until(40 * sim::kSecond);
  cluster_->restart(5);
  oracle_->note_restart(5);
  sim_->run_until(60 * sim::kSecond);

  EXPECT_TRUE(oracle_->ok()) << oracle_->report();
  EXPECT_GT(oracle_->checks_run(), 0u);
}

// Invariant 1: an entry for a node that was never part of the cluster is
// flagged on the next check tick, naming the phantom id.
TEST_F(OracleTest, DetectsPlantedPhantom) {
  build(Scheme::kAllToAll, 1, 6);
  oracle_->start();
  cluster_->start_all();
  sim_->run_until(16 * sim::kSecond);
  ASSERT_TRUE(oracle_->ok()) << oracle_->report();

  membership::EntryData phantom;
  phantom.node = 9999;  // no such host
  phantom.incarnation = 1;
  cluster_->daemon(2).table().apply(membership::make_row(phantom),
                                    membership::Liveness::kDirect,
                                    membership::kInvalidNode, sim_->now());
  sim::Time planted_at = sim_->now();
  sim_->run_until(planted_at + 2 * sim::kSecond);

  ASSERT_FALSE(oracle_->ok());
  const auto& violation = oracle_->violations().front();
  EXPECT_EQ(violation.invariant, "phantom-member");
  EXPECT_EQ(violation.observer, layout_.hosts[2]);
  EXPECT_EQ(violation.subject, 9999u);
  EXPECT_GE(violation.when, planted_at);
  EXPECT_NE(violation.to_string().find("phantom"), std::string::npos);
}

// Invariant 4: silently deleting a live node from one observer's directory
// is caught by the quiescent completeness check. A cross-rack observer is
// used so the tombstone actually blocks the relayed repair path (a direct
// heartbeat would override it within a period).
TEST_F(OracleTest, DetectsPlantedFalseRemoval) {
  build(Scheme::kHierarchical, 3, 4);
  oracle_->start();
  cluster_->start_all();
  sim_->run_until(20 * sim::kSecond);
  ASSERT_TRUE(oracle_->ok()) << oracle_->report();

  net::HostId victim = layout_.racks[0][1];   // non-leader in rack 0
  size_t observer = index_of(layout_.racks[1][1]);  // lives in rack 1
  const auto* entry = cluster_->daemon(observer).table().find(victim);
  ASSERT_NE(entry, nullptr);
  cluster_->daemon(observer).table().remove(victim, entry->data().incarnation,
                                            sim_->now());
  sim::Time planted_at = sim_->now();
  sim_->run_until(planted_at + 3 * sim::kSecond);

  ASSERT_FALSE(oracle_->ok());
  const auto& violation = oracle_->violations().front();
  EXPECT_EQ(violation.invariant, "completeness");
  EXPECT_EQ(violation.observer, layout_.hosts[observer]);
  EXPECT_EQ(violation.subject, victim);
  EXPECT_GE(violation.when, planted_at);
}

// Invariant 6: a provenance cycle (two entries relayed by each other, no
// directly-heard root) is flagged. The observer's NIC is silently cut so
// the protocol cannot repair the plant before the check runs.
TEST_F(OracleTest, DetectsPlantedProvenanceCycle) {
  build(Scheme::kHierarchical, 1, 6);
  oracle_->start();
  cluster_->start_all();
  sim_->run_until(16 * sim::kSecond);
  ASSERT_TRUE(oracle_->ok()) << oracle_->report();

  size_t observer = 3;
  net::HostId a = layout_.hosts[4];
  net::HostId b = layout_.hosts[5];
  net_->set_host_up(layout_.hosts[observer], false);  // freeze repairs
  auto& table = cluster_->daemon(observer).table();
  table.demote_to_relayed(a, b);
  table.demote_to_relayed(b, a);
  sim::Time planted_at = sim_->now();
  sim_->run_until(planted_at + 2 * sim::kSecond);

  ASSERT_FALSE(oracle_->ok());
  const auto& violation = oracle_->violations().front();
  EXPECT_EQ(violation.invariant, "provenance");
  EXPECT_EQ(violation.observer, layout_.hosts[observer]);
  EXPECT_NE(violation.detail.find("cycle"), std::string::npos);
}

// Invariant 2: when the network silently blackholes everything (no fault
// reported to the oracle, reachability still claims fine), the resulting
// removals of live nodes are *not* excused — they are false failure
// declarations and must be flagged.
TEST_F(OracleTest, DetectsFalseFailuresUnderSilentBlackhole) {
  build(Scheme::kAllToAll, 1, 6);
  oracle_->start();
  cluster_->start_all();
  sim_->run_until(16 * sim::kSecond);
  ASSERT_TRUE(oracle_->ok()) << oracle_->report();

  net_->set_extra_loss(1.0);  // silent: no note_network_fault()
  sim_->run_until(sim_->now() + 15 * sim::kSecond);

  ASSERT_FALSE(oracle_->ok());
  bool found = false;
  for (const auto& violation : oracle_->violations()) {
    if (violation.invariant == "false-failure") {
      found = true;
      EXPECT_NE(violation.observer, membership::kInvalidNode);
      EXPECT_NE(violation.subject, membership::kInvalidNode);
      EXPECT_GT(violation.when, 16 * sim::kSecond);
    }
  }
  EXPECT_TRUE(found) << oracle_->report();
}

// A revenant is graded as an observer too: the fresh daemon that restart()
// builds reports to the oracle, so its false failure declarations under the
// same silent blackhole are flagged under its own name.
TEST_F(OracleTest, HearsARevenantsFalseFailures) {
  build(Scheme::kAllToAll, 1, 6);
  oracle_->start();
  cluster_->start_all();
  sim_->run_until(16 * sim::kSecond);
  ASSERT_TRUE(oracle_->ok()) << oracle_->report();

  const size_t revenant_index = 2;
  cluster_->kill(revenant_index);
  oracle_->note_crash(revenant_index);
  sim_->run_until(sim_->now() + oracle_->detection_deadline());
  cluster_->restart(revenant_index);
  oracle_->note_restart(revenant_index);
  // Past the excuse window the restart opened.
  sim_->run_until(sim_->now() + oracle_->detection_deadline());
  ASSERT_TRUE(cluster_->converged());
  ASSERT_TRUE(oracle_->ok()) << oracle_->report();

  net_->set_extra_loss(1.0);  // silent: no note_network_fault()
  sim_->run_until(sim_->now() + 15 * sim::kSecond);

  bool found = false;
  for (const auto& violation : oracle_->violations()) {
    found = found || (violation.invariant == "false-failure" &&
                      violation.observer == layout_.hosts[revenant_index]);
  }
  EXPECT_TRUE(found) << oracle_->report();
}

// A false-failure report states the spans the excuse compared: time since
// the observer's, the subject's and the network's last disturbance, and
// the window each was held to.
TEST_F(OracleTest, FalseFailureReportStatesWhatItCompared) {
  build(Scheme::kAllToAll, 1, 6);
  oracle_->start();
  cluster_->start_all();
  sim_->run_until(16 * sim::kSecond);
  ASSERT_TRUE(oracle_->ok()) << oracle_->report();

  // Disturb node i at 16 s + i * 100 ms and the network at 17 s, so every
  // span in the report differs.
  auto disturbed_at = [](size_t i) {
    return 16 * sim::kSecond + static_cast<sim::Time>(i) * 100 *
                                   sim::kMillisecond;
  };
  for (size_t i = 0; i < layout_.hosts.size(); ++i) {
    sim_->run_until(disturbed_at(i));
    oracle_->note_resume(i);
  }
  const sim::Time network_change = 17 * sim::kSecond;
  sim_->run_until(network_change);
  oracle_->note_network_fault(false);  // an edge with nothing left active
  sim_->run_until(network_change + oracle_->detection_deadline() +
                  sim::kSecond);
  net_->set_extra_loss(1.0);  // silent: no note_network_fault()
  sim_->run_until(sim_->now() + 15 * sim::kSecond);

  ASSERT_FALSE(oracle_->ok());
  const auto& violation = oracle_->violations().front();
  ASSERT_EQ(violation.invariant, "false-failure") << violation.to_string();
  const sim::Time when = violation.when;
  EXPECT_EQ(violation.detail,
            "declared dead while alive and reachable; time since last "
            "disturbance: observer " +
                sim::format_time(when - disturbed_at(index_of(
                                            violation.observer))) +
                ", subject " +
                sim::format_time(when - disturbed_at(index_of(
                                            violation.subject))) +
                ", network " + sim::format_time(when - network_change) +
                "; each held to the excuse window " +
                sim::format_time(oracle_->detection_deadline()));
}

// Invariant 3: a crash the oracle knows about but that never actually
// happened (the victim keeps heartbeating, so nobody removes it) trips the
// detection-bound / completeness machinery — proving the kill-probe path
// fires rather than silently forgetting obligations.
TEST_F(OracleTest, DetectsMissedDetection) {
  build(Scheme::kAllToAll, 1, 6);
  oracle_->start();
  cluster_->start_all();
  sim_->run_until(16 * sim::kSecond);
  ASSERT_TRUE(oracle_->ok()) << oracle_->report();

  // Lie to the oracle: claim node 2 crashed, but leave it running.
  oracle_->note_crash(2);
  sim_->run_until(sim_->now() + oracle_->detection_deadline() +
                  oracle_->quiesce_bound() + 5 * sim::kSecond);

  ASSERT_FALSE(oracle_->ok());
  const auto& violation = oracle_->violations().front();
  EXPECT_EQ(violation.subject, layout_.hosts[2]);
  EXPECT_TRUE(violation.invariant == "detection-bound" ||
              violation.invariant == "completeness")
      << violation.to_string();
}

// Bound derivation sanity: each scheme gets positive, ordered bounds, and
// the hierarchical bounds grow with the topology's TTL depth.
TEST(OracleBounds, DerivedBoundsAreOrdered) {
  for (Scheme scheme :
       {Scheme::kAllToAll, Scheme::kGossip, Scheme::kHierarchical}) {
    sim::Simulation sim(1);
    net::Topology topo;
    net::RackedClusterParams params;
    params.racks = 3;
    params.hosts_per_rack = 4;
    auto layout = net::build_racked_cluster(topo, params);
    net::Network net(sim, topo);
    Cluster::Options opts;
    opts.scheme = scheme;
    Cluster cluster(sim, net, layout.hosts, opts);
    MembershipOracle oracle(sim, net, topo, cluster);
    EXPECT_GT(oracle.detection_bound(), 0) << scheme_name(scheme);
    EXPECT_GT(oracle.convergence_bound(), oracle.detection_bound());
    EXPECT_GT(oracle.quiesce_bound(), oracle.convergence_bound());
    EXPECT_GT(oracle.detection_deadline(), oracle.detection_bound());
  }
}

}  // namespace
}  // namespace tamp::protocols
