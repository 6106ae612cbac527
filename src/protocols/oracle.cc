#include "protocols/oracle.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "util/check.h"

namespace tamp::protocols {

using membership::Liveness;
using membership::NodeId;

std::string MembershipOracle::Violation::to_string() const {
  std::string out = "[" + sim::format_time(when) + "] " + invariant;
  if (observer != membership::kInvalidNode) {
    out += " observer=" + std::to_string(observer);
  }
  if (subject != membership::kInvalidNode) {
    out += " subject=" + std::to_string(subject);
  }
  if (!detail.empty()) out += ": " + detail;
  return out;
}

MembershipOracle::MembershipOracle(sim::Simulation& sim, net::Network& net,
                                   net::Topology& topology, Cluster& cluster,
                                   Config config)
    : sim_(sim),
      net_(net),
      topology_(topology),
      cluster_(cluster),
      config_(config),
      check_timer_(sim, kOracleCheckInterval, [this] { tick(); }) {
  truth_.resize(cluster_.size());
  derive_bounds();
}

MembershipOracle::MembershipOracle(sim::Simulation& sim, net::Network& net,
                                   net::Topology& topology, Cluster& cluster)
    : MembershipOracle(sim, net, topology, cluster, Config{}) {}

void MembershipOracle::derive_bounds() {
  const Cluster::Options& opts = cluster_.options();
  switch (opts.scheme) {
    case Scheme::kAllToAll: {
      const auto& cfg = opts.alltoall;
      detection_bound_ =
          cfg.max_losses * cfg.period + kAllToAllScanInterval + cfg.period;
      convergence_bound_ = detection_bound_ + cfg.period;
      // Heals are heartbeat-fast: direct observations override tombstones.
      quiesce_ = convergence_bound_ + 3 * cfg.period;
      break;
    }
    case Scheme::kGossip: {
      const sim::Duration tfail = gossip_tfail(cluster_.size());
      // Dissemination spreads in O(log n) rounds.
      const double log_n = std::log2(
          static_cast<double>(std::max<size_t>(cluster_.size(), 2)));
      sim::Duration spread = static_cast<sim::Duration>(
          static_cast<double>(kGossipPeriod) * (log_n + 2.0));
      detection_bound_ = tfail + spread;
      convergence_bound_ = detection_bound_ + spread;
      // Re-admission after a (correct) removal waits out the 2*tfail
      // quarantine before stale-counter records are believed again.
      quiesce_ = 2 * tfail + 2 * spread + 3 * kGossipPeriod;
      break;
    }
    case Scheme::kHierarchical: {
      const auto& cfg = opts.hier;
      int levels = hier_levels();
      detection_bound_ =
          level_timeout(cfg, levels - 1) + kHierScanInterval + cfg.period;
      // LEAVE records relay one level per hop; elections may interleave.
      convergence_bound_ = detection_bound_ + (levels + 2) * cfg.period +
                           kElectionTimeout + kCoordinatorTimeout +
                           kBackupGrace;
      // Full repair after partitions needs tombstone expiry plus one
      // anti-entropy refresh cycle on top of detection + convergence.
      quiesce_ = convergence_bound_ + kTombstoneTtl + cfg.refresh_interval +
                 3 * cfg.period;
      break;
    }
  }
}

int MembershipOracle::hier_levels() const {
  return std::max(config_.min_levels,
                  std::max(1, std::min(cluster_.options().hier.max_ttl,
                                       topology_.max_ttl())));
}

sim::Duration MembershipOracle::detection_deadline() const {
  return static_cast<sim::Duration>(
      static_cast<double>(detection_bound_ + convergence_bound_) *
      kOracleSlack);
}

void MembershipOracle::start() {
  TAMP_CHECK(!running_);
  running_ = true;
  cluster_.set_change_listener([this](size_t observer, NodeId subject,
                                      bool alive, sim::Time when) {
    on_change(observer, subject, alive, when);
  });
  check_timer_.start(kOracleCheckInterval);
}

void MembershipOracle::stop() {
  running_ = false;
  check_timer_.stop();
}

// --- ground truth -----------------------------------------------------------

void MembershipOracle::note_crash(size_t index) {
  TAMP_CHECK(index < truth_.size());
  truth_[index].alive = false;
  truth_[index].last_disturbed = sim_.now();
  last_fault_ = sim_.now();

  // A crashed node stops observing; drop it from every outstanding probe,
  // and retire probes for a victim that is now crashed again (re-crash).
  for (auto& probe : probes_) {
    std::erase(probe.pending, index);
  }
  for (auto& probe : join_probes_) {
    std::erase(probe.pending, index);
  }
  // A revenant that crashed again owes nobody a reappearance.
  std::erase_if(join_probes_, [&](const JoinProbe& probe) {
    return probe.revenant_index == index;
  });

  // New obligation: observers that knew the victim and can (still) be
  // reached from nothing-changed paths must detect within the bound.
  KillProbe probe;
  probe.victim_index = index;
  probe.victim = cluster_.hosts()[index];
  probe.killed_at = sim_.now();
  for (size_t i = 0; i < cluster_.size(); ++i) {
    if (i == index || !truth_[i].alive || truth_[i].paused) continue;
    if (!cluster_.daemon(i).table().contains(probe.victim)) continue;
    probe.pending.push_back(i);
  }
  if (!probe.pending.empty()) probes_.push_back(std::move(probe));
}

void MembershipOracle::note_restart(size_t index) {
  TAMP_CHECK(index < truth_.size());
  truth_[index].alive = true;
  truth_[index].paused = false;
  truth_[index].last_disturbed = sim_.now();
  last_fault_ = sim_.now();
  // The revenant is a new life: observers are no longer required to report
  // the old one's death.
  std::erase_if(probes_, [&](const KillProbe& probe) {
    return probe.victim_index == index;
  });
  // Invariant 9: open the mirror obligation — every currently running
  // observer must (re)admit the revenant within the repair horizon.
  std::erase_if(join_probes_, [&](const JoinProbe& probe) {
    return probe.revenant_index == index;
  });
  JoinProbe join_probe;
  join_probe.revenant_index = index;
  join_probe.revenant = cluster_.hosts()[index];
  join_probe.restarted_at = sim_.now();
  for (size_t i = 0; i < cluster_.size(); ++i) {
    if (i == index || !truth_[i].alive || truth_[i].paused) continue;
    join_probe.pending.push_back(i);
  }
  if (!join_probe.pending.empty()) {
    join_probes_.push_back(std::move(join_probe));
  }
  // Cluster::restart builds a fresh daemon; forget the old lifetime's epoch
  // history (a fresh daemon restarts at 0).
  if (index < epoch_seen_.size()) {
    std::fill(epoch_seen_[index].begin(), epoch_seen_[index].end(),
              membership::Epoch{0});
    std::fill(stale_claim_since_[index].begin(),
              stale_claim_since_[index].end(), sim::Time{0});
  }
}

void MembershipOracle::note_pause(size_t index) {
  TAMP_CHECK(index < truth_.size());
  truth_[index].paused = true;
  truth_[index].last_disturbed = sim_.now();
  last_fault_ = sim_.now();
  for (auto& probe : probes_) std::erase(probe.pending, index);
  for (auto& probe : join_probes_) std::erase(probe.pending, index);
  // A paused revenant cannot announce itself; stop grading its rejoin.
  std::erase_if(join_probes_, [&](const JoinProbe& probe) {
    return probe.revenant_index == index;
  });
}

void MembershipOracle::note_resume(size_t index) {
  TAMP_CHECK(index < truth_.size());
  truth_[index].paused = false;
  truth_[index].last_disturbed = sim_.now();
  last_fault_ = sim_.now();
}

void MembershipOracle::note_network_fault(bool any_active) {
  network_fault_active_ = any_active;
  last_network_change_ = sim_.now();
  last_fault_ = sim_.now();
  // Detection probes cannot be graded across arbitrary network chaos; the
  // quiescent completeness check takes over from here.
  probes_.clear();
  join_probes_.clear();
}

void MembershipOracle::note_topology_mutation() {
  last_network_change_ = sim_.now();
  last_fault_ = sim_.now();
  // Distances changed mid-probe: like any network-condition edge, the
  // event-driven obligations cannot be graded across it — the quiescent
  // checks (completeness + scope reconvergence) take over.
  probes_.clear();
  join_probes_.clear();
}

// --- reachability ------------------------------------------------------------

bool MembershipOracle::default_reachable(net::HostId from,
                                         net::HostId to) const {
  return net_.host_up(from) && net_.host_up(to) &&
         topology_.path(from, to).reachable;
}

bool MembershipOracle::is_reachable(net::HostId from, net::HostId to) const {
  if (reachable_) return reachable_(from, to);
  return default_reachable(from, to);
}

// --- event-driven checks -----------------------------------------------------

bool MembershipOracle::excused(size_t observer_index, NodeId subject,
                               sim::Time when) const {
  if (when < config_.formation_grace) return true;
  if (network_fault_active_) return true;
  const sim::Duration window = detection_deadline();
  if (last_network_change_ > 0 && when - last_network_change_ < window) {
    return true;
  }
  // Either endpoint recently crashed / restarted / paused / resumed.
  auto victim_it = std::find(cluster_.hosts().begin(), cluster_.hosts().end(),
                             subject);
  if (victim_it != cluster_.hosts().end()) {
    size_t subject_index =
        static_cast<size_t>(victim_it - cluster_.hosts().begin());
    const NodeTruth& subject_truth = truth_[subject_index];
    if (subject_truth.paused) return true;
    if (subject_truth.last_disturbed > 0 &&
        when - subject_truth.last_disturbed < window) {
      return true;
    }
    // The subject's heartbeats cannot reach this observer: removing it is
    // the correct response to a partition.
    if (!is_reachable(subject, cluster_.hosts()[observer_index])) return true;
  }
  const NodeTruth& observer_truth = truth_[observer_index];
  if (observer_truth.paused) return true;
  if (observer_truth.last_disturbed > 0 &&
      when - observer_truth.last_disturbed < window) {
    return true;
  }
  return false;
}

void MembershipOracle::on_change(size_t observer_index, NodeId subject,
                                 bool alive, sim::Time when) {
  if (!running_) return;
  if (alive) return;  // joins are graded by the completeness check

  // Settle detection obligations.
  for (auto& probe : probes_) {
    if (probe.victim == subject) std::erase(probe.pending, observer_index);
  }
  std::erase_if(probes_, [](const KillProbe& p) { return p.pending.empty(); });

  // Invariant 2: no false failure declarations.
  auto it =
      std::find(cluster_.hosts().begin(), cluster_.hosts().end(), subject);
  if (it == cluster_.hosts().end()) return;  // phantom check handles this
  size_t subject_index = static_cast<size_t>(it - cluster_.hosts().begin());
  if (!truth_[subject_index].alive) return;  // correct detection
  if (excused(observer_index, subject, when)) return;
  // The spans excused() compared: each one outlasted the window.
  auto since = [when](sim::Time last) {
    return last > 0 ? sim::format_time(when - last) : std::string("never");
  };
  add_violation(
      "false-failure", cluster_.hosts()[observer_index], subject,
      "declared dead while alive and reachable; time since last "
      "disturbance: observer " +
          since(truth_[observer_index].last_disturbed) + ", subject " +
          since(truth_[subject_index].last_disturbed) + ", network " +
          since(last_network_change_) + "; each held to the excuse window " +
          sim::format_time(detection_deadline()));
}

// --- periodic checks --------------------------------------------------------

bool MembershipOracle::quiescent() const {
  if (network_fault_active_) return false;
  sim::Time now = sim_.now();
  if (now < config_.formation_grace) return false;
  if (last_fault_ == 0) return true;  // never disturbed: settled after grace
  return now - last_fault_ >= quiesce_;
}

void MembershipOracle::tick() {
  if (!running_) return;
  ++checks_run_;
  check_phantoms();
  check_kill_probes();
  check_join_probes();
  if (cluster_.options().scheme == Scheme::kHierarchical) {
    check_epochs();
    check_solicited_rate();
  }
  if (quiescent()) {
    check_completeness();
    if (cluster_.options().scheme == Scheme::kHierarchical) {
      check_leader_uniqueness();
      check_provenance();
      check_scope_reconvergence();
    }
  }
}

void MembershipOracle::check_phantoms() {
  // Invariant 1: views only ever contain nodes that exist.
  std::set<NodeId> valid(cluster_.hosts().begin(), cluster_.hosts().end());
  for (size_t i = 0; i < cluster_.size(); ++i) {
    if (!truth_[i].alive) continue;
    for (NodeId id : cluster_.daemon(i).table().node_ids()) {
      if (!valid.contains(id)) {
        add_violation("phantom-member", cluster_.hosts()[i], id,
                      "directory lists a node that was never in the cluster");
      }
    }
  }
}

void MembershipOracle::check_kill_probes() {
  // Invariant 3: bounded detection after a clean crash.
  const sim::Duration deadline = detection_deadline();
  sim::Time now = sim_.now();
  for (auto& probe : probes_) {
    if (now - probe.killed_at <= deadline) continue;
    for (size_t observer : probe.pending) {
      if (!truth_[observer].alive || truth_[observer].paused) continue;
      // Re-verify against the table itself so a lost notification cannot
      // produce a spurious violation.
      if (!cluster_.daemon(observer).table().contains(probe.victim)) continue;
      if (truth_[observer].last_disturbed > probe.killed_at) continue;
      add_violation(
          "detection-bound", cluster_.hosts()[observer], probe.victim,
          "crash at " + sim::format_time(probe.killed_at) +
              " still undetected after " +
              sim::format_time(now - probe.killed_at) + " (deadline " +
              sim::format_time(deadline) + ")");
    }
    probe.pending.clear();
  }
  std::erase_if(probes_, [](const KillProbe& p) { return p.pending.empty(); });
}

void MembershipOracle::check_join_probes() {
  // Invariant 9: bounded join propagation after a restart. Observers are
  // released the moment their directory readmits the revenant; whoever is
  // still pending when the repair horizon expires has lost the join.
  const sim::Duration deadline = join_deadline();
  const sim::Time now = sim_.now();
  for (auto& probe : join_probes_) {
    std::erase_if(probe.pending, [&](size_t observer) {
      return truth_[observer].alive &&
             cluster_.daemon(observer).table().contains(probe.revenant);
    });
    if (now - probe.restarted_at <= deadline) continue;
    for (size_t observer : probe.pending) {
      if (!truth_[observer].alive || truth_[observer].paused) continue;
      // An observer disturbed after the restart restarts its own clock;
      // the quiescent completeness check covers it instead.
      if (truth_[observer].last_disturbed > probe.restarted_at) continue;
      const net::HostId self = cluster_.hosts()[observer];
      if (!is_reachable(probe.revenant, self) ||
          !is_reachable(self, probe.revenant)) {
        continue;  // cut off: nothing to grade
      }
      add_violation(
          "join-bound", self, probe.revenant,
          "restart at " + sim::format_time(probe.restarted_at) +
              " still missing from this view after " +
              sim::format_time(now - probe.restarted_at) + " (deadline " +
              sim::format_time(deadline) + ")");
    }
    probe.pending.clear();
  }
  std::erase_if(join_probes_,
                [](const JoinProbe& p) { return p.pending.empty(); });
}

namespace {

// Per-wire-kind egress-shed breakdown from the transport's registry totals,
// e.g. " [egress shed: update=12, sync_response=3]". Empty when nothing was
// shed (or per-kind attribution is not installed).
std::string egress_shed_breakdown(const obs::MetricsRegistry& metrics) {
  constexpr std::string_view kPrefix = "tx_egress_drop_kind_";
  std::string out;
  metrics.visit_counters([&](const obs::MetricsRegistry::CounterRow& row) {
    if (row.protocol != obs::Protocol::kNet || row.node != obs::kNoNode ||
        row.value == 0 || !row.name.starts_with(kPrefix)) {
      return;
    }
    out += out.empty() ? " [egress shed: " : ", ";
    out += std::string(row.name.substr(kPrefix.size())) + "=" +
           std::to_string(row.value);
  });
  if (!out.empty()) out += "]";
  return out;
}

}  // namespace

void MembershipOracle::check_solicited_rate() {
  // Invariant 10: solicited traffic stays bounded per daemon per check
  // window. The serve side is capped mechanically by admission control
  // (image_serve_budget full images per period); the request side by the
  // pending-exchange dedup and its backed-off retries. A breach means the
  // recovery path is amplifying load — the overload death-spiral
  // signature the storm plans exist to provoke.
  const HierConfig& cfg = cluster_.options().hier;
  if (last_served_.empty()) {
    last_served_.assign(cluster_.size(), 0);
    last_requested_.assign(cluster_.size(), 0);
  }
  const int levels = hier_levels();
  // A check window spans this many serve windows, plus one for phase.
  const uint64_t windows =
      static_cast<uint64_t>(kOracleCheckInterval /
                            std::max<sim::Duration>(cfg.period, 1)) + 1;
  const uint64_t serve_limit = windows * cfg.image_serve_budget + 2;
  // At most one outstanding exchange per (level, peer), each sending at
  // most once per second of backoff; doubled for window phase, plus slop
  // for the burst when a heal exposes every peer's gap at once.
  const uint64_t request_limit =
      2 * static_cast<uint64_t>(levels) * cluster_.size() + 4;
  const bool armed = sim_.now() >= config_.formation_grace;
  for (size_t i = 0; i < cluster_.size(); ++i) {
    HierDaemon* daemon = cluster_.hier_daemon(i);
    if (daemon == nullptr) continue;
    const obs::MetricsRegistry& metrics = net_.obs().metrics;
    const membership::NodeId host = cluster_.hosts()[i];
    auto hier = [&](std::string_view name) {
      return metrics.counter_value(obs::Protocol::kHier, name, host);
    };
    const uint64_t served =
        hier("bootstraps_served") + hier("syncs_served");
    const uint64_t requested =
        hier("bootstraps_requested") + hier("syncs_requested");
    const bool reset =
        served < last_served_[i] || requested < last_requested_[i];
    const uint64_t served_delta = reset ? 0 : served - last_served_[i];
    const uint64_t requested_delta =
        reset ? 0 : requested - last_requested_[i];
    last_served_[i] = served;
    last_requested_[i] = requested;
    if (!armed || reset || !truth_[i].alive || truth_[i].paused) continue;
    if (cfg.image_serve_budget > 0 && served_delta > serve_limit) {
      add_violation(
          "solicited-rate", cluster_.hosts()[i], membership::kInvalidNode,
          "served " + std::to_string(served_delta) +
              " full images in one check window (cap " +
              std::to_string(serve_limit) + ")" +
              egress_shed_breakdown(net_.obs().metrics));
    }
    if (requested_delta > request_limit) {
      add_violation(
          "solicited-rate", cluster_.hosts()[i], membership::kInvalidNode,
          "sent " + std::to_string(requested_delta) +
              " solicited requests in one check window (cap " +
              std::to_string(request_limit) + ")" +
              egress_shed_breakdown(net_.obs().metrics));
    }
  }
}

void MembershipOracle::check_epochs() {
  // Invariants 7-8: leadership-epoch hygiene (hierarchical only).
  const int levels = hier_levels();
  if (epoch_seen_.empty()) {
    epoch_seen_.assign(cluster_.size(),
                       std::vector<membership::Epoch>(levels, 0));
    stale_claim_since_.assign(cluster_.size(),
                              std::vector<sim::Time>(levels, 0));
  }
  const sim::Time now = sim_.now();
  const sim::Duration deadline = detection_deadline();
  for (int level = 0; level < levels; ++level) {
    // Invariant 7: a daemon's known epoch never regresses in one lifetime.
    // Checked for every live daemon (a paused one keeps running, merely
    // detached) — there is no legitimate way for this number to shrink.
    for (size_t i = 0; i < cluster_.size(); ++i) {
      if (!truth_[i].alive) continue;
      HierDaemon* daemon = cluster_.hier_daemon(i);
      if (daemon == nullptr || !daemon->running()) continue;
      const membership::Epoch epoch = daemon->epoch_of(level);
      if (epoch < epoch_seen_[i][level]) {
        add_violation(
            "epoch-monotonicity", cluster_.hosts()[i], membership::kInvalidNode,
            "level-" + std::to_string(level) + " epoch went backwards (" +
                std::to_string(epoch_seen_[i][level]) + " -> " +
                std::to_string(epoch) + ") within one daemon lifetime");
      }
      epoch_seen_[i][level] = std::max(epoch_seen_[i][level], epoch);
    }
    // Invariant 8: stale-purge detection. A node leading under an epoch
    // older than a live leader within earshot is replaying superseded
    // leadership — the state that turns resumed out-logs and refreshes
    // into cross-rack purges. It must abdicate as soon as the live
    // leader's traffic reaches it; a claim outliving the detection
    // deadline means the fencing failed.
    for (size_t i = 0; i < cluster_.size(); ++i) {
      if (!truth_[i].alive || truth_[i].paused) continue;
      HierDaemon* daemon = cluster_.hier_daemon(i);
      if (daemon == nullptr || !daemon->running() ||
          !daemon->is_leader(level)) {
        stale_claim_since_[i][level] = 0;
        continue;
      }
      const net::HostId self = cluster_.hosts()[i];
      bool superseded = false;
      for (size_t j = 0; j < cluster_.size() && !superseded; ++j) {
        if (j == i || !truth_[j].alive || truth_[j].paused) continue;
        HierDaemon* peer = cluster_.hier_daemon(j);
        if (peer == nullptr || !peer->running() || !peer->is_leader(level)) {
          continue;
        }
        if (peer->epoch_of(level) <= daemon->epoch_of(level)) continue;
        const net::HostId other = cluster_.hosts()[j];
        int ttl = topology_.ttl_required(other, self);
        if (ttl == 0 || ttl > level + 1) continue;  // out of earshot
        if (!is_reachable(other, self)) continue;
        superseded = true;
      }
      if (!superseded) {
        stale_claim_since_[i][level] = 0;
        continue;
      }
      if (stale_claim_since_[i][level] == 0) {
        stale_claim_since_[i][level] = now;
      } else if (now - stale_claim_since_[i][level] > deadline) {
        add_violation(
            "stale-purge", self, membership::kInvalidNode,
            "level-" + std::to_string(level) +
                " leadership claim under a superseded epoch persisted " +
                sim::format_time(now - stale_claim_since_[i][level]) +
                " within earshot of the live leader");
        stale_claim_since_[i][level] = now;  // rate-limit repeats
      }
    }
  }
}

void MembershipOracle::check_completeness() {
  // Invariant 4: at quiescence every view is exactly the live node set.
  std::vector<NodeId> expected;
  for (size_t i = 0; i < cluster_.size(); ++i) {
    if (truth_[i].alive && !truth_[i].paused) {
      expected.push_back(cluster_.hosts()[i]);
    }
  }
  std::sort(expected.begin(), expected.end());

  for (size_t i = 0; i < cluster_.size(); ++i) {
    if (!truth_[i].alive || truth_[i].paused) continue;
    std::vector<NodeId> view = cluster_.daemon(i).table().node_ids();
    if (view.size() == expected.size() &&
        std::equal(view.begin(), view.end(), expected.begin())) {
      continue;
    }
    // Name one concrete discrepancy for the report.
    std::string detail;
    NodeId culprit = membership::kInvalidNode;
    for (NodeId id : expected) {
      if (!std::binary_search(view.begin(), view.end(), id)) {
        culprit = id;
        detail = "live node missing from view at quiescence";
        break;
      }
    }
    if (culprit == membership::kInvalidNode) {
      for (NodeId id : view) {
        if (!std::binary_search(expected.begin(), expected.end(), id)) {
          culprit = id;
          detail = "dead node still present in view at quiescence";
          break;
        }
      }
    }
    add_violation("completeness", cluster_.hosts()[i], culprit,
                  detail + " (view " + std::to_string(view.size()) + "/" +
                      std::to_string(expected.size()) + " nodes)");
  }
}

void MembershipOracle::check_leader_uniqueness() {
  // Invariant 5: "a group leader cannot see other leaders at the same
  // level" — no two level-L leaders within TTL L+1 of each other.
  const int levels = hier_levels();
  for (int level = 0; level < levels; ++level) {
    std::vector<size_t> leaders;
    for (size_t i = 0; i < cluster_.size(); ++i) {
      if (!truth_[i].alive || truth_[i].paused) continue;
      HierDaemon* daemon = cluster_.hier_daemon(i);
      if (daemon != nullptr && daemon->running() && daemon->is_leader(level)) {
        leaders.push_back(i);
      }
    }
    for (size_t a = 0; a < leaders.size(); ++a) {
      for (size_t b = a + 1; b < leaders.size(); ++b) {
        net::HostId ha = cluster_.hosts()[leaders[a]];
        net::HostId hb = cluster_.hosts()[leaders[b]];
        int ttl = topology_.ttl_required(ha, hb);
        if (ttl == 0 || ttl > level + 1) continue;  // out of earshot
        if (!is_reachable(ha, hb) || !is_reachable(hb, ha)) continue;
        add_violation("leader-uniqueness", ha, hb,
                      "two level-" + std::to_string(level) +
                          " leaders within earshot (ttl " +
                          std::to_string(ttl) + ")");
      }
    }
  }
}

void MembershipOracle::check_provenance() {
  // Invariant 6: relayed_by chains are acyclic and rooted at a live,
  // directly-heard relay.
  for (size_t i = 0; i < cluster_.size(); ++i) {
    if (!truth_[i].alive || truth_[i].paused) continue;
    HierDaemon* daemon = cluster_.hier_daemon(i);
    if (daemon == nullptr || !daemon->running()) continue;
    const auto& table = daemon->table();
    for (const auto& [id, entry] : table.entries()) {
      if (entry.liveness != Liveness::kRelayed) continue;
      std::set<NodeId> visited{id};
      const membership::MembershipEntry* cursor = &entry;
      NodeId subject = id;
      while (true) {
        NodeId relay = cursor->relayed_by;
        if (relay == daemon->self()) break;  // self-rooted: fine
        if (relay == membership::kInvalidNode) {
          add_violation("provenance", daemon->self(), subject,
                        "relayed entry with no relay at quiescence");
          break;
        }
        auto relay_it =
            std::find(cluster_.hosts().begin(), cluster_.hosts().end(), relay);
        if (relay_it == cluster_.hosts().end() ||
            !truth_[static_cast<size_t>(relay_it - cluster_.hosts().begin())]
                 .alive) {
          add_violation("provenance", daemon->self(), subject,
                        "provenance chain rooted at dead relay " +
                            std::to_string(relay));
          break;
        }
        if (!visited.insert(relay).second) {
          add_violation("provenance", daemon->self(), subject,
                        "provenance cycle through relay " +
                            std::to_string(relay));
          break;
        }
        const membership::MembershipEntry* next = table.find(relay);
        if (next == nullptr) {
          add_violation("provenance", daemon->self(), subject,
                        "relay " + std::to_string(relay) +
                            " missing from the directory");
          break;
        }
        if (next->liveness == Liveness::kDirect) break;  // well-founded root
        cursor = next;
        subject = relay;
      }
    }
  }
}

void MembershipOracle::check_scope_reconvergence() {
  // Invariant 11: at quiescence every group membership is consistent with
  // the topology as it stands *now* — after any runtime mutation, the
  // hierarchy has re-formed around the new ttl_required() distances.
  // Observer o must track subject s in its level-L group iff s is up and
  // has joined level L, s currently sits within TTL L+1 of o, and the pair
  // is mutually reachable; any stale (or missing) membership past the
  // reconvergence bound is a wedged scope.
  const int levels = hier_levels();
  for (size_t i = 0; i < cluster_.size(); ++i) {
    if (!truth_[i].alive || truth_[i].paused) continue;
    HierDaemon* daemon = cluster_.hier_daemon(i);
    if (daemon == nullptr || !daemon->running()) continue;
    const net::HostId self = cluster_.hosts()[i];
    for (int level = 0; level < levels; ++level) {
      if (!daemon->joined(level)) continue;
      std::vector<NodeId> members = daemon->group_members(level);
      std::sort(members.begin(), members.end());
      for (size_t j = 0; j < cluster_.size(); ++j) {
        if (j == i) continue;
        const net::HostId subject = cluster_.hosts()[j];
        const bool tracked =
            std::binary_search(members.begin(), members.end(), subject);
        bool expected = false;
        if (truth_[j].alive && !truth_[j].paused) {
          HierDaemon* peer = cluster_.hier_daemon(j);
          if (peer != nullptr && peer->running() && peer->joined(level)) {
            const int ttl = topology_.ttl_required(self, subject);
            expected = ttl > 0 && ttl <= level + 1 &&
                       is_reachable(subject, self) &&
                       is_reachable(self, subject);
          }
        }
        if (tracked == expected) continue;
        const int ttl = topology_.ttl_required(self, subject);
        add_violation(
            "scope-reconvergence", self, subject,
            std::string(tracked ? "still tracked in" : "missing from") +
                " the level-" + std::to_string(level) +
                " group at quiescence (current ttl_required " +
                std::to_string(ttl) + ", scope " + std::to_string(level + 1) +
                ")");
      }
    }
  }
}

void MembershipOracle::add_violation(const std::string& invariant,
                                     NodeId observer, NodeId subject,
                                     const std::string& detail) {
  if (violations_.size() >= kOracleMaxViolations) return;
  Violation violation;
  violation.invariant = invariant;
  violation.when = sim_.now();
  violation.observer = observer;
  violation.subject = subject;
  violation.detail = detail;
  violations_.push_back(std::move(violation));
}

std::string MembershipOracle::report() const {
  std::string out;
  for (const auto& violation : violations_) {
    if (!out.empty()) out += "\n";
    out += violation.to_string();
  }
  return out;
}

}  // namespace tamp::protocols
