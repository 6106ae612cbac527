// The membership invariant oracle: continuous, automatic grading of a
// running cluster against the paper's correctness claims.
//
// The oracle owns the ground truth — which nodes are really alive, paused,
// or partitioned comes from the fault executor via the note_*() calls — and
// every virtual second compares it against what the protocol believes. The
// invariants checked (paper Sections 1, 3.1, 4):
//
//  1. No phantoms (always): no directory ever contains a node that was
//     never part of the cluster.
//  2. No false failure declarations (always): a node that stayed alive and
//     reachable from its observer for longer than the scheme's detection
//     bound is never declared dead. Declarations made while faults are
//     actively disturbing the network, or within one detection bound of
//     one, are excused — removing an unreachable node is *correct*.
//  3. Bounded detection (event-driven): after a clean crash, every running
//     observer that knew the victim must remove it within the Section-4
//     detection+convergence bound times a slack factor, unless another
//     fault intervened.
//  4. Eventual completeness (at quiescence): once the schedule has been
//     quiet long enough for the scheme's own repair horizon (timeouts,
//     tombstone expiry, anti-entropy), every running node's view equals
//     exactly the live node set — the paper's completeness + accuracy.
//  5. Leader uniqueness (at quiescence, hierarchical): no two level-L
//     leaders within TTL L+1 of each other — "a group leader cannot see
//     other leaders at the same level".
//  6. Provenance hygiene (at quiescence, hierarchical): every relayed
//     entry's relayed_by chain is acyclic and terminates at a directly
//     heard, actually-live relay (the Timeout protocol's purge chains stay
//     well-founded).
//  7. Epoch monotonicity (always, hierarchical): the leadership epoch a
//     daemon knows for a level never decreases within one daemon lifetime
//     (a restart starts a fresh observer).
//  8. No persistent stale leadership (always, hierarchical): a node
//     claiming leadership under an epoch older than a live leader within
//     earshot must stand down within the detection deadline — a stale
//     claim that persists is exactly the state from which stale-replay
//     purges propagate.
//  9. Bounded join propagation (event-driven): after a restart, every
//     running observer must (re)admit the revenant within the scheme's
//     full repair horizon — graded per join, so a storm of later faults
//     elsewhere cannot hide one node that never made it back in.
// 10. Bounded solicited traffic (always, hierarchical): the per-daemon
//     full-image serve rate stays within the admission-control budget and
//     the solicited-request rate stays within what dedup'd, backed-off
//     retries can produce. A breach means the recovery path is amplifying
//     load instead of shedding it — the overload death-spiral signature.
// 11. Scope reconvergence (at quiescence, hierarchical): every group
//     membership matches the *live* topology's TTL distances — observer o
//     tracks subject s in its level-L group iff s has joined level L, the
//     current ttl_required(o, s) is in (0, L+1], and the pair is mutually
//     reachable. Graded on every run; after runtime topology mutation
//     (router crash/recovery, added links, host migration) this is the
//     "groups reconverged to the new shape" guarantee, and on a run with
//     no mutation it degenerates to a static scope-consistency check.
//
// The first violation is captured with full context (invariant, observer,
// subject, virtual time, detail) so a failing chaos scenario is
// diagnosable from the test log alone.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "protocols/cluster.h"
#include "sim/timer.h"

namespace tamp::protocols {

// How often the oracle grades the cluster.
inline constexpr sim::Duration kOracleCheckInterval = sim::kSecond;
// Multiplier on the analytical detection/convergence bounds; >1 absorbs
// scan-interval quantization and scheduling phase.
inline constexpr double kOracleSlack = 3.0;
// The oracle stops collecting violations after this many.
inline constexpr size_t kOracleMaxViolations = 8;

class MembershipOracle {
 public:
  struct Config {
    // Cold-start allowance before invariants 2-4 arm.
    sim::Duration formation_grace = 15 * sim::kSecond;
    // Floor on the hierarchy depth the checks size their bookkeeping for.
    // The level count is otherwise derived from the topology's *current*
    // max_ttl — set this when runtime mutation will deepen the hierarchy
    // past its build-time depth (e.g. a host migrated behind a new router),
    // so bounds and per-level state cover the final shape from the start.
    int min_levels = 0;
  };

  struct Violation {
    std::string invariant;
    sim::Time when = 0;
    membership::NodeId observer = membership::kInvalidNode;
    membership::NodeId subject = membership::kInvalidNode;
    std::string detail;

    std::string to_string() const;
  };

  MembershipOracle(sim::Simulation& sim, net::Network& net,
                   net::Topology& topology, Cluster& cluster, Config config);
  MembershipOracle(sim::Simulation& sim, net::Network& net,
                   net::Topology& topology, Cluster& cluster);

  // Takes the cluster's one change listener (replacing any other) and
  // starts the periodic check. Call after Cluster construction, before or
  // after start_all().
  void start();
  void stop();

  // --- ground truth (the fault executor reports every action) -----------
  void note_crash(size_t index);
  void note_restart(size_t index);
  void note_pause(size_t index);
  void note_resume(size_t index);
  // Any change to network conditions (partition start *or* heal, loss /
  // delay / duplication window edges, link state) — resets the quiescence
  // clock and opens an excuse window for failure declarations.
  void note_network_fault(bool any_active);
  // The topology itself changed shape (router crash/recovery, link added,
  // host migrated): resets the quiescence clock, so invariant 11 grades the
  // new shape once the quiescence horizon has passed. Callers still report
  // the accompanying reachability change through note_network_fault.
  void note_topology_mutation();

  // Reachability under the currently injected faults, direction-sensitive
  // (can packets from `a` reach `b`?). Defaults to topology reachability +
  // host up/down; the scenario runner overrides it to include injected
  // partitions.
  void set_reachability(std::function<bool(net::HostId, net::HostId)> fn) {
    reachable_ = std::move(fn);
  }

  // --- results -----------------------------------------------------------
  bool ok() const { return violations_.empty(); }
  const std::vector<Violation>& violations() const { return violations_; }
  // All captured violations, one per line (empty string when ok).
  std::string report() const;
  uint64_t checks_run() const { return checks_run_; }

  // Scheme-derived bounds (without slack); exposed for tests.
  sim::Duration detection_bound() const { return detection_bound_; }
  sim::Duration convergence_bound() const { return convergence_bound_; }
  sim::Duration quiesce_bound() const { return quiesce_; }
  // Bound × slack: the deadline actually enforced.
  sim::Duration detection_deadline() const;
  // Invariant 9's per-join deadline: the scheme's full repair horizon
  // (level-scaled for the hierarchical scheme via convergence + tombstone
  // expiry + anti-entropy). Deliberately = quiesce_bound(), so every probe
  // is graded before the scenario horizon runs out.
  sim::Duration join_deadline() const { return quiesce_; }

 private:
  struct NodeTruth {
    bool alive = true;
    bool paused = false;
    sim::Time last_disturbed = 0;  // crash/restart/pause/resume
  };
  // Outstanding obligation from a clean crash: every observer listed in
  // `pending` must drop the victim by `killed_at + detection_deadline()`.
  struct KillProbe {
    size_t victim_index = 0;
    membership::NodeId victim = membership::kInvalidNode;
    sim::Time killed_at = 0;
    std::vector<size_t> pending;
  };
  // Mirror obligation from a restart: every observer listed in `pending`
  // must (re)admit the revenant by `restarted_at + join_deadline()`.
  struct JoinProbe {
    size_t revenant_index = 0;
    membership::NodeId revenant = membership::kInvalidNode;
    sim::Time restarted_at = 0;
    std::vector<size_t> pending;
  };

  void derive_bounds();
  // Hierarchy depth the per-level checks cover: the live topology's
  // (clamped) max_ttl, floored by Config::min_levels. Per-level bookkeeping
  // is sized with this at first use, so min_levels must cover any depth the
  // run's mutations can reach.
  int hier_levels() const;
  void on_change(size_t observer_index, membership::NodeId subject, bool alive,
                 sim::Time when);
  bool default_reachable(net::HostId from, net::HostId to) const;
  bool is_reachable(net::HostId from, net::HostId to) const;
  bool excused(size_t observer_index, membership::NodeId subject,
               sim::Time when) const;
  bool quiescent() const;
  void tick();
  void check_phantoms();
  void check_kill_probes();
  void check_join_probes();
  void check_epochs();
  void check_solicited_rate();
  void check_completeness();
  void check_leader_uniqueness();
  void check_provenance();
  void check_scope_reconvergence();
  void add_violation(const std::string& invariant, membership::NodeId observer,
                     membership::NodeId subject, const std::string& detail);

  sim::Simulation& sim_;
  net::Network& net_;
  net::Topology& topology_;
  Cluster& cluster_;
  Config config_;
  sim::PeriodicTimer check_timer_;

  std::vector<NodeTruth> truth_;
  std::vector<KillProbe> probes_;
  std::vector<JoinProbe> join_probes_;
  // Previous check tick's solicited-traffic counters, per daemon
  // (invariant 10; hierarchical only, sized lazily). A counter that went
  // backwards means the daemon restarted: resync without grading.
  std::vector<uint64_t> last_served_;
  std::vector<uint64_t> last_requested_;
  // Per (observer, level) epoch bookkeeping for invariants 7-8 (hierarchical
  // only; sized lazily on first check). epoch_seen_ is the highest epoch the
  // observer has reported this lifetime; stale_claim_since_ is when it was
  // first seen leading under an epoch older than a live leader in earshot
  // (0 = not currently).
  std::vector<std::vector<membership::Epoch>> epoch_seen_;
  std::vector<std::vector<sim::Time>> stale_claim_since_;
  sim::Time last_fault_ = 0;          // any note_*() call
  sim::Time last_network_change_ = 0; // network-condition edges only
  bool network_fault_active_ = false;
  std::function<bool(net::HostId, net::HostId)> reachable_;

  sim::Duration detection_bound_ = 0;
  sim::Duration convergence_bound_ = 0;
  sim::Duration quiesce_ = 0;
  std::vector<Violation> violations_;
  uint64_t checks_run_ = 0;
  bool running_ = false;
};

}  // namespace tamp::protocols
