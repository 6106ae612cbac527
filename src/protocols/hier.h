// The topology-adaptive hierarchical membership protocol — the paper's
// contribution (Section 3.1).
//
// Group formation. Every node joins the base multicast channel with TTL 1;
// the hosts it hears there are its level-0 ("local") group — by TTL
// semantics, exactly the hosts on its L2 segment. Each group elects a
// leader (bully, lowest id wins); leaders join channel `base + 1` with TTL
// 2, forming level-1 groups, and so on until MAX_TTL. Groups at the same
// level share one channel: TTL scoping keeps disjoint groups from hearing
// each other, and where the topology makes TTL non-transitive the groups
// overlap (paper Fig. 4) — handled by the election suppression rule ("a
// node does not participate in an election on a channel where it already
// hears a leader") and by idempotent updates.
//
// Sub-protocols (Section 3.1.2), all implemented here:
//  * Bootstrap — a joining node listens for the leader flag, then pulls the
//    full directory from the leader; the leader symmetrically absorbs
//    whatever the newcomer knows (it may be a lower-level leader bringing a
//    subtree).
//  * Update — a group's leader turns locally detected joins/leaves into
//    update records and multicasts them to the next-higher group; every
//    member relays fresh records into the groups *it* leads. Records are
//    deduplicated by their effect on the local table, so overlapping groups
//    and redundant relays converge without loops.
//  * Timeout — soft-state expiry. Level-L members are declared dead after
//    max_losses * period * level_timeout_factor^L without a heartbeat
//    (higher levels get longer timeouts so a lower-level re-election wins
//    the race). Entries relayed by a leader live exactly as long as that
//    leader: its death purges them, and explicit LEAVE records propagate the
//    purge downstream — this is what detects a network partition quickly.
//  * Message-loss detection — per-(channel, origin) sequence numbers on
//    update messages; each message piggybacks the previous `piggyback`
//    records, so up to that many consecutive losses are absorbed; a larger
//    gap triggers a unicast resynchronization poll.
//
// Leadership. Each leader designates a random backup in its heartbeats; on
// leader death the backup takes over immediately, and a full bully election
// runs only when both are gone. A leader of level L joins level L+1 and
// answers bootstrap/sync polls; losing leadership cascades it back out of
// all higher levels.
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/obs.h"
#include "protocols/daemon.h"
#include "protocols/ports.h"
#include "sim/timer.h"
#include "util/retry.h"

namespace tamp::protocols {

// Buckets per anti-entropy digest; mismatches are repaired per bucket, so
// more buckets localize divergence better at ~8 bytes each on the wire.
inline constexpr size_t kDigestBuckets = 16;
// Divergent rows one RefreshDeltaMsg may carry. A delta clipped at this cap
// is marked truncated and the receiver escalates to the full-image sync
// path (which sits behind image_serve_budget).
inline constexpr size_t kDigestMaxRowsPerDelta = 64;
// How often each joined level's members are checked against its timeout.
inline constexpr sim::Duration kHierScanInterval = 100 * sim::kMillisecond;
// Bully election: how long a candidate waits for an ANSWER before claiming,
// and how long an answered candidate waits for the winner's COORDINATOR.
inline constexpr sim::Duration kElectionTimeout = 300 * sim::kMillisecond;
inline constexpr sim::Duration kCoordinatorTimeout = 800 * sim::kMillisecond;
// How long a group waits for the designated backup to take over a dead
// leader before it falls back to a full election.
inline constexpr sim::Duration kBackupGrace = 600 * sim::kMillisecond;
// How long a removed node's (node, incarnation) stays quarantined against
// relayed re-joins. Must exceed the piggyback replay horizon and be short
// enough that healed partitions re-merge promptly.
inline constexpr sim::Duration kTombstoneTtl = 15 * sim::kSecond;
// Solicited request/response exchanges (bootstrap and sync polls) are
// retried under this policy until answered; at budget exhaustion the
// requester escalates instead (bootstrap: wait for the next leader claim;
// sync: anchor past the gap and let the anti-entropy refresh repair it).
inline constexpr util::RetryPolicy kExchangeRetry{sim::kSecond,
                                                  8 * sim::kSecond};

// Paper bootstrap: a joining node listens this long for a leader's flag
// before it starts an election, i.e. two and a half heartbeat periods.
inline constexpr sim::Duration join_listen(sim::Duration period) {
  return 5 * period / 2;
}

struct HierConfig {
  net::ChannelId base_channel = kBaseChannel;
  // "For maximum control flexibility, our implementation also allows
  // administrators to specify multicast channels at each level": when
  // non-empty, entry [l] (if non-zero) overrides `base_channel + l`.
  std::vector<net::ChannelId> level_channels;
  net::Port data_port = kDataPort;
  net::Port control_port = kControlPort;
  // Highest TTL value the formation process may use (paper MAX_TTL); level L
  // uses TTL L+1, so levels 0 .. max_ttl-1 exist.
  int max_ttl = 4;
  sim::Duration period = sim::kSecond;          // MCAST_FREQ
  int max_losses = 5;                           // MAX_LOSS
  double level_timeout_factor = 1.5;            // higher levels time out later
  int piggyback = 3;          // previous updates carried by each update msg
  size_t heartbeat_pad = 0;   // fixed heartbeat size (0 = natural size)
  // Period of the leaders' anti-entropy round: a bucketed digest of the
  // view into each group they lead (and of their subtree upward), answered
  // by pulls for the mismatched buckets and deltas carrying only the
  // divergent rows. Repairs anything event-driven updates missed, e.g.
  // after a healed partition. Must be positive.
  sim::Duration refresh_interval = 30 * sim::kSecond;
  // Full-image serves (bootstrap + sync responses) admitted per `period`;
  // overflow is answered with BusyMsg{retry_after} so a mass join or healed
  // partition cannot turn a leader into an O(joiners) response burst.
  // 0 = unlimited.
  size_t image_serve_budget = 8;
};

// How long a member heard at `level` may stay silent before it is declared
// dead: max_losses * period * level_timeout_factor^level.
sim::Duration level_timeout(const HierConfig& config, int level);

// Per-daemon counters live in the MetricsRegistry under
// {obs::Protocol::kHier, <name>, self}; query net.obs().metrics directly
// (the one-field-per-counter HierStats view is gone).

class HierDaemon : public MembershipDaemon {
 public:
  HierDaemon(sim::Simulation& sim, net::Network& net, membership::NodeId self,
             membership::EntryData own, HierConfig config = {});
  ~HierDaemon() override;

  void start() override;
  void stop() override;

  // --- introspection (tests / benches) -------------------------------------
  bool joined(int level) const;
  bool is_leader(int level) const;
  membership::NodeId leader_of(int level) const;    // kInvalidNode if unknown
  membership::NodeId backup_of(int level) const;
  std::vector<int> joined_levels() const;
  // Nodes currently heard directly on the given level's channel.
  std::vector<membership::NodeId> group_members(int level) const;
  // In-flight solicited exchange slots (bootstrap + sync, exhausted ones
  // included) tracked at `level` — bounded by the group size + 1.
  size_t pending_exchanges(int level) const;
  const HierConfig& config() const { return config_; }
  // Highest leadership epoch this node knows for `level` (its own minted
  // epoch while it leads). Persists across joins/leaves of the level —
  // epoch knowledge must never regress within one daemon lifetime.
  membership::Epoch epoch_of(int level) const;

  // Timeout used for members heard at `level`.
  sim::Duration level_timeout(int level) const {
    return protocols::level_timeout(config_, level);
  }

 private:
  struct MemberInfo {
    sim::Time last_heard = 0;
    bool is_leader = false;
    membership::NodeId backup = membership::kInvalidNode;
  };

  struct LevelState {
    int level = 0;
    bool joined = false;
    bool bootstrapped = false;
    std::map<membership::NodeId, MemberInfo> members;  // excludes self
    // A lower bound on every member's last_heard. Every stamp is sim_.now()
    // and sim time never runs backwards, so inserts, refreshes and erases
    // can only raise the true minimum; scan_level skips the walk while no
    // member can have expired yet, and re-tightens the bound when it walks.
    sim::Time oldest_heard = 0;

    membership::NodeId leader = membership::kInvalidNode;  // may be self
    membership::NodeId leader_backup = membership::kInvalidNode;
    bool i_am_leader = false;
    membership::NodeId my_backup = membership::kInvalidNode;

    bool electing = false;
    bool answered = false;  // saw an ANSWER for our candidacy

    // Highest leadership epoch observed on this channel (== our own minted
    // epoch while i_am_leader). Epochs are lineage-scoped: overlapping
    // groups sharing this channel mint independently, so this value is used
    // for minting above the channel's history and for claim-vs-claim
    // resolution — never as a blanket fence against arbitrary senders.
    // Survives leaving the level; reset only by a daemon restart, which the
    // oracle treats as a fresh observer.
    membership::Epoch epoch = 0;
    // Succession record: claimant -> highest (epoch, incarnation) at which
    // its leadership of a group on this channel is known superseded. A
    // claim (or update / image) from a listed node at or below that epoch
    // is stale replay — but only within the same life: a claimant that
    // restarted (higher incarnation) is a new lineage and passes the fence,
    // otherwise a node once superseded could never lead again after a
    // crash-restart. Populated from CoordinatorMsg::prev and repelled
    // claims.
    struct Fence {
      membership::Epoch epoch = 0;
      membership::Incarnation incarnation = 0;
    };
    std::map<membership::NodeId, Fence> superseded;
    // The leader whose loss triggered our pending/held leadership — named
    // as CoordinatorMsg::prev so the group learns the succession — plus the
    // incarnation its fenced life was living.
    membership::NodeId prev_leader = membership::kInvalidNode;
    membership::Incarnation prev_leader_incarnation = 0;
    // Last time any packet arrived on this channel. A gap exceeding the
    // level's own failure timeout means every peer has timed us out: the
    // out-log stamped during the gap is stale and must not be replayed.
    sim::Time last_received = 0;
    // Rate limit for the re-seed refresh triggered by stale leadership
    // claims (a resumed stale leader heartbeats until it learns better).
    sim::Time last_stale_reseed = 0;

    uint64_t out_seq = 0;
    std::deque<membership::UpdateRecord> out_log;      // newest at front
    // Highest seq ever trimmed (popped or cleared) out of the out-log.
    // Records compacted away as shadowed do NOT raise it: their shadower is
    // still in the log at a higher seq and covers them. Feeds
    // UpdateMsg::window_base so receivers can tell a compaction hole (fine)
    // from trimmed-away history (needs a full-image sync).
    uint64_t out_log_base = 0;
    // Per-origin receive cursor, scoped by the origin's incarnation: a
    // restarted origin starts a fresh stream at seq 0.
    struct InCursor {
      membership::Incarnation incarnation = 0;
      uint64_t seq = 0;
    };
    std::unordered_map<membership::NodeId, InCursor> in_seq;
    // Digest rounds carry no sequence number, so a lost one is detected by
    // time instead: when each (origin, subtree) stream heard on this
    // channel owes its next round. Refresh timers tick at a fixed period,
    // so a round still missing a period past that is lost, and
    // check_digest_rounds pulls it rather than letting its rows age toward
    // orphan expiry.
    std::map<std::pair<membership::NodeId, bool>, sim::Time> digest_due;

    // One in-flight solicited exchange: the unanswered poll's target and
    // request builder, how many sends it has consumed, and the retry
    // deadline. An `exhausted` slot has spent its attempt budget; it stays
    // (deduplicating further triggers) until the escalation path or a
    // pruning event clears it — never from inside its own timer callback.
    struct PendingExchange {
      membership::NodeId target = membership::kInvalidNode;
      void (HierDaemon::*send)(int level, membership::NodeId target) = nullptr;
      int attempts = 0;
      bool exhausted = false;
      std::unique_ptr<sim::OneShotTimer> timer;
    };
    // Keyed by (kind, target): at most one bootstrap slot per level (it
    // sorts first) and one sync slot per origin.
    std::map<std::pair<membership::BusyKind, membership::NodeId>,
             std::unique_ptr<PendingExchange>>
        exchanges;

    std::unique_ptr<sim::OneShotTimer> listen_timer;
    std::unique_ptr<sim::OneShotTimer> election_timer;
    std::unique_ptr<sim::OneShotTimer> coordinator_timer;
    std::unique_ptr<sim::OneShotTimer> backup_grace_timer;
  };

  // --- level / channel plumbing -----------------------------------------
  net::ChannelId channel_of(int level) const {
    if (static_cast<size_t>(level) < config_.level_channels.size() &&
        config_.level_channels[static_cast<size_t>(level)] != 0) {
      return config_.level_channels[static_cast<size_t>(level)];
    }
    return config_.base_channel + static_cast<net::ChannelId>(level);
  }
  uint8_t ttl_of(int level) const { return static_cast<uint8_t>(level + 1); }
  int level_of_channel(net::ChannelId channel) const;
  LevelState& level_state(int level) { return *levels_[level]; }
  // The level a control message names, clamped to 0 when out of range.
  int wire_level(uint8_t level) const {
    return level < config_.max_ttl ? level : 0;
  }

  void join_level(int level);
  // Leave `level` and everything above; `announce` multicasts a goodbye on
  // each channel first (voluntary departure vs. crash).
  void leave_levels_from(int level, bool announce = false);

  // --- periodic work -----------------------------------------------------
  // Reacts to a topology epoch change first (see on_topology_change), then
  // heartbeats every joined level.
  void heartbeat_tick();
  void send_heartbeat(int level);
  void scan_tick();
  void scan_level(int level);
  // Self-healing across runtime topology mutation: the network's topology
  // epoch (Topology::epoch()) moved since the last heartbeat tick, so
  // re-probe every group member's TTL distance — modelling the ICMP probe a
  // real deployment would fire after a routing change.
  void on_topology_change(uint64_t epoch);
  // Drop this level's members whose live ttl_required() no longer fits the
  // level's scope, via the voluntary-leave path (they are alive, just
  // moved). Unreachable members (ttl_required() == 0) stay: whether they
  // died or were cut off, the failure detector decides. Returns how many
  // were dropped.
  size_t drop_out_of_scope(int level);
  // A member left this channel alive (goodbye, or moved out of scope): drop
  // its bookkeeping, with no death semantics.
  void forget_member(LevelState& ls, membership::NodeId member);
  void on_member_dead(int level, membership::NodeId member);
  bool heard_directly(membership::NodeId node) const;
  // Drop entries whose relay chain went through `dead` (paper Timeout
  // protocol: relayed information lives exactly as long as its relay).
  // `trigger_epoch` is the leadership epoch under which the death was
  // established; the purge aborts if the level's leadership has since moved
  // to a newer epoch (the new leader's refresh owns the truth then).
  void purge_dependents(membership::NodeId dead, int arrival_level,
                        membership::Epoch trigger_epoch);

  // --- packet handling ------------------------------------------------------
  void on_data_packet(const net::Packet& packet);
  void on_control_packet(const net::Packet& packet);
  void on_heartbeat(int level, const membership::HeartbeatMsg& msg);
  void on_update(int level, const membership::UpdateMsg& msg);
  void on_election(int level, const membership::ElectionMsg& msg);
  void on_coordinator(int level, const membership::CoordinatorMsg& msg);

  // --- leadership ----------------------------------------------------------
  bool can_participate(int level) const;
  void maybe_start_election(int level);
  void election_deadline(int level);
  membership::NodeId pick_backup(int level);
  void become_leader(int level);
  void abdicate(int level);
  void handle_leader_loss(int level, membership::NodeId old_leader,
                          membership::Incarnation old_incarnation);
  // Fence maintenance: a fence is keyed to the fenced life. Raising with a
  // newer incarnation replaces the record; raising with an older one is
  // stale knowledge and ignored.
  static void raise_fence(LevelState& ls, membership::NodeId node,
                          membership::Epoch epoch,
                          membership::Incarnation incarnation);
  static bool fenced_stale(const LevelState& ls, membership::NodeId node,
                           membership::Epoch epoch,
                           membership::Incarnation incarnation);
  // Multicast a COORDINATOR assertion carrying the level's current epoch
  // and the superseded predecessor (prev_leader) when there is one.
  void send_coordinator(int level);
  // Adopt a *directly claimed* newer epoch (leader-flagged heartbeat or
  // COORDINATOR — never second-hand gossip). If this node held the now
  // superseded leadership, it silently abdicates, drops its stale out-log
  // instead of replaying it, and re-bootstraps from `new_leader` rather
  // than purging its old subtree.
  void adopt_epoch(int level, membership::Epoch epoch,
                   membership::NodeId new_leader);
  // A leader observed a stale leadership claim on its channel: record the
  // claimant in the succession fence, re-assert the live leadership (naming
  // the claimant as superseded), and re-seed its stale view.
  void repel_stale_claim(int level, membership::NodeId claimant,
                         membership::Epoch claim_epoch,
                         membership::Incarnation claim_incarnation);

  // --- update propagation -----------------------------------------------
  // Applies one record, fires notifications, cascades purges, and relays
  // onward if it changed the local view. Returns whether it was fresh.
  bool process_record(const membership::UpdateRecord& record,
                      membership::NodeId relayed_by, int arrival_level);
  // Relays a fresh record that arrived (or was detected) on `arrival_level`
  // into every group this node leads, plus upward when it leads the arrival
  // group itself.
  void relay_record(const membership::UpdateRecord& record, int arrival_level);
  void emit_batch(int level,
                  const std::vector<membership::UpdateRecord>& batch);
  // The refresh scope as a batch of join records: the full-image re-seed
  // of event-driven paths (become_leader, repel_stale_claim).
  void send_state_refresh(int level, bool subtree_only = false);

  // --- incremental anti-entropy (digests) -----------------------------------
  // The rows a refresh of `level` covers: the whole view downward, the
  // represented subtree upward.
  std::vector<const membership::MembershipEntry*> refresh_scope(
      int level, bool subtree_only) const;
  // Scope a digest *receiver* compares against. Downward digests cover the
  // origin's whole view (≈ ours, in steady state); upward subtree digests
  // are approximated as {origin} ∪ {rows relayed by origin} — a mismatch in
  // the approximation degrades to a cheap pull, never to wrong state.
  std::vector<const membership::MembershipEntry*> digest_receiver_scope(
      const membership::RefreshDigestMsg& msg) const;
  void send_refresh_digest(int level, bool subtree);
  void on_refresh_digest(int level, const membership::RefreshDigestMsg& msg);
  // Pull the `mismatched` buckets of `origin`'s digest scope, listing our
  // copies of the rows in them.
  void send_refresh_pull(
      int level, membership::NodeId origin, bool subtree,
      const std::vector<const membership::MembershipEntry*>& rows,
      const std::vector<bool>& mismatched);
  // Per heartbeat: pull every bucket from an origin whose digest round is
  // overdue (see LevelState::digest_due).
  void check_digest_rounds(int level);
  void on_refresh_pull(const membership::RefreshPullMsg& msg);
  void on_refresh_delta(const membership::RefreshDeltaMsg& msg);
  membership::UpdateRecord make_join_record(const membership::RowRef& entry);
  membership::UpdateRecord make_leave_record(membership::NodeId subject,
                                             membership::Incarnation inc);

  // --- bootstrap / sync ----------------------------------------------------
  // Open (or retarget) the level's bootstrap exchange towards `leader`.
  // No-ops while a poll to the same leader is in flight; a fresh target or
  // an exhausted slot starts over with a full attempt budget.
  void request_bootstrap(int level, membership::NodeId leader);
  // Open a sync exchange towards `origin` for this level's stream.
  // `observed_seq` is the origin's advertised stream position that exposed
  // the gap; when the exchange's budget is already exhausted it becomes the
  // anchor: the cursor jumps past the gap and anti-entropy repairs the rest.
  void request_sync(int level, membership::NodeId origin,
                    uint64_t observed_seq);
  // The request builders: one poll each, no slot bookkeeping.
  void send_bootstrap_request(int level, membership::NodeId leader);
  void send_sync_request(int level, membership::NodeId origin);
  // The lifecycle both polls share: open a slot and send; send through the
  // slot's builder, arm the retry and count the attempt; on the retry
  // timer, send again or mark the slot exhausted.
  void open_exchange(int level, membership::BusyKind kind,
                     membership::NodeId target,
                     void (HierDaemon::*send)(int, membership::NodeId));
  void send_exchange(int level, LevelState::PendingExchange& exchange);
  void retry_exchange(int level, LevelState::PendingExchange& exchange);
  // Drop the level's bootstrap slot, whatever its target.
  static void close_bootstrap(LevelState& ls);
  // Drop exchange slots aimed at a member that died or left the channel.
  static void prune_pending(LevelState& ls, membership::NodeId member);
  // Serve a bootstrap or sync image under admission control: a per-period
  // budget, refusals answered with BusyMsg naming a deterministic staggered
  // retry_after (each refusal in a window is pointed one budget-slot
  // further out, so the backlog drains at budget serves per period).
  template <typename Response>
  void serve_image(membership::NodeId requester, membership::BusyKind kind,
                   obs::Counter* served, Response& response);
  bool admit_image_serve();
  void on_busy(const membership::BusyMsg& msg);
  // Drop the out-log and advance the trim watermark so receivers behind
  // out_seq are forced onto the full-image path.
  void clear_out_log(LevelState& ls);
  // Deafness guard: drop an out-log stamped while every peer timed us out.
  void drop_deaf_backlog(LevelState& ls);
  std::vector<membership::RowRef> full_view() const;
  membership::NodeId provenance_tag(membership::NodeId subject,
                                    membership::NodeId proposed) const;
  void absorb_entries(const std::vector<membership::RowRef>& entries,
                      membership::NodeId relayed_by, int arrival_level);
  void reconcile_with_image(membership::NodeId responder,
                            const std::vector<membership::RowRef>& entries,
                            int arrival_level);
  void refresh_tick();

  // Registry handles, one per HierStats field, resolved once at
  // construction (keyed {kHier, name, self_}).
  struct Metrics {
    obs::Counter* heartbeats_sent = nullptr;
    obs::Counter* updates_sent = nullptr;
    obs::Counter* update_records_applied = nullptr;
    obs::Counter* elections_started = nullptr;
    obs::Counter* coordinators_sent = nullptr;
    obs::Counter* bootstraps_requested = nullptr;
    obs::Counter* bootstraps_served = nullptr;
    obs::Counter* syncs_requested = nullptr;
    obs::Counter* syncs_served = nullptr;
    obs::Counter* gaps_recovered_by_piggyback = nullptr;
    obs::Counter* relayed_purges = nullptr;
    obs::Counter* epochs_minted = nullptr;
    obs::Counter* stale_epoch_rejects = nullptr;
    obs::Counter* epochs_superseded = nullptr;
    obs::Counter* deaf_backlogs_dropped = nullptr;
    obs::Counter* exchange_retries = nullptr;
    obs::Counter* exchange_budget_exhausted = nullptr;
    obs::Counter* busy_sent = nullptr;
    obs::Counter* busy_deferrals = nullptr;
    obs::Counter* out_log_compacted = nullptr;
    // Digest anti-entropy. Sends (digests_sent / digest_pulls_sent /
    // deltas_sent) each have exactly one send site, so the chaos runner's
    // conservation identities can tie them to per-wire-kind tx counters.
    obs::Counter* digests_sent = nullptr;
    obs::Counter* digest_pulls_sent = nullptr;
    obs::Counter* digest_pulls_served = nullptr;
    obs::Counter* deltas_sent = nullptr;
    obs::Counter* delta_rows_shipped = nullptr;      // divergent rows shipped
    obs::Counter* digest_rows_suppressed = nullptr;  // agreeing rows confirmed
    obs::Counter* digest_full_fallbacks = nullptr;   // truncated → image sync
    obs::Counter* digest_rounds_missed = nullptr;    // overdue → full pull
    obs::Counter* topology_rescopes = nullptr;       // members dropped as
                                                     // out-of-scope on an
                                                     // epoch change
    obs::Histogram* image_serve_entries = nullptr;
  };
  void resolve_metrics();
  // Structured event record: every call site documents its payload words.
  void trace(obs::TraceKind kind, int level, uint64_t a = 0, uint64_t b = 0);

  HierConfig config_;
  std::vector<std::unique_ptr<LevelState>> levels_;
  sim::PeriodicTimer heartbeat_timer_;
  sim::PeriodicTimer scan_timer_;
  sim::PeriodicTimer refresh_timer_;
  // Topology::epoch() value already reacted to; re-anchored at start() so a
  // daemon booting after mutations does not replay history.
  uint64_t topo_epoch_seen_ = 0;
  Metrics metrics_;
  uint64_t hb_seq_ = 0;
  // Image-serve admission window (daemon-wide: the expensive part of a
  // serve is the same full_view() whatever level asked for it).
  sim::Time serve_window_start_ = 0;
  size_t serves_window_ = 0;
  uint64_t deferrals_window_ = 0;
};

}  // namespace tamp::protocols
