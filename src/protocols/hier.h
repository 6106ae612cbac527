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
// all higher levels. Each level's election, backup and epoch fencing are
// one `Leadership` unit (protocols/leadership.h), and its digest rounds one
// `AntiEntropy` unit (protocols/anti_entropy.h); the level is the host of
// both.
#pragma once

#include <array>
#include <deque>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "obs/obs.h"
#include "protocols/anti_entropy.h"
#include "protocols/daemon.h"
#include "protocols/leadership.h"
#include "protocols/ports.h"
#include "sim/timer.h"
#include "util/retry.h"

namespace tamp::protocols {

// How often each joined level's members are checked against its timeout.
inline constexpr sim::Duration kHierScanInterval = 100 * sim::kMillisecond;
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
  // Two levels may not share a channel.
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
  // What this node keeps about one peer on one level's channel: whether it
  // is a member (heard here, so the level's failure detector watches it)
  // and the receive cursor of its update stream. The cursor is scoped by
  // the peer's incarnation, since a restarted peer starts a fresh stream at
  // seq 0. It outlives membership: a member declared dead or gone keeps its
  // stream position until this node leaves the level.
  struct Peer {
    membership::NodeId id = membership::kInvalidNode;
    bool member = false;
    bool is_leader = false;   // member fields, meaningful while `member`
    bool has_cursor = false;  // cursor fields, meaningful while set
    membership::NodeId backup = membership::kInvalidNode;
    sim::Time last_heard = 0;
    membership::Incarnation incarnation = 0;
    uint64_t seq = 0;

    void heard(sim::Time now, bool leader, membership::NodeId backup_id) {
      member = true;
      last_heard = now;
      is_leader = leader;
      backup = backup_id;
    }
    void anchor(membership::Incarnation life, uint64_t position) {
      has_cursor = true;
      incarnation = life;
      seq = position;
    }
  };

  struct LevelState final : Leadership::Host, AntiEntropy::Host {
    LevelState(HierDaemon& daemon, int level);
    LevelState(const LevelState&) = delete;  // its timers capture `this`
    LevelState& operator=(const LevelState&) = delete;
    HierDaemon& daemon;
    const int level;
    bool joined = false;
    bool bootstrapped = false;
    // Sorted by id, self excluded: found or inserted once per packet.
    std::vector<Peer> peers;
    Peer* find_peer(membership::NodeId id);
    Peer& add_peer(membership::NodeId id);  // found, or inserted blank
    bool is_member(membership::NodeId id) const override;
    // The peer stops being a member; its record goes too unless it still
    // holds a cursor.
    void drop_member(membership::NodeId id);
    // A lower bound on every member's last_heard. Every stamp is sim_.now()
    // and sim time never runs backwards, so inserts, refreshes and erases
    // can only raise the true minimum. No member can expire before
    // oldest_heard + level_timeout, so the scan timer is armed there;
    // scan_level skips the walk while that deadline has not passed, and
    // re-tightens the bound when it walks.
    sim::Time oldest_heard = 0;

    // Leader, backup, election and epoch fencing. The epoch and the fences
    // survive leaving the level; only a daemon restart, which the oracle
    // treats as a fresh observer, resets them.
    Leadership leadership;
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
    // The digest rounds heard and sent on this channel.
    AntiEntropy anti_entropy;

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

    // The unit's timers, indexed by Leadership::Timer.
    std::array<std::unique_ptr<sim::OneShotTimer>, Leadership::kTimers>
        timers;

    // Leadership::Host: the unit's sends and side effects on this level.
    void arm(Leadership::Timer timer, sim::Duration delay) override;
    void cancel(Leadership::Timer timer) override;
    bool can_participate() const override;
    membership::NodeId pick_backup() override;
    void send_election() override;
    void send_answer(membership::NodeId candidate) override;
    void send_coordinator(membership::CoordinatorMsg msg) override;
    void took_lead() override;
    void gave_up_lead() override;
    void request_bootstrap(membership::NodeId leader) override;
    void superseded(membership::NodeId leader) override;
    void reseed() override;
    void note(obs::TraceKind kind, uint64_t a, uint64_t b) override;

    // AntiEntropy::Host: the digest rounds' sends and effects on this level.
    void send_digest(membership::RefreshDigestMsg msg) override;
    void send_pull(membership::NodeId origin,
                   membership::RefreshPullMsg msg) override;
    void send_delta(membership::NodeId requester,
                    membership::RefreshDeltaMsg msg) override;
    void absorb(const std::vector<membership::RowRef>& rows,
                membership::NodeId responder) override;
    void escalate(membership::NodeId responder) override;
    // Whether a message from `sender`'s life is stale replay on this level
    // (Leadership::fenced_stale); a rejection is counted. Every fenced path
    // (update, digest, delta and both images) asks here.
    bool rejects_stale(membership::NodeId sender, membership::Epoch epoch,
                       membership::Incarnation life) override;
    membership::NodeId leader() const override { return leadership.leader(); }
    membership::Epoch epoch() const override { return leadership.epoch(); }
    membership::Incarnation incarnation() const override {
      return daemon.own_->incarnation();
    }
    sim::Duration round_interval() const override {
      return daemon.config_.refresh_interval;
    }
    sim::Duration heartbeat_period() const override {
      return daemon.config_.period;
    }
    void note(AntiEntropy::Count count, uint64_t n) override;
  };

  // --- level / channel plumbing -----------------------------------------
  net::ChannelId channel_of(int level) const { return channels_[level]; }
  uint8_t ttl_of(int level) const { return static_cast<uint8_t>(level + 1); }
  // Sends on `level`'s channel, and to `to`'s control port.
  void multicast(int level, net::Payload payload) {
    net_.send_multicast(self_, channel_of(level), ttl_of(level),
                        config_.data_port, std::move(payload));
  }
  void unicast(membership::NodeId to, net::Payload payload) {
    net_.send_unicast(self_, net::Address{to, config_.control_port},
                      std::move(payload));
  }
  // -1 for a channel no level uses.
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
  // Arms the scan timer at the level's earliest possible member expiry.
  void arm_scan(int level);
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
  void forget_member(int level, membership::NodeId member);
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
  void on_coordinator(int level, const membership::CoordinatorMsg& msg);

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
  // The round scope (AntiEntropy::scope) as a batch of join records: the
  // full-image re-seed of event-driven paths (taking the lead, repelling a
  // stale claim).
  void send_state_refresh(int level, bool subtree_only = false);
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
  // Apply a relayed row, keeping its sticky provenance tag (see hier.cc).
  membership::ApplyResult apply_relayed(const membership::RowRef& row,
                                        membership::NodeId proposed);
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
    // Digest anti-entropy, indexed by AntiEntropy::Count. Sends
    // (digests_sent / digest_pulls_sent / deltas_sent) each have exactly one
    // send site, so the chaos runner's conservation identities can tie them
    // to per-wire-kind tx counters.
    std::array<obs::Counter*, AntiEntropy::kCounts> digest{};
    obs::Counter* topology_rescopes = nullptr;       // members dropped as
                                                     // out-of-scope on an
                                                     // epoch change
    obs::Histogram* image_serve_entries = nullptr;
  };
  void resolve_metrics();
  // Structured event record: every call site documents its payload words.
  void trace(obs::TraceKind kind, int level, uint64_t a = 0, uint64_t b = 0);

  HierConfig config_;
  // Each level's channel: its level_channels override, else base + level.
  std::vector<net::ChannelId> channels_;
  std::vector<std::unique_ptr<LevelState>> levels_;
  sim::PeriodicTimer heartbeat_timer_;
  sim::GridTimer scan_timer_;
  sim::PeriodicTimer refresh_timer_;
  // A member was dropped or a level left since the last demotion walk, so a
  // direct row may have lost the only level it was heard on.
  bool demote_due_ = false;
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
