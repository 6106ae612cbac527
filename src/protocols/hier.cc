#include "protocols/hier.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "util/check.h"
#include "util/logging.h"

namespace tamp::protocols {

using membership::ApplyResult;
using membership::decode_message;
using membership::encode_message;
using membership::BootstrapRequestMsg;
using membership::BootstrapResponseMsg;
using membership::BusyKind;
using membership::BusyMsg;
using membership::CoordinatorMsg;
using membership::DigestRowSummary;
using membership::ElectionAnswerMsg;
using membership::ElectionMsg;
using membership::HeartbeatMsg;
using membership::Incarnation;
using membership::Liveness;
using membership::MembershipEntry;
using membership::NodeId;
using membership::RefreshDeltaMsg;
using membership::RefreshDigestMsg;
using membership::RefreshPullMsg;
using membership::RowRef;
using membership::SyncRequestMsg;
using membership::SyncResponseMsg;
using membership::UpdateKind;
using membership::UpdateMsg;
using membership::UpdateRecord;

static_assert(kDigestBuckets >= 1 &&
              kDigestBuckets <= membership::kMaxDigestBuckets);

HierDaemon::HierDaemon(sim::Simulation& sim, net::Network& net, NodeId self,
                       membership::EntryData own, HierConfig config)
    : MembershipDaemon(sim, net, self, std::move(own)),
      config_(config),
      heartbeat_timer_(sim, config.period, [this] { heartbeat_tick(); }),
      scan_timer_(sim, kHierScanInterval, [this] { scan_tick(); }),
      refresh_timer_(sim, config.refresh_interval, [this] { refresh_tick(); }) {
  TAMP_CHECK(config_.max_ttl >= 1 && config_.max_ttl <= 250);
  TAMP_CHECK(config_.refresh_interval > 0);
  table_ = membership::MembershipTable(kTombstoneTtl);
  levels_.reserve(static_cast<size_t>(config_.max_ttl));
  for (int level = 0; level < config_.max_ttl; ++level) {
    auto state = std::make_unique<LevelState>();
    state->level = level;
    // The listen window and the backup grace both end the same way: elect
    // if the channel is still leaderless.
    auto elect_if_leaderless = [this, level] {
      if (level_state(level).leader == membership::kInvalidNode) {
        maybe_start_election(level);
      }
    };
    state->listen_timer =
        std::make_unique<sim::OneShotTimer>(sim, elect_if_leaderless);
    state->election_timer = std::make_unique<sim::OneShotTimer>(
        sim, [this, level] { election_deadline(level); });
    state->coordinator_timer =
        std::make_unique<sim::OneShotTimer>(sim, [this, level] {
          LevelState& ls = level_state(level);
          ls.electing = false;
          if (ls.leader == membership::kInvalidNode) maybe_start_election(level);
        });
    state->backup_grace_timer =
        std::make_unique<sim::OneShotTimer>(sim, elect_if_leaderless);
    levels_.push_back(std::move(state));
  }
  resolve_metrics();
}

HierDaemon::~HierDaemon() { stop(); }

void HierDaemon::resolve_metrics() {
  obs::MetricsRegistry& m = net_.obs().metrics;
  auto c = [&](std::string_view name) {
    return m.counter(obs::Protocol::kHier, name, self_);
  };
  metrics_.heartbeats_sent = c("heartbeats_sent");
  metrics_.updates_sent = c("updates_sent");
  metrics_.update_records_applied = c("update_records_applied");
  metrics_.elections_started = c("elections_started");
  metrics_.coordinators_sent = c("coordinators_sent");
  metrics_.bootstraps_requested = c("bootstraps_requested");
  metrics_.bootstraps_served = c("bootstraps_served");
  metrics_.syncs_requested = c("syncs_requested");
  metrics_.syncs_served = c("syncs_served");
  metrics_.gaps_recovered_by_piggyback = c("gaps_recovered_by_piggyback");
  metrics_.relayed_purges = c("relayed_purges");
  metrics_.epochs_minted = c("epochs_minted");
  metrics_.stale_epoch_rejects = c("stale_epoch_rejects");
  metrics_.epochs_superseded = c("epochs_superseded");
  metrics_.deaf_backlogs_dropped = c("deaf_backlogs_dropped");
  metrics_.exchange_retries = c("exchange_retries");
  metrics_.exchange_budget_exhausted = c("exchange_budget_exhausted");
  metrics_.busy_sent = c("busy_sent");
  metrics_.busy_deferrals = c("busy_deferrals");
  metrics_.out_log_compacted = c("out_log_compacted");
  metrics_.digests_sent = c("digests_sent");
  metrics_.digest_pulls_sent = c("digest_pulls_sent");
  metrics_.digest_pulls_served = c("digest_pulls_served");
  metrics_.deltas_sent = c("deltas_sent");
  metrics_.delta_rows_shipped = c("delta_rows_shipped");
  metrics_.digest_rows_suppressed = c("digest_rows_suppressed");
  metrics_.digest_full_fallbacks = c("digest_full_fallbacks");
  metrics_.digest_rounds_missed = c("digest_rounds_missed");
  metrics_.topology_rescopes = c("topology_rescopes");
  metrics_.image_serve_entries =
      m.histogram(obs::Protocol::kHier, "image_serve_entries", self_);
}

void HierDaemon::trace(obs::TraceKind kind, int level, uint64_t a,
                       uint64_t b) {
  net_.obs().tracer.record(kind, self_, sim_.now(), level, a, b);
}

sim::Duration level_timeout(const HierConfig& config, int level) {
  double factor = std::pow(config.level_timeout_factor, level);
  return static_cast<sim::Duration>(
      static_cast<double>(config.max_losses) *
      static_cast<double>(config.period) * factor);
}

int HierDaemon::level_of_channel(net::ChannelId channel) const {
  // Admin-specified channels take precedence over the derived mapping.
  for (size_t l = 0; l < config_.level_channels.size() &&
                     l < static_cast<size_t>(config_.max_ttl);
       ++l) {
    if (config_.level_channels[l] != 0 &&
        config_.level_channels[l] == channel) {
      return static_cast<int>(l);
    }
  }
  if (channel < config_.base_channel) return -1;
  auto level = static_cast<int64_t>(channel - config_.base_channel);
  if (level >= config_.max_ttl) return -1;
  if (static_cast<size_t>(level) < config_.level_channels.size() &&
      config_.level_channels[static_cast<size_t>(level)] != 0) {
    return -1;  // this level was remapped away from the derived channel
  }
  return static_cast<int>(level);
}

// --- lifecycle ------------------------------------------------------------

void HierDaemon::start() {
  if (running()) return;
  base_start();
  net_.bind(self_, config_.data_port,
            [this](const net::Packet& p) { on_data_packet(p); });
  net_.bind(self_, config_.control_port,
            [this](const net::Packet& p) { on_control_packet(p); });
  heartbeat_timer_.start_with_random_phase();
  scan_timer_.start_with_random_phase();
  refresh_timer_.start_with_random_phase();
  topo_epoch_seen_ = net_.topology().epoch();
  join_level(0);
}

void HierDaemon::stop() {
  if (!running()) return;
  heartbeat_timer_.stop();
  scan_timer_.stop();
  refresh_timer_.stop();
  leave_levels_from(0);
  net_.unbind(self_, config_.data_port);
  net_.unbind(self_, config_.control_port);
  base_stop();
}

void HierDaemon::join_level(int level) {
  if (level >= config_.max_ttl) return;
  LevelState& ls = level_state(level);
  if (ls.joined) return;
  ls.joined = true;
  trace(obs::TraceKind::kGroupJoin, level);
  ls.last_received = sim_.now();  // deafness clock starts at (re)join
  net_.join_group(self_, channel_of(level));
  send_heartbeat(level);
  // Paper bootstrap: listen for a leader flag first; elect only if the
  // channel turns out to be leaderless.
  ls.listen_timer->restart(join_listen(config_.period));
}

void HierDaemon::leave_levels_from(int level, bool announce) {
  for (int l = config_.max_ttl - 1; l >= level; --l) {
    LevelState& ls = level_state(l);
    if (!ls.joined) continue;
    trace(obs::TraceKind::kGroupLeave, l, announce ? 1 : 0);
    if (announce) {
      // Graceful goodbye: we are alive, just leaving this channel — peers
      // must not mistake our silence here for a node failure.
      HeartbeatMsg goodbye;
      goodbye.entry = own_;
      goodbye.level = static_cast<uint8_t>(l);
      goodbye.is_leader = false;
      goodbye.leaving = true;
      goodbye.seq = ++hb_seq_;
      net_.send_multicast(self_, channel_of(l), ttl_of(l), config_.data_port,
                          encode_message(goodbye, config_.heartbeat_pad));
    }
    net_.leave_group(self_, channel_of(l));
    ls.joined = false;
    ls.bootstrapped = false;
    ls.members.clear();
    ls.leader = membership::kInvalidNode;
    ls.leader_backup = membership::kInvalidNode;
    ls.i_am_leader = false;
    ls.my_backup = membership::kInvalidNode;
    ls.electing = false;
    ls.answered = false;
    ls.prev_leader = membership::kInvalidNode;
    ls.prev_leader_incarnation = 0;
    ls.in_seq.clear();
    ls.digest_due.clear();
    clear_out_log(ls);
    ls.exchanges.clear();
    // `superseded` intentionally NOT reset: succession knowledge, like the
    // epoch itself, must never regress within one daemon lifetime.
    // out_seq intentionally NOT reset: receivers' per-origin cursors must
    // never observe a sequence regression.
    ls.listen_timer->cancel();
    ls.election_timer->cancel();
    ls.coordinator_timer->cancel();
    ls.backup_grace_timer->cancel();
  }
}

// --- introspection -----------------------------------------------------------

bool HierDaemon::joined(int level) const {
  return level >= 0 && level < config_.max_ttl && levels_[level]->joined;
}

bool HierDaemon::is_leader(int level) const {
  return joined(level) && levels_[level]->i_am_leader;
}

NodeId HierDaemon::leader_of(int level) const {
  if (!joined(level)) return membership::kInvalidNode;
  return levels_[level]->leader;
}

NodeId HierDaemon::backup_of(int level) const {
  if (!joined(level)) return membership::kInvalidNode;
  const LevelState& ls = *levels_[level];
  return ls.i_am_leader ? ls.my_backup : ls.leader_backup;
}

std::vector<int> HierDaemon::joined_levels() const {
  std::vector<int> out;
  for (int l = 0; l < config_.max_ttl; ++l) {
    if (levels_[l]->joined) out.push_back(l);
  }
  return out;
}

std::vector<NodeId> HierDaemon::group_members(int level) const {
  std::vector<NodeId> out;
  if (!joined(level)) return out;
  for (const auto& [node, info] : levels_[level]->members) out.push_back(node);
  return out;
}

membership::Epoch HierDaemon::epoch_of(int level) const {
  if (level < 0 || level >= config_.max_ttl) return 0;
  return levels_[level]->epoch;
}

size_t HierDaemon::pending_exchanges(int level) const {
  if (level < 0 || level >= config_.max_ttl) return 0;
  return levels_[level]->exchanges.size();
}

// --- periodic work ------------------------------------------------------------

void HierDaemon::heartbeat_tick() {
  const uint64_t epoch = net_.topology().epoch();
  if (epoch != topo_epoch_seen_) {
    topo_epoch_seen_ = epoch;
    on_topology_change(epoch);
  }
  ++hb_seq_;
  for (int l = 0; l < config_.max_ttl; ++l) {
    if (!levels_[l]->joined) continue;
    send_heartbeat(l);
    check_digest_rounds(l);
  }
  // The table-wide soft-state GC below is O(view size); its timeouts are
  // tens of seconds, so scanning every few periods loses nothing and keeps
  // thousand-node simulations fast.
  if (hb_seq_ % 5 != 0) return;
  // Direct entries we no longer actually hear (e.g. a lost goodbye from a
  // node that left a shared channel) decay to relayed status, entering the
  // normal second-hand lifecycle below.
  const sim::Time now = sim_.now();
  std::vector<NodeId> demote;
  for (const auto& [id, entry] : table_.entries()) {
    if (entry.liveness == Liveness::kDirect && id != self_ &&
        !heard_directly(id)) {
      demote.push_back(id);
    }
  }
  for (NodeId id : demote) {
    table_.demote_to_relayed(id, membership::kInvalidNode);
  }
  // Relayed entries are soft state refreshed by the relay chain's periodic
  // anti-entropy (refresh_tick): an entry nobody re-announces — by a digest
  // or delta touch — within the refresh horizon is stale: drop it. This is
  // what eventually clears entries resurrected by packet reordering or late
  // replays under loss.
  const sim::Duration top_timeout = level_timeout(config_.max_ttl - 1);
  const sim::Duration orphan_timeout = std::max(
      2 * top_timeout, 2 * config_.refresh_interval + top_timeout);
  auto expired = table_.expire(now, [&](const membership::MembershipEntry& e) {
    if (e.row->node() == self_ || e.liveness != Liveness::kRelayed) {
      return sim::Duration{-1};
    }
    return orphan_timeout;
  });
  for (NodeId node : expired) notify(node, false);
}

void HierDaemon::send_heartbeat(int level) {
  LevelState& ls = level_state(level);
  HeartbeatMsg heartbeat;
  heartbeat.entry = own_;
  heartbeat.level = static_cast<uint8_t>(level);
  heartbeat.is_leader = ls.i_am_leader;
  heartbeat.backup = ls.my_backup;
  heartbeat.seq = ls.out_seq;
  heartbeat.epoch = ls.epoch;
  net_.send_multicast(self_, channel_of(level), ttl_of(level),
                      config_.data_port,
                      encode_message(heartbeat, config_.heartbeat_pad));
  metrics_.heartbeats_sent->add();
}

void HierDaemon::scan_tick() {
  for (int l = 0; l < config_.max_ttl; ++l) {
    if (levels_[l]->joined) scan_level(l);
  }
}

void HierDaemon::scan_level(int level) {
  LevelState& ls = level_state(level);
  const sim::Time now = sim_.now();
  const sim::Duration timeout = level_timeout(level);
  if (now - ls.oldest_heard <= timeout) return;  // nobody can have expired
  std::vector<NodeId> dead;
  sim::Time oldest = now;
  for (const auto& [node, info] : ls.members) {
    if (now - info.last_heard > timeout) {
      dead.push_back(node);
    } else {
      oldest = std::min(oldest, info.last_heard);
    }
  }
  ls.oldest_heard = oldest;
  for (NodeId node : dead) on_member_dead(level, node);
}

void HierDaemon::on_topology_change(uint64_t epoch) {
  // The routing fabric changed shape under us. Re-probe every group
  // member's TTL distance against the new routes and shed the ones whose
  // distance no longer fits their level — waiting for their heartbeats to
  // time out would be both slow and wrong (it carries death semantics; a
  // migrated node is alive). Members that moved *into* scope announce
  // themselves on the next heartbeat they multicast, and so do we: the
  // heartbeat tick that called us sends ours right after. Where two
  // established leaders suddenly share a scope, that heartbeat's leader
  // flag starts the merge (lowest id keeps the role).
  uint64_t dropped = 0;
  for (int level = 0; level < config_.max_ttl; ++level) {
    if (levels_[level]->joined) dropped += drop_out_of_scope(level);
  }
  trace(obs::TraceKind::kTopologyChange, -1, epoch, dropped);
  if (dropped > 0) metrics_.topology_rescopes->add(dropped);
}

size_t HierDaemon::drop_out_of_scope(int level) {
  LevelState& ls = level_state(level);
  std::vector<NodeId> gone;
  for (const auto& [member, info] : ls.members) {
    // Unreachable (0) is not "moved": a crashed host and a cut link look
    // the same from here, so the level timeout decides, which gives a
    // partition its death semantics.
    const int ttl = net_.topology().ttl_required(self_, member);
    if (ttl > level + 1) gone.push_back(member);
  }
  for (NodeId member : gone) {
    // Mirror the voluntary-leave path (on_heartbeat's `leaving` branch):
    // the member is alive, merely out of earshot now, so no leave record is
    // relayed and no purge cascades — its entry just becomes second-hand.
    forget_member(ls, member);
    if (ls.i_am_leader && ls.my_backup == member) {
      ls.my_backup = pick_backup(level);
    }
    if (!heard_directly(member)) {
      table_.demote_to_relayed(member, membership::kInvalidNode);
    }
  }
  return gone.size();
}

void HierDaemon::forget_member(LevelState& ls, NodeId member) {
  ls.members.erase(member);
  prune_pending(ls, member);
  if (ls.leader == member) {
    ls.leader = membership::kInvalidNode;
    ls.backup_grace_timer->restart(kBackupGrace);
  }
}

bool HierDaemon::heard_directly(NodeId node) const {
  for (int l = 0; l < config_.max_ttl; ++l) {
    if (levels_[l]->joined && levels_[l]->members.contains(node)) return true;
  }
  return false;
}

void HierDaemon::on_member_dead(int level, NodeId member) {
  LevelState& ls = level_state(level);
  auto it = ls.members.find(member);
  if (it == ls.members.end()) return;
  const bool was_leader = it->second.is_leader || ls.leader == member;
  // Capture the dying life's incarnation before the table entry goes: the
  // succession fence must name the life that was lost, not a later restart.
  const auto* lost_entry = table_.find(member);
  const Incarnation lost_incarnation =
      lost_entry ? lost_entry->row->incarnation() : 0;
  ls.members.erase(it);
  prune_pending(ls, member);

  TAMP_LOG(Info) << "hier node " << self_ << " detects member " << member
                 << " dead at level " << level;
  trace(obs::TraceKind::kTimeoutExpiry, level, member);

  if (ls.i_am_leader && ls.my_backup == member) {
    ls.my_backup = pick_backup(level);
  }

  if (!heard_directly(member)) {
    if (table_.remove(member, lost_incarnation, sim_.now())) {
      notify(member, false);
      relay_record(make_leave_record(member, lost_incarnation), level);
    }
    // Paper Timeout protocol: a dead node detected at level > 0 takes the
    // membership information it relayed with it (partition detection). A
    // dead *level-0* leader does not: the backup/new leader re-seeds the
    // group within the (larger) higher-level timeouts, so instant purging
    // would only cause view flapping; orphan expiry is the backstop.
    if (level > 0) purge_dependents(member, level, ls.epoch);
  }

  if (was_leader) handle_leader_loss(level, member, lost_incarnation);
}

void HierDaemon::purge_dependents(NodeId dead, int arrival_level,
                                  membership::Epoch trigger_epoch) {
  // A purge established under a leadership epoch that has since been
  // superseded is acting on stale knowledge: the new leadership's refresh
  // is re-seeding exactly the entries this purge would remove.
  if (trigger_epoch < level_state(arrival_level).epoch) {
    metrics_.stale_epoch_rejects->add();
    return;
  }
  // Worklist: purging one relay may orphan entries relayed by the purged
  // node in turn (multi-hop chains).
  std::vector<NodeId> worklist{dead};
  while (!worklist.empty()) {
    NodeId relay = worklist.back();
    worklist.pop_back();
    std::vector<std::pair<NodeId, Incarnation>> victims;
    // Entries announced by the dead relay went quiet when it did, so by the
    // time its death is detected (one level_timeout at this level) they are
    // at least that stale. Anything fresher is being re-announced by a
    // *live* relay (e.g. a new leader's refresh) and must survive the purge.
    const sim::Duration fresh_horizon = level_timeout(arrival_level);
    for (const auto& [id, entry] : table_.entries()) {
      if (entry.liveness != Liveness::kRelayed || entry.relayed_by != relay ||
          id == self_ || heard_directly(id)) {
        continue;
      }
      // Skip entries someone is actively re-announcing (a new leader's
      // refresh beat our purge): they have a live chain and will either be
      // re-tagged to it or expire as orphans.
      if (sim_.now() - entry.last_heard <= fresh_horizon) continue;
      victims.emplace_back(id, entry.row->incarnation());
    }
    for (const auto& [id, incarnation] : victims) {
      if (table_.remove(id, incarnation, sim_.now())) {
        metrics_.relayed_purges->add();
        notify(id, false);
        relay_record(make_leave_record(id, incarnation), arrival_level);
        worklist.push_back(id);
      }
    }
  }
}

// --- packet handling -----------------------------------------------------------

void HierDaemon::on_data_packet(const net::Packet& packet) {
  int level = level_of_channel(packet.channel);
  if (level < 0 || !levels_[level]->joined) return;
  auto message = decode_message(packet);
  if (!message) return;
  LevelState& arrival = *levels_[level];
  drop_deaf_backlog(arrival);
  arrival.last_received = sim_.now();
  std::visit(
      [&](auto&& msg) {
        using T = std::decay_t<decltype(msg)>;
        if constexpr (std::is_same_v<T, HeartbeatMsg>) {
          on_heartbeat(level, msg);
        } else if constexpr (std::is_same_v<T, UpdateMsg>) {
          on_update(level, msg);
        } else if constexpr (std::is_same_v<T, ElectionMsg>) {
          on_election(level, msg);
        } else if constexpr (std::is_same_v<T, CoordinatorMsg>) {
          on_coordinator(level, msg);
        } else if constexpr (std::is_same_v<T, RefreshDigestMsg>) {
          on_refresh_digest(level, msg);
        }
      },
      *message);
}

void HierDaemon::on_control_packet(const net::Packet& packet) {
  auto message = decode_message(packet);
  if (!message) return;
  std::visit(
      [&](auto&& msg) {
        using T = std::decay_t<decltype(msg)>;
        if constexpr (std::is_same_v<T, BootstrapRequestMsg>) {
          // Symmetric exchange: absorb what the newcomer knows (it may be a
          // lower-level leader bringing a subtree) — cheap inbound work that
          // happens even when the O(N) image serve below is refused.
          absorb_entries(msg.known, msg.requester, 0);
          BootstrapResponseMsg response;
          response.level = static_cast<uint8_t>(wire_level(msg.level));
          response.epoch = levels_[response.level]->epoch;
          serve_image(msg.requester, BusyKind::kBootstrap,
                      metrics_.bootstraps_served, response);
        } else if constexpr (std::is_same_v<T, BootstrapResponseMsg>) {
          const int arrival = wire_level(msg.level);
          LevelState& ls = *levels_[arrival];
          // A full image from a responder whose leadership of this channel
          // was superseded is itself stale: don't absorb it, the live
          // leader's traffic is already re-seeding us.
          if (fenced_stale(ls, msg.responder, msg.epoch,
                           msg.responder_incarnation)) {
            metrics_.stale_epoch_rejects->add();
            return;
          }
          // The exchange completed: only now is the level bootstrapped. A
          // lost response leaves the flag down and the retry timer running.
          if (ls.joined) ls.bootstrapped = true;
          close_bootstrap(ls);
          absorb_entries(msg.entries, msg.responder, arrival);
        } else if constexpr (std::is_same_v<T, SyncRequestMsg>) {
          SyncResponseMsg response;
          response.level = msg.level;
          if (msg.level < config_.max_ttl) {
            const LevelState& ls = *levels_[msg.level];
            if (ls.joined) response.stream_seq = ls.out_seq;
            response.epoch = ls.epoch;
          }
          serve_image(msg.requester, BusyKind::kSync, metrics_.syncs_served,
                      response);
        } else if constexpr (std::is_same_v<T, SyncResponseMsg>) {
          int arrival = 0;
          if (joined(msg.level)) {
            LevelState& ls = *levels_[msg.level];
            // Reconciliation removes entries, so it must never run against
            // the image of a responder whose leadership of this channel was
            // superseded (a resumed stale leader serves a view missing most
            // of the cluster).
            if (fenced_stale(ls, msg.responder, msg.epoch,
                             msg.responder_incarnation)) {
              metrics_.stale_epoch_rejects->add();
              return;
            }
            // The poll was answered; stop the retry timer for it.
            ls.exchanges.erase({BusyKind::kSync, msg.responder});
            // The image covers everything up to the responder's current
            // stream position: re-anchor our cursor there.
            auto cursor = ls.in_seq.find(msg.responder);
            if (cursor == ls.in_seq.end() ||
                cursor->second.incarnation < msg.responder_incarnation ||
                (cursor->second.incarnation == msg.responder_incarnation &&
                 cursor->second.seq < msg.stream_seq)) {
              ls.in_seq[msg.responder] = LevelState::InCursor{
                  msg.responder_incarnation, msg.stream_seq};
            }
            arrival = msg.level;
          }
          reconcile_with_image(msg.responder, msg.entries, arrival);
          absorb_entries(msg.entries, msg.responder, arrival);
        } else if constexpr (std::is_same_v<T, ElectionAnswerMsg>) {
          if (joined(msg.level) && levels_[msg.level]->electing) {
            levels_[msg.level]->answered = true;
          }
        } else if constexpr (std::is_same_v<T, BusyMsg>) {
          on_busy(msg);
        } else if constexpr (std::is_same_v<T, RefreshPullMsg>) {
          on_refresh_pull(msg);
        } else if constexpr (std::is_same_v<T, RefreshDeltaMsg>) {
          on_refresh_delta(msg);
        }
      },
      *message);
}

void HierDaemon::on_heartbeat(int level, const HeartbeatMsg& msg) {
  LevelState& ls = level_state(level);
  const NodeId sender = msg.entry->node();
  if (sender == self_) return;
  const sim::Time now = sim_.now();

  if (msg.leaving) {
    // Voluntary channel departure: the node is alive, just out of earshot
    // here. Drop the membership bookkeeping without any death semantics.
    forget_member(ls, sender);
    // Keep the entry's contents fresh, but record that our knowledge of it
    // is about to become second-hand.
    table_.apply(msg.entry, Liveness::kDirect, membership::kInvalidNode, now);
    if (!heard_directly(sender)) {
      table_.demote_to_relayed(sender, membership::kInvalidNode);
    }
    return;
  }

  // Epoch bookkeeping. Epochs are lineage-scoped — overlapping groups
  // sharing this channel mint independently, so a bigger number from an
  // arbitrary sender proves nothing by itself. A claim is stale only when
  // our succession record says this claimant's *current life* was already
  // superseded at that epoch (a restarted claimant is a fresh lineage);
  // supersession of *our own* leadership likewise requires a direct claim
  // (leader flag / COORDINATOR), never second-hand member gossip.
  const bool stale_claim =
      msg.is_leader &&
      fenced_stale(ls, sender, msg.epoch, msg.entry->incarnation());
  if (msg.is_leader && !stale_claim) {
    if (msg.epoch > ls.epoch) adopt_epoch(level, msg.epoch, sender);
  } else if (!msg.is_leader && !ls.i_am_leader && msg.epoch > ls.epoch) {
    // Member gossip raises the channel-history watermark (so a later mint
    // lands above it) but carries no supersession authority.
    ls.epoch = msg.epoch;
  }

  const bool added_member = !ls.members.contains(sender);
  // A stale claimant is still a live member; just don't record it as a
  // leader, or its presence would suppress a genuinely needed election.
  ls.members[sender] = MemberInfo{now, msg.is_leader && !stale_claim,
                                  msg.backup};

  ApplyResult result = table_.apply(msg.entry, Liveness::kDirect,
                                    membership::kInvalidNode, now);
  if (result == ApplyResult::kAdded) notify(sender, true);

  // The heartbeat advertises the sender's update-stream position: a cursor
  // behind it means we lost update packets with nothing since to expose the
  // gap — poll for a fresh image (paper Message Loss Detection).
  auto cursor = ls.in_seq.find(sender);
  if (cursor == ls.in_seq.end() ||
      cursor->second.incarnation < msg.entry->incarnation()) {
    // First contact (or a restarted sender with a fresh stream): anchor;
    // the bootstrap exchange supplies the content.
    ls.in_seq[sender] =
        LevelState::InCursor{msg.entry->incarnation(), msg.seq};
  } else if (cursor->second.incarnation == msg.entry->incarnation() &&
             msg.seq > cursor->second.seq) {
    // Cursor only advances when the recovery actually lands (update or
    // sync response): a lost poll is retried by the exchange's own timer.
    request_sync(level, sender, msg.seq);
  }

  if (stale_claim) {
    // Reject the claim: don't adopt the sender as leader, don't yield to
    // it, don't pull its (stale) image. If we hold the live leadership,
    // repel it — assert the current epoch and re-seed the claimant's view
    // so it abdicates and recovers without operator action.
    metrics_.stale_epoch_rejects->add();
    if (ls.i_am_leader) {
      repel_stale_claim(level, sender, msg.epoch, msg.entry->incarnation());
    }
    if (ls.leader == sender) ls.leader = membership::kInvalidNode;
  } else if (msg.is_leader) {
    const bool leader_changed = ls.leader != sender;
    if (leader_changed) {
      ls.leader = sender;
      ls.prev_leader = membership::kInvalidNode;  // succession resolved
      ls.prev_leader_incarnation = 0;
      ls.backup_grace_timer->cancel();
      if (ls.electing) {
        ls.electing = false;
        ls.answered = false;
        ls.election_timer->cancel();
        ls.coordinator_timer->cancel();
      }
    }
    ls.leader_backup = msg.backup;
    if (ls.i_am_leader) {
      // Two leaders in mutual earshot: a newer-epoch claim was already
      // resolved by adopt_epoch above (we yielded), so what remains is an
      // equal-or-older claim from an independent lineage (healed merge,
      // overlap fringe): lowest id keeps the role (paper's election
      // invariant — a leader never tolerates seeing another).
      if (sender < self_) {
        ls.leader = sender;
        abdicate(level);
        // Merged groups (e.g. a healed partition): exchange views with the
        // surviving leader so both sides' subtrees propagate.
        request_bootstrap(level, sender);
      } else {
        send_coordinator(level);
        ls.leader = self_;
      }
    } else if (!ls.bootstrapped || leader_changed) {
      // First contact with a leader, or a leadership handoff: (re)pull the
      // full image from whoever now leads this channel.
      request_bootstrap(level, sender);
    }
  } else if (ls.leader == sender) {
    ls.leader = membership::kInvalidNode;  // it stepped down
  }

  // A fresh face (or fresh contents) in a group we participate in gets
  // propagated to the groups we lead; the relay rules no-op for followers.
  if (added_member || result == ApplyResult::kAdded ||
      result == ApplyResult::kUpdated) {
    relay_record(make_join_record(msg.entry), level);
  }
}

void HierDaemon::on_update(int level, const UpdateMsg& msg) {
  LevelState& ls = level_state(level);
  if (msg.origin == self_) return;
  auto member = ls.members.find(msg.origin);
  if (member != ls.members.end()) member->second.last_heard = sim_.now();
  // Stale-replay fence. An update stream from an origin whose leadership
  // claim on this channel was superseded — at or below the epoch the batch
  // is stamped with — is replay from before the re-election (a resumed
  // leader flushing its out-log): the records in it, chiefly the leaves it
  // stamped while detached, describe a world that no longer exists. Epochs
  // from other, overlapping lineages pass (not comparable numbers), and so
  // does a restarted origin's fresh stream (new life, new lineage).
  if (fenced_stale(ls, msg.origin, msg.epoch, msg.origin_incarnation)) {
    metrics_.stale_epoch_rejects->add();
    return;
  }
  if (msg.records.empty()) return;

  std::vector<const UpdateRecord*> ordered;
  ordered.reserve(msg.records.size());
  for (const auto& record : msg.records) ordered.push_back(&record);
  std::sort(ordered.begin(), ordered.end(),
            [](const UpdateRecord* a, const UpdateRecord* b) {
              return a->seq < b->seq;
            });

  const uint64_t newest = ordered.back()->seq;
  auto cursor = ls.in_seq.find(msg.origin);

  if (cursor == ls.in_seq.end() ||
      cursor->second.incarnation < msg.origin_incarnation) {
    // First contact with this origin's stream on this channel (or the
    // origin restarted and its sequence numbers start over): accept
    // everything and anchor the cursor — there is no history to have lost.
    for (const auto* record : ordered) process_record(*record, msg.origin, level);
    ls.in_seq[msg.origin] =
        LevelState::InCursor{msg.origin_incarnation, newest};
    return;
  }
  if (cursor->second.incarnation > msg.origin_incarnation) {
    return;  // stale message from a previous life of the origin
  }

  const uint64_t known = cursor->second.seq;
  if (newest <= known) return;  // stale duplicate
  if (msg.window_base > known) {
    // Records in (known, window_base] were trimmed out of the origin's
    // bounded log — unrecoverable from this message even with the
    // piggybacked history: poll the origin for a full image (paper Message
    // Loss Detection). Holes above window_base are compaction, not loss
    // (the shadowing record is in the message). The cursor stays put so
    // the gap keeps being visible until the poll succeeds; the present
    // records are still applied (idempotent).
    request_sync(level, msg.origin, newest);
    for (const auto* record : ordered) {
      if (record->seq > known) process_record(*record, msg.origin, level);
    }
    return;
  }
  if (known + 1 < newest) {
    metrics_.gaps_recovered_by_piggyback->add();
  }
  for (const auto* record : ordered) {
    if (record->seq > known) process_record(*record, msg.origin, level);
  }
  cursor->second.seq = newest;
}

void HierDaemon::on_election(int level, const ElectionMsg& msg) {
  LevelState& ls = level_state(level);
  if (msg.candidate == self_) return;
  if (ls.i_am_leader) {
    send_coordinator(level);
    return;
  }
  if (self_ < msg.candidate && can_participate(level)) {
    ElectionAnswerMsg answer;
    answer.responder = self_;
    answer.level = static_cast<uint8_t>(level);
    net_.send_unicast(self_, net::Address{msg.candidate, config_.control_port},
                      encode_message(answer));
    maybe_start_election(level);
  }
}

void HierDaemon::on_coordinator(int level, const CoordinatorMsg& msg) {
  LevelState& ls = level_state(level);
  if (msg.leader == self_) return;
  if (fenced_stale(ls, msg.leader, msg.epoch, msg.leader_incarnation)) {
    // Stale replay: an announcement of leadership the group has since
    // re-elected away (e.g. a resumed leader's deferred COORDINATOR).
    metrics_.stale_epoch_rejects->add();
    if (ls.i_am_leader) {
      repel_stale_claim(level, msg.leader, msg.epoch, msg.leader_incarnation);
    }
    return;
  }
  // Record the succession the announcement carries: claims by the named
  // predecessor's fenced life below this epoch are fenced from now on. This
  // is what lets a receiver that never directly hears the new leader still
  // reject the old one's replayed leadership.
  if (msg.prev != membership::kInvalidNode && msg.prev != msg.leader &&
      msg.prev != self_ && msg.epoch > 0) {
    raise_fence(ls, msg.prev, msg.epoch - 1, msg.prev_incarnation);
  }
  if (msg.epoch > ls.epoch) {
    adopt_epoch(level, msg.epoch, msg.leader);
    // adopt_epoch resolved any leadership we held; fall through as a
    // follower and record the announcer.
  }
  if (ls.i_am_leader) {
    if (msg.leader < self_) {
      ls.leader = msg.leader;
      ls.leader_backup = msg.backup;
      abdicate(level);
    }
    // Otherwise keep the role; the higher-id claimant will yield when it
    // hears our leader-flagged heartbeat.
    return;
  }
  ls.leader = msg.leader;
  ls.leader_backup = msg.backup;
  ls.prev_leader = membership::kInvalidNode;  // succession resolved
  ls.prev_leader_incarnation = 0;
  ls.electing = false;
  ls.answered = false;
  ls.election_timer->cancel();
  ls.coordinator_timer->cancel();
  ls.backup_grace_timer->cancel();
  ls.members[msg.leader] = MemberInfo{sim_.now(), true, msg.backup};
  if (!ls.bootstrapped) request_bootstrap(level, msg.leader);
}

// --- leadership -------------------------------------------------------------

bool HierDaemon::can_participate(int level) const {
  const LevelState& ls = *levels_[level];
  if (!ls.joined) return false;
  // Paper overlap rule: stay out of elections on a channel where we already
  // hear a leader (even one of a different, overlapping group).
  for (const auto& [node, info] : ls.members) {
    if (info.is_leader) return false;
  }
  return true;
}

void HierDaemon::maybe_start_election(int level) {
  LevelState& ls = level_state(level);
  if (!ls.joined || ls.electing || ls.i_am_leader || !can_participate(level)) {
    return;
  }
  metrics_.elections_started->add();
  trace(obs::TraceKind::kElectionStart, level, ls.epoch);
  ls.electing = true;
  ls.answered = false;
  ElectionMsg msg;
  msg.candidate = self_;
  msg.level = static_cast<uint8_t>(level);
  net_.send_multicast(self_, channel_of(level), ttl_of(level),
                      config_.data_port, encode_message(msg));
  ls.election_timer->restart(kElectionTimeout);
}

void HierDaemon::election_deadline(int level) {
  LevelState& ls = level_state(level);
  if (!ls.electing) return;
  if (!ls.answered) {
    become_leader(level);
  } else {
    // A lower-id node objected; give it time to announce itself.
    ls.coordinator_timer->restart(kCoordinatorTimeout);
  }
}

NodeId HierDaemon::pick_backup(int level) {
  LevelState& ls = level_state(level);
  std::vector<NodeId> candidates;
  for (const auto& [node, info] : ls.members) candidates.push_back(node);
  if (candidates.empty()) return membership::kInvalidNode;
  return sim_.rng().pick(candidates);
}

void HierDaemon::become_leader(int level) {
  LevelState& ls = level_state(level);
  ls.electing = false;
  ls.answered = false;
  ls.election_timer->cancel();
  ls.coordinator_timer->cancel();
  ls.backup_grace_timer->cancel();
  if (ls.i_am_leader) return;
  ls.i_am_leader = true;
  ls.leader = self_;
  ls.my_backup = pick_backup(level);
  // Our own view is now the group's authority; an outstanding bootstrap
  // poll (to a dead or demoted leader) is moot.
  close_bootstrap(ls);
  // Mint a new leadership epoch above everything heard on this channel, and
  // fence the predecessor we are succeeding: its claims (and replayed
  // updates) below the new epoch are stale from this moment on.
  ls.epoch += 1;
  metrics_.epochs_minted->add();
  trace(obs::TraceKind::kEpochMint, level, ls.epoch);
  if (ls.prev_leader != membership::kInvalidNode && ls.prev_leader != self_) {
    raise_fence(ls, ls.prev_leader, ls.epoch - 1, ls.prev_leader_incarnation);
  }

  TAMP_LOG(Info) << "hier node " << self_ << " becomes leader of level "
                 << level << " epoch " << ls.epoch;

  send_coordinator(level);

  send_heartbeat(level);
  // Re-seed the group with everything we know: after a leader death the
  // members purged the old relay's entries and need a fresh image.
  send_state_refresh(level);
  join_level(level + 1);
  // Announce our subtree upward before the higher group's (longer) timeout
  // purges everything the dead leader used to relay.
  if (joined(level + 1)) send_state_refresh(level + 1, /*subtree_only=*/true);
}

void HierDaemon::abdicate(int level) {
  LevelState& ls = level_state(level);
  if (!ls.i_am_leader) return;
  TAMP_LOG(Info) << "hier node " << self_ << " abdicates level " << level;
  ls.i_am_leader = false;
  ls.my_backup = membership::kInvalidNode;
  // Membership of level L+1 was contingent on leading level L. This is a
  // voluntary departure, so it is announced (we are not dead).
  leave_levels_from(level + 1, /*announce=*/true);
}

void HierDaemon::send_coordinator(int level) {
  LevelState& ls = level_state(level);
  CoordinatorMsg msg;
  msg.leader = self_;
  msg.level = static_cast<uint8_t>(level);
  msg.backup = ls.my_backup;
  msg.epoch = ls.epoch;
  // Name the leadership this one superseded (when it succeeded one), so
  // every receiver — including ones that will never hear us directly —
  // learns to fence the predecessor's replayed claims.
  msg.prev = ls.i_am_leader ? ls.prev_leader : membership::kInvalidNode;
  msg.leader_incarnation = own_->incarnation();
  msg.prev_incarnation = ls.i_am_leader ? ls.prev_leader_incarnation : 0;
  net_.send_multicast(self_, channel_of(level), ttl_of(level),
                      config_.data_port, encode_message(msg));
  metrics_.coordinators_sent->add();
  trace(obs::TraceKind::kCoordinator, level, ls.epoch);
}

void HierDaemon::adopt_epoch(int level, membership::Epoch epoch,
                             NodeId new_leader) {
  LevelState& ls = level_state(level);
  if (epoch <= ls.epoch) return;
  ls.epoch = epoch;
  ls.prev_leader = membership::kInvalidNode;
  ls.prev_leader_incarnation = 0;
  if (!ls.i_am_leader) return;
  // A direct claim outranks our leadership: either we were superseded while
  // out of earshot (pause, partition) and the group elected past us, or a
  // merge brought a longer-lived leadership into earshot. Step down
  // silently. The out-log is dropped, not replayed — it holds leaves
  // stamped while detached, which would purge live nodes — and the old
  // subtree's entries are the new leadership's to curate, so no purge
  // either. Then re-enter as a plain member and pull a fresh image.
  metrics_.epochs_superseded->add();
  trace(obs::TraceKind::kEpochSupersede, level, epoch, new_leader);
  TAMP_LOG(Info) << "hier node " << self_ << " superseded at level " << level
                 << " (epoch " << epoch << "), abdicating";
  clear_out_log(ls);
  ls.leader = new_leader;
  abdicate(level);
  ls.bootstrapped = false;
  close_bootstrap(ls);  // any in-flight poll aimed at old leadership
  if (new_leader != membership::kInvalidNode) {
    request_bootstrap(level, new_leader);
  }
  // Else: leader unknown yet — re-pull from whoever we next hear claiming
  // the channel with a live epoch.
}

void HierDaemon::raise_fence(LevelState& ls, NodeId node,
                             membership::Epoch epoch,
                             membership::Incarnation incarnation) {
  // Fences are per-life: a record for a newer incarnation replaces the old
  // life's record wholesale (the old life can never claim again anyway),
  // while within one life the fence only ever rises.
  LevelState::Fence& fence = ls.superseded[node];
  if (incarnation > fence.incarnation) {
    fence.incarnation = incarnation;
    fence.epoch = epoch;
  } else if (incarnation == fence.incarnation) {
    fence.epoch = std::max(fence.epoch, epoch);
  }
}

bool HierDaemon::fenced_stale(const LevelState& ls, NodeId node,
                              membership::Epoch epoch,
                              membership::Incarnation incarnation) {
  // Stale only when the claimant's *current life* was superseded at or
  // below this epoch: a higher incarnation is a restart — a fresh lineage
  // the old succession record says nothing about.
  auto it = ls.superseded.find(node);
  return it != ls.superseded.end() && incarnation <= it->second.incarnation &&
         epoch <= it->second.epoch;
}

void HierDaemon::repel_stale_claim(int level, NodeId claimant,
                                   membership::Epoch claim_epoch,
                                   membership::Incarnation claim_incarnation) {
  LevelState& ls = level_state(level);
  // Pin the claimant's current life in the succession fence (it may predate
  // our own knowledge — e.g. the fence was learned from a COORDINATOR) and
  // name it in the re-assertion so followers that missed the original
  // announcement learn the succession too.
  raise_fence(ls, claimant, claim_epoch, claim_incarnation);
  trace(obs::TraceKind::kStaleReject, level, claimant, claim_epoch);
  ls.prev_leader = claimant;
  ls.prev_leader_incarnation = claim_incarnation;
  send_coordinator(level);
  // Re-seed the claimant's stale view (and repair anything its replayed
  // leaves knocked out elsewhere). A full-view burst, so rate-limited: the
  // claimant keeps heartbeating until the COORDINATOR lands.
  const sim::Time now = sim_.now();
  if (now - ls.last_stale_reseed < config_.period) return;
  ls.last_stale_reseed = now;
  send_state_refresh(level);
  // The resumed subtree hangs off this channel; re-announce upward too so
  // the parent group re-admits whatever the stale episode purged there.
  if (level + 1 < config_.max_ttl && levels_[level + 1]->joined) {
    send_state_refresh(level + 1, /*subtree_only=*/true);
  }
}

void HierDaemon::handle_leader_loss(int level, NodeId old_leader,
                                    membership::Incarnation old_incarnation) {
  LevelState& ls = level_state(level);
  // Leadership may already have been resolved (a backup's COORDINATOR beat
  // our own detection scan): do not contest it.
  if (ls.leader != membership::kInvalidNode && ls.leader != old_leader) {
    return;
  }
  if (ls.leader == old_leader) ls.leader = membership::kInvalidNode;
  // Whoever wins the succession (backup takeover or election) names the
  // lost leader's life as superseded in its COORDINATOR.
  ls.prev_leader = old_leader;
  ls.prev_leader_incarnation = old_incarnation;
  const NodeId backup = ls.leader_backup;
  ls.leader_backup = membership::kInvalidNode;
  if (backup == self_ && ls.joined && !ls.i_am_leader) {
    become_leader(level);  // designated backup takes over immediately
    return;
  }
  if (backup != membership::kInvalidNode && ls.members.contains(backup)) {
    ls.backup_grace_timer->restart(kBackupGrace);
  } else {
    maybe_start_election(level);
  }
}

// --- update propagation ------------------------------------------------------

UpdateRecord HierDaemon::make_join_record(const RowRef& entry) {
  UpdateRecord record;
  record.kind = UpdateKind::kJoin;
  record.subject = entry->node();
  record.incarnation = entry->incarnation();
  record.entry = entry;
  return record;
}

UpdateRecord HierDaemon::make_leave_record(NodeId subject, Incarnation inc) {
  UpdateRecord record;
  record.kind = UpdateKind::kLeave;
  record.subject = subject;
  record.incarnation = inc;
  return record;
}

bool HierDaemon::process_record(const UpdateRecord& record, NodeId relayed_by,
                                int arrival_level) {
  metrics_.update_records_applied->add();
  trace(obs::TraceKind::kDeltaApply, arrival_level, record.subject, record.seq);
  if (record.subject == self_) return false;
  const sim::Time now = sim_.now();

  if (record.kind == UpdateKind::kJoin) {
    if (!record.entry) return false;
    ApplyResult result = table_.apply(record.entry, Liveness::kRelayed,
                                      provenance_tag(record.subject, relayed_by),
                                      now);
    const bool fresh =
        result == ApplyResult::kAdded || result == ApplyResult::kUpdated;
    if (result == ApplyResult::kAdded) notify(record.subject, true);
    if (fresh) relay_record(record, arrival_level);
    return fresh;
  }

  // kLeave. Stale leaves are fenced upstream: the per-origin succession
  // fence drops whole messages from superseded claimants, and the deafness
  // guard stops a resurfacing node from ever emitting its cut-off backlog.
  // record.epoch stays on the wire as provenance (which leadership stamped
  // the record) — it is not compared numerically here, because relayed
  // records cross channels whose lineages mint independently.
  // Our own ears beat second-hand news: if we currently hear the subject's
  // heartbeats, the leave is stale (or an overlap artifact).
  if (heard_directly(record.subject)) return false;
  if (!table_.remove(record.subject, record.incarnation, now)) return false;
  notify(record.subject, false);
  relay_record(record, arrival_level);
  purge_dependents(record.subject, arrival_level,
                   levels_[arrival_level]->epoch);
  return true;
}

void HierDaemon::relay_record(const UpdateRecord& record, int arrival_level) {
  std::vector<bool> emit(static_cast<size_t>(config_.max_ttl), false);
  // Downward/lateral: into every group this node leads (includes the
  // arrival channel itself when we lead it — needed for overlapping groups,
  // where same-channel peers may be outside the original sender's TTL).
  for (int l = 0; l < config_.max_ttl; ++l) {
    if (levels_[l]->joined && levels_[l]->i_am_leader) emit[l] = true;
  }
  // Upward cascade: the leader of level L forwards into L+1; when it is the
  // (possibly sole) member-and-leader there too, the record must keep
  // climbing — a node cannot receive its own multicast, so the cascade is
  // computed here rather than re-entering through the socket.
  for (int l = arrival_level;
       l + 1 < config_.max_ttl && levels_[l]->i_am_leader &&
       levels_[l + 1]->joined;
       ++l) {
    emit[l + 1] = true;
  }
  for (int l = 0; l < config_.max_ttl; ++l) {
    if (emit[l]) emit_batch(l, {record});
  }
}

void HierDaemon::emit_batch(int level,
                            const std::vector<UpdateRecord>& batch) {
  LevelState& ls = level_state(level);
  if (!ls.joined || batch.empty()) return;

  // Timer-driven emissions need the deafness guard too: a refresh can fire
  // after a resume before any packet has arrived.
  drop_deaf_backlog(ls);

  UpdateMsg msg;
  msg.origin = self_;
  msg.origin_incarnation = own_->incarnation();
  msg.epoch = ls.epoch;
  // Piggyback the previous records (newest first) after the new batch.
  const size_t prior =
      std::min<size_t>(static_cast<size_t>(config_.piggyback), ls.out_log.size());
  for (const auto& record : batch) {
    UpdateRecord stamped = record;
    stamped.seq = ++ls.out_seq;
    stamped.epoch = ls.epoch;
    ls.out_log.push_front(stamped);
  }
  // Compaction: a record shadowed by a newer record for the same subject at
  // an incarnation at least as new is dead weight — the shadower alone
  // produces the same final table state at every receiver. Coalescing lets
  // the bounded log cover a longer seq window, so fewer losses escalate to
  // full-image syncs. The holes this opens are safe for window_base: the
  // shadower sits at a higher seq in the same log, so any compacted seq
  // inside a sent window is covered by a record in that window.
  {
    std::map<NodeId, Incarnation> newest;
    for (auto it = ls.out_log.begin(); it != ls.out_log.end();) {
      auto seen = newest.find(it->subject);
      if (seen != newest.end() && it->incarnation <= seen->second) {
        it = ls.out_log.erase(it);
        metrics_.out_log_compacted->add();
      } else {
        auto& inc = newest[it->subject];
        inc = std::max(inc, it->incarnation);
        ++it;
      }
    }
  }
  const size_t send = std::min(batch.size() + prior, ls.out_log.size());
  for (size_t i = 0; i < send; ++i) msg.records.push_back(ls.out_log[i]);
  // Everything above window_base that still matters rides in this message:
  // either the next retained-but-unsent record's seq, or the trim watermark
  // when the whole log fits.
  msg.window_base =
      send < ls.out_log.size() ? ls.out_log[send].seq : ls.out_log_base;
  while (ls.out_log.size() >
         static_cast<size_t>(std::max(config_.piggyback + 1, 8))) {
    ls.out_log_base = std::max(ls.out_log_base, ls.out_log.back().seq);
    ls.out_log.pop_back();
  }
  net_.send_multicast(self_, channel_of(level), ttl_of(level),
                      config_.data_port, encode_message(msg));
  metrics_.updates_sent->add();
  trace(obs::TraceKind::kDeltaEmit, level, msg.records.size(), ls.epoch);
}

void HierDaemon::clear_out_log(LevelState& ls) {
  ls.out_log.clear();
  ls.out_log_base = ls.out_seq;
}

void HierDaemon::drop_deaf_backlog(LevelState& ls) {
  // A deafness gap exceeding this level's own failure timeout means every
  // peer has, by the same clock, timed us out and moved on. Whatever we
  // stamped into the out-log while cut off (chiefly the leaves of nodes we
  // could no longer hear) describes a world that no longer exists — drop it
  // rather than replay it through the piggyback.
  if (ls.last_received > 0 && !ls.out_log.empty() &&
      sim_.now() - ls.last_received > level_timeout(ls.level)) {
    clear_out_log(ls);
    metrics_.deaf_backlogs_dropped->add();
  }
}

std::vector<const MembershipEntry*> HierDaemon::refresh_scope(
    int level, bool subtree_only) const {
  const LevelState& ls = *levels_[level];
  std::vector<const MembershipEntry*> rows;
  for (const auto& [id, entry] : table_.entries()) {
    if (subtree_only && id != self_) {
      // Upward refreshes announce only the subtree this node represents:
      // re-announcing what we learned *from* this very group would keep a
      // departed peer's stale entries alive through mutual refresh.
      if (ls.members.contains(id)) continue;
      if (entry.liveness == Liveness::kRelayed &&
          entry.relayed_by != membership::kInvalidNode &&
          ls.members.contains(entry.relayed_by)) {
        continue;
      }
    }
    rows.push_back(&entry);
  }
  return rows;
}

void HierDaemon::send_state_refresh(int level, bool subtree_only) {
  std::vector<UpdateRecord> batch;
  for (const MembershipEntry* row : refresh_scope(level, subtree_only)) {
    batch.push_back(make_join_record(row->row));
  }
  emit_batch(level, batch);
}

// --- incremental anti-entropy (digests) -------------------------------------

void HierDaemon::send_refresh_digest(int level, bool subtree) {
  LevelState& ls = level_state(level);
  if (!ls.joined) return;
  const auto rows = refresh_scope(level, subtree);
  const size_t bucket_count = kDigestBuckets;
  RefreshDigestMsg msg;
  msg.origin = self_;
  msg.origin_incarnation = own_->incarnation();
  msg.level = static_cast<uint8_t>(level);
  msg.epoch = ls.epoch;
  msg.subtree = subtree;
  msg.row_count = static_cast<uint32_t>(rows.size());
  msg.buckets.assign(bucket_count, 0);
  if (subtree) msg.subjects.reserve(rows.size());
  for (const MembershipEntry* row : rows) {
    const uint64_t hash = row->row->hash();
    msg.view_hash ^= hash;
    msg.buckets[membership::digest_bucket_of(row->row->node(),
                                             bucket_count)] ^= hash;
    // Table iteration is id-ascending, which is exactly the order the
    // delta-varint scope coding wants.
    if (subtree) msg.subjects.push_back(row->row->node());
  }
  net_.send_multicast(self_, channel_of(level), ttl_of(level),
                      config_.data_port, encode_message(std::move(msg)));
  metrics_.digests_sent->add();
}

std::vector<const MembershipEntry*> HierDaemon::digest_receiver_scope(
    const RefreshDigestMsg& msg) const {
  std::vector<const MembershipEntry*> rows;
  if (msg.subtree) {
    // The digest names its scope; hash our copies of exactly those rows.
    // A listed row we don't hold leaves its hash out of our bucket — the
    // mismatch is how the pull discovers it. Rows we hold that the origin
    // stopped listing simply go unrefreshed and age into orphan expiry.
    for (NodeId id : msg.subjects) {
      const MembershipEntry* entry = table_.find(id);
      if (entry != nullptr) rows.push_back(entry);
    }
    return rows;
  }
  for (const auto& [id, entry] : table_.entries()) {
    rows.push_back(&entry);
  }
  return rows;
}

void HierDaemon::on_refresh_digest(int level, const RefreshDigestMsg& msg) {
  LevelState& ls = level_state(level);
  if (msg.origin == self_) return;
  auto member = ls.members.find(msg.origin);
  if (member != ls.members.end()) member->second.last_heard = sim_.now();
  // Same stale-replay fence as update streams: a digest from a superseded
  // leadership life describes a pre-re-election world; comparing against it
  // (and worse, pulling rows from it) would resurrect that world.
  if (fenced_stale(ls, msg.origin, msg.epoch, msg.origin_incarnation)) {
    metrics_.stale_epoch_rejects->add();
    ls.digest_due.erase({msg.origin, msg.subtree});
    return;
  }
  ls.digest_due[{msg.origin, msg.subtree}] =
      sim_.now() + config_.refresh_interval + config_.period;
  const size_t bucket_count = msg.buckets.size();
  if (bucket_count == 0 || bucket_count > membership::kMaxDigestBuckets) {
    return;
  }

  const auto rows = digest_receiver_scope(msg);
  std::vector<uint64_t> buckets(bucket_count, 0);
  for (const MembershipEntry* row : rows) {
    buckets[membership::digest_bucket_of(row->row->node(), bucket_count)] ^=
        row->row->hash();
  }
  std::vector<bool> mismatched(bucket_count, false);
  bool any_mismatch = false;
  for (size_t b = 0; b < bucket_count; ++b) {
    if (buckets[b] != msg.buckets[b]) {
      mismatched[b] = true;
      any_mismatch = true;
    }
  }

  // Rows in agreeing buckets are still being announced by the origin:
  // refresh them exactly as absorbing a full re-announcement would, minus
  // the bytes — re-rooting their provenance at the origin, the relay that
  // just vouched for them. Rows in mismatched buckets wait for the delta —
  // the ones the origin stopped announcing must keep aging toward orphan
  // expiry, or a lost LEAVE would never be repaired.
  const sim::Time now = sim_.now();
  for (const MembershipEntry* row : rows) {
    const NodeId id = row->row->node();
    if (id == self_ || row->liveness != Liveness::kRelayed) continue;
    if (mismatched[membership::digest_bucket_of(id, bucket_count)]) continue;
    table_.reconfirm_relay(id, msg.origin, now);
  }
  if (any_mismatch) {
    send_refresh_pull(level, msg.origin, msg.subtree, rows, mismatched);
  }
}

void HierDaemon::send_refresh_pull(
    int level, NodeId origin, bool subtree,
    const std::vector<const MembershipEntry*>& rows,
    const std::vector<bool>& mismatched) {
  const size_t bucket_count = mismatched.size();
  RefreshPullMsg pull;
  pull.requester = self_;
  pull.level = static_cast<uint8_t>(level);
  pull.epoch = level_state(level).epoch;
  pull.subtree = subtree;
  for (size_t b = 0; b < bucket_count; ++b) {
    if (mismatched[b]) pull.bucket_indices.push_back(static_cast<uint16_t>(b));
  }
  for (const MembershipEntry* row : rows) {
    if (!mismatched[membership::digest_bucket_of(row->row->node(),
                                                 bucket_count)]) {
      continue;
    }
    pull.rows.push_back(DigestRowSummary{
        row->row->node(), row->row->incarnation(), row->row->hash()});
  }
  net_.send_unicast(self_, net::Address{origin, config_.control_port},
                    encode_message(std::move(pull)));
  metrics_.digest_pulls_sent->add();
}

void HierDaemon::check_digest_rounds(int level) {
  LevelState& ls = level_state(level);
  const sim::Time now = sim_.now();
  for (auto it = ls.digest_due.begin(); it != ls.digest_due.end();) {
    const auto [origin, subtree] = it->first;
    // Only a member still leading this group owes downward rounds; any
    // member of it still represents its subtree upward.
    if (!ls.members.contains(origin) || (!subtree && ls.leader != origin)) {
      it = ls.digest_due.erase(it);
      continue;
    }
    if (now >= it->second) {
      // The lost digest's scope is unknown here (a subtree digest names
      // its subjects), so pull every bucket and list every row we hold:
      // the origin confirms what it still covers and ships what we lack,
      // exactly as if the digest had arrived and matched nothing.
      it->second = now + config_.refresh_interval;
      metrics_.digest_rounds_missed->add();
      std::vector<const MembershipEntry*> rows;
      rows.reserve(table_.size());
      for (const auto& [id, entry] : table_.entries()) rows.push_back(&entry);
      send_refresh_pull(level, origin, subtree, rows,
                        std::vector<bool>(kDigestBuckets, true));
    }
    ++it;
  }
}

void HierDaemon::on_refresh_pull(const RefreshPullMsg& msg) {
  if (msg.requester == self_) return;
  const int level = wire_level(msg.level);
  LevelState& ls = *levels_[level];
  if (!ls.joined) return;
  metrics_.digest_pulls_served->add();

  // Bucket geometry is ours (the pull answers our digest); indices outside
  // it are from a digest we did not send — ignore them rather than guess.
  const size_t bucket_count = kDigestBuckets;
  std::vector<bool> wanted(bucket_count, false);
  for (uint16_t b : msg.bucket_indices) {
    if (b < bucket_count) wanted[b] = true;
  }
  std::map<NodeId, const DigestRowSummary*> theirs;
  for (const auto& row : msg.rows) theirs[row.subject] = &row;

  RefreshDeltaMsg delta;
  delta.responder = self_;
  delta.responder_incarnation = own_->incarnation();
  delta.level = msg.level;
  delta.epoch = ls.epoch;
  for (const MembershipEntry* row : refresh_scope(level, msg.subtree)) {
    if (!wanted[membership::digest_bucket_of(row->row->node(),
                                             bucket_count)]) {
      continue;
    }
    auto it = theirs.find(row->row->node());
    if (it != theirs.end() && it->second->row_hash == row->row->hash()) {
      delta.confirmed.push_back(row->row->node());
      continue;
    }
    if (delta.entries.size() >= kDigestMaxRowsPerDelta) {
      // Divergence beyond the delta budget: stop here and let the requester
      // escalate to the full-image path (which admission control guards).
      delta.truncated = true;
      break;
    }
    delta.entries.push_back(row->row);
  }
  // Rows the requester listed that we do not hold in scope are deliberately
  // neither shipped nor confirmed: unrefreshed, they age into orphan expiry
  // at the requester — the digest form of lost-LEAVE repair.
  metrics_.delta_rows_shipped->add(delta.entries.size());
  metrics_.digest_rows_suppressed->add(delta.confirmed.size());
  metrics_.deltas_sent->add();
  net_.send_unicast(self_, net::Address{msg.requester, config_.control_port},
                    encode_message(std::move(delta)));
}

void HierDaemon::on_refresh_delta(const RefreshDeltaMsg& msg) {
  if (msg.responder == self_) return;
  const int level = wire_level(msg.level);
  LevelState& ls = *levels_[level];
  if (!ls.joined) return;
  if (fenced_stale(ls, msg.responder, msg.epoch, msg.responder_incarnation)) {
    metrics_.stale_epoch_rejects->add();
    return;
  }
  absorb_entries(msg.entries, msg.responder, level);
  const sim::Time now = sim_.now();
  for (NodeId id : msg.confirmed) {
    if (id == self_) continue;
    table_.reconfirm_relay(id, msg.responder, now);
  }
  if (msg.truncated) {
    // The backstop demotion: only a delta that could not carry the whole
    // divergence escalates to an O(N) image, and that path sits behind the
    // responder's image_serve_budget like any other full-image exchange.
    metrics_.digest_full_fallbacks->add();
    request_sync(level, msg.responder, 0);
  }
}

// --- bootstrap / sync -------------------------------------------------------

void HierDaemon::request_bootstrap(int level, NodeId leader) {
  LevelState& ls = level_state(level);
  auto it = ls.exchanges.find({BusyKind::kBootstrap, leader});
  if (it != ls.exchanges.end() && !it->second->exhausted) {
    return;  // a poll to this leader is already in flight
  }
  // Retarget (leadership moved) or restart after exhaustion: the attempt
  // budget is per-exchange, and a fresh leader claim opens a fresh one.
  close_bootstrap(ls);
  open_exchange(level, BusyKind::kBootstrap, leader,
                &HierDaemon::send_bootstrap_request);
}

void HierDaemon::request_sync(int level, NodeId origin, uint64_t observed_seq) {
  LevelState& ls = level_state(level);
  auto it = ls.exchanges.find({BusyKind::kSync, origin});
  if (it != ls.exchanges.end()) {
    if (!it->second->exhausted) return;  // a poll is already in flight
    // The attempt budget on this origin is spent and it is still ahead of
    // us: stop polling and anchor the cursor past the gap instead. The
    // digest round pulls whatever the lost stretch carried, and orphan
    // expiry removes what it should have removed.
    auto cursor = ls.in_seq.find(origin);
    if (cursor != ls.in_seq.end() && observed_seq > cursor->second.seq) {
      cursor->second.seq = observed_seq;
    }
    ls.exchanges.erase(it);
    return;
  }
  open_exchange(level, BusyKind::kSync, origin,
                &HierDaemon::send_sync_request);
}

void HierDaemon::send_bootstrap_request(int level, NodeId leader) {
  metrics_.bootstraps_requested->add();
  trace(obs::TraceKind::kBootstrapRequest, level, leader);
  BootstrapRequestMsg request;
  request.requester = self_;
  request.level = static_cast<uint8_t>(level);
  request.epoch = level_state(level).epoch;
  request.known = full_view();
  net_.send_unicast(self_, net::Address{leader, config_.control_port},
                    encode_message(std::move(request)));
}

void HierDaemon::send_sync_request(int level, NodeId origin) {
  LevelState& ls = level_state(level);
  metrics_.syncs_requested->add();
  trace(obs::TraceKind::kSyncRequest, level, origin);
  SyncRequestMsg request;
  request.requester = self_;
  request.level = static_cast<uint8_t>(level);
  // The live cursor, not the one captured when the exchange opened: an
  // intervening update may have advanced it.
  auto cursor = ls.in_seq.find(origin);
  request.last_seq_seen = cursor != ls.in_seq.end() ? cursor->second.seq : 0;
  request.epoch = ls.epoch;
  net_.send_unicast(self_, net::Address{origin, config_.control_port},
                    encode_message(request));
}

void HierDaemon::open_exchange(int level, BusyKind kind, NodeId target,
                               void (HierDaemon::*send)(int, NodeId)) {
  auto& slot = level_state(level).exchanges[{kind, target}];
  slot = std::make_unique<LevelState::PendingExchange>();
  LevelState::PendingExchange* exchange = slot.get();
  exchange->target = target;
  exchange->send = send;
  // The slot owns the timer, so the callback never outlives the slot.
  exchange->timer = std::make_unique<sim::OneShotTimer>(
      sim_, [this, level, exchange] { retry_exchange(level, *exchange); });
  send_exchange(level, *exchange);
}

void HierDaemon::send_exchange(int level,
                               LevelState::PendingExchange& exchange) {
  (this->*exchange.send)(level, exchange.target);
  exchange.timer->restart(kExchangeRetry.delay(exchange.attempts, sim_.rng()));
  ++exchange.attempts;
}

void HierDaemon::retry_exchange(int level,
                                LevelState::PendingExchange& exchange) {
  if (kExchangeRetry.exhausted(exchange.attempts)) {
    // Budget spent on this target: stop hammering it and leave the
    // escalation to the requester's own path. A bootstrap stays
    // un-bootstrapped, so the next leader claim (heartbeat flag or
    // COORDINATOR) re-opens it; a sync is anchored past the gap at the next
    // gap sighting. The slot survives until then: destroying it here would
    // free the timer whose callback this is.
    exchange.exhausted = true;
    metrics_.exchange_budget_exhausted->add();
    trace(obs::TraceKind::kBudgetExhausted, level, exchange.target);
    return;
  }
  metrics_.exchange_retries->add();
  trace(obs::TraceKind::kRetry, level, exchange.target, exchange.attempts);
  send_exchange(level, exchange);
}

void HierDaemon::close_bootstrap(LevelState& ls) {
  auto first = ls.exchanges.begin();
  if (first != ls.exchanges.end() &&
      first->first.first == BusyKind::kBootstrap) {
    ls.exchanges.erase(first);
  }
}

void HierDaemon::prune_pending(LevelState& ls, NodeId member) {
  ls.exchanges.erase({BusyKind::kBootstrap, member});
  ls.exchanges.erase({BusyKind::kSync, member});
}

template <typename Response>
void HierDaemon::serve_image(NodeId requester, BusyKind kind,
                             obs::Counter* served, Response& response) {
  if (!admit_image_serve()) {
    metrics_.busy_sent->add();
    BusyMsg busy;
    busy.responder = self_;
    busy.level = response.level;
    busy.kind = kind;
    // Deterministic stagger: successive refusals within one window are
    // pointed at successively later windows, so a backlog of B requesters
    // drains at `image_serve_budget` serves per period instead of all B
    // re-colliding at the window rollover.
    const auto windows_ahead = static_cast<sim::Duration>(
        deferrals_window_++ / config_.image_serve_budget);
    busy.retry_after = serve_window_start_ + config_.period - sim_.now() +
                       windows_ahead * config_.period;
    trace(obs::TraceKind::kBusyPushback, busy.level, requester,
          static_cast<uint64_t>(busy.retry_after));
    net_.send_unicast(self_, net::Address{requester, config_.control_port},
                      encode_message(busy));
    return;
  }
  served->add();
  response.responder = self_;
  response.responder_incarnation = own_->incarnation();
  response.entries = full_view();
  metrics_.image_serve_entries->observe(
      static_cast<double>(response.entries.size()));
  net_.send_unicast(self_, net::Address{requester, config_.control_port},
                    encode_message(std::move(response)));
}

bool HierDaemon::admit_image_serve() {
  if (config_.image_serve_budget == 0) return true;
  const sim::Time now = sim_.now();
  if (now - serve_window_start_ >= config_.period) {
    serve_window_start_ = now;
    serves_window_ = 0;
    deferrals_window_ = 0;
  }
  if (serves_window_ < config_.image_serve_budget) {
    ++serves_window_;
    return true;
  }
  return false;
}

void HierDaemon::on_busy(const BusyMsg& msg) {
  const int level = wire_level(msg.level);
  auto& exchanges = levels_[level]->exchanges;
  auto it = exchanges.find({msg.kind, msg.responder});
  if (it == exchanges.end() || it->second->exhausted) return;
  metrics_.busy_deferrals->add();
  trace(obs::TraceKind::kBusyDeferral, level, msg.responder,
        static_cast<uint64_t>(msg.retry_after));
  // Honor the deferral without consuming a retry attempt; the jitter
  // spreads requesters that were handed the same retry_after.
  const auto jitter = static_cast<sim::Duration>(sim_.rng().uniform_u64(
      static_cast<uint64_t>(config_.period / 2) + 1));
  it->second->timer->restart(std::max<sim::Duration>(msg.retry_after, 1) +
                             jitter);
}

std::vector<RowRef> HierDaemon::full_view() const {
  std::vector<RowRef> entries;
  entries.reserve(table_.size());
  for (const auto& [id, entry] : table_.entries()) entries.push_back(entry.row);
  return entries;
}

// relayed_by is the provenance chain the Timeout protocol purges by, so it
// must track the canonical relay: the neighbor on the path toward the
// subject. Any peer may mention any entry (bootstrap copies, anti-entropy
// refreshes), so the tag is sticky — it moves to a new relayer only once
// the current one is no longer heard (leader handover, healed partition).
NodeId HierDaemon::provenance_tag(NodeId subject, NodeId proposed) const {
  const auto* existing = table_.find(subject);
  if (existing != nullptr && existing->liveness == Liveness::kRelayed &&
      existing->relayed_by != membership::kInvalidNode &&
      heard_directly(existing->relayed_by)) {
    return existing->relayed_by;
  }
  return proposed;
}

// A solicited full image *synchronizes* the directory: adding what the
// responder knows, and — for entries whose provenance chain runs through
// the responder — removing what it no longer lists (a lost LEAVE shows up
// as an absence in the relay's image).
void HierDaemon::reconcile_with_image(NodeId responder,
                                      const std::vector<RowRef>& entries,
                                      int arrival_level) {
  std::set<NodeId> present;
  for (const auto& entry : entries) present.insert(entry->node());
  const sim::Time now = sim_.now();
  const sim::Duration fresh_horizon = level_timeout(arrival_level);
  std::vector<std::pair<NodeId, Incarnation>> stale;
  for (const auto& [id, entry] : table_.entries()) {
    if (entry.liveness != Liveness::kRelayed ||
        entry.relayed_by != responder || id == self_ || heard_directly(id) ||
        present.contains(id)) {
      continue;
    }
    // Only entries the responder has *stopped* announcing count as stale;
    // a recently-applied entry may simply be younger than the image
    // (formation-time races), so leave it to the normal lifecycle.
    if (now - entry.last_heard <= fresh_horizon) continue;
    stale.push_back({id, entry.row->incarnation()});
  }
  for (const auto& [id, incarnation] : stale) {
    if (table_.remove(id, incarnation, now)) {
      notify(id, false);
      relay_record(make_leave_record(id, incarnation), arrival_level);
      purge_dependents(id, arrival_level,
                       level_state(arrival_level).epoch);
    }
  }
}

void HierDaemon::absorb_entries(const std::vector<RowRef>& entries,
                                NodeId relayed_by, int arrival_level) {
  const sim::Time now = sim_.now();
  for (const auto& entry : entries) {
    if (entry->node() == self_) continue;
    // Tombstones are respected even in solicited exchanges: during a
    // failover race the responder may still list a node we just declared
    // dead, and overriding would flap the view. A healed partition's
    // mutual tombstones simply expire, after which the periodic
    // anti-entropy refresh re-merges the sides.
    ApplyResult result =
        table_.apply(entry, Liveness::kRelayed,
                     provenance_tag(entry->node(), relayed_by), now);
    if (result == ApplyResult::kAdded) notify(entry->node(), true);
    if (result == ApplyResult::kAdded || result == ApplyResult::kUpdated) {
      relay_record(make_join_record(entry), arrival_level);
    }
  }
}

void HierDaemon::refresh_tick() {
  for (int l = 0; l < config_.max_ttl; ++l) {
    if (!levels_[l]->joined || !levels_[l]->i_am_leader) continue;
    // Anti-entropy into the group this node leads, and upward into the
    // parent group it represents that subtree in: every relayed entry in
    // the cluster is vouched for along its chain once per interval, so
    // freshness genuinely means "still being relayed". The round ships a
    // digest, not the rows; event-driven re-seeds elsewhere (become_leader,
    // repel_stale_claim) send the full image, where the receivers provably
    // need all of it.
    send_refresh_digest(l, /*subtree=*/false);
    if (l + 1 < config_.max_ttl && levels_[l + 1]->joined) {
      send_refresh_digest(l + 1, /*subtree=*/true);
    }
  }
}

}  // namespace tamp::protocols
