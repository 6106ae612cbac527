#include "protocols/hier.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "util/check.h"

namespace tamp::protocols {

using membership::ApplyResult;
using membership::decode_message;
using membership::encode_message;
using membership::BootstrapRequestMsg;
using membership::BootstrapResponseMsg;
using membership::BusyKind;
using membership::BusyMsg;
using membership::CoordinatorMsg;
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
    const auto l = static_cast<size_t>(level);
    const net::ChannelId channel =
        l < config_.level_channels.size() && config_.level_channels[l] != 0
            ? config_.level_channels[l]
            : config_.base_channel + static_cast<net::ChannelId>(level);
    // One channel per level, or a level's traffic is read as another's.
    TAMP_CHECK_MSG(level_of_channel(channel) < 0,
                   "hier levels %d and %d share channel %u",
                   level_of_channel(channel), level, channel);
    channels_.push_back(channel);
    levels_.push_back(std::make_unique<LevelState>(*this, level));
  }
  resolve_metrics();
}

HierDaemon::LevelState::LevelState(HierDaemon& daemon, int level)
    : daemon(daemon),
      level(level),
      leadership(daemon.self_),
      anti_entropy(daemon.self_, level) {
  for (size_t t = 0; t < Leadership::kTimers; ++t) {
    timers[t] = std::make_unique<sim::OneShotTimer>(daemon.sim_, [this, t] {
      leadership.on_timer(*this, static_cast<Leadership::Timer>(t));
    });
  }
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
  const std::array<std::string_view, AntiEntropy::kCounts> digest = {
      "digests_sent",          "digest_pulls_sent",
      "digest_pulls_served",   "deltas_sent",
      "delta_rows_shipped",    "digest_rows_suppressed",
      "digest_full_fallbacks", "digest_rounds_missed"};
  for (size_t i = 0; i < digest.size(); ++i) metrics_.digest[i] = c(digest[i]);
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
  auto it = std::find(channels_.begin(), channels_.end(), channel);
  return it == channels_.end() ? -1 : static_cast<int>(it - channels_.begin());
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
  arm_scan(level);
  send_heartbeat(level);
  ls.leadership.join(ls, join_listen(config_.period));
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
      multicast(l, encode_message(goodbye, config_.heartbeat_pad));
    }
    net_.leave_group(self_, channel_of(l));
    ls.joined = false;
    demote_due_ = true;
    ls.bootstrapped = false;
    ls.peers.clear();
    ls.anti_entropy.leave();
    clear_out_log(ls);
    ls.exchanges.clear();
    // out_seq intentionally NOT reset: receivers' per-origin cursors must
    // never observe a sequence regression.
    ls.leadership.leave(ls);
  }
}

// --- per-level peer records -------------------------------------------------

namespace {

template <typename Peers>
auto peer_slot(Peers& peers, NodeId id) {
  return std::lower_bound(
      peers.begin(), peers.end(), id,
      [](const auto& peer, NodeId key) { return peer.id < key; });
}

}  // namespace

HierDaemon::Peer* HierDaemon::LevelState::find_peer(NodeId id) {
  auto it = peer_slot(peers, id);
  return it != peers.end() && it->id == id ? &*it : nullptr;
}

HierDaemon::Peer& HierDaemon::LevelState::add_peer(NodeId id) {
  auto it = peer_slot(peers, id);
  if (it == peers.end() || it->id != id) it = peers.insert(it, Peer{.id = id});
  return *it;
}

bool HierDaemon::LevelState::is_member(NodeId id) const {
  auto it = peer_slot(peers, id);
  return it != peers.end() && it->id == id && it->member;
}

void HierDaemon::LevelState::drop_member(NodeId id) {
  auto it = peer_slot(peers, id);
  if (it == peers.end() || it->id != id) return;
  if (it->has_cursor) {
    it->member = false;
  } else {
    peers.erase(it);
  }
}

// --- introspection -----------------------------------------------------------

bool HierDaemon::joined(int level) const {
  return level >= 0 && level < config_.max_ttl && levels_[level]->joined;
}

bool HierDaemon::is_leader(int level) const {
  return joined(level) && levels_[level]->leadership.leads();
}

NodeId HierDaemon::leader_of(int level) const {
  if (!joined(level)) return membership::kInvalidNode;
  return levels_[level]->leadership.leader();
}

NodeId HierDaemon::backup_of(int level) const {
  if (!joined(level)) return membership::kInvalidNode;
  return levels_[level]->leadership.backup();
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
  for (const Peer& peer : levels_[level]->peers) {
    if (peer.member) out.push_back(peer.id);
  }
  return out;
}

membership::Epoch HierDaemon::epoch_of(int level) const {
  if (level < 0 || level >= config_.max_ttl) return 0;
  return levels_[level]->leadership.epoch();
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
    LevelState& ls = *levels_[l];
    if (!ls.joined) continue;
    send_heartbeat(l);
    ls.anti_entropy.check_overdue(ls, table_, sim_.now());
  }
  // The table-wide soft-state GC below is O(view size); its timeouts are
  // tens of seconds, so checking every few periods loses nothing. Each of
  // its two passes also walks the table only when it can find something.
  if (hb_seq_ % 5 != 0) return;
  // Direct entries we no longer actually hear (e.g. a lost goodbye from a
  // node that left a shared channel) decay to relayed status, entering the
  // normal second-hand lifecycle below. Direct rows are applied only for
  // members, so only a dropped member or a left level can leave one unheard.
  const sim::Time now = sim_.now();
  if (demote_due_) {
    demote_due_ = false;
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
  }
  // Relayed entries are soft state refreshed by the relay chain's periodic
  // anti-entropy (refresh_tick): an entry nobody re-announces — by a digest
  // or delta touch — within the refresh horizon is stale: drop it. This is
  // what eventually clears entries resurrected by packet reordering or late
  // replays under loss. The table's bound on relayed stamps says when one
  // can first be that stale.
  const sim::Duration top_timeout = level_timeout(config_.max_ttl - 1);
  const sim::Duration orphan_timeout = std::max(
      2 * top_timeout, 2 * config_.refresh_interval + top_timeout);
  if (now - table_.oldest_relayed_heard() <= orphan_timeout) return;
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
  heartbeat.is_leader = ls.leadership.leads();
  if (heartbeat.is_leader) heartbeat.backup = ls.leadership.backup();
  heartbeat.seq = ls.out_seq;
  heartbeat.epoch = ls.leadership.epoch();
  multicast(level, encode_message(heartbeat, config_.heartbeat_pad));
  metrics_.heartbeats_sent->add();
}

void HierDaemon::scan_tick() {
  for (int l = 0; l < config_.max_ttl; ++l) {
    if (levels_[l]->joined) scan_level(l);
  }
  for (int l = 0; l < config_.max_ttl; ++l) {
    if (levels_[l]->joined) arm_scan(l);
  }
}

void HierDaemon::arm_scan(int level) {
  scan_timer_.arm(level_state(level).oldest_heard + level_timeout(level));
}

void HierDaemon::scan_level(int level) {
  LevelState& ls = level_state(level);
  const sim::Time now = sim_.now();
  const sim::Duration timeout = level_timeout(level);
  if (now - ls.oldest_heard <= timeout) return;  // nobody can have expired
  std::vector<NodeId> dead;
  sim::Time oldest = now;
  for (const Peer& peer : ls.peers) {
    if (!peer.member) continue;
    if (now - peer.last_heard > timeout) {
      dead.push_back(peer.id);
    } else {
      oldest = std::min(oldest, peer.last_heard);
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
  for (const Peer& peer : ls.peers) {
    if (!peer.member) continue;
    // Unreachable (0) is not "moved": a crashed host and a cut link look
    // the same from here, so the level timeout decides, which gives a
    // partition its death semantics.
    const int ttl = net_.topology().ttl_required(self_, peer.id);
    if (ttl > level + 1) gone.push_back(peer.id);
  }
  for (NodeId member : gone) {
    // Mirror the voluntary-leave path (on_heartbeat's `leaving` branch):
    // the member is alive, merely out of earshot now, so no leave record is
    // relayed and no purge cascades — its entry just becomes second-hand.
    forget_member(level, member);
    if (!heard_directly(member)) {
      table_.demote_to_relayed(member, membership::kInvalidNode);
    }
  }
  return gone.size();
}

void HierDaemon::forget_member(int level, NodeId member) {
  LevelState& ls = level_state(level);
  ls.drop_member(member);
  demote_due_ = true;
  prune_pending(ls, member);
  ls.leadership.member_gone(ls, member);
}

bool HierDaemon::heard_directly(NodeId node) const {
  for (int l = 0; l < config_.max_ttl; ++l) {
    if (levels_[l]->joined && levels_[l]->is_member(node)) return true;
  }
  return false;
}

void HierDaemon::on_member_dead(int level, NodeId member) {
  LevelState& ls = level_state(level);
  const Peer* peer = ls.find_peer(member);
  if (peer == nullptr || !peer->member) return;
  const bool flagged_leader = peer->is_leader;
  // Capture the dying life's incarnation before the table entry goes: the
  // succession fence must name the life that was lost, not a later restart.
  const auto* lost_entry = table_.find(member);
  const Incarnation lost_incarnation =
      lost_entry ? lost_entry->row->incarnation() : 0;
  ls.drop_member(member);
  demote_due_ = true;
  prune_pending(ls, member);

  trace(obs::TraceKind::kTimeoutExpiry, level, member);

  ls.leadership.backup_lost(ls, member);

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
    if (level > 0) purge_dependents(member, level, ls.leadership.epoch());
  }

  ls.leadership.leader_dead(ls, member, lost_incarnation, flagged_leader);
}

void HierDaemon::purge_dependents(NodeId dead, int arrival_level,
                                  membership::Epoch trigger_epoch) {
  // A purge established under a leadership epoch that has since been
  // superseded is acting on stale knowledge: the new leadership's refresh
  // is re-seeding exactly the entries this purge would remove.
  if (trigger_epoch < level_state(arrival_level).leadership.epoch()) {
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
          arrival.leadership.on_election(arrival, msg.candidate);
        } else if constexpr (std::is_same_v<T, CoordinatorMsg>) {
          on_coordinator(level, msg);
        } else if constexpr (std::is_same_v<T, RefreshDigestMsg>) {
          // Any packet from a member is proof of life.
          Peer* peer = arrival.find_peer(msg.origin);
          if (peer != nullptr && peer->member) peer->last_heard = sim_.now();
          arrival.anti_entropy.on_digest(arrival, table_, sim_.now(), msg);
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
          response.epoch = levels_[response.level]->leadership.epoch();
          serve_image(msg.requester, BusyKind::kBootstrap,
                      metrics_.bootstraps_served, response);
        } else if constexpr (std::is_same_v<T, BootstrapResponseMsg>) {
          const int arrival = wire_level(msg.level);
          LevelState& ls = *levels_[arrival];
          // A full image from a responder whose leadership of this channel
          // was superseded is itself stale: don't absorb it, the live
          // leader's traffic is already re-seeding us.
          if (ls.rejects_stale(msg.responder, msg.epoch,
                               msg.responder_incarnation)) {
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
            response.epoch = ls.leadership.epoch();
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
            if (ls.rejects_stale(msg.responder, msg.epoch,
                                 msg.responder_incarnation)) {
              return;
            }
            // The poll was answered; stop the retry timer for it.
            ls.exchanges.erase({BusyKind::kSync, msg.responder});
            // The image covers everything up to the responder's current
            // stream position: re-anchor our cursor there.
            Peer& peer = ls.add_peer(msg.responder);
            if (!peer.has_cursor ||
                peer.incarnation < msg.responder_incarnation ||
                (peer.incarnation == msg.responder_incarnation &&
                 peer.seq < msg.stream_seq)) {
              peer.anchor(msg.responder_incarnation, msg.stream_seq);
            }
            arrival = msg.level;
          }
          reconcile_with_image(msg.responder, msg.entries, arrival);
          absorb_entries(msg.entries, msg.responder, arrival);
        } else if constexpr (std::is_same_v<T, ElectionAnswerMsg>) {
          if (joined(msg.level)) levels_[msg.level]->leadership.on_answer();
        } else if constexpr (std::is_same_v<T, BusyMsg>) {
          on_busy(msg);
        } else if constexpr (std::is_same_v<T, RefreshPullMsg>) {
          LevelState& ls = *levels_[wire_level(msg.level)];
          if (ls.joined) ls.anti_entropy.on_pull(ls, table_, msg);
        } else if constexpr (std::is_same_v<T, RefreshDeltaMsg>) {
          LevelState& ls = *levels_[wire_level(msg.level)];
          if (ls.joined) {
            ls.anti_entropy.on_delta(ls, table_, sim_.now(), msg);
          }
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
    forget_member(level, sender);
    // Keep the entry's contents fresh, but record that our knowledge of it
    // is about to become second-hand.
    if (heard_directly(sender)) {
      table_.apply(msg.entry, Liveness::kDirect, membership::kInvalidNode,
                   now);
    } else {
      table_.apply_departing(msg.entry, now);
    }
    return;
  }

  const bool stale_claim = ls.leadership.hear_epoch(ls, msg);
  if (stale_claim) metrics_.stale_epoch_rejects->add();

  // One record serves both the member bookkeeping and the stream cursor;
  // the table apply and the notification below leave it in place.
  Peer& peer = ls.add_peer(sender);
  const bool added_member = !peer.member;
  // A stale claimant is still a live member; just don't record it as a
  // leader, or its presence would suppress a genuinely needed election.
  peer.heard(now, msg.is_leader && !stale_claim, msg.backup);
  if (added_member) ls.leadership.member_added(sender);

  ApplyResult result = table_.apply(msg.entry, Liveness::kDirect,
                                    membership::kInvalidNode, now);
  if (result == ApplyResult::kAdded) notify(sender, true);

  // The heartbeat advertises the sender's update-stream position: a cursor
  // behind it means we lost update packets with nothing since to expose the
  // gap — poll for a fresh image (paper Message Loss Detection).
  if (!peer.has_cursor || peer.incarnation < msg.entry->incarnation()) {
    // First contact (or a restarted sender with a fresh stream): anchor;
    // the bootstrap exchange supplies the content.
    peer.anchor(msg.entry->incarnation(), msg.seq);
  } else if (peer.incarnation == msg.entry->incarnation() &&
             msg.seq > peer.seq) {
    // Cursor only advances when the recovery actually lands (update or
    // sync response): a lost poll is retried by the exchange's own timer.
    request_sync(level, sender, msg.seq);
  }

  ls.leadership.hear_claim(ls, msg, stale_claim, ls.bootstrapped);

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
  Peer* peer = ls.find_peer(msg.origin);
  if (peer != nullptr && peer->member) peer->last_heard = sim_.now();
  // Stale-replay fence. An update stream from an origin whose leadership
  // claim on this channel was superseded — at or below the epoch the batch
  // is stamped with — is replay from before the re-election (a resumed
  // leader flushing its out-log): the records in it, chiefly the leaves it
  // stamped while detached, describe a world that no longer exists. Epochs
  // from other, overlapping lineages pass (not comparable numbers), and so
  // does a restarted origin's fresh stream (new life, new lineage).
  if (ls.rejects_stale(msg.origin, msg.epoch, msg.origin_incarnation)) return;
  if (msg.records.empty()) return;

  std::vector<const UpdateRecord*> ordered;
  ordered.reserve(msg.records.size());
  for (const auto& record : msg.records) ordered.push_back(&record);
  std::sort(ordered.begin(), ordered.end(),
            [](const UpdateRecord* a, const UpdateRecord* b) {
              return a->seq < b->seq;
            });

  const uint64_t newest = ordered.back()->seq;
  // `peer` stays valid below: process_record adds and drops no peers.
  if (peer == nullptr || !peer->has_cursor ||
      peer->incarnation < msg.origin_incarnation) {
    // First contact with this origin's stream on this channel (or the
    // origin restarted and its sequence numbers start over): accept
    // everything and anchor the cursor — there is no history to have lost.
    for (const auto* record : ordered) process_record(*record, msg.origin, level);
    if (peer == nullptr) peer = &ls.add_peer(msg.origin);
    peer->anchor(msg.origin_incarnation, newest);
    return;
  }
  if (peer->incarnation > msg.origin_incarnation) {
    return;  // stale message from a previous life of the origin
  }

  const uint64_t known = peer->seq;
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
  peer->seq = newest;
}

void HierDaemon::on_coordinator(int level, const CoordinatorMsg& msg) {
  LevelState& ls = level_state(level);
  switch (ls.leadership.hear_coordinator(ls, msg)) {
    case Leadership::Heard::kStale:
      metrics_.stale_epoch_rejects->add();
      return;
    case Leadership::Heard::kKept:
      return;
    case Leadership::Heard::kFollowed:
      ls.add_peer(msg.leader).heard(sim_.now(), true, msg.backup);
      if (!ls.bootstrapped) request_bootstrap(level, msg.leader);
      return;
  }
}

// --- the leadership unit's host ---------------------------------------------

void HierDaemon::LevelState::arm(Leadership::Timer timer,
                                 sim::Duration delay) {
  timers[static_cast<size_t>(timer)]->restart(delay);
}

void HierDaemon::LevelState::cancel(Leadership::Timer timer) {
  timers[static_cast<size_t>(timer)]->cancel();
}

bool HierDaemon::LevelState::can_participate() const {
  if (!joined) return false;
  for (const Peer& peer : peers) {
    if (peer.member && peer.is_leader) return false;
  }
  return true;
}

NodeId HierDaemon::LevelState::pick_backup() {
  std::vector<NodeId> candidates;
  for (const Peer& peer : peers) {
    if (peer.member) candidates.push_back(peer.id);
  }
  if (candidates.empty()) return membership::kInvalidNode;
  return daemon.sim_.rng().pick(candidates);
}

void HierDaemon::LevelState::send_election() {
  ElectionMsg msg;
  msg.candidate = daemon.self_;
  msg.level = static_cast<uint8_t>(level);
  daemon.multicast(level, encode_message(msg));
}

void HierDaemon::LevelState::send_answer(NodeId candidate) {
  ElectionAnswerMsg answer;
  answer.responder = daemon.self_;
  answer.level = static_cast<uint8_t>(level);
  daemon.unicast(candidate, encode_message(answer));
}

void HierDaemon::LevelState::send_coordinator(CoordinatorMsg msg) {
  msg.level = static_cast<uint8_t>(level);
  msg.leader_incarnation = daemon.own_->incarnation();
  daemon.multicast(level, encode_message(msg));
  daemon.metrics_.coordinators_sent->add();
  daemon.trace(obs::TraceKind::kCoordinator, level, msg.epoch);
}

void HierDaemon::LevelState::took_lead() {
  close_bootstrap(*this);
  daemon.send_heartbeat(level);
  // Re-seed the group with everything we know: after a leader death the
  // members purged the old relay's entries and need a fresh image.
  daemon.send_state_refresh(level);
  daemon.join_level(level + 1);
  // Announce our subtree upward before the higher group's (longer) timeout
  // purges everything the dead leader used to relay.
  if (daemon.joined(level + 1)) {
    daemon.send_state_refresh(level + 1, /*subtree_only=*/true);
  }
}

void HierDaemon::LevelState::gave_up_lead() {
  // Membership of level L+1 was contingent on leading level L. This is a
  // voluntary departure, so it is announced (we are not dead).
  daemon.leave_levels_from(level + 1, /*announce=*/true);
}

void HierDaemon::LevelState::request_bootstrap(NodeId leader) {
  daemon.request_bootstrap(level, leader);
}

void HierDaemon::LevelState::superseded(NodeId leader) {
  daemon.clear_out_log(*this);
  bootstrapped = false;
  close_bootstrap(*this);  // any in-flight poll aimed at old leadership
  // Leader unknown yet: re-pull from whoever we next hear claiming the
  // channel with a live epoch.
  if (leader != membership::kInvalidNode) {
    daemon.request_bootstrap(level, leader);
  }
}

void HierDaemon::LevelState::reseed() {
  // Re-seed the claimant's stale view (and repair anything its replayed
  // leaves knocked out elsewhere). A full-view burst, so rate-limited: the
  // claimant keeps heartbeating until the COORDINATOR lands.
  const sim::Time now = daemon.sim_.now();
  if (now - last_stale_reseed < daemon.config_.period) return;
  last_stale_reseed = now;
  daemon.send_state_refresh(level);
  // The resumed subtree hangs off this channel; re-announce upward too so
  // the parent group re-admits whatever the stale episode purged there.
  if (daemon.joined(level + 1)) {
    daemon.send_state_refresh(level + 1, /*subtree_only=*/true);
  }
}

void HierDaemon::LevelState::note(obs::TraceKind kind, uint64_t a,
                                  uint64_t b) {
  const Metrics& m = daemon.metrics_;
  if (kind == obs::TraceKind::kElectionStart) m.elections_started->add();
  if (kind == obs::TraceKind::kEpochMint) m.epochs_minted->add();
  if (kind == obs::TraceKind::kEpochSupersede) m.epochs_superseded->add();
  daemon.trace(kind, level, a, b);
}

// --- the anti-entropy unit's host -------------------------------------------

void HierDaemon::LevelState::send_digest(RefreshDigestMsg msg) {
  daemon.multicast(level, encode_message(std::move(msg)));
}

void HierDaemon::LevelState::send_pull(NodeId origin, RefreshPullMsg msg) {
  daemon.unicast(origin, encode_message(std::move(msg)));
}

void HierDaemon::LevelState::send_delta(NodeId requester,
                                        RefreshDeltaMsg msg) {
  daemon.unicast(requester, encode_message(std::move(msg)));
}

void HierDaemon::LevelState::absorb(const std::vector<RowRef>& rows,
                                    NodeId responder) {
  daemon.absorb_entries(rows, responder, level);
}

void HierDaemon::LevelState::escalate(NodeId responder) {
  daemon.request_sync(level, responder, 0);
}

bool HierDaemon::LevelState::rejects_stale(NodeId sender,
                                           membership::Epoch epoch,
                                           Incarnation life) {
  if (!leadership.fenced_stale(sender, epoch, life)) return false;
  daemon.metrics_.stale_epoch_rejects->add();
  return true;
}

void HierDaemon::LevelState::note(AntiEntropy::Count count, uint64_t n) {
  daemon.metrics_.digest[static_cast<size_t>(count)]->add(n);
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
    ApplyResult result = apply_relayed(record.entry, relayed_by);
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
                   levels_[arrival_level]->leadership.epoch());
  return true;
}

void HierDaemon::relay_record(const UpdateRecord& record, int arrival_level) {
  std::vector<bool> emit(static_cast<size_t>(config_.max_ttl), false);
  // Downward/lateral: into every group this node leads (includes the
  // arrival channel itself when we lead it — needed for overlapping groups,
  // where same-channel peers may be outside the original sender's TTL).
  for (int l = 0; l < config_.max_ttl; ++l) {
    if (levels_[l]->joined && levels_[l]->leadership.leads()) emit[l] = true;
  }
  // Upward cascade: the leader of level L forwards into L+1; when it is the
  // (possibly sole) member-and-leader there too, the record must keep
  // climbing — a node cannot receive its own multicast, so the cascade is
  // computed here rather than re-entering through the socket.
  for (int l = arrival_level;
       l + 1 < config_.max_ttl && levels_[l]->leadership.leads() &&
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
  msg.epoch = ls.leadership.epoch();
  // Piggyback the previous records (newest first) after the new batch.
  const size_t prior =
      std::min<size_t>(static_cast<size_t>(config_.piggyback), ls.out_log.size());
  for (const auto& record : batch) {
    UpdateRecord stamped = record;
    stamped.seq = ++ls.out_seq;
    stamped.epoch = ls.leadership.epoch();
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
  multicast(level, encode_message(msg));
  metrics_.updates_sent->add();
  trace(obs::TraceKind::kDeltaEmit, level, msg.records.size(),
        ls.leadership.epoch());
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

void HierDaemon::send_state_refresh(int level, bool subtree_only) {
  LevelState& ls = level_state(level);
  std::vector<UpdateRecord> batch;
  for (const MembershipEntry* row :
       ls.anti_entropy.scope(ls, table_, subtree_only)) {
    batch.push_back(make_join_record(row->row));
  }
  emit_batch(level, batch);
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
    Peer* peer = ls.find_peer(origin);
    if (peer != nullptr && peer->has_cursor && observed_seq > peer->seq) {
      peer->seq = observed_seq;
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
  request.epoch = level_state(level).leadership.epoch();
  request.known = full_view();
  unicast(leader, encode_message(std::move(request)));
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
  const Peer* peer = ls.find_peer(origin);
  request.last_seq_seen = peer != nullptr && peer->has_cursor ? peer->seq : 0;
  request.epoch = ls.leadership.epoch();
  unicast(origin, encode_message(request));
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
    unicast(requester, encode_message(busy));
    return;
  }
  served->add();
  response.responder = self_;
  response.responder_incarnation = own_->incarnation();
  response.entries = full_view();
  metrics_.image_serve_entries->observe(
      static_cast<double>(response.entries.size()));
  unicast(requester, encode_message(std::move(response)));
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
ApplyResult HierDaemon::apply_relayed(const RowRef& row, NodeId proposed) {
  return table_.apply_relayed(
      row, proposed, sim_.now(),
      [this](NodeId relay) { return heard_directly(relay); });
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
                       level_state(arrival_level).leadership.epoch());
    }
  }
}

void HierDaemon::absorb_entries(const std::vector<RowRef>& entries,
                                NodeId relayed_by, int arrival_level) {
  for (const auto& entry : entries) {
    if (entry->node() == self_) continue;
    // Tombstones are respected even in solicited exchanges: during a
    // failover race the responder may still list a node we just declared
    // dead, and overriding would flap the view. A healed partition's
    // mutual tombstones simply expire, after which the periodic
    // anti-entropy refresh re-merges the sides.
    ApplyResult result = apply_relayed(entry, relayed_by);
    if (result == ApplyResult::kAdded) notify(entry->node(), true);
    if (result == ApplyResult::kAdded || result == ApplyResult::kUpdated) {
      relay_record(make_join_record(entry), arrival_level);
    }
  }
}

void HierDaemon::refresh_tick() {
  for (int l = 0; l < config_.max_ttl; ++l) {
    LevelState& ls = *levels_[l];
    if (!ls.joined || !ls.leadership.leads()) continue;
    // Anti-entropy into the group this node leads, and upward into the
    // parent group it represents that subtree in: every relayed entry in
    // the cluster is vouched for along its chain once per interval, so
    // freshness genuinely means "still being relayed". The round ships a
    // digest, not the rows; event-driven re-seeds elsewhere (taking the
    // lead, repelling a stale claim) send the full image, where the
    // receivers provably need all of it.
    ls.anti_entropy.round(ls, table_, /*subtree=*/false);
    if (l + 1 < config_.max_ttl && levels_[l + 1]->joined) {
      LevelState& up = *levels_[l + 1];
      up.anti_entropy.round(up, table_, /*subtree=*/true);
    }
  }
}

}  // namespace tamp::protocols
