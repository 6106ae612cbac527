#include "protocols/gossip.h"

#include <cmath>
#include <vector>

namespace tamp::protocols {

using membership::ApplyResult;
using membership::decode_message;
using membership::encode_message;
using membership::GossipMsg;
using membership::GossipRecord;
using membership::Liveness;

GossipDaemon::GossipDaemon(sim::Simulation& sim, net::Network& net,
                           membership::NodeId self, membership::EntryData own)
    : MembershipDaemon(sim, net, self, std::move(own)),
      round_timer_(sim, kGossipPeriod, [this] { round(); }),
      scan_timer_(sim, kGossipScanInterval, [this] { scan(); }),
      gossips_sent_(
          net.obs().metrics.counter(obs::Protocol::kGossip, "gossips_sent",
                                    self)) {}

GossipDaemon::~GossipDaemon() { stop(); }

void GossipDaemon::start() {
  if (running()) return;
  base_start();
  net_.bind(self_, kGossipPort, [this](const net::Packet& p) { on_packet(p); });
  round_timer_.start_with_random_phase();
  scan_timer_.start_with_random_phase();
  arm_scan();
}

void GossipDaemon::stop() {
  if (!running()) return;
  round_timer_.stop();
  scan_timer_.stop();
  net_.unbind(self_, kGossipPort);
  base_stop();
}

void GossipDaemon::add_seed(membership::EntryData entry) {
  if (entry.node == self_) return;
  const membership::RowRef row = membership::make_row(std::move(entry));
  if (table_.apply(row, Liveness::kDirect, membership::kInvalidNode,
                   sim_.now()) == ApplyResult::kAdded) {
    peers_[row->node()] = PeerState{0, row->incarnation(), sim_.now()};
    scan_timer_.arm(sim_.now() + effective_tfail());
    notify(row->node(), true);
  }
}

sim::Duration gossip_tfail(size_t n) {
  const double periods =
      5.5 + 1.75 * std::log2(static_cast<double>(std::max<size_t>(n, 2)));
  return static_cast<sim::Duration>(periods *
                                    static_cast<double>(kGossipPeriod));
}

sim::Duration GossipDaemon::effective_tfail() const {
  return gossip_tfail(table_.size());
}

membership::GossipMsg GossipDaemon::build_view() {
  GossipMsg view;
  view.sender = self_;
  for (const auto& [node, entry] : table_.entries()) {
    GossipRecord record;
    record.entry = entry.row;
    record.heartbeat_counter = node == self_ ? own_counter_ : peers_[node].counter;
    view.records.push_back(std::move(record));
  }
  return view;
}

membership::NodeId GossipDaemon::next_target() {
  // Walk the shuffled cycle, skipping peers that have since been removed;
  // re-shuffle over the current view when the cycle is exhausted.
  for (int refill = 0; refill < 2; ++refill) {
    while (target_cursor_ < target_cycle_.size()) {
      membership::NodeId candidate = target_cycle_[target_cursor_++];
      if (candidate != self_ && table_.contains(candidate)) return candidate;
    }
    target_cycle_.clear();
    for (const auto& [node, entry] : table_.entries()) {
      if (node != self_) target_cycle_.push_back(node);
    }
    sim_.rng().shuffle(target_cycle_);
    target_cursor_ = 0;
    if (target_cycle_.empty()) break;
  }
  return membership::kInvalidNode;
}

void GossipDaemon::round() {
  ++own_counter_;
  const membership::NodeId target = next_target();
  if (target == membership::kInvalidNode) return;
  net_.send_unicast(self_, net::Address{target, kGossipPort},
                    encode_message(build_view()));
  gossips_sent_->add();
}

void GossipDaemon::scan() {
  const sim::Time now = sim_.now();
  const sim::Duration tfail = effective_tfail();

  std::vector<membership::NodeId> failed;
  for (const auto& [node, peer] : peers_) {
    if (table_.contains(node) && now - peer.last_increase > tfail) {
      failed.push_back(node);
    }
  }
  for (auto node : failed) {
    const auto* entry = table_.find(node);
    uint64_t counter = peers_[node].counter;
    uint64_t incarnation = entry ? entry->row->incarnation() : 0;
    table_.remove(node, incarnation, now);
    dead_[node] = DeadState{counter, incarnation, now + 2 * tfail};
    peers_.erase(node);
    net_.obs().tracer.record(obs::TraceKind::kTimeoutExpiry, self_, now, -1,
                             node);
    notify(node, false);
  }

  // Garbage-collect quarantine records.
  for (auto it = dead_.begin(); it != dead_.end();) {
    if (now >= it->second.until) {
      it = dead_.erase(it);
    } else {
      ++it;
    }
  }
  arm_scan();
}

void GossipDaemon::arm_scan() {
  const sim::Duration tfail = effective_tfail();
  for (const auto& [node, peer] : peers_) {
    scan_timer_.arm(peer.last_increase + tfail);
  }
  // Lifted on the first tick at or after `until`.
  for (const auto& [node, dead] : dead_) scan_timer_.arm(dead.until - 1);
}

void GossipDaemon::on_packet(const net::Packet& packet) {
  auto message = decode_message(packet);
  if (!message) return;
  auto* gossip = std::get_if<GossipMsg>(&*message);
  if (gossip == nullptr) return;

  const sim::Time now = sim_.now();
  for (const auto& record : gossip->records) {
    const auto node = record.entry->node();
    if (node == self_) continue;

    auto dead = dead_.find(node);
    if (dead != dead_.end()) {
      // Came back for real if the counter moved past its value at death, or
      // if this is a fresh incarnation (a restarted process begins counting
      // from zero, so the counter test alone would quarantine it).
      if (record.heartbeat_counter <= dead->second.counter &&
          record.entry->incarnation() <= dead->second.incarnation) {
        continue;
      }
      dead_.erase(dead);
    }

    auto peer = peers_.find(node);
    if (peer == peers_.end()) {
      ApplyResult result = table_.apply(record.entry, Liveness::kDirect,
                                        membership::kInvalidNode, now);
      if (result != ApplyResult::kStale) {
        peers_[node] = PeerState{record.heartbeat_counter,
                                 record.entry->incarnation(), now};
        scan_timer_.arm(now + effective_tfail());
        notify(node, true);
      }
      continue;
    }
    if (record.entry->incarnation() > peer->second.incarnation) {
      // New life: restart the counter cursor in the new counter-space.
      peer->second = PeerState{record.heartbeat_counter,
                               record.entry->incarnation(), now};
      table_.apply(record.entry, Liveness::kDirect, membership::kInvalidNode,
                   now);
    } else if (record.entry->incarnation() == peer->second.incarnation &&
               record.heartbeat_counter > peer->second.counter) {
      peer->second.counter = record.heartbeat_counter;
      peer->second.last_increase = now;
      table_.apply(record.entry, Liveness::kDirect, membership::kInvalidNode,
                   now);
    }
    // Lower incarnation: stale gossip about a previous life — ignore.
  }
}

}  // namespace tamp::protocols
