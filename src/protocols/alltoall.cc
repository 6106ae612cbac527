#include "protocols/alltoall.h"

#include <algorithm>
#include <limits>

namespace tamp::protocols {

using membership::ApplyResult;
using membership::decode_message;
using membership::encode_message;
using membership::HeartbeatMsg;
using membership::Liveness;

AllToAllDaemon::AllToAllDaemon(sim::Simulation& sim, net::Network& net,
                               membership::NodeId self,
                               membership::EntryData own,
                               AllToAllConfig config)
    : MembershipDaemon(sim, net, self, std::move(own)),
      config_(config),
      announce_timer_(sim, config.period, [this] { announce(); }),
      scan_timer_(sim, kAllToAllScanInterval, [this] { scan(); }),
      heartbeats_sent_(net.obs().metrics.counter(obs::Protocol::kAllToAll,
                                                 "heartbeats_sent", self)) {}

AllToAllDaemon::~AllToAllDaemon() { stop(); }

void AllToAllDaemon::start() {
  if (running()) return;
  base_start();
  net_.join_group(self_, kAllToAllChannel);
  net_.bind(self_, kDataPort, [this](const net::Packet& p) { on_packet(p); });
  // Random phase: real daemons don't tick in lockstep.
  announce_timer_.start_with_random_phase();
  scan_timer_.start_with_random_phase();
  arm_scan();
  announce();
}

void AllToAllDaemon::stop() {
  if (!running()) return;
  announce_timer_.stop();
  scan_timer_.stop();
  net_.unbind(self_, kDataPort);
  net_.leave_group(self_, kAllToAllChannel);
  base_stop();
}

void AllToAllDaemon::announce() {
  HeartbeatMsg heartbeat;
  heartbeat.entry = own_;
  heartbeat.seq = ++seq_;
  net_.send_multicast(self_, kAllToAllChannel, kAllToAllTtl, kDataPort,
                      encode_message(heartbeat, config_.heartbeat_pad));
  heartbeats_sent_->add();
}

void AllToAllDaemon::scan() {
  const sim::Duration timeout = member_timeout();
  auto expired = table_.expire(sim_.now(), [&](const auto& entry) {
    return entry.row->node() == self_ ? sim::Duration{-1} : timeout;
  });
  for (auto node : expired) {
    net_.obs().tracer.record(obs::TraceKind::kTimeoutExpiry, self_, sim_.now(),
                             -1, node);
    notify(node, false);
  }
  arm_scan();
}

void AllToAllDaemon::arm_scan() {
  sim::Time oldest = std::numeric_limits<sim::Time>::max();
  for (const auto& [node, entry] : table_.entries()) {
    if (node != self_) oldest = std::min(oldest, entry.last_heard);
  }
  if (oldest != std::numeric_limits<sim::Time>::max()) {
    scan_timer_.arm(oldest + member_timeout());
  }
}

void AllToAllDaemon::on_packet(const net::Packet& packet) {
  auto message = decode_message(packet);
  if (!message) return;
  auto* heartbeat = std::get_if<HeartbeatMsg>(&*message);
  if (heartbeat == nullptr) return;
  ApplyResult result = table_.apply(heartbeat->entry, Liveness::kDirect,
                                    membership::kInvalidNode, sim_.now());
  if (result == ApplyResult::kAdded) {
    // Only a row new to the table can lack an armed expiry.
    scan_timer_.arm(sim_.now() + member_timeout());
    notify(heartbeat->entry->node(), true);
  }
}

}  // namespace tamp::protocols
