#include "proxy/proxy.h"

#include <algorithm>

#include "util/logging.h"

namespace tamp::proxy {

using membership::decode_message;
using membership::encode_message;
using membership::Message;
using membership::ProxyHeartbeatMsg;
using membership::ServiceSummary;

ProxyDaemon::ProxyDaemon(sim::Simulation& sim, net::Network& net,
                         protocols::HierDaemon& membership, ProxyConfig config)
    : sim_(sim),
      net_(net),
      membership_(membership),
      config_(std::move(config)),
      tick_timer_(sim, config_.period, [this] { tick(); }) {
  resolve_metrics();
}

ProxyDaemon::~ProxyDaemon() { stop(); }

void ProxyDaemon::resolve_metrics() {
  auto& m = net_.obs().metrics;
  const obs::NodeId node = self();
  auto c = [&](std::string_view name) {
    return m.counter(obs::Protocol::kProxy, name, node);
  };
  metrics_.wan_heartbeats_sent = c("wan_heartbeats_sent");
  metrics_.wan_updates_sent = c("wan_updates_sent");
  metrics_.wan_messages_received = c("wan_messages_received");
  metrics_.vip_takeovers = c("vip_takeovers");
  metrics_.relays_to_local_group = c("relays_to_local_group");
  metrics_.is_leader = m.gauge(obs::Protocol::kProxy, "is_leader", node);
}

void ProxyDaemon::start() {
  if (running_) return;
  running_ = true;
  // Make this node discoverable as a proxy through the ordinary yellow
  // pages; the partition is the datacenter id.
  membership_.register_service(kProxyServiceName,
                               {static_cast<int>(config_.dc)});
  net_.join_group(self(), config_.proxy_channel);
  net_.bind(self(), protocols::kProxyWanPort,
            [this](const net::Packet& p) { on_wan_packet(p); });
  net_.bind(self(), protocols::kProxyGroupPort,
            [this](const net::Packet& p) { on_proxy_channel_packet(p); });
  tick_timer_.start_with_random_phase();
}

void ProxyDaemon::stop() {
  if (!running_) return;
  tick_timer_.stop();
  net_.unbind(self(), protocols::kProxyWanPort);
  net_.unbind(self(), protocols::kProxyGroupPort);
  net_.leave_group(self(), config_.proxy_channel);
  if (is_leader_ &&
      net_.virtual_ip_owner(config_.local_vip) == self()) {
    net_.assign_virtual_ip(config_.local_vip, net::kInvalidHost);
  }
  is_leader_ = false;
  metrics_.is_leader->set(0.0);
  running_ = false;
}

void ProxyDaemon::tick() {
  evaluate_leadership();
  recompute_summary(/*push_update=*/true);
  expire_remotes();
  if (is_leader_) send_summary(/*is_update=*/false);
}

void ProxyDaemon::evaluate_leadership() {
  // Lowest live proxy id wins — the bully rule, evaluated against the
  // converged membership view every proxy shares.
  auto proxies = membership_.table().lookup(kProxyServiceName, "*");
  membership::NodeId lowest = membership::kInvalidNode;
  for (const auto* entry : proxies) {
    lowest = std::min(lowest, entry->data().node);
  }
  const bool should_lead = lowest == self();
  if (should_lead && !is_leader_) {
    is_leader_ = true;
    metrics_.vip_takeovers->add();
    metrics_.is_leader->set(1.0);
    net_.obs().tracer.record(obs::TraceKind::kVipTakeover, self(), sim_.now(),
                             -1, config_.dc);
    net_.assign_virtual_ip(config_.local_vip, self());
    TAMP_LOG(Info) << "proxy " << self() << " takes over VIP of dc "
                   << config_.dc;
  } else if (!should_lead && is_leader_) {
    is_leader_ = false;
    metrics_.is_leader->set(0.0);
    if (net_.virtual_ip_owner(config_.local_vip) == self()) {
      net_.assign_virtual_ip(config_.local_vip, net::kInvalidHost);
    }
  } else if (is_leader_ &&
             net_.virtual_ip_owner(config_.local_vip) != self()) {
    net_.assign_virtual_ip(config_.local_vip, self());
  }
}

ServiceSummary ProxyDaemon::build_summary() const {
  ServiceSummary summary;
  for (const auto& [id, entry] : membership_.table().entries()) {
    for (const auto& service : entry.data().services) {
      if (service.name == kProxyServiceName) continue;
      auto& slot = summary.availability[service.name];
      for (int partition : service.partitions) {
        slot[partition] += 1;
      }
    }
  }
  return summary;
}

void ProxyDaemon::recompute_summary(bool push_update) {
  ServiceSummary fresh = build_summary();
  if (fresh == local_summary_) return;
  local_summary_ = std::move(fresh);
  if (!push_update || !is_leader_) return;
  // Paper Update Message: a change in the local summary is pushed to the
  // other datacenters immediately, without waiting for the next heartbeat.
  send_summary(/*is_update=*/true);
}

void ProxyDaemon::send_summary(bool is_update) {
  ProxyHeartbeatMsg summary;
  summary.dc = config_.dc;
  summary.sender = self();
  summary.seq = ++seq_;
  summary.summary = local_summary_;
  // Sequential unicast to each remote datacenter's well-known VIP.
  auto payload = encode_message(Message{summary});
  for (const auto& [dc, vip] : config_.remote_vips) {
    if (dc == config_.dc) continue;
    net_.send_to_virtual(self(), vip, protocols::kProxyWanPort, payload);
    if (is_update) {
      metrics_.wan_updates_sent->add();
    } else {
      metrics_.wan_heartbeats_sent->add();
    }
  }
}

void ProxyDaemon::on_wan_packet(const net::Packet& packet) {
  auto message = decode_message(packet);
  if (!message) return;
  metrics_.wan_messages_received->add();
  if (auto* summary = std::get_if<ProxyHeartbeatMsg>(&*message)) {
    ingest_remote(summary->dc, summary->seq, summary->summary, true);
  }
}

void ProxyDaemon::on_proxy_channel_packet(const net::Packet& packet) {
  auto message = decode_message(packet);
  if (!message) return;
  // Remote state relayed by the local proxy leader: absorb without
  // re-relaying (only the leader relays).
  if (auto* summary = std::get_if<ProxyHeartbeatMsg>(&*message)) {
    ingest_remote(summary->dc, summary->seq, summary->summary, false);
  }
}

void ProxyDaemon::ingest_remote(net::DatacenterId dc, uint64_t seq,
                                const ServiceSummary& summary,
                                bool relay_locally) {
  if (dc == config_.dc) return;
  RemoteDirectory& dir = remote_[dc];
  if (seq < dir.last_seq) return;  // out-of-order WAN packet
  dir.summary = summary;
  dir.last_seq = seq;
  dir.last_heard = sim_.now();

  if (relay_locally && is_leader_) {
    // Fan the news out to the backup proxies so a failover starts warm.
    ProxyHeartbeatMsg relay;
    relay.dc = dc;
    relay.sender = self();
    relay.seq = seq;
    relay.summary = summary;
    net_.send_multicast(self(), config_.proxy_channel, kProxyChannelTtl,
                        protocols::kProxyGroupPort,
                        encode_message(Message{relay}));
    metrics_.relays_to_local_group->add();
  }
}

void ProxyDaemon::expire_remotes() {
  const sim::Duration timeout =
      static_cast<sim::Duration>(kProxyMaxLosses) * config_.period * 2;
  for (auto it = remote_.begin(); it != remote_.end();) {
    if (sim_.now() - it->second.last_heard > timeout) {
      TAMP_LOG(Info) << "proxy " << self() << " drops silent dc " << it->first;
      it = remote_.erase(it);
    } else {
      ++it;
    }
  }
}

std::vector<net::DatacenterId> ProxyDaemon::lookup_remote(
    const std::string& service, int partition) const {
  std::vector<net::DatacenterId> out;
  for (const auto& [dc, dir] : remote_) {
    auto svc = dir.summary.availability.find(service);
    if (svc == dir.summary.availability.end()) continue;
    auto part = svc->second.find(partition);
    if (part != svc->second.end() && part->second > 0) {
      out.push_back(dc);
    }
  }
  return out;
}

}  // namespace tamp::proxy
