#include "net/transport.h"

#include <algorithm>
#include <memory>

#include "util/check.h"

namespace tamp::net {

Network::Network(sim::Simulation& sim, Topology& topology,
                 NetworkConfig config)
    : sim_(sim), topology_(topology), config_(config) {
  hosts_.resize(topology_.device_count());
  total_ = resolve_counters(obs::kNoNode);
  for (HostId host = 0; host < hosts_.size(); ++host) {
    if (topology_.is_host(host)) {
      hosts_[host].counters = resolve_counters(host);
    }
  }
  // Kind 0 ("unknown") exists even before kind names are installed, so the
  // per-kind sums are total from the first packet.
  set_wire_kind_names({});
}

Network::TrafficCounters Network::resolve_counters(obs::NodeId node) {
  obs::MetricsRegistry& m = obs_.metrics;
  TrafficCounters c;
  c.tx_messages = m.counter(obs::Protocol::kNet, "tx_messages", node);
  c.tx_wire_bytes = m.counter(obs::Protocol::kNet, "tx_wire_bytes", node);
  c.rx_messages = m.counter(obs::Protocol::kNet, "rx_messages", node);
  c.rx_wire_bytes = m.counter(obs::Protocol::kNet, "rx_wire_bytes", node);
  c.rx_multicast_messages =
      m.counter(obs::Protocol::kNet, "rx_multicast_messages", node);
  c.dropped_messages =
      m.counter(obs::Protocol::kNet, "dropped_messages", node);
  c.tx_dropped_egress =
      m.counter(obs::Protocol::kNet, "tx_dropped_egress", node);
  return c;
}

void Network::set_wire_kind_names(std::vector<std::string> names) {
  if (names.empty()) names.push_back("unknown");
  obs::MetricsRegistry& m = obs_.metrics;
  tx_kind_.clear();
  tx_bytes_kind_.clear();
  egress_drop_kind_.clear();
  tx_down_kind_.clear();
  for (const std::string& suffix : names) {
    tx_kind_.push_back(m.counter(obs::Protocol::kNet, "tx_kind_" + suffix));
    tx_bytes_kind_.push_back(
        m.counter(obs::Protocol::kNet, "tx_bytes_kind_" + suffix));
    egress_drop_kind_.push_back(
        m.counter(obs::Protocol::kNet, "tx_egress_drop_kind_" + suffix));
    tx_down_kind_.push_back(
        m.counter(obs::Protocol::kNet, "tx_down_kind_" + suffix));
  }
}

uint8_t Network::kind_of(const Payload& payload) const {
  const uint8_t kind = payload ? payload->kind : 0;
  return kind < tx_kind_.size() ? kind : 0;
}

void Network::bind(HostId host, Port port, RecvCallback callback) {
  TAMP_CHECK(topology_.is_host(host));
  TAMP_CHECK(host < hosts_.size());
  auto [it, inserted] =
      hosts_[host].sockets.emplace(port, std::move(callback));
  TAMP_CHECK_MSG(inserted, "port already bound");
  (void)it;
}

void Network::unbind(HostId host, Port port) {
  TAMP_CHECK(host < hosts_.size());
  hosts_[host].sockets.erase(port);
}

namespace {

bool joined(const std::vector<ChannelId>& groups, ChannelId channel) {
  return std::binary_search(groups.begin(), groups.end(), channel);
}

}  // namespace

void Network::join_group(HostId host, ChannelId channel) {
  TAMP_CHECK(host < hosts_.size());
  auto& groups = hosts_[host].groups;
  auto it = std::lower_bound(groups.begin(), groups.end(), channel);
  if (it != groups.end() && *it == channel) return;
  groups.insert(it, channel);
  channel_members_[channel].push_back(host);
  receiver_sets_.erase(channel);
}

void Network::leave_group(HostId host, ChannelId channel) {
  TAMP_CHECK(host < hosts_.size());
  auto& groups = hosts_[host].groups;
  auto it = std::lower_bound(groups.begin(), groups.end(), channel);
  if (it == groups.end() || *it != channel) return;
  groups.erase(it);
  auto& members = channel_members_[channel];
  members.erase(std::find(members.begin(), members.end(), host));
  receiver_sets_.erase(channel);
}

bool Network::in_group(HostId host, ChannelId channel) const {
  TAMP_CHECK(host < hosts_.size());
  return joined(hosts_[host].groups, channel);
}

size_t Network::fragments_for(size_t payload_size) const {
  if (payload_size == 0) return 1;
  return (payload_size + kMtu - 1) / kMtu;
}

size_t Network::wire_bytes_for(size_t payload_size) const {
  return payload_size + fragments_for(payload_size) * kPerFragmentOverhead;
}

bool Network::survives(const PathInfo& path, size_t fragments,
                       double injected_loss) {
  for (size_t i = 0; i < fragments; ++i) {
    if (!sim_.rng().bernoulli(path.survival)) return false;
    if (config_.extra_loss > 0.0 && sim_.rng().bernoulli(config_.extra_loss)) {
      return false;
    }
    if (injected_loss > 0.0 && sim_.rng().bernoulli(injected_loss)) {
      return false;
    }
  }
  return true;
}

Network::Admission Network::admit(HostId from, const Payload& payload,
                                  size_t wire, sim::Duration& egress_delay) {
  const uint8_t kind = kind_of(payload);
  HostState& sender = hosts_[from];
  if (!sender.up) {
    tx_down_kind_[kind]->add();
    return Admission::kDown;
  }
  if (config_.egress_bytes_per_sec > 0.0) {
    const sim::Time now = sim_.now();
    const sim::Time free_at = std::max(sender.egress_free_at, now);
    const double backlog_bytes =
        sim::to_seconds(free_at - now) * config_.egress_bytes_per_sec;
    if (config_.egress_queue_bytes > 0 &&
        backlog_bytes + static_cast<double>(wire) >
            static_cast<double>(config_.egress_queue_bytes)) {
      sender.counters.tx_dropped_egress->add();
      total_.tx_dropped_egress->add();
      egress_drop_kind_[kind]->add();
      obs_.tracer.record(obs::TraceKind::kEgressDrop, from, now, -1, kind,
                         wire);
      return Admission::kDropped;
    }
    sender.egress_free_at =
        free_at + static_cast<sim::Duration>(static_cast<double>(wire) /
                                             config_.egress_bytes_per_sec *
                                             1e9);
    egress_delay = sender.egress_free_at - now;
  }
  sender.counters.tx_messages->add();
  sender.counters.tx_wire_bytes->add(wire);
  total_.tx_messages->add();
  total_.tx_wire_bytes->add(wire);
  tx_kind_[kind]->add();
  tx_bytes_kind_[kind]->add(wire);
  return Admission::kSent;
}

template <typename Schedule>
void Network::route(const Packet& packet, const PathInfo& path,
                    size_t fragments, sim::Duration egress_delay,
                    Schedule&& schedule) {
  FaultInjector::Verdict verdict;
  if (injector_ != nullptr) {
    verdict = injector_->verdict(packet);
  }
  if (verdict.cut || !survives(path, fragments, verdict.extra_loss)) {
    hosts_[packet.to.host].counters.dropped_messages->add();
    total_.dropped_messages->add();
    return;
  }

  sim::Duration base_delay =
      kMinDeliveryDelay + path.latency + egress_delay + verdict.extra_delay;
  if (path.min_bandwidth_bps > 0) {
    base_delay += static_cast<sim::Duration>(
        static_cast<double>(packet.wire_bytes) * 8.0 /
        path.min_bandwidth_bps * 1e9);
  }

  const int copies = 1 + std::max(0, verdict.duplicates);
  for (int copy = 0; copy < copies; ++copy) {
    sim::Duration delay = base_delay;
    if (verdict.jitter > 0) {
      delay += static_cast<sim::Duration>(
          sim_.rng().uniform_u64(static_cast<uint64_t>(verdict.jitter)));
    }
    schedule(delay);
  }
}

bool Network::send_unicast(HostId from, Address to, Payload payload) {
  TAMP_CHECK(from < hosts_.size() && to.host < hosts_.size());
  const size_t wire = wire_bytes_for(payload ? payload->size : 0);
  sim::Duration egress_delay = 0;
  const Admission admission = admit(from, payload, wire, egress_delay);
  if (admission != Admission::kSent) {
    // A full NIC queue still accepted the datagram at the socket.
    return admission == Admission::kDropped;
  }

  PathInfo path = topology_.path(from, to.host);
  if (!path.reachable) return true;  // sent into the void, UDP-style

  Packet packet;
  packet.from = Address{from, 0};
  packet.to = to;
  packet.kind = DeliveryKind::kUnicast;
  packet.payload = std::move(payload);
  packet.wire_bytes = wire;
  packet.sent_at = sim_.now();
  route(packet, path, fragments_for(packet.size()), egress_delay,
        [&](sim::Duration delay) {
          auto delivery = [this, packet] { deliver(packet); };
          static_assert(
              sim::Callback::kFitsInline<decltype(delivery)>,
              "a unicast delivery must not allocate; see net::Packet");
          sim_.schedule_after(delay, std::move(delivery));
        });
  return true;
}

bool Network::send_multicast(HostId from, ChannelId channel, uint8_t ttl,
                             Port port, Payload payload) {
  TAMP_CHECK(from < hosts_.size());
  TAMP_CHECK_MSG(ttl > 0, "multicast needs ttl >= 1");
  const size_t wire = wire_bytes_for(payload ? payload->size : 0);
  sim::Duration egress_delay = 0;
  const Admission admission = admit(from, payload, wire, egress_delay);
  if (admission != Admission::kSent) {
    // One NIC send: a full queue drops the whole fan-out together.
    return admission == Admission::kDropped;
  }

  Packet packet;
  packet.from = Address{from, 0};
  packet.kind = DeliveryKind::kMulticast;
  packet.channel = channel;
  packet.ttl = ttl;
  packet.payload = std::move(payload);
  packet.wire_bytes = wire;
  packet.sent_at = sim_.now();
  const size_t fragments = fragments_for(packet.size());

  // Fan-out batching: receivers on identical paths (the common case — a
  // whole rack behind one switch) land at the same delivery time, so their
  // deliveries share one scheduled event instead of one closure per
  // receiver. A batch holds the packet once and its receivers' host ids
  // (the port is the send's); the event stamps `to.host` before each
  // delivery. Loss/jitter/duplicate draws stay per-receiver in member
  // order, exactly as an unbatched fan-out would draw them.
  struct FanOut {
    Packet packet;
    std::vector<HostId> receivers;
  };
  struct DeliveryGroup {
    sim::Duration delay;
    std::unique_ptr<FanOut> batch;
  };
  packet.to = Address{kInvalidHost, port};
  std::vector<DeliveryGroup> groups;  // first-seen delay order
  for (const auto& [receiver, path] : receivers_in_scope(from, channel, ttl)) {
    packet.to.host = receiver;
    route(packet, path, fragments, egress_delay, [&](sim::Duration delay) {
      auto group =
          std::find_if(groups.begin(), groups.end(),
                       [&](const auto& g) { return g.delay == delay; });
      if (group == groups.end()) {
        group = groups.insert(
            groups.end(),
            DeliveryGroup{delay, std::make_unique<FanOut>(FanOut{packet, {}})});
      }
      group->batch->receivers.push_back(receiver);
    });
  }
  for (auto& group : groups) {
    auto delivery = [this, batch = std::move(group.batch)] {
      for (HostId receiver : batch->receivers) {
        batch->packet.to.host = receiver;
        deliver(batch->packet);
      }
    };
    static_assert(sim::Callback::kFitsInline<decltype(delivery)>,
                  "a fan-out batch is boxed once, by its unique_ptr");
    sim_.schedule_after(group.delay, std::move(delivery));
  }
  return true;
}

const std::vector<Network::ScopedReceiver>& Network::receivers_in_scope(
    HostId from, ChannelId channel, uint8_t ttl) {
  if (receiver_sets_epoch_ != topology_.epoch()) {
    receiver_sets_.clear();
    receiver_sets_epoch_ = topology_.epoch();
  }
  const uint64_t key = uint64_t{ttl} << 32 | from;
  ReceiverSets& sets = receiver_sets_[channel];
  auto [it, inserted] = sets.try_emplace(key);
  if (!inserted) return it->second;
  auto members = channel_members_.find(channel);
  if (members == channel_members_.end()) return it->second;
  for (HostId receiver : members->second) {
    if (receiver == from) continue;
    PathInfo path = topology_.path(from, receiver);
    if (!path.reachable || path.router_hops + 1 > static_cast<int>(ttl)) {
      continue;  // out of TTL scope: routers discarded the packet
    }
    it->second.push_back(ScopedReceiver{receiver, path});
  }
  return it->second;
}

VirtualIpId Network::allocate_virtual_ip() {
  virtual_ips_.push_back(kInvalidHost);
  return static_cast<VirtualIpId>(virtual_ips_.size() - 1);
}

void Network::assign_virtual_ip(VirtualIpId vip, HostId owner) {
  TAMP_CHECK(vip < virtual_ips_.size());
  virtual_ips_[vip] = owner;
}

HostId Network::virtual_ip_owner(VirtualIpId vip) const {
  TAMP_CHECK(vip < virtual_ips_.size());
  return virtual_ips_[vip];
}

bool Network::send_to_virtual(HostId from, VirtualIpId vip, Port port,
                              Payload payload) {
  HostId owner = virtual_ip_owner(vip);
  if (owner == kInvalidHost) return true;  // unowned VIP: packet vanishes
  return send_unicast(from, Address{owner, port}, std::move(payload));
}

void Network::set_host_up(HostId host, bool up) {
  TAMP_CHECK(host < hosts_.size());
  hosts_[host].up = up;
}

bool Network::host_up(HostId host) const {
  TAMP_CHECK(host < hosts_.size());
  return hosts_[host].up;
}

void Network::deliver(const Packet& packet) {
  HostState& receiver = hosts_[packet.to.host];
  if (!receiver.up) return;
  if (packet.kind == DeliveryKind::kMulticast &&
      !joined(receiver.groups, packet.channel)) {
    return;  // left the group while the packet was in flight
  }

  receiver.counters.rx_messages->add();
  receiver.counters.rx_wire_bytes->add(packet.wire_bytes);
  total_.rx_messages->add();
  total_.rx_wire_bytes->add(packet.wire_bytes);
  if (packet.kind == DeliveryKind::kMulticast) {
    receiver.counters.rx_multicast_messages->add();
    total_.rx_multicast_messages->add();
  }

  auto socket = receiver.sockets.find(packet.to.port);
  if (socket == receiver.sockets.end()) return;
  socket->second(packet);
}

}  // namespace tamp::net
