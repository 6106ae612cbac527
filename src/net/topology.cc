#include "net/topology.h"

#include <algorithm>
#include <limits>
#include <queue>

#include "util/check.h"

namespace tamp::net {

HostId Topology::add_host(const std::string& name, DatacenterId dc) {
  DeviceId id = static_cast<DeviceId>(devices_.size());
  devices_.push_back(Device{id, DeviceKind::kHost, name, dc});
  adjacency_.emplace_back();
  hosts_.push_back(id);
  mutated();
  return id;
}

DeviceId Topology::add_l2_switch(const std::string& name, DatacenterId dc) {
  DeviceId id = static_cast<DeviceId>(devices_.size());
  devices_.push_back(Device{id, DeviceKind::kL2Switch, name, dc});
  adjacency_.emplace_back();
  mutated();
  return id;
}

DeviceId Topology::add_router(const std::string& name, DatacenterId dc) {
  DeviceId id = static_cast<DeviceId>(devices_.size());
  devices_.push_back(Device{id, DeviceKind::kRouter, name, dc});
  adjacency_.emplace_back();
  mutated();
  return id;
}

LinkId Topology::connect(DeviceId a, DeviceId b, const LinkParams& params) {
  TAMP_CHECK(a < devices_.size() && b < devices_.size() && a != b);
  TAMP_CHECK_MSG(
      !(devices_[a].kind == DeviceKind::kHost &&
        devices_[b].kind == DeviceKind::kHost),
      "hosts must attach to a switch or router, not to each other");
  // Enforce single-homing at the mutation site, loudly: runtime rewiring
  // made the invariant mutable, so a violation must name its victim instead
  // of surfacing later as a silent routing assumption.
  for (DeviceId end : {a, b}) {
    if (devices_[end].kind == DeviceKind::kHost) {
      TAMP_CHECK_MSG(adjacency_[end].empty(),
                     "host '%s' already has an uplink: hosts must be "
                     "single-homed (use migrate_host to re-home it)",
                     devices_[end].name.c_str());
    }
  }
  LinkId id = static_cast<LinkId>(links_.size());
  links_.push_back(Link{id, a, b, params, true});
  adjacency_[a].push_back(id);
  adjacency_[b].push_back(id);
  mutated();
  return id;
}

void Topology::set_link_up(LinkId link, bool up) {
  TAMP_CHECK(link < links_.size());
  if (links_[link].up != up) {
    links_[link].up = up;
    mutated();
  }
}

void Topology::set_device_up(DeviceId device, bool up) {
  TAMP_CHECK(device < devices_.size());
  TAMP_CHECK_MSG(devices_[device].kind != DeviceKind::kHost,
                 "set_device_up models infrastructure power state; host "
                 "'%s' up/down belongs to the Network",
                 devices_[device].name.c_str());
  if (devices_[device].up != up) {
    devices_[device].up = up;
    mutated();
  }
}

bool Topology::device_up(DeviceId device) const {
  TAMP_CHECK(device < devices_.size());
  return devices_[device].up;
}

void Topology::migrate_host(HostId host, DeviceId new_attach,
                            const LinkParams* params) {
  TAMP_CHECK(is_host(host));
  TAMP_CHECK(new_attach < devices_.size());
  TAMP_CHECK_MSG(devices_[new_attach].kind != DeviceKind::kHost,
                 "cannot migrate host '%s' onto host '%s': hosts attach to "
                 "a switch or router",
                 devices_[host].name.c_str(),
                 devices_[new_attach].name.c_str());
  const LinkId uplink = uplink_of(host);  // fatal (with name) if not single-homed
  Link& link = links_[uplink];
  const DeviceId old_attach = link.a == host ? link.b : link.a;
  if (old_attach != new_attach) {
    std::erase(adjacency_[old_attach], uplink);
    adjacency_[new_attach].push_back(uplink);
    link.a = host;
    link.b = new_attach;
  }
  if (params != nullptr) link.params = *params;
  mutated();
}

LinkId Topology::uplink_of(HostId host) const {
  TAMP_CHECK(is_host(host));
  // The physical cable, up or not (an unplugged host still has one) — the
  // compiled host_uplink_ only tracks *live* links.
  TAMP_CHECK_MSG(adjacency_[host].size() == 1,
                 "host '%s' has %zu uplinks: hosts must be single-homed",
                 devices_[host].name.c_str(), adjacency_[host].size());
  return adjacency_[host][0];
}

const Device& Topology::device(DeviceId id) const {
  TAMP_CHECK(id < devices_.size());
  return devices_[id];
}

const Link& Topology::link(LinkId id) const {
  TAMP_CHECK(id < links_.size());
  return links_[id];
}

bool Topology::is_host(DeviceId id) const {
  return id < devices_.size() && devices_[id].kind == DeviceKind::kHost;
}

DatacenterId Topology::datacenter_of(HostId host) const {
  return device(host).dc;
}

std::vector<HostId> Topology::hosts_in_datacenter(DatacenterId dc) const {
  std::vector<HostId> out;
  for (HostId h : hosts_) {
    if (devices_[h].dc == dc) out.push_back(h);
  }
  return out;
}

void Topology::accumulate(PathInfo& acc, const LinkParams& link) {
  acc.latency += link.latency;
  acc.min_bandwidth_bps = acc.min_bandwidth_bps == 0
                              ? link.bandwidth_bps
                              : std::min(acc.min_bandwidth_bps,
                                         link.bandwidth_bps);
  acc.survival *= (1.0 - link.loss);
}

void Topology::compile() const {
  if (compiled_) return;

  // Host access links.
  host_uplink_.assign(devices_.size(), UINT32_MAX);
  host_attach_.assign(devices_.size(), kInvalidDevice);
  for (HostId h : hosts_) {
    int uplinks = 0;
    for (LinkId l : adjacency_[h]) {
      TAMP_CHECK_MSG(++uplinks <= 1,
                     "host '%s' has multiple uplinks: hosts must be "
                     "single-homed",
                     devices_[h].name.c_str());
      if (!link_live(links_[l])) continue;
      host_uplink_[h] = l;
      host_attach_[h] = links_[l].a == h ? links_[l].b : links_[l].a;
    }
  }

  // Dense index over infrastructure devices.
  infra_index_.assign(devices_.size(), kInvalidDevice);
  infra_devices_.clear();
  for (const Device& d : devices_) {
    if (d.kind != DeviceKind::kHost) {
      infra_index_[d.id] = static_cast<DeviceId>(infra_devices_.size());
      infra_devices_.push_back(d.id);
    }
  }

  // All-pairs shortest paths among infrastructure devices (Dijkstra on
  // latency with deterministic tie-breaking). `router_hops` counts router
  // devices on the path *including both endpoints*.
  const size_t n = infra_devices_.size();
  infra_matrix_.assign(n * n, PathInfo{});
  constexpr sim::Duration kInf = std::numeric_limits<sim::Duration>::max();
  for (size_t si = 0; si < n; ++si) {
    DeviceId source = infra_devices_[si];
    std::vector<sim::Duration> dist(n, kInf);
    std::vector<bool> done(n, false);
    auto& row = infra_matrix_;
    auto at = [&](size_t j) -> PathInfo& { return row[si * n + j]; };

    dist[si] = 0;
    at(si).reachable = true;
    at(si).router_hops =
        devices_[source].kind == DeviceKind::kRouter ? 1 : 0;
    at(si).survival = 1.0;

    using QueueEntry = std::pair<sim::Duration, size_t>;
    std::priority_queue<QueueEntry, std::vector<QueueEntry>,
                        std::greater<QueueEntry>>
        frontier;
    frontier.push({0, si});
    while (!frontier.empty()) {
      auto [d, u] = frontier.top();
      frontier.pop();
      if (done[u] || d > dist[u]) continue;
      done[u] = true;
      for (LinkId l : adjacency_[infra_devices_[u]]) {
        const Link& link = links_[l];
        if (!link_live(link)) continue;
        DeviceId other = link.a == infra_devices_[u] ? link.b : link.a;
        if (devices_[other].kind == DeviceKind::kHost) continue;
        size_t v = infra_index_[other];
        sim::Duration nd = dist[u] + link.params.latency;
        if (nd < dist[v]) {
          dist[v] = nd;
          PathInfo next = at(u);
          accumulate(next, link.params);
          next.router_hops +=
              devices_[other].kind == DeviceKind::kRouter ? 1 : 0;
          next.reachable = true;
          at(v) = next;
          frontier.push({nd, v});
        }
      }
    }
  }
  compiled_ = true;
}

const PathInfo& Topology::infra_path(DeviceId a, DeviceId b) const {
  const size_t n = infra_devices_.size();
  return infra_matrix_[infra_index_[a] * n + infra_index_[b]];
}

PathInfo Topology::path(HostId a, HostId b) const {
  TAMP_CHECK(is_host(a) && is_host(b));
  PathInfo out;
  if (a == b) {
    out.reachable = true;
    return out;
  }
  compile();
  if (host_attach_[a] == kInvalidDevice || host_attach_[b] == kInvalidDevice) {
    return out;  // detached host
  }
  PathInfo acc{};
  acc.reachable = true;
  accumulate(acc, links_[host_uplink_[a]].params);
  if (host_attach_[a] == host_attach_[b]) {
    acc.router_hops =
        devices_[host_attach_[a]].kind == DeviceKind::kRouter ? 1 : 0;
  } else {
    const PathInfo& mid = infra_path(host_attach_[a], host_attach_[b]);
    if (!mid.reachable) return out;
    acc.latency += mid.latency;
    acc.survival *= mid.survival;
    acc.min_bandwidth_bps =
        acc.min_bandwidth_bps == 0
            ? mid.min_bandwidth_bps
            : (mid.min_bandwidth_bps == 0
                   ? acc.min_bandwidth_bps
                   : std::min(acc.min_bandwidth_bps, mid.min_bandwidth_bps));
    acc.router_hops = mid.router_hops;
  }
  accumulate(acc, links_[host_uplink_[b]].params);
  return acc;
}

int Topology::ttl_required(HostId a, HostId b) const {
  if (a == b) return 0;
  PathInfo p = path(a, b);
  if (!p.reachable) return 0;
  return p.router_hops + 1;
}

int Topology::max_ttl() const {
  int best = 1;
  for (size_t i = 0; i < hosts_.size(); ++i) {
    for (size_t j = i + 1; j < hosts_.size(); ++j) {
      best = std::max(best, ttl_required(hosts_[i], hosts_[j]));
    }
  }
  return best;
}

}  // namespace tamp::net
