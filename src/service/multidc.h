// Assembles the full two-(or more-)datacenter stack of the paper's proxy
// experiment: per-DC racked clusters joined by a WAN, a hierarchical
// membership cluster per DC, redundant membership proxies with a virtual IP
// each, and the cross-DC invocation relays. Used by the integration tests,
// the figures benchmark (Fig. 14), and the multi_datacenter example.
#pragma once

#include <memory>
#include <vector>

#include "net/builders.h"
#include "protocols/cluster.h"
#include "proxy/proxy.h"
#include "service/relay.h"

namespace tamp::service {

struct MultiDcParams {
  std::vector<net::RackedClusterParams> dcs;  // one entry per datacenter
  int proxies_per_dc = 2;
  protocols::HierConfig hier;        // hier.max_ttl must stay intra-DC
  sim::Duration proxy_period = sim::kSecond;
  net::WanParams wan;
};

// Reasonable two-DC default: east + west, 2 racks x 8 hosts each, 90 ms
// coast-to-coast RTT.
MultiDcParams default_two_dc_params();

class MultiDcHarness {
 public:
  MultiDcHarness(sim::Simulation& sim, MultiDcParams params);

  void start();
  void stop();

  size_t dc_count() const { return clusters_.size(); }
  net::Topology& topology() { return topology_; }
  net::Network& network() { return *network_; }
  const net::MultiDcLayout& layout() const { return layout_; }
  protocols::Cluster& cluster(size_t dc) { return *clusters_[dc]; }
  net::VirtualIpId vip(size_t dc) const { return vips_[dc]; }
  proxy::ProxyDaemon& proxy(size_t dc, int index) {
    return *proxies_[dc][static_cast<size_t>(index)];
  }
  int proxies_per_dc() const { return params_.proxies_per_dc; }

  // The current proxy leader of a DC (nullptr when none claims the role).
  proxy::ProxyDaemon* proxy_leader(size_t dc);

  // Cluster index (within dc's cluster) of the i-th proxy host.
  size_t proxy_cluster_index(size_t dc, int index) const;

 private:
  sim::Simulation& sim_;
  MultiDcParams params_;
  net::Topology topology_;
  net::MultiDcLayout layout_;
  std::unique_ptr<net::Network> network_;
  std::vector<std::unique_ptr<protocols::Cluster>> clusters_;
  std::vector<net::VirtualIpId> vips_;
  std::vector<std::vector<std::unique_ptr<proxy::ProxyDaemon>>> proxies_;
  std::vector<std::vector<std::unique_ptr<ServiceConsumer>>> relay_consumers_;
  std::vector<std::vector<std::unique_ptr<ProxyRelay>>> relays_;
};

}  // namespace tamp::service
