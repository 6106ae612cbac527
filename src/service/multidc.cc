#include "service/multidc.h"

#include "util/check.h"

namespace tamp::service {

MultiDcParams default_two_dc_params() {
  MultiDcParams params;
  net::RackedClusterParams east;
  east.racks = 2;
  east.hosts_per_rack = 8;
  east.dc = 0;
  east.name_prefix = "east";
  net::RackedClusterParams west = east;
  west.dc = 1;
  west.name_prefix = "west";
  params.dcs = {east, west};
  return params;
}

MultiDcHarness::MultiDcHarness(sim::Simulation& sim, MultiDcParams params)
    : sim_(sim), params_(std::move(params)) {
  TAMP_CHECK(!params_.dcs.empty());
  layout_ = net::build_multi_datacenter(topology_, params_.dcs, params_.wan);
  network_ = std::make_unique<net::Network>(sim_, topology_);

  for (size_t dc = 0; dc < params_.dcs.size(); ++dc) {
    vips_.push_back(network_->allocate_virtual_ip());
  }

  for (size_t dc = 0; dc < params_.dcs.size(); ++dc) {
    protocols::Cluster::Options opts;
    opts.scheme = protocols::Scheme::kHierarchical;
    opts.hier = params_.hier;
    clusters_.push_back(std::make_unique<protocols::Cluster>(
        sim_, *network_, layout_.clusters[dc].hosts, opts));

    proxy::ProxyConfig proxy_config;
    proxy_config.dc = params_.dcs[dc].dc;
    proxy_config.local_vip = vips_[dc];
    proxy_config.period = params_.proxy_period;
    proxy_config.proxy_channel =
        protocols::kProxyChannelBase + static_cast<net::ChannelId>(dc);
    for (size_t other = 0; other < params_.dcs.size(); ++other) {
      if (other != dc) {
        proxy_config.remote_vips[params_.dcs[other].dc] = vips_[other];
      }
    }

    proxies_.emplace_back();
    relay_consumers_.emplace_back();
    relays_.emplace_back();
    for (int i = 0; i < params_.proxies_per_dc; ++i) {
      size_t index = proxy_cluster_index(dc, i);
      auto* hier = clusters_[dc]->hier_daemon(index);
      TAMP_CHECK(hier != nullptr);
      proxies_[dc].push_back(std::make_unique<proxy::ProxyDaemon>(
          sim_, *network_, *hier, proxy_config));

      // The relay's consumer shares the node with the proxy; give it its
      // own reply port so they don't collide with gateway consumers.
      ConsumerConfig relay_consumer_config;
      relay_consumer_config.reply_port =
          static_cast<net::Port>(protocols::kServiceReplyPort + 10);
      relay_consumer_config.proxy_fallback = false;
      relay_consumers_[dc].push_back(std::make_unique<ServiceConsumer>(
          sim_, *network_, *hier, relay_consumer_config));
      relays_[dc].push_back(std::make_unique<ProxyRelay>(
          sim_, *network_, *proxies_[dc].back(),
          *relay_consumers_[dc].back()));
    }
  }
}

size_t MultiDcHarness::proxy_cluster_index(size_t dc, int index) const {
  const size_t hosts = layout_.clusters[dc].hosts.size();
  TAMP_CHECK(static_cast<size_t>(params_.proxies_per_dc) < hosts);
  return hosts - 1 - static_cast<size_t>(index);
}

void MultiDcHarness::start() {
  for (auto& cluster : clusters_) cluster->start_all();
  for (size_t dc = 0; dc < proxies_.size(); ++dc) {
    for (size_t i = 0; i < proxies_[dc].size(); ++i) {
      proxies_[dc][i]->start();
      relay_consumers_[dc][i]->start();
      relays_[dc][i]->start();
    }
  }
}

void MultiDcHarness::stop() {
  for (size_t dc = 0; dc < proxies_.size(); ++dc) {
    for (size_t i = 0; i < proxies_[dc].size(); ++i) {
      relays_[dc][i]->stop();
      relay_consumers_[dc][i]->stop();
      proxies_[dc][i]->stop();
    }
  }
  for (auto& cluster : clusters_) cluster->stop_all();
}

proxy::ProxyDaemon* MultiDcHarness::proxy_leader(size_t dc) {
  for (auto& proxy : proxies_[dc]) {
    if (proxy->is_leader()) return proxy.get();
  }
  return nullptr;
}

}  // namespace tamp::service
