// The racked cluster the evaluation benches (figures, scale_limits) build:
// the paper's Section 6.2 setup of networks of twenty nodes.
#pragma once

#include <memory>

#include "net/builders.h"
#include "obs/obs.h"
#include "protocols/cluster.h"

namespace tamp::bench {

struct ExperimentSettings {
  protocols::Scheme scheme = protocols::Scheme::kHierarchical;
  int nodes = 100;
  int nodes_per_network = 20;  // the paper's five networks of twenty
  uint64_t seed = 1;
  // Pad per-node membership info to the paper's measured 228 bytes.
  size_t heartbeat_pad = 228;
  sim::Duration settle = 20 * sim::kSecond;
  // Hier-only tuning (e.g. refresh cadence); ignored by the other schemes.
  protocols::HierConfig hier;
};

struct BuiltCluster {
  std::unique_ptr<sim::Simulation> sim;
  std::unique_ptr<net::Topology> topology;
  net::ClusterLayout layout;
  std::unique_ptr<net::Network> network;
  std::unique_ptr<protocols::Cluster> cluster;
};

inline BuiltCluster build_cluster(const ExperimentSettings& settings) {
  BuiltCluster built;
  built.sim = std::make_unique<sim::Simulation>(settings.seed);
  built.topology = std::make_unique<net::Topology>();
  net::RackedClusterParams params;
  params.hosts_per_rack = settings.nodes_per_network;
  params.racks =
      (settings.nodes + settings.nodes_per_network - 1) /
      settings.nodes_per_network;
  built.layout = net::build_racked_cluster(*built.topology, params);
  built.layout.hosts.resize(static_cast<size_t>(settings.nodes));
  built.network = std::make_unique<net::Network>(*built.sim, *built.topology);

  protocols::Cluster::Options opts;
  opts.scheme = settings.scheme;
  opts.heartbeat_pad = settings.heartbeat_pad;
  opts.hier = settings.hier;
  // Gossip mistake probability 0.1% -> the calibrated adaptive tfail.
  built.cluster = std::make_unique<protocols::Cluster>(
      *built.sim, *built.network, built.layout.hosts, opts);
  return built;
}

}  // namespace tamp::bench
