// Shared measurement harness for the evaluation benches (paper Section 6).
//
// The measurement methodology mirrors the paper's: every node dumps a
// change record when its view changes; after injecting one failure, the
// earliest record is the failure detection time and the latest is the view
// convergence time. Bandwidth is measured by summing received wire bytes
// over all nodes in a steady-state window.
#pragma once

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "net/builders.h"
#include "obs/obs.h"
#include "protocols/cluster.h"
#include "util/stats.h"

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

// Aggregated received bandwidth (bytes/second) in steady state, measured
// over `window` after the cluster settles. nullopt if it never converges.
inline std::optional<double> measure_bandwidth(
    const ExperimentSettings& settings,
    sim::Duration window = 10 * sim::kSecond) {
  BuiltCluster built = build_cluster(settings);
  built.cluster->start_all();
  built.sim->run_until(settings.settle);
  if (!built.cluster->converged()) return std::nullopt;
  obs::MetricsRegistry& metrics = built.network->obs().metrics;
  metrics.reset(obs::Protocol::kNet);
  built.sim->run_until(built.sim->now() + window);
  return static_cast<double>(
             metrics.counter_value(obs::Protocol::kNet, "rx_wire_bytes")) /
         sim::to_seconds(window);
}

struct DetectionResult {
  double detection_s = 0;    // earliest observer
  double convergence_s = 0;  // latest observer
  int observers = 0;
};

// Kill one non-leader node and record the earliest/latest time any
// surviving node learns of it (paper Sections 6.4 / 6.5).
inline std::optional<DetectionResult> measure_failure(
    const ExperimentSettings& settings,
    sim::Duration wait = 60 * sim::kSecond) {
  BuiltCluster built = build_cluster(settings);

  // Victim: last node of the first rack — never a leader (the bully elects
  // the lowest id) but an ordinary member, like the paper's killed daemon.
  size_t victim_index =
      static_cast<size_t>(settings.nodes_per_network - 1);
  if (victim_index >= built.layout.hosts.size()) {
    victim_index = built.layout.hosts.size() - 1;
  }
  net::HostId victim = built.layout.hosts[victim_index];

  sim::Time first = -1, last = -1;
  int observers = 0;
  built.cluster->set_change_listener(
      [&](membership::NodeId subject, bool alive, sim::Time when) {
        if (subject != victim || alive) return;
        if (first < 0) first = when;
        last = when;
        ++observers;
      });

  built.cluster->start_all();
  built.sim->run_until(settings.settle);
  if (!built.cluster->converged()) return std::nullopt;

  const sim::Time killed_at = built.sim->now();
  built.cluster->kill(victim_index);
  built.sim->run_until(killed_at + wait);
  if (!built.cluster->converged() || first < 0) return std::nullopt;

  DetectionResult result;
  result.detection_s = sim::to_seconds(first - killed_at);
  result.convergence_s = sim::to_seconds(last - killed_at);
  result.observers = observers;
  return result;
}

// Averages `trials` seeded runs of measure_failure.
inline std::optional<DetectionResult> measure_failure_avg(
    ExperimentSettings settings, int trials,
    sim::Duration wait = 60 * sim::kSecond) {
  util::OnlineStats detection, convergence;
  int observers = 0;
  for (int trial = 0; trial < trials; ++trial) {
    settings.seed = settings.seed * 31 + 17;
    auto result = measure_failure(settings, wait);
    if (!result) return std::nullopt;
    detection.add(result->detection_s);
    convergence.add(result->convergence_s);
    observers = result->observers;
  }
  DetectionResult out;
  out.detection_s = detection.mean();
  out.convergence_s = convergence.mean();
  out.observers = observers;
  return out;
}

inline void print_series_header(const char* title, const char* unit) {
  std::printf("\n%s\n", title);
  std::printf("%8s %14s %14s %14s   (%s)\n", "nodes", "all-to-all", "gossip",
              "hierarchical", unit);
}

}  // namespace tamp::bench
