// Reproduces the paper's evaluation (Section 4's scalability table and
// Section 6's Figs. 2 and 11-14) and the ablations beyond it, and writes
// every figure to one deterministic JSON report:
//
//   bench/figures --json=BENCH_figs.json
//
// Each figure is a function that returns its table: a name, the fixed
// parameters it ran with, column names and rows. Every number keeps the
// precision the figure's table has always printed, so the report is
// byte-comparable, and `tools/gate.py figs` checks each figure's shape
// claim against it. With no --json the report goes to stdout.
//
// The failure measurements mirror the paper's methodology: every node
// dumps a change record when its view changes; after one injected failure,
// the earliest record is the detection time and the latest the view
// convergence time. Bandwidth is received wire bytes summed over all nodes
// in a steady-state window.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analysis/cost_model.h"
#include "analysis/models.h"
#include "bench/common.h"
#include "service/multidc.h"
#include "service/search.h"
#include "util/flags.h"
#include "util/stats.h"
#include "util/strings.h"

using namespace tamp;
using namespace tamp::bench;

namespace {

// One JSON value, already formatted.
using Cell = std::string;

Cell fixed(double value, int decimals) {
  return std::isfinite(value) ? util::strformat("%.*f", decimals, value)
                              : "null";
}
Cell integer(long long value) { return std::to_string(value); }
Cell text(const char* value) { return std::string("\"") + value + "\""; }
Cell flag(bool value) { return value ? "true" : "false"; }

struct Table {
  std::string name;
  std::vector<std::pair<std::string, Cell>> params;
  std::vector<std::string> columns;
  std::vector<std::vector<Cell>> rows;
};

constexpr protocols::Scheme kSchemes[] = {protocols::Scheme::kAllToAll,
                                          protocols::Scheme::kGossip,
                                          protocols::Scheme::kHierarchical};

// Gossip needs its longer tfail horizon to form before a measurement.
sim::Duration settle_for(protocols::Scheme scheme) {
  return scheme == protocols::Scheme::kGossip ? 40 * sim::kSecond
                                              : 20 * sim::kSecond;
}

// Aggregated received bandwidth (bytes/second) in steady state, measured
// over `window` after the cluster settles. nullopt if it never converges.
std::optional<double> measure_bandwidth(
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
};

// Kill one non-leader node and record the earliest/latest time any
// surviving node learns of it (paper Sections 6.4 / 6.5).
std::optional<DetectionResult> measure_failure(
    const ExperimentSettings& settings, sim::Duration wait) {
  BuiltCluster built = build_cluster(settings);

  // Victim: last node of the first rack — never a leader (the bully elects
  // the lowest id) but an ordinary member, like the paper's killed daemon.
  size_t victim_index =
      std::min(static_cast<size_t>(settings.nodes_per_network - 1),
               built.layout.hosts.size() - 1);
  net::HostId victim = built.layout.hosts[victim_index];

  sim::Time first = -1, last = -1;
  built.cluster->set_change_listener(
      [&](membership::NodeId subject, bool alive, sim::Time when) {
        if (subject != victim || alive) return;
        if (first < 0) first = when;
        last = when;
      });

  built.cluster->start_all();
  built.sim->run_until(settings.settle);
  if (!built.cluster->converged()) return std::nullopt;

  const sim::Time killed_at = built.sim->now();
  built.cluster->kill(victim_index);
  built.sim->run_until(killed_at + wait);
  if (!built.cluster->converged() || first < 0) return std::nullopt;
  return DetectionResult{sim::to_seconds(first - killed_at),
                         sim::to_seconds(last - killed_at)};
}

// Averages `trials` seeded runs of measure_failure.
std::optional<DetectionResult> measure_failure_avg(
    ExperimentSettings settings, int trials,
    sim::Duration wait = 60 * sim::kSecond) {
  util::OnlineStats detection, convergence;
  for (int trial = 0; trial < trials; ++trial) {
    settings.seed = settings.seed * 31 + 17;
    auto result = measure_failure(settings, wait);
    if (!result) return std::nullopt;
    detection.add(result->detection_s);
    convergence.add(result->convergence_s);
  }
  return DetectionResult{detection.mean(), convergence.mean()};
}

// Paper Fig. 2: all-to-all per-node packet rate, CPU load and link share to
// 4000 nodes with 1024-byte heartbeats at 1 Hz. Rates up to kSimLimit nodes
// are simulated on the paper's 50-per-switch testbed; beyond that the
// exactly linear rate (n - 1) is extrapolated. CPU % applies the calibrated
// per-packet cost model (DESIGN.md, Fig. 2 substitution).
Table fig2_alltoall_overhead() {
  constexpr int kSimLimit = 500;
  constexpr int kHeartbeatBytes = 1024;
  constexpr uint64_t kSeed = 1;
  analysis::CpuCostModel cpu;
  analysis::LinkModel link;
  Table table{"fig2_alltoall_overhead",
              {{"heartbeat_bytes", integer(kHeartbeatBytes)},
               {"sim_limit", integer(kSimLimit)},
               {"seed", integer(kSeed)}},
              {"nodes", "rx_pkts_per_s_per_node", "cpu_pct",
               "rx_mb_per_s_per_node", "link_util_pct"},
              {}};
  for (int nodes = 500; nodes <= 4000; nodes += 500) {
    double pkts_per_node = static_cast<double>(nodes - 1);
    if (nodes <= kSimLimit) {
      ExperimentSettings settings;
      settings.scheme = protocols::Scheme::kAllToAll;
      settings.nodes = nodes;
      settings.nodes_per_network = 50;
      settings.heartbeat_pad = kHeartbeatBytes;
      settings.seed = kSeed;
      BuiltCluster built = build_cluster(settings);
      built.cluster->start_all();
      built.sim->run_until(8 * sim::kSecond);
      built.network->obs().metrics.reset(obs::Protocol::kNet);
      built.sim->run_until(built.sim->now() + 5 * sim::kSecond);
      pkts_per_node =
          static_cast<double>(built.network->obs().metrics.counter_value(
              obs::Protocol::kNet, "rx_multicast_messages")) /
          5.0 / static_cast<double>(nodes);
    }
    const double bytes_per_node = pkts_per_node * kHeartbeatBytes;
    table.rows.push_back({integer(nodes), fixed(pkts_per_node, 1),
                          fixed(cpu.cpu_percent(pkts_per_node), 2),
                          fixed(bytes_per_node / 1e6, 3),
                          fixed(link.utilization_percent(bytes_per_node), 1)});
  }
  return table;
}

// Paper Section 4: the closed-form bandwidth, detection and convergence
// times and their products with bandwidth (BDP, BCP) per scheme and size.
Table table_scalability_analysis() {
  analysis::ModelParams params;
  params.m = 228;
  params.k = 5;
  params.g = 20;
  params.bandwidth = 4.0e6;
  Table table{"table_scalability_analysis",
              {{"m", integer(228)},
               {"k", integer(5)},
               {"g", integer(20)},
               {"budget_mbps", fixed(4.0, 1)}},
              {"n", "tree_height", "groups", "scheme", "bandwidth_bytes_per_s",
               "detect_s", "converge_s", "bdp", "bcp"},
              {}};
  for (double n : {20, 100, 500, 1000, 4000, 10000}) {
    params.n = n;
    for (const auto& row : analysis::compare_schemes(params)) {
      table.rows.push_back(
          {fixed(n, 0), fixed(analysis::tree_height(n, params.g), 0),
           fixed(analysis::group_count(n, params.g), 0),
           text(row.scheme.c_str()), fixed(row.bandwidth_fixed_freq, 0),
           fixed(row.detection_fixed_freq, 2),
           fixed(row.convergence_fixed_freq, 2),
           util::strformat("%.3e", row.bdp), util::strformat("%.3e", row.bcp)});
    }
  }
  return table;
}

// Figs. 11-13: one value per scheme for racked clusters of 20 to 100 nodes
// in networks of 20 (1 heartbeat or gossip per second, 228-byte entries, a
// node dead after 5 missed heartbeats).
template <typename Measure>
Table scheme_series(const char* name, const char* unit, int decimals,
                    std::vector<std::pair<std::string, Cell>> params,
                    Measure measure) {
  const ExperimentSettings defaults;
  params.insert(
      params.begin(),
      {{"nodes_per_network", integer(defaults.nodes_per_network)},
       {"entry_bytes", integer(static_cast<long long>(defaults.heartbeat_pad))},
       {"max_losses", integer(protocols::AllToAllConfig{}.max_losses)}});
  Table table{name, std::move(params),
              {"nodes", std::string("alltoall_") + unit,
               std::string("gossip_") + unit, std::string("hier_") + unit},
              {}};
  for (int nodes = 20; nodes <= 100; nodes += 20) {
    std::vector<Cell> row{integer(nodes)};
    for (int s = 0; s < 3; ++s) {
      ExperimentSettings settings;
      settings.scheme = kSchemes[s];
      settings.nodes = nodes;
      settings.settle = settle_for(kSchemes[s]);
      row.push_back(fixed(measure(settings, s), decimals));
    }
    table.rows.push_back(std::move(row));
  }
  return table;
}

// Paper Fig. 11: cluster-wide received bytes in a 10 s steady window.
Table fig11_bandwidth() {
  return scheme_series(
      "fig11_bandwidth", "mbps", 3, {{"seed", integer(1)}},
      [](ExperimentSettings& settings, int) {
        settings.seed = 1;
        auto bytes_per_sec = measure_bandwidth(settings);
        return bytes_per_sec ? *bytes_per_sec / 1e6 : -1.0;
      });
}

// Paper Fig. 12: earliest observer of one killed daemon, mean of 3 kills;
// scheme s runs from seed 1 + s.
Table fig12_detection_time() {
  return scheme_series(
      "fig12_detection_time", "s", 2,
      {{"trials", integer(3)}, {"seed", integer(1)}},
      [](ExperimentSettings& settings, int s) {
        settings.seed = 1 + static_cast<uint64_t>(s);
        auto result = measure_failure_avg(settings, 3, 90 * sim::kSecond);
        return result ? result->detection_s : -1.0;
      });
}

// Paper Fig. 13: latest observer, from runs of its own (seed 8 + s, seven
// past Fig. 12's), not Fig. 12's.
Table fig13_convergence_time() {
  return scheme_series(
      "fig13_convergence_time", "s", 2,
      {{"trials", integer(3)}, {"seed", integer(8)}},
      [](ExperimentSettings& settings, int s) {
        settings.seed = 8 + static_cast<uint64_t>(s);
        auto result = measure_failure_avg(settings, 3, 90 * sim::kSecond);
        return result ? result->convergence_s : -1.0;
      });
}

// Paper Fig. 14: the search engine in two datacenters (~90 ms RTT). DC A's
// document service fails kFailAt seconds into the measured minute and
// recovers at kRecoverAt. One table holds each second of queries entering
// DC A, the other the before / during / after phases.
std::vector<Table> fig14_proxy_failover() {
  constexpr double kQps = 40.0;
  constexpr int kFailAt = 20, kRecoverAt = 40, kRunFor = 60;
  const std::vector<std::pair<std::string, Cell>> params = {
      {"qps", fixed(kQps, 1)},
      {"fail_at", integer(kFailAt)},
      {"recover_at", integer(kRecoverAt)},
      {"run_for", integer(kRunFor)},
      {"seed", integer(42)}};
  Table seconds{"fig14_proxy_failover", params,
                {"sec", "arrived", "completed", "failed", "response_ms"},
                {}};
  Table phases{"fig14_phases", params,
               {"phase", "from_s", "to_s", "throughput_qps", "failed",
                "mean_response_ms"},
               {}};

  sim::Simulation sim(42);
  service::MultiDcHarness harness(sim, service::default_two_dc_params());
  service::SearchParams search;
  search.replicas = 2;
  service::SearchDeployment dc_a(sim, harness.network(), harness.cluster(0),
                                 search);
  service::SearchDeployment dc_b(sim, harness.network(), harness.cluster(1),
                                 search);
  harness.start();
  dc_a.start();
  dc_b.start();

  // Let both clusters and the proxies converge before measuring; a run that
  // never converges reports no rows.
  sim.run_until(20 * sim::kSecond);
  if (!harness.cluster(0).converged() || !harness.cluster(1).converged()) {
    return {seconds, phases};
  }
  const sim::Time t0 = sim.now();

  service::SearchWorkload workload(sim, dc_a.gateways(), kQps);
  workload.run_for(kRunFor * sim::kSecond);

  const std::set<size_t> doc_nodes(dc_a.doc_nodes().begin(),
                                   dc_a.doc_nodes().end());
  sim.schedule_at(t0 + kFailAt * sim::kSecond, [&] {
    for (size_t node : doc_nodes) harness.cluster(0).kill(node);
  });
  sim.schedule_at(t0 + kRecoverAt * sim::kSecond, [&] {
    for (size_t node : doc_nodes) {
      harness.cluster(0).restart(node);
      dc_a.restart_providers_on(node);
    }
  });
  sim.run_until(t0 + (kRunFor + 5) * sim::kSecond);

  const size_t first = static_cast<size_t>(t0 / sim::kSecond);
  const auto& buckets = workload.buckets();
  for (size_t s = first; s < buckets.size() && s < first + kRunFor; ++s) {
    const auto& bucket = buckets[s];
    seconds.rows.push_back(
        {integer(static_cast<long long>(s - first)), integer(bucket.arrived),
         integer(bucket.completed), integer(bucket.failed),
         fixed(bucket.mean_latency_ms(), 1)});
  }

  auto phase = [&](const char* label, size_t from, size_t to) {
    int completed = 0, failed = 0;
    double latency = 0;
    for (size_t s = first + from; s < first + to && s < buckets.size(); ++s) {
      completed += buckets[s].completed;
      failed += buckets[s].failed;
      latency += buckets[s].latency_ms_sum;
    }
    phases.rows.push_back(
        {text(label), integer(static_cast<long long>(from)),
         integer(static_cast<long long>(to)),
         fixed(completed / static_cast<double>(to - from), 1),
         integer(failed), fixed(completed > 0 ? latency / completed : 0.0, 1)});
  };
  phase("before failure", 2, kFailAt);
  phase("during failure", kFailAt, kRecoverAt);
  phase("after recovery", kRecoverAt + 3, kRunFor);
  return {seconds, phases};
}

// Ablation: the hierarchical group-size bound at n = 400. Small groups
// carry less multicast per channel but build a taller tree with more
// leaders; large groups approach all-to-all within each network.
Table ablation_group_size() {
  Table table{"ablation_group_size",
              {{"nodes", integer(400)},
               {"trials", integer(2)},
               {"seed", integer(5)}},
              {"group_size", "bandwidth_mbps", "detection_s",
               "convergence_s"},
              {}};
  for (int group : {5, 10, 20, 50, 100}) {
    ExperimentSettings settings;
    settings.nodes = 400;
    settings.nodes_per_network = group;
    settings.seed = 5;
    auto bandwidth = measure_bandwidth(settings);
    auto failure = measure_failure_avg(settings, 2);
    table.rows.push_back({integer(group),
                          fixed(bandwidth ? *bandwidth / 1e6 : -1.0, 3),
                          fixed(failure ? failure->detection_s : -1.0, 2),
                          fixed(failure ? failure->convergence_s : -1.0, 2)});
  }
  return table;
}

// Ablation: the message-loss machinery (paper Section 3.1.2). Injected loss
// against piggyback depth through churn (2 kills and 1 restart under loss):
// gaps healed by piggybacked records vs. full synchronization polls.
Table ablation_loss_recovery() {
  Table table{"ablation_loss_recovery",
              {{"nodes", integer(60)},
               {"kills", integer(2)},
               {"restarts", integer(1)},
               {"seed", integer(9)}},
              {"loss_pct", "piggyback", "converged", "pb_heals",
               "sync_polls"},
              {}};
  for (double loss : {0.0, 0.05, 0.10, 0.20}) {
    for (int piggyback : {0, 1, 3, 5}) {
      ExperimentSettings settings;
      settings.nodes = 60;
      settings.seed = 9;
      settings.hier.piggyback = piggyback;
      BuiltCluster built = build_cluster(settings);
      built.cluster->start_all();
      built.sim->run_until(20 * sim::kSecond);

      built.network->set_extra_loss(loss);
      built.cluster->kill(3);
      built.cluster->kill(built.cluster->size() / 2);
      built.sim->run_until(built.sim->now() + 15 * sim::kSecond);
      built.cluster->restart(3);
      built.sim->run_until(built.sim->now() + 15 * sim::kSecond);
      built.network->set_extra_loss(0.0);
      // A full anti-entropy cycle plus the orphan-expiry horizon, so any
      // entry resurrected by reordered replays under loss is collected.
      built.sim->run_until(built.sim->now() + 90 * sim::kSecond);

      uint64_t heals = 0, syncs = 0;
      const obs::MetricsRegistry& m = built.network->obs().metrics;
      for (size_t i = 0; i < built.cluster->size(); ++i) {
        auto* daemon = built.cluster->hier_daemon(i);
        if (daemon == nullptr || !daemon->running()) continue;
        heals += m.counter_value(obs::Protocol::kHier,
                                 "gaps_recovered_by_piggyback",
                                 daemon->self());
        syncs += m.counter_value(obs::Protocol::kHier, "syncs_requested",
                                 daemon->self());
      }
      table.rows.push_back({fixed(loss * 100, 0), integer(piggyback),
                            flag(built.cluster->converged()),
                            integer(static_cast<long long>(heals)),
                            integer(static_cast<long long>(syncs))});
    }
  }
  return table;
}

// Ablation: level-0 leader failure (paper Section 3.1.1). The fast path
// (the designated backup takes over) against the slow one (leader and
// backup die together, forcing a bully election): time to a new leader in
// the victim's rack and leaves reported for live nodes, over 3 trials.
Table ablation_leader_failover() {
  struct Trial {
    double new_leader_s = -1;
    int spurious = 0;
    bool converged = false;
  };
  auto run = [](bool backup_dies, uint64_t seed) {
    Trial trial;
    ExperimentSettings settings;
    settings.nodes = 100;
    settings.seed = seed;
    BuiltCluster built = build_cluster(settings);
    built.cluster->start_all();
    built.sim->run_until(20 * sim::kSecond);

    protocols::HierDaemon* leader = nullptr;
    for (size_t i = 0; i < built.cluster->size() && leader == nullptr; ++i) {
      auto* daemon = built.cluster->hier_daemon(i);
      if (daemon->is_leader(0)) leader = daemon;
    }
    if (leader == nullptr) return trial;
    const net::HostId leader_host = leader->self();
    const net::HostId backup_host = leader->backup_of(0);
    std::set<net::HostId> killed{leader_host};
    if (backup_dies && backup_host != membership::kInvalidNode) {
      killed.insert(backup_host);
    }
    built.cluster->set_change_listener(
        [&](membership::NodeId subject, bool alive, sim::Time) {
          if (!alive && !killed.contains(subject)) ++trial.spurious;
        });

    const sim::Time killed_at = built.sim->now();
    for (net::HostId host : killed) {
      const auto& hosts = built.cluster->hosts();
      built.cluster->kill(static_cast<size_t>(
          std::find(hosts.begin(), hosts.end(), host) - hosts.begin()));
    }
    auto rack_has_leader = [&] {
      for (size_t i = 0; i < built.cluster->size(); ++i) {
        auto* daemon = built.cluster->hier_daemon(i);
        if (daemon != nullptr && daemon->running() && daemon->is_leader(0) &&
            built.topology->ttl_required(daemon->self(), leader_host) == 1) {
          return true;
        }
      }
      return false;
    };
    for (int tick = 1; tick <= 300; ++tick) {
      built.sim->run_until(killed_at + tick * 100 * sim::kMillisecond);
      if (rack_has_leader()) {
        trial.new_leader_s = sim::to_seconds(built.sim->now() - killed_at);
        break;
      }
    }
    built.sim->run_until(killed_at + 45 * sim::kSecond);
    trial.converged = built.cluster->converged();
    return trial;
  };

  Table table{"ablation_leader_failover",
              {{"nodes", integer(100)},
               {"trials", integer(3)},
               {"seed", integer(21)}},
              {"backup_dies", "new_leader_s", "spurious_leaves", "converged"},
              {}};
  for (bool backup_dies : {false, true}) {
    util::OnlineStats takeover;
    int spurious = 0;
    bool all_converged = true;
    for (int trial = 0; trial < 3; ++trial) {
      const Trial result = run(backup_dies, 21 + trial * 13);
      if (result.new_leader_s >= 0) takeover.add(result.new_leader_s);
      spurious += result.spurious;
      all_converged = all_converged && result.converged;
    }
    table.rows.push_back({flag(backup_dies), fixed(takeover.mean(), 2),
                          integer(spurious), flag(all_converged)});
  }
  return table;
}

// Ablation: join responsiveness, the side of "node departures and joins"
// Figs. 12-13 leave out: from a late joiner starting its daemon until the
// first other node, and then every node, lists it. A run that does not
// converge reports -1.
Table ablation_join_latency() {
  Table table{"ablation_join_latency",
              {{"nodes", integer(100)}, {"seed", integer(3)}},
              {"scheme", "first_observer_s", "cluster_wide_s"},
              {}};
  for (auto scheme : kSchemes) {
    ExperimentSettings settings;
    settings.scheme = scheme;
    settings.nodes = 100;
    settings.seed = 3;
    settings.settle = settle_for(scheme);
    BuiltCluster built = build_cluster(settings);

    // Late joiner: last host of the first rack, down from the start.
    const size_t joiner_index =
        static_cast<size_t>(settings.nodes_per_network - 1);
    const net::HostId joiner = built.layout.hosts[joiner_index];
    sim::Time first = -1, last = -1;
    int observers = 0;
    built.cluster->set_change_listener(
        [&](membership::NodeId subject, bool alive, sim::Time when) {
          if (subject != joiner || !alive) return;
          if (first < 0) first = when;
          last = when;
          ++observers;
        });
    built.cluster->kill(joiner_index);  // down before any heartbeat escapes
    built.cluster->start_all();
    built.sim->run_until(settings.settle);

    double first_s = -1, everyone_s = -1;
    if (built.cluster->converged()) {
      first = last = -1;
      observers = 0;
      const sim::Time joined_at = built.sim->now();
      built.cluster->restart(joiner_index);
      built.sim->run_until(joined_at + 60 * sim::kSecond);
      if (built.cluster->converged() && observers >= settings.nodes - 1) {
        first_s = sim::to_seconds(first - joined_at);
        everyone_s = sim::to_seconds(last - joined_at);
      }
    }
    table.rows.push_back({text(protocols::scheme_name(scheme)),
                          fixed(first_s, 3), fixed(everyone_s, 3)});
  }
  return table;
}

// Ablation: join-storm recovery with and without full-image admission
// control, under the egress capacity model (100 Mbit/s NICs, 256 KiB
// queues, as in the chaos scenarios). J of 128 nodes on 8 racks are down
// from the start and restart at one instant once the survivors converge.
// Peak is the worst host's egress in any 1 s window until convergence.
Table ablation_join_storm() {
  constexpr int kNodes = 128;
  constexpr double kEgressBytesPerSec = 12.5e6;
  Table table{"ablation_join_storm",
              {{"nodes", integer(kNodes)},
               {"nic_mbit_per_s", fixed(kEgressBytesPerSec * 8 / 1e6, 0)},
               {"seed", integer(5)}},
              {"joiners", "admission", "converge_s", "peak_node_bytes_per_s",
               "busy", "deferrals", "retries", "nic_drops"},
              {}};
  for (int joiners : {10, 50, 100}) {
    for (bool admission : {true, false}) {
      sim::Simulation sim(5);
      net::Topology topo;
      net::RackedClusterParams params;
      params.racks = 8;
      params.hosts_per_rack = (kNodes + params.racks - 1) / params.racks;
      auto layout = net::build_racked_cluster(topo, params);
      layout.hosts.resize(kNodes);
      net::NetworkConfig net_config;
      net_config.egress_bytes_per_sec = kEgressBytesPerSec;
      net_config.egress_queue_bytes = 256 * 1024;
      net::Network net(sim, topo, net_config);

      protocols::Cluster::Options opts;
      opts.scheme = protocols::Scheme::kHierarchical;
      opts.heartbeat_pad = 228;
      opts.hier.image_serve_budget = admission ? 8 : 0;
      protocols::Cluster cluster(sim, net, layout.hosts, opts);

      // Stride-sampled so the storm hits every rack, skipping node 0 (the
      // stable top-level leader): a rack-local storm would understate the
      // fan-in on the serving leaders.
      std::vector<size_t> down;
      for (int j = 0; j < joiners; ++j) {
        down.push_back(1 + static_cast<size_t>(j) * (kNodes - 1) /
                               static_cast<size_t>(joiners));
      }
      for (size_t index : down) cluster.kill(index);
      cluster.start_all();
      sim.run_until(30 * sim::kSecond);

      double converge_s = -1, peak = 0;
      obs::MetricsRegistry& registry = net.obs().metrics;
      if (cluster.converged()) {
        registry.reset(obs::Protocol::kNet);
        const sim::Time storm_at = sim.now();
        for (size_t index : down) cluster.restart(index);
        std::vector<uint64_t> prev_tx(layout.hosts.size(), 0);
        while (sim.now() - storm_at < 180 * sim::kSecond) {
          sim.run_until(sim.now() + sim::kSecond);
          for (size_t i = 0; i < layout.hosts.size(); ++i) {
            const uint64_t tx = registry.counter_value(
                obs::Protocol::kNet, "tx_wire_bytes", layout.hosts[i]);
            peak = std::max(peak, static_cast<double>(tx - prev_tx[i]));
            prev_tx[i] = tx;
          }
          if (cluster.converged()) {
            converge_s = sim::to_seconds(sim.now() - storm_at);
            // One extra window so the tail of deferred serves is in the
            // peak.
            sim.run_until(sim.now() + sim::kSecond);
            break;
          }
        }
      }
      auto hier_sum = [&](const char* name) {
        return integer(static_cast<long long>(
            registry.counter_sum_over_nodes(obs::Protocol::kHier, name)));
      };
      table.rows.push_back(
          {integer(joiners), flag(admission), fixed(converge_s, 3),
           fixed(peak, 0), hier_sum("busy_sent"), hier_sum("busy_deferrals"),
           hier_sum("exchange_retries"),
           integer(static_cast<long long>(registry.counter_value(
               obs::Protocol::kNet, "tx_dropped_egress")))});
    }
  }
  return table;
}

// Ablation: topology adaptivity. Racked hosts laid out on ever deeper
// router trees (branching x depth, one leaf segment per leaf router): the
// formation protocol must build a matching membership tree, keep heartbeat
// traffic local and pay only per-level relay hops on a failure.
Table ablation_tree_depth() {
  struct Shape {
    int branching, depth, hosts_per_leaf;
  };
  Table table{"ablation_tree_depth",
              {{"seed", integer(17)}},
              {"branching", "depth", "hosts_per_leaf", "hosts", "max_ttl",
               "levels", "bandwidth_mbps", "detect_s", "converge_s"},
              {}};
  for (const Shape shape : {Shape{1, 0, 48}, Shape{2, 1, 12}, Shape{2, 2, 6},
                            Shape{2, 3, 3}}) {
    sim::Simulation sim(17);
    net::Topology topo;
    auto layout = net::build_router_tree(topo, shape.branching, shape.depth,
                                         shape.hosts_per_leaf);
    net::Network net(sim, topo);
    const int max_ttl = topo.max_ttl();
    protocols::Cluster::Options opts;
    opts.scheme = protocols::Scheme::kHierarchical;
    opts.hier.max_ttl = max_ttl;
    opts.heartbeat_pad = 228;
    protocols::Cluster cluster(sim, net, layout.hosts, opts);

    const net::HostId victim = layout.racks[0].back();
    const size_t victim_index = static_cast<size_t>(
        std::find(layout.hosts.begin(), layout.hosts.end(), victim) -
        layout.hosts.begin());
    sim::Time first = -1, last = -1;
    cluster.set_change_listener(
        [&](membership::NodeId subject, bool alive, sim::Time when) {
          if (subject != victim || alive) return;
          if (first < 0) first = when;
          last = when;
        });

    int levels = 0;
    double bandwidth_mbps = -1, detect_s = -1, converge_s = -1;
    cluster.start_all();
    sim.run_until(25 * sim::kSecond);
    if (cluster.converged()) {
      for (size_t i = 0; i < cluster.size(); ++i) {
        for (int level : cluster.hier_daemon(i)->joined_levels()) {
          levels = std::max(levels, level + 1);
        }
      }
      net.obs().metrics.reset(obs::Protocol::kNet);
      sim.run_until(sim.now() + 10 * sim::kSecond);
      bandwidth_mbps = static_cast<double>(net.obs().metrics.counter_value(
                           obs::Protocol::kNet, "rx_wire_bytes")) /
                       10.0 / 1e6;
      const sim::Time killed_at = sim.now();
      cluster.kill(victim_index);
      sim.run_until(killed_at + 40 * sim::kSecond);
      if (cluster.converged() && first >= 0) {
        detect_s = sim::to_seconds(first - killed_at);
        converge_s = sim::to_seconds(last - killed_at);
      }
    }
    table.rows.push_back(
        {integer(shape.branching), integer(shape.depth),
         integer(shape.hosts_per_leaf),
         integer(static_cast<long long>(layout.hosts.size())),
         integer(max_ttl), integer(levels), fixed(bandwidth_mbps, 3),
         fixed(detect_s, 2), fixed(converge_s, 2)});
  }
  return table;
}

// Ablation: accuracy and completeness under packet loss (the paper's
// requirements, Sec. 1). 60 s of uniform loss with no real failure, where
// every leave reported is false; then one real failure under the same loss,
// which must still be detected, and 60 s without loss to converge.
Table ablation_accuracy() {
  constexpr int kPhaseS = 60;
  Table table{"ablation_accuracy",
              {{"nodes", integer(60)},
               {"phase_s", integer(kPhaseS)},
               {"seed", integer(29)}},
              {"loss_pct", "scheme", "false_leaves", "real_detected",
               "converged"},
              {}};
  for (double loss : {0.0, 0.05, 0.10}) {
    for (auto scheme : kSchemes) {
      ExperimentSettings settings;
      settings.scheme = scheme;
      settings.nodes = 60;
      settings.seed = 29;
      settings.settle = settle_for(scheme);
      BuiltCluster built = build_cluster(settings);

      const size_t victim_index = 30;
      const net::HostId victim = built.layout.hosts[victim_index];
      bool victim_killed = false, detected = false, converged = false;
      int false_leaves = 0;
      built.cluster->set_change_listener(
          [&](membership::NodeId subject, bool alive, sim::Time) {
            if (alive) return;
            if (subject == victim && victim_killed) {
              detected = true;
            } else {
              ++false_leaves;
            }
          });
      built.cluster->start_all();
      built.sim->run_until(settings.settle);
      if (built.cluster->converged()) {
        built.network->set_extra_loss(loss);
        built.sim->run_until(built.sim->now() + kPhaseS * sim::kSecond);
        victim_killed = true;
        built.cluster->kill(victim_index);
        built.sim->run_until(built.sim->now() + kPhaseS * sim::kSecond);
        built.network->set_extra_loss(0.0);
        built.sim->run_until(built.sim->now() + kPhaseS * sim::kSecond);
        converged = built.cluster->converged();
      }
      table.rows.push_back({fixed(loss * 100, 0),
                            text(protocols::scheme_name(scheme)),
                            integer(false_leaves), flag(detected),
                            flag(converged)});
    }
  }
  return table;
}

// Ablation: the Timeout protocol's level-scaled timers (paper Sec. 3.1.2)
// on 3 racks of 10. A larger factor delays (a) detecting a real partition,
// a rack uplink cut, cluster-wide, and should keep (b) a leader death from
// purging the leader's subtree.
Table ablation_partition() {
  Table table{"ablation_partition",
              {{"racks", integer(3)},
               {"hosts_per_rack", integer(10)},
               {"seed", integer(33)}},
              {"factor", "first_purge_s", "all_purged_s", "spurious_leaves"},
              {}};
  auto build_racks = [](net::Topology& topo) {
    net::RackedClusterParams params;
    params.racks = 3;
    params.hosts_per_rack = 10;
    return net::build_racked_cluster(topo, params);
  };
  for (double factor : {1.0, 1.25, 1.5, 2.0, 3.0}) {
    protocols::Cluster::Options opts;
    opts.scheme = protocols::Scheme::kHierarchical;
    opts.hier.level_timeout_factor = factor;
    double first_purge_s = -1, all_purged_s = -1;
    int spurious = 0;

    // (a) Partition detection: scan until every main-side node has purged
    // the whole cut rack.
    {
      sim::Simulation sim(33);
      net::Topology topo;
      const auto layout = build_racks(topo);
      net::Network net(sim, topo);
      protocols::Cluster cluster(sim, net, layout.hosts, opts);

      const std::set<net::HostId> lost_rack(layout.racks[2].begin(),
                                            layout.racks[2].end());
      std::set<net::HostId> main_side(layout.racks[0].begin(),
                                      layout.racks[0].end());
      main_side.insert(layout.racks[1].begin(), layout.racks[1].end());
      sim::Time first = -1;
      std::map<net::HostId, std::set<net::HostId>> purged_by;
      cluster.set_change_listener([&](size_t observer,
                                      membership::NodeId subject, bool alive,
                                      sim::Time when) {
        const net::HostId self = cluster.hosts()[observer];
        if (!main_side.contains(self)) return;
        if (alive || !lost_rack.contains(subject)) return;
        if (first < 0) first = when;
        purged_by[self].insert(subject);
      });
      cluster.start_all();
      sim.run_until(20 * sim::kSecond);
      if (cluster.converged()) {
        const sim::Time cut_at = sim.now();
        topo.set_link_up(layout.rack_uplinks[2], false);
        for (int tick = 1; tick <= 600; ++tick) {
          sim.run_until(cut_at + tick * 100 * sim::kMillisecond);
          bool done = purged_by.size() == main_side.size();
          for (const auto& [node, purged] : purged_by) {
            done = done && purged.size() == lost_rack.size();
          }
          if (done) {
            all_purged_s = sim::to_seconds(sim.now() - cut_at);
            break;
          }
        }
        if (first >= 0) first_purge_s = sim::to_seconds(first - cut_at);
      }
    }

    // (b) Leader death in rack 1 must not purge its subtree.
    {
      sim::Simulation sim(34);
      net::Topology topo;
      const auto layout = build_racks(topo);
      net::Network net(sim, topo);
      protocols::Cluster cluster(sim, net, layout.hosts, opts);
      cluster.start_all();
      sim.run_until(20 * sim::kSecond);
      protocols::HierDaemon* leader = nullptr;
      for (net::HostId h : layout.racks[1]) {
        auto* d = static_cast<protocols::HierDaemon*>(cluster.daemon_for(h));
        if (d->is_leader(0)) leader = d;
      }
      if (leader != nullptr) {
        const net::HostId dead = leader->self();
        cluster.set_change_listener(
            [&](membership::NodeId subject, bool alive, sim::Time) {
              if (!alive && subject != dead) ++spurious;
            });
        for (size_t i = 0; i < cluster.size(); ++i) {
          if (cluster.hosts()[i] == dead) cluster.kill(i);
        }
        sim.run_until(sim.now() + 30 * sim::kSecond);
      }
    }
    table.rows.push_back({fixed(factor, 2), fixed(first_purge_s, 2),
                          fixed(all_purged_s, 2), integer(spurious)});
  }
  return table;
}

void write_json(std::FILE* out, const std::vector<Table>& tables) {
  auto join = [](const std::vector<std::string>& items, bool quote) {
    std::string joined;
    for (size_t i = 0; i < items.size(); ++i) {
      if (i > 0) joined += ", ";
      joined += quote ? "\"" + items[i] + "\"" : items[i];
    }
    return joined;
  };
  std::fprintf(out, "{\n  \"bench\": \"figures\",\n  \"figures\": [\n");
  for (size_t t = 0; t < tables.size(); ++t) {
    const Table& table = tables[t];
    std::string params;
    for (const auto& [name, value] : table.params) {
      params += (params.empty() ? "\"" : ", \"") + name + "\": " + value;
    }
    std::fprintf(out,
                 "    {\n      \"name\": \"%s\",\n      \"params\": {%s},\n"
                 "      \"columns\": [%s],\n      \"rows\": [\n",
                 table.name.c_str(), params.c_str(),
                 join(table.columns, true).c_str());
    for (size_t r = 0; r < table.rows.size(); ++r) {
      std::fprintf(out, "        [%s]%s\n",
                   join(table.rows[r], false).c_str(),
                   r + 1 < table.rows.size() ? "," : "");
    }
    std::fprintf(out, "      ]\n    }%s\n", t + 1 < tables.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
}

}  // namespace

int main(int argc, char** argv) {
  util::FlagSet flags("figures");
  auto& json_flag = flags.add_string(
      "json", "", "write the report to this file instead of stdout");
  flags.parse(argc, argv);

  std::vector<Table> tables = {fig2_alltoall_overhead(),
                               table_scalability_analysis(),
                               fig11_bandwidth(), fig12_detection_time(),
                               fig13_convergence_time()};
  for (Table& table : fig14_proxy_failover()) {
    tables.push_back(std::move(table));
  }
  for (Table (*figure)() :
       {ablation_group_size, ablation_loss_recovery, ablation_leader_failover,
        ablation_join_latency, ablation_join_storm, ablation_tree_depth,
        ablation_accuracy, ablation_partition}) {
    tables.push_back(figure());
  }

  std::FILE* out = stdout;
  if (!json_flag.empty()) {
    out = std::fopen(json_flag.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot open --json=%s\n", json_flag.c_str());
      return 2;
    }
  }
  write_json(out, tables);
  return out == stdout || std::fclose(out) == 0 ? 0 : 1;
}
