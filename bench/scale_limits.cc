// Incremental scalability (paper requirement, Sec. 1: "incrementally
// scalable from a small cluster to a large-scale cluster with thousands of
// nodes"). Forms hierarchical clusters from 100 to 10,000 nodes, reporting
// formation time, steady-state traffic, per-node anti-entropy bytes, and
// single-failure behavior.
//
// Anti-entropy bytes are attributed from the per-kind tx byte counters: in
// a churn-free steady-state window the leaders' periodic digest round is
// the only anti-entropy, so update + refresh_digest + refresh_pull +
// refresh_delta + sync + busy bytes are exactly its spend.
//
//   bench/scale_limits --max-nodes=10000 --json=BENCH_scale.json
//   bench/scale_limits --max-nodes=2000 --json=scale-ci.json  # CI smoke
#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.h"
#include "util/flags.h"

using namespace tamp;
using namespace tamp::bench;

namespace {

struct RunResult {
  int nodes = 0;
  double formed_s = -1;
  double per_node_pkts = 0;
  double per_node_kbps = 0;
  double ae_bytes_per_node_per_s = 0;
  double ae_bytes_per_node_per_round = 0;
  double detect_s = -1;
  double converge_s = -1;
};

constexpr sim::Duration kRefreshInterval = 10 * sim::kSecond;
constexpr sim::Duration kWindow = 20 * sim::kSecond;

// The wire kinds that carry anti-entropy traffic: the digest round's three
// kinds, plus update (repairs relayed onward), the solicited sync exchange
// truncation fallbacks ride, and busy (budget overflow answers).
const char* kAntiEntropyKinds[] = {
    "update",        "refresh_digest", "refresh_pull", "refresh_delta",
    "sync_request",  "sync_response",  "busy"};

uint64_t anti_entropy_tx_bytes(const obs::MetricsRegistry& metrics) {
  uint64_t total = 0;
  for (const char* kind : kAntiEntropyKinds) {
    total += metrics.counter_value(obs::Protocol::kNet,
                                   std::string("tx_bytes_kind_") + kind);
  }
  return total;
}

RunResult run_one(int nodes, uint64_t seed) {
  RunResult result;
  result.nodes = nodes;

  ExperimentSettings settings;
  settings.scheme = protocols::Scheme::kHierarchical;
  settings.nodes = nodes;
  settings.seed = seed;
  settings.hier.refresh_interval = kRefreshInterval;

  BuiltCluster built = build_cluster(settings);
  built.cluster->start_all();

  // Formation: first moment every node's view is complete. converged() is
  // O(n^2), so large clusters poll it on a coarser tick.
  const sim::Duration tick =
      nodes > 2000 ? 2 * sim::kSecond : 500 * sim::kMillisecond;
  const sim::Time formation_horizon = 180 * sim::kSecond;
  while (built.sim->now() < formation_horizon) {
    built.sim->run_until(built.sim->now() + tick);
    if (built.cluster->converged()) {
      result.formed_s = sim::to_seconds(built.sim->now());
      break;
    }
  }
  if (result.formed_s < 0) return result;  // never formed: report and bail

  // Quiescence: view convergence precedes protocol quiet — top-level
  // elections still re-seed full images and the formation sync backlog
  // drains through the busy-deferral budget for tens of seconds. Probe in
  // 10s steps until a whole step is free of elections and solicited image
  // traffic, so the measured window holds only the periodic anti-entropy.
  obs::MetricsRegistry& metrics = built.network->obs().metrics;
  for (int probe = 0; probe < 30; ++probe) {
    metrics.reset(obs::Protocol::kNet);
    built.sim->run_until(built.sim->now() + 10 * sim::kSecond);
    if (metrics.counter_value(obs::Protocol::kNet,
                              "tx_bytes_kind_sync_response") == 0 &&
        metrics.counter_value(obs::Protocol::kNet,
                              "tx_bytes_kind_election") == 0 &&
        metrics.counter_value(obs::Protocol::kNet,
                              "tx_bytes_kind_coordinator") == 0) {
      break;
    }
  }

  metrics.reset(obs::Protocol::kNet);
  built.sim->run_until(built.sim->now() + kWindow);

  const double window_s = sim::to_seconds(kWindow);
  const double rounds = window_s / sim::to_seconds(kRefreshInterval);
  result.per_node_pkts =
      static_cast<double>(
          metrics.counter_value(obs::Protocol::kNet, "rx_messages")) /
      window_s / nodes;
  result.per_node_kbps =
      static_cast<double>(
          metrics.counter_value(obs::Protocol::kNet, "rx_wire_bytes")) /
      window_s / nodes / 1e3;
  const double ae_bytes = static_cast<double>(anti_entropy_tx_bytes(metrics));
  result.ae_bytes_per_node_per_s = ae_bytes / window_s / nodes;
  result.ae_bytes_per_node_per_round = ae_bytes / rounds / nodes;

  // One failure in the middle of the cluster.
  size_t victim_index = static_cast<size_t>(nodes / 2);
  net::HostId victim = built.layout.hosts[victim_index];
  sim::Time first = -1, last = -1;
  built.cluster->set_change_listener(
      [&](membership::NodeId subject, bool alive, sim::Time when) {
        if (subject != victim || alive) return;
        if (first < 0) first = when;
        last = when;
      });
  const sim::Time killed_at = built.sim->now();
  built.cluster->kill(victim_index);
  built.sim->run_until(killed_at + 30 * sim::kSecond);
  if (first >= 0) result.detect_s = sim::to_seconds(first - killed_at);
  if (last >= 0) result.converge_s = sim::to_seconds(last - killed_at);
  return result;
}

void write_json(const std::string& path, uint64_t seed,
                const std::vector<RunResult>& results) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open --json=%s\n", path.c_str());
    return;
  }
  std::fprintf(out, "{\n  \"bench\": \"scale_limits\",\n");
  std::fprintf(out, "  \"seed\": %llu,\n",
               static_cast<unsigned long long>(seed));
  std::fprintf(out, "  \"window_s\": %.1f,\n", sim::to_seconds(kWindow));
  std::fprintf(out, "  \"refresh_interval_s\": %.1f,\n",
               sim::to_seconds(kRefreshInterval));
  std::fprintf(out, "  \"results\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const RunResult& r = results[i];
    std::fprintf(
        out,
        "    {\"nodes\": %d, \"formed_s\": %.2f,"
        " \"per_node_pkts_per_s\": %.2f, \"per_node_kbps\": %.3f,"
        " \"anti_entropy_bytes_per_node_per_s\": %.2f,"
        " \"anti_entropy_bytes_per_node_per_round\": %.1f,"
        " \"detect_s\": %.2f, \"converge_s\": %.2f}%s\n",
        r.nodes, r.formed_s, r.per_node_pkts, r.per_node_kbps,
        r.ae_bytes_per_node_per_s, r.ae_bytes_per_node_per_round, r.detect_s,
        r.converge_s, i + 1 < results.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
}

}  // namespace

int main(int argc, char** argv) {
  util::FlagSet flags("scale_limits");
  auto& max_nodes = flags.add_int("max-nodes", 10000, "largest cluster");
  auto& seed = flags.add_int("seed", 7, "rng seed");
  auto& json_flag = flags.add_string(
      "json", "", "write machine-readable results to this file");
  flags.parse(argc, argv);

  std::printf("Scale sweep — hierarchical protocol, networks of 20\n\n");
  std::printf("%8s %10s %14s %14s %16s %10s %10s\n", "nodes", "formed s",
              "per-node pkt/s", "per-node KB/s", "AE B/node/round",
              "detect s", "converge s");

  std::vector<RunResult> results;
  for (int nodes : {100, 200, 500, 1000, 2000, 5000, 10000}) {
    if (nodes > static_cast<int>(max_nodes)) break;
    RunResult r = run_one(nodes, static_cast<uint64_t>(seed));
    results.push_back(r);
    std::printf("%8d %10.1f %14.1f %14.2f %16.1f %10.2f %10.2f\n", r.nodes,
                r.formed_s, r.per_node_pkts, r.per_node_kbps,
                r.ae_bytes_per_node_per_round, r.detect_s, r.converge_s);
    if (r.formed_s < 0) {
      std::fprintf(stderr, "cluster of %d never converged\n", nodes);
      return 1;
    }
  }

  if (!json_flag.empty()) {
    write_json(json_flag, static_cast<uint64_t>(seed), results);
  }
  std::printf(
      "\nshape check: per-node traffic stays ~constant (the whole point of"
      " topology-scoped groups); digest anti-entropy keeps its bytes per"
      " node ~flat as the view grows\n");
  return 0;
}
