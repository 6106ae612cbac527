// perfbench driver: runs one benchmark workload in this (single-threaded)
// process and prints one JSON object per repetition on stdout.
//
//   perfbench_driver --workload=chaos-grid --seed=3 --seconds=15
//   perfbench_driver --workload=slo-36 --setup-only
//
// Workloads (see perfbench/README.md for why each was chosen):
//   scale-500   hierarchical scheme, 500 nodes on the paper's racked layout
//               (networks of 20, 228-B heartbeat pad, default HierConfig).
//               Set-up: build + formation. Timed: 60 sim-s of steady state,
//               kill node 250, 30 more sim-s.
//   chaos-grid  chaos::full_matrix for seeds 1-3 at 12 nodes (270 scenarios).
//   slo-36      3 schemes x {crash-restart, loss-storm, leader-kill,
//               join-storm, router-flap} on the racked shape at 36 nodes,
//               seed 1, SLO mode (14 applicable scenarios).
//
// The simulations are fixed: every repetition of a workload runs the same
// deterministic experiments, so its fingerprint (a hash over every simulated
// output) must repeat exactly. `--seed` only permutes the order in which
// the independent scenarios of chaos-grid and slo-36 run; the fingerprint
// is taken in canonical order and so does not depend on it.
//
// Repetitions run until `--seconds` of host time have been spent in them
// (at least one). `--setup-only` stops after set-up: spec construction, or
// for scale-500 the cluster's build and formation. Between units of work
// the driver runs short slices of a fixed reference kernel (see Reference)
// and reports their time apart from the workload's; `--no-reference` turns
// them off for the profiled pass. Each output line carries the
// repetition's host times, simulated outcomes, registry counters, spans and
// fingerprint; the Python front end (perfbench/run.py) reduces them to the
// reported metrics.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory_resource>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "net/builders.h"
#include "net/transport.h"
#include "obs/obs.h"
#include "protocols/cluster.h"
#include "sim/scenario.h"
#include "sim/simulation.h"

namespace perfbench {

using namespace tamp;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// 64-bit FNV-1a, the same construction the protocols use for row hashes.
class Fingerprint {
 public:
  void add(std::string_view bytes) {
    for (unsigned char c : bytes) {
      hash_ ^= c;
      hash_ *= 0x100000001b3ULL;
    }
    add_separator();
  }
  void add(uint64_t value) { add(std::to_string(value)); }
  void add_signed(int64_t value) { add(std::to_string(value)); }
  uint64_t value() const { return hash_; }
  std::string hex() const {
    char buffer[17];
    std::snprintf(buffer, sizeof(buffer), "%016" PRIx64, hash_);
    return buffer;
  }

 private:
  void add_separator() {
    hash_ ^= 0xff;
    hash_ *= 0x100000001b3ULL;
  }
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

// One repetition's results, rendered as a flat JSON object.
struct Rep {
  double setup_s = 0;  // in-process set-up (scale-500 build + formation)
  double wall_s = 0;   // host seconds of the timed part
  double sim_s = 0;    // simulated seconds covered by the timed part
  // Host seconds in reference slices (excluded from setup_s and wall_s)
  // during the timed part and during set-up.
  double reference_s = 0;
  uint64_t reference_slices = 0;
  double setup_reference_s = 0;
  uint64_t setup_reference_slices = 0;
  uint64_t ops = 0;
  uint64_t ops_failed = 0;
  std::vector<std::string> errors;     // broken output identities
  std::vector<std::string> failures;   // failed ops (oracle verdicts)
  std::map<std::string, double> outputs;   // simulated outcomes
  std::map<std::string, double> counters;  // registry + sim work counts
  std::map<std::string, double> spans;     // host seconds per span
  std::string fingerprint;
};

std::string json_escape(std::string_view text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string json_map(const std::map<std::string, double>& values) {
  std::string out = "{";
  for (const auto& [key, value] : values) {
    if (out.size() > 1) out += ",";
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    out += "\"" + json_escape(key) + "\":" + buffer;
  }
  return out + "}";
}

std::string json_list(const std::vector<std::string>& items) {
  std::string out = "[";
  for (const std::string& item : items) {
    if (out.size() > 1) out += ",";
    out += "\"" + json_escape(item) + "\"";
  }
  return out + "]";
}

// The process's resident-set high-water mark. Read from VmHWM rather than
// getrusage: ru_maxrss keeps the pre-exec high-water of the process that
// spawned the driver.
double peak_rss_mb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0;
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::strtod(line + 6, nullptr);
    }
  }
  std::fclose(status);
  return kib / 1024.0;
}

// Each line also carries the process's resident-set high-water mark so far:
// after the first repetition it covers one pass of the workload, whatever
// the number of repetitions that follow.
void print_rep(const std::string& workload, size_t index, const Rep& rep) {
  char head[320];
  std::snprintf(head, sizeof(head),
                "{\"workload\":\"%s\",\"rep\":%zu,\"setup_s\":%.9f,"
                "\"wall_s\":%.9f,\"sim_s\":%.9f,\"reference_s\":%.9f,"
                "\"reference_slices\":%" PRIu64 ",\"setup_reference_s\":%.9f,"
                "\"setup_reference_slices\":%" PRIu64 ",\"ops\":%" PRIu64
                ",\"ops_failed\":%" PRIu64 ",\"peak_rss_mb\":%.3f,",
                workload.c_str(), index, rep.setup_s, rep.wall_s, rep.sim_s,
                rep.reference_s, rep.reference_slices, rep.setup_reference_s,
                rep.setup_reference_slices, rep.ops, rep.ops_failed,
                peak_rss_mb());
  std::string line = head;
  line += "\"fingerprint\":\"" + rep.fingerprint + "\",";
  line += "\"errors\":" + json_list(rep.errors) + ",";
  line += "\"failures\":" + json_list(rep.failures) + ",";
  line += "\"outputs\":" + json_map(rep.outputs) + ",";
  line += "\"counters\":" + json_map(rep.counters) + ",";
  line += "\"spans\":" + json_map(rep.spans) + "}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

// --- host-speed reference ---------------------------------------------------
//
// Host speed on a shared machine drifts in plateaus of tens of seconds, and
// the simulator drifts with it: most of its time goes to the allocator,
// ordered containers and memmove, which other tenants' cache and memory
// traffic slow down. A fixed kernel of the same kind, run in short slices
// between units of work, sees the same drift, so the front end can scale
// host times to the kernel's nominal speed. The kernel's code and memory
// belong to the benchmark: nothing the program under test does changes its
// speed.
class Reference {
 public:
  // Accounts `workload_s` host seconds of work and runs one slice per
  // kEvery seconds of work, so each stretch of work weighs in proportion
  // to its length.
  void pace(double workload_s) {
    if (!enabled_) return;
    for (owed_s_ += workload_s; owed_s_ >= kEvery; owed_s_ -= kEvery) {
      total_s_ += slice();
      ++slices_;
    }
  }
  double total_s() const { return total_s_; }
  uint64_t slices() const { return slices_; }
  // The profiled pass runs without slices, so the kernel's samples do not
  // mix into the program's profile.
  void disable() { enabled_ = false; }

 private:
  static constexpr double kEvery = 0.5;
  static constexpr int kRounds = 48;
  static constexpr int kKeys = 1000;

  double slice() {
    const auto start = Clock::now();
    // Its own memory: the program's heap cannot change the kernel's
    // allocation costs, and its resident size is the same on every run.
    std::pmr::monotonic_buffer_resource arena(arena_.data(), arena_.size());
    std::pmr::unsynchronized_pool_resource pool(&arena);
    std::pmr::vector<uint64_t> heap(&pool);
    heap.reserve(kKeys);
    uint64_t sum = 0;
    char text[48];
    for (int round = 0; round < kRounds; ++round) {
      std::pmr::map<std::pmr::string, std::pmr::string> table(&pool);
      for (int i = 0; i < kKeys; ++i) {
        const int key = (i * 7919 + round) % kKeys;
        std::snprintf(text, sizeof(text), "row-%06d-of-the-reference", key);
        const std::pmr::string name(text, &pool);
        std::pmr::string& value = table[name];
        value.assign(name);
        value.append(name);
        heap.push_back(static_cast<uint64_t>(key) * 2654435761u);
        std::push_heap(heap.begin(), heap.end());
      }
      while (!heap.empty()) {
        std::pop_heap(heap.begin(), heap.end());
        sum += heap.back() & 0xff;
        heap.pop_back();
      }
      for (const auto& [name, value] : table) sum += value.size() + name[4];
    }
    sink_ = sum;
    return since(start);
  }

  // Zero-filled up front, so it is resident from the start. Sized with
  // room to spare: a slice needs about 400 KiB.
  std::vector<std::byte> arena_ = std::vector<std::byte>(768 << 10);
  bool enabled_ = true;
  double owed_s_ = 0;
  double total_s_ = 0;
  uint64_t slices_ = 0;
  volatile uint64_t sink_ = 0;  // keeps the kernel's work observable
};

// --- registry snapshot parsing ---------------------------------------------
//
// run_scenario hands the registry back only as MetricsRegistry::to_json(),
// whose layout is fixed: {"counters":[{"proto":P,"name":N,"node":K,
// "value":V},...],"gauges":[...],"histograms":[{...,"count":C,...}]}.
// Totals are keyed "proto.name": the network-wide (node -1) cell when the
// metric has one, otherwise the sum over nodes. Histograms contribute
// their sample count and sum as "proto.name.count" / "proto.name.sum".
std::map<std::string, double> registry_totals(std::string_view json) {
  std::map<std::string, double> aggregate;  // node -1 cells
  std::map<std::string, double> per_node;   // sums over real nodes
  const size_t gauges_at = json.find("\"gauges\":[");
  const size_t histograms_at = json.find("\"histograms\":[");
  auto field = [&](size_t from, std::string_view key) -> std::string_view {
    const size_t at = json.find(key, from);
    if (at == std::string_view::npos) return {};
    size_t begin = at + key.size();
    size_t end = begin;
    if (json[begin] == '"') {
      ++begin;
      end = json.find('"', begin);
    } else {
      while (end < json.size() && json[end] != ',' && json[end] != '}') {
        ++end;
      }
    }
    return json.substr(begin, end - begin);
  };
  size_t at = 0;
  while ((at = json.find("{\"proto\":", at)) != std::string_view::npos) {
    const bool histogram = at > histograms_at;
    const bool gauge = !histogram && at > gauges_at;
    const size_t end = json.find('}', at);
    std::string key = std::string(field(at, "\"proto\":")) + "." +
                      std::string(field(at, "\"name\":"));
    const bool total = field(at, "\"node\":") == "-1";
    auto number = [&](std::string_view name) {
      return std::strtod(std::string(field(at, name)).c_str(), nullptr);
    };
    std::map<std::string, double>& into = total ? aggregate : per_node;
    if (histogram) {
      const double count = number("\"count\":");
      into[key + ".count"] += count;
      into[key + ".sum"] += count * number("\"mean\":");
    } else if (!gauge) {
      into[key] += number("\"value\":");
    }
    at = end;
  }
  for (const auto& [key, value] : per_node) aggregate.try_emplace(key, value);
  return aggregate;
}

// Registry counters the benchmark reports per layer, by "proto.name".
const char* kReportedCounters[] = {
    "net.tx_messages",
    "net.tx_wire_bytes",
    "net.rx_messages",
    "net.rx_multicast_messages",
    "hier.bootstraps_served",
    "hier.image_serve_entries.sum",
    "hier.elections_started",
    "hier.updates_sent",
    "hier.digests_sent",
    "hier.update_records_applied",
    "workload.requests_issued",
    "workload.request_attempts",
};

void add_counters(const std::map<std::string, double>& totals, Rep& rep) {
  for (const char* name : kReportedCounters) {
    const auto it = totals.find(name);
    rep.counters[name] += it == totals.end() ? 0.0 : it->second;
  }
}

// --- scale-500 --------------------------------------------------------------

constexpr int kScaleNodes = 500;
constexpr int kScaleNetwork = 20;  // the paper's networks of twenty
constexpr size_t kScaleVictim = 250;
constexpr uint64_t kScaleSeed = 1;
constexpr sim::Duration kScalePoll = 500 * sim::kMillisecond;
constexpr sim::Time kScaleFormationLimit = 180 * sim::kSecond;
constexpr sim::Duration kScaleSteady = 60 * sim::kSecond;
constexpr sim::Duration kScaleAfterKill = 30 * sim::kSecond;

// The conservation identities run_scenario grades, restated for a cluster
// the benchmark drives itself: per-host sums equal the network totals, and
// the per-kind attribution decomposes them.
void check_net_identities(const obs::MetricsRegistry& m, Rep& rep) {
  for (const char* name : {"tx_messages", "tx_wire_bytes", "rx_messages",
                           "rx_wire_bytes", "rx_multicast_messages"}) {
    const uint64_t total = m.counter_value(obs::Protocol::kNet, name);
    const uint64_t hosts = m.counter_sum_over_nodes(obs::Protocol::kNet, name);
    if (total != hosts) {
      rep.errors.push_back(std::string("per-host ") + name +
                           " != network total");
    }
  }
  if (m.counter_value(obs::Protocol::kNet, "tx_messages") !=
      m.counter_prefix_sum(obs::Protocol::kNet, "tx_kind_")) {
    rep.errors.push_back("per-kind tx != tx_messages");
  }
  if (m.counter_value(obs::Protocol::kNet, "tx_wire_bytes") !=
      m.counter_prefix_sum(obs::Protocol::kNet, "tx_bytes_kind_")) {
    rep.errors.push_back("per-kind tx bytes != tx_wire_bytes");
  }
}

// Runs `sim` to `until` in host-timed steps of `step`, pacing the reference
// between steps. Returns the host seconds spent simulating. Splitting
// run_until changes nothing simulated: events at a step's deadline run in
// that step.
double run_paced(sim::Simulation& sim, sim::Time until, sim::Duration step,
                 Reference& reference) {
  double spent = 0;
  while (sim.now() < until) {
    const auto start = Clock::now();
    sim.run_until(std::min(until, sim.now() + step));
    const double piece = since(start);
    spent += piece;
    reference.pace(piece);
  }
  return spent;
}

// Builds and forms the cluster, then (unless `setup_only`) runs the timed
// part on it. A set-up-only repetition reports set-up time and formation
// only. Host times exclude the reference's slices.
Rep run_scale(bool setup_only, Reference& reference) {
  Rep rep;
  rep.ops = 1;
  // Reference slices of the set-up and the timed part are kept apart, so
  // each is scaled by the host speed of its own stretch of time.
  double reference_mark = reference.total_s();
  uint64_t slices_mark = reference.slices();
  auto take_reference = [&](double& seconds, uint64_t& slices) {
    seconds = reference.total_s() - reference_mark;
    slices = reference.slices() - slices_mark;
    reference_mark = reference.total_s();
    slices_mark = reference.slices();
  };

  const auto build_start = Clock::now();
  sim::Simulation sim(kScaleSeed);
  net::Topology topology;
  net::RackedClusterParams params;
  params.racks = kScaleNodes / kScaleNetwork;
  params.hosts_per_rack = kScaleNetwork;
  const net::ClusterLayout layout = net::build_racked_cluster(topology, params);
  net::Network network(sim, topology);
  protocols::Cluster::Options options;
  options.scheme = protocols::Scheme::kHierarchical;
  options.heartbeat_pad = 228;  // the paper's measured per-node info size
  protocols::Cluster cluster(sim, network, layout.hosts, options);
  const double build_s = since(build_start);
  rep.spans["span.build"] = build_s;

  const net::HostId victim = layout.hosts[kScaleVictim];
  sim::Time first = -1, last = -1;
  cluster.set_change_listener(
      [&](membership::NodeId subject, bool alive, sim::Time when) {
        if (subject != victim || alive) return;
        if (first < 0) first = when;
        last = when;
      });

  double formation_s = 0, poll_s = 0;
  sim::Time formed_at = -1;
  cluster.start_all();
  while (sim.now() < kScaleFormationLimit) {
    formation_s +=
        run_paced(sim, sim.now() + kScalePoll, kScalePoll, reference);
    const auto poll_start = Clock::now();
    const bool converged = cluster.converged();
    poll_s += since(poll_start);
    if (converged) {
      formed_at = sim.now();
      break;
    }
  }
  rep.spans["span.formation"] = formation_s + poll_s;
  rep.spans["span.converged_poll"] = poll_s;
  rep.setup_s = build_s + formation_s + poll_s;
  rep.outputs["formation_s"] = formed_at < 0 ? 0 : sim::to_seconds(formed_at);
  take_reference(rep.setup_reference_s, rep.setup_reference_slices);
  if (setup_only) return rep;

  Fingerprint fp;
  obs::MetricsRegistry& metrics = network.obs().metrics;
  if (formed_at < 0) {
    rep.ops_failed = 1;
    rep.failures.push_back("scale-500: cluster never formed");
  } else {
    const uint64_t rx_before =
        metrics.counter_value(obs::Protocol::kNet, "rx_wire_bytes");
    const double steady_s = run_paced(sim, formed_at + kScaleSteady,
                                      sim::kSecond, reference);
    const uint64_t rx_steady =
        metrics.counter_value(obs::Protocol::kNet, "rx_wire_bytes") -
        rx_before;
    rep.spans["span.steady"] = steady_s;

    const auto kill_start = Clock::now();
    const sim::Time killed_at = sim.now();
    cluster.kill(kScaleVictim);
    const double failure_s =
        since(kill_start) +
        run_paced(sim, killed_at + kScaleAfterKill, sim::kSecond, reference);
    rep.spans["span.failure"] = failure_s;
    rep.wall_s = steady_s + failure_s;
    rep.sim_s = sim::to_seconds(sim.now() - formed_at);

    const bool dropped = cluster.converged() && first >= 0;
    if (!dropped) {
      rep.ops_failed = 1;
      rep.failures.push_back(
          "scale-500: victim not dropped from every surviving view");
    }
    rep.outputs["detect_s"] =
        first < 0 ? 0 : sim::to_seconds(first - killed_at);
    rep.outputs["converge_s"] =
        last < 0 ? 0 : sim::to_seconds(last - killed_at);
    rep.outputs["kbps_per_node"] = static_cast<double>(rx_steady) /
                                   sim::to_seconds(kScaleSteady) /
                                   kScaleNodes / 1e3;
    fp.add_signed(formed_at);
    fp.add_signed(first < 0 ? -1 : first - killed_at);
    fp.add_signed(last < 0 ? -1 : last - killed_at);
    fp.add(rx_steady);
  }
  take_reference(rep.reference_s, rep.reference_slices);
  check_net_identities(metrics, rep);
  const std::string snapshot = metrics.to_json();
  add_counters(registry_totals(snapshot), rep);
  rep.counters["sim.events"] = static_cast<double>(sim.events_executed());
  fp.add(sim.events_executed());
  fp.add(snapshot);
  rep.fingerprint = fp.hex();
  return rep;
}

// --- chaos-grid and slo-36 ---------------------------------------------------

std::vector<chaos::ScenarioSpec> grid_specs() {
  chaos::MatrixOptions options;
  options.first_seed = 1;
  options.seed_count = 3;
  options.nodes = 12;
  options.metrics = true;
  return chaos::full_matrix(options);
}

std::vector<chaos::ScenarioSpec> slate_specs() {
  const protocols::Scheme schemes[] = {protocols::Scheme::kAllToAll,
                                       protocols::Scheme::kGossip,
                                       protocols::Scheme::kHierarchical};
  const chaos::PlanKind plans[] = {
      chaos::PlanKind::kCrashRestart, chaos::PlanKind::kLossStorm,
      chaos::PlanKind::kLeaderKill, chaos::PlanKind::kJoinStorm,
      chaos::PlanKind::kRouterFlap};
  std::vector<chaos::ScenarioSpec> specs;
  for (protocols::Scheme scheme : schemes) {
    for (chaos::PlanKind plan : plans) {
      if (!chaos::plan_applicable(scheme, plan)) continue;
      chaos::ScenarioSpec spec;
      spec.scheme = scheme;
      spec.shape = chaos::ShapeKind::kRacked;
      spec.plan = plan;
      spec.seed = 1;
      spec.nodes = 36;
      spec.slo = true;
      spec.metrics = true;
      specs.push_back(spec);
    }
  }
  return specs;
}

// The SLO accounting identity: every issued request of a phase ends in
// exactly one of ok / failed / aborted / unresolved.
bool slo_identity_holds(const workload::PhaseSlo& phase) {
  return phase.issued ==
         phase.ok + phase.failed + phase.aborted + phase.unresolved;
}

// Per-scheme span names: "protocols.hier_s" and friends.
const char* scheme_span(protocols::Scheme scheme) {
  switch (scheme) {
    case protocols::Scheme::kAllToAll:
      return "protocols.alltoall_s";
    case protocols::Scheme::kGossip:
      return "protocols.gossip_s";
    case protocols::Scheme::kHierarchical:
      return "protocols.hier_s";
  }
  return "protocols.other_s";
}

Rep run_scenarios(const std::vector<chaos::ScenarioSpec>& specs,
                  const std::vector<size_t>& order, Reference& reference) {
  Rep rep;
  const double reference_before = reference.total_s();
  const uint64_t slices_before = reference.slices();
  rep.ops = specs.size();
  for (const char* scheme_key :
       {"protocols.alltoall_s", "protocols.gossip_s", "protocols.hier_s"}) {
    rep.spans[scheme_key] = 0;
  }
  std::vector<uint64_t> scenario_hashes(specs.size());
  uint64_t events = 0, oracle_checks = 0;
  double sim_s = 0, node_seconds = 0, rx_bytes = 0;
  uint64_t fault_issued = 0, fault_ok = 0, fault_misroutes = 0;
  std::vector<double> fault_p99_ms;
  bool slo = false;

  for (size_t index : order) {
    const chaos::ScenarioSpec& spec = specs[index];
    const auto scenario_start = Clock::now();
    const chaos::ScenarioResult result = chaos::run_scenario(spec);
    const double scenario_s = since(scenario_start);
    rep.wall_s += scenario_s;  // the benchmark's own bookkeeping is untimed
    reference.pace(scenario_s);
    rep.spans[scheme_span(spec.scheme)] += scenario_s;
    const std::string scenario_span = std::string("span.scenario.") +
                                      protocols::scheme_name(spec.scheme) +
                                      "/" + chaos::plan_name(spec.plan);
    rep.spans[scenario_span] += scenario_s;

    if (!result.passed) {
      ++rep.ops_failed;
      rep.failures.push_back(result.name);
    }
    if (result.report.find("metrics-conservation") != std::string::npos) {
      rep.errors.push_back(result.name + ": conservation identity broken");
    }
    events += result.events;
    oracle_checks += result.oracle_checks;
    const double horizon_s = sim::to_seconds(result.horizon);
    sim_s += horizon_s;
    node_seconds += horizon_s * static_cast<double>(spec.nodes);
    const std::map<std::string, double> totals =
        registry_totals(result.metrics_json);
    const auto rx = totals.find("net.rx_wire_bytes");
    if (rx != totals.end()) rx_bytes += rx->second;
    add_counters(totals, rep);

    if (spec.slo) {
      slo = true;
      if (result.slo_phases.size() != workload::kPhaseCount) {
        rep.errors.push_back(result.name + ": missing SLO phases");
      }
      for (const workload::PhaseSlo& phase : result.slo_phases) {
        if (!slo_identity_holds(phase)) {
          rep.errors.push_back(result.name + ": SLO identity broken");
        }
      }
      if (result.slo_phases.size() == workload::kPhaseCount) {
        const workload::PhaseSlo& fault = result.slo_phases[1];
        fault_issued += fault.issued;
        fault_ok += fault.ok;
        fault_misroutes += fault.misroutes;
        if (fault.p99_ns >= 0) {
          fault_p99_ms.push_back(static_cast<double>(fault.p99_ns) / 1e6);
        }
      }
    }

    Fingerprint fp;
    fp.add(result.name);
    fp.add(result.passed ? 1 : 0);
    fp.add(result.violation_count);
    fp.add(result.oracle_checks);
    fp.add_signed(result.horizon);
    fp.add(result.events);
    fp.add(result.final_converged);
    fp.add(result.final_running);
    fp.add(result.metrics_json);
    fp.add(result.slo_json);
    scenario_hashes[index] = fp.value();
  }
  rep.sim_s = sim_s;
  rep.reference_s = reference.total_s() - reference_before;
  rep.reference_slices = reference.slices() - slices_before;

  Fingerprint fp;
  for (uint64_t hash : scenario_hashes) fp.add(hash);
  rep.fingerprint = fp.hex();
  rep.counters["sim.events"] = static_cast<double>(events);
  rep.counters["protocols.oracle_checks"] = static_cast<double>(oracle_checks);
  rep.outputs["kbps_per_node"] = rx_bytes / node_seconds / 1e3;
  if (slo) {
    const double issued = static_cast<double>(fault_issued);
    rep.outputs["ok_rate"] = issued > 0 ? fault_ok / issued : 0;
    rep.outputs["misroutes_per_kreq"] =
        issued > 0 ? 1e3 * fault_misroutes / issued : 0;
    std::sort(fault_p99_ms.begin(), fault_p99_ms.end());
    const size_t n = fault_p99_ms.size();
    rep.outputs["fault_p99_ms"] =
        n == 0 ? 0
               : (n % 2 == 1 ? fault_p99_ms[n / 2]
                             : (fault_p99_ms[n / 2 - 1] + fault_p99_ms[n / 2]) /
                                   2);
  }
  return rep;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver"
               " --workload=scale-500|chaos-grid|slo-36 [--seed=N]"
               " [--seconds=S] [--setup-only] [--no-reference]\n",
               why);
  return 2;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload;
  uint64_t seed = 1;
  double seconds = 0;
  bool setup_only = false;
  bool use_reference = true;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.starts_with("--workload=")) {
      workload = arg.substr(11);
    } else if (arg.starts_with("--seed=")) {
      seed = std::strtoull(argv[i] + 7, nullptr, 10);
    } else if (arg.starts_with("--seconds=")) {
      seconds = std::strtod(argv[i] + 10, nullptr);
    } else if (arg == "--setup-only") {
      setup_only = true;
    } else if (arg == "--no-reference") {
      use_reference = false;
    } else {
      return usage("unknown argument");
    }
  }
  if (workload != "scale-500" && workload != "chaos-grid" &&
      workload != "slo-36") {
    return usage("unknown workload");
  }

  std::vector<chaos::ScenarioSpec> specs;
  std::vector<size_t> order;
  if (workload != "scale-500") {
    specs = workload == "chaos-grid" ? grid_specs() : slate_specs();
    order.resize(specs.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::mt19937_64 rng(seed);
    std::shuffle(order.begin(), order.end(), rng);
  }
  std::printf("{\"ready\":true,\"scenarios\":%zu}\n", specs.size());
  std::fflush(stdout);
  // The scenario workloads build their clusters inside run_scenario, so
  // their set-up ends here.
  if (setup_only && workload != "scale-500") return 0;

  // Built after the ready line, so its arena is not part of set-up.
  Reference reference;
  if (!use_reference) reference.disable();
  if (setup_only) {
    const Rep rep = run_scale(true, reference);
    std::printf(
        "{\"setup_rep\":0,\"setup_s\":%.9f,\"formation_s\":%.9f,"
        "\"setup_reference_s\":%.9f,\"setup_reference_slices\":%" PRIu64
        "}\n",
        rep.setup_s, rep.outputs.at("formation_s"), rep.setup_reference_s,
        rep.setup_reference_slices);
    return 0;
  }
  double timed = 0;
  size_t reps = 0;
  do {
    const Rep rep = workload == "scale-500"
                        ? run_scale(false, reference)
                        : run_scenarios(specs, order, reference);
    print_rep(workload, reps++, rep);
    timed += rep.setup_s + rep.wall_s;
  } while (timed < seconds);
  return 0;
}
