// Application traffic layer: a deterministic open-loop workload generator
// (the paper's Neptune user requests) driven over each node's live
// ServiceConsumer + directory view while chaos plans run underneath.
//
// Every node runs a consumer issuing Poisson-arrival requests against a
// replicated (service, partition) set hosted by ServiceProviders placed
// round-robin across the cluster. The driver grades what each failure cost
// users — misroutes to dead replicas, retry amplification, proxy-fallback
// rate, and tail latency — bucketed into three scenario phases (pre-fault,
// fault window, heal window) by request *start* time.
//
// Determinism contract: arrivals draw from the driver's own seeded Rng (the
// simulation executes events single-threaded in deterministic order), all
// accounting is integer-valued, and report_json() renders integers only —
// so a scenario's SLO report is byte-identical across same-seed runs at any
// parallel-runner worker count.
#pragma once

#include <array>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "protocols/cluster.h"
#include "service/consumer.h"
#include "service/provider.h"
#include "util/rng.h"

namespace tamp::workload {

// The workload every node runs: kPartitions partitions of one service,
// each on kReplicas providers.
inline constexpr char kServiceName[] = "app";
inline constexpr int kPartitions = 4;
inline constexpr int kReplicas = 2;
// Open-loop arrival rate per consumer node (requests/second). Open loop:
// arrivals never wait for completions, so a slow system accumulates
// latency instead of silently shedding offered load.
inline constexpr double kRequestsPerSec = 25.0;
inline constexpr uint32_t kRequestBytes = 64;
inline constexpr uint32_t kResponseBytes = 256;
inline constexpr sim::Duration kProviderServiceTime = 2 * sim::kMillisecond;
inline constexpr int kProviderConcurrency = 4;
inline constexpr size_t kProviderMaxQueue = 256;

// Scenario phases, classified by request start time.
inline constexpr int kPhaseCount = 3;
const char* phase_name(int phase);  // "pre" | "fault" | "heal"

// Per-phase SLO aggregate. Counts partition a phase's issued requests
// exactly: issued == ok + failed + aborted + unresolved.
struct PhaseSlo {
  uint64_t issued = 0;
  uint64_t ok = 0;
  uint64_t failed = 0;      // callback fired with a failure cause
  uint64_t aborted = 0;     // consumer torn down (node crash) mid-flight
  uint64_t unresolved = 0;  // still in flight at report time
  uint64_t attempts = 0;    // dispatch attempts over completed requests
  uint64_t misroutes = 0;   // directory rows acted on that pointed at a
                            //   non-serving replica
  uint64_t via_proxy = 0;   // completions that took the WAN relay path
  std::array<uint64_t, service::kFailureCauseCount> failed_by_cause{};
  // Exact-rank percentiles over successful latencies, ns; -1 when empty.
  int64_t p50_ns = -1;
  int64_t p99_ns = -1;
  int64_t p999_ns = -1;
  int64_t max_ns = -1;
};

class WorkloadDriver {
 public:
  // The cluster's daemons must exist (construction) but arrivals only begin
  // after start(), and none before `warmup`, which leaves the directory
  // time to converge so the pre-fault phase measures a healthy system.
  // `seed` feeds the arrival process; scenario runners pass the scenario
  // seed so the workload is part of the reproduction tuple.
  WorkloadDriver(sim::Simulation& sim, net::Network& net,
                 protocols::Cluster& cluster, sim::Duration warmup,
                 uint64_t seed);
  ~WorkloadDriver();

  WorkloadDriver(const WorkloadDriver&) = delete;
  WorkloadDriver& operator=(const WorkloadDriver&) = delete;

  // Phase boundaries: [0, fault_start) = pre, [fault_start, heal_start) =
  // fault, [heal_start, inf) = heal. Defaults put everything in "pre".
  void set_phase_bounds(sim::Time fault_start, sim::Time heal_start);

  // Create providers/consumers, register services, schedule first arrivals
  // (at warmup + an exponential gap). Call after the cluster's
  // daemons have been started.
  void start();
  // Stop issuing new arrivals; in-flight requests keep running so the tail
  // can drain before the horizon.
  void quiesce();
  // Tear everything down. In-flight requests count as aborted.
  void stop();

  // Scenario-runner hooks mirroring Cluster::kill / Cluster::restart.
  // Cluster::restart *replaces* the daemon object, so the node's provider
  // and consumer (which hold references into it) must be rebuilt, not
  // merely restarted.
  void note_kill(size_t index);
  void note_restart(size_t index);

  uint64_t issued() const { return issued_total_; }
  bool started() const { return started_; }

  // Aggregated per-phase SLO (kPhaseCount entries). Requests still in
  // flight are reported as unresolved under their start phase.
  std::vector<PhaseSlo> report() const;
  // Deterministic single-line JSON rendering of report(): integer fields
  // only, byte-identical across same-seed runs.
  std::string report_json() const;

 private:
  struct Agent {
    std::unique_ptr<service::ServiceProvider> provider;
    std::vector<int> hosted_partitions;  // replayed on rebuild after restart
    std::unique_ptr<service::ServiceConsumer> consumer;
    sim::EventId arrival = sim::kInvalidEventId;
    std::array<uint64_t, kPhaseCount> inflight{};
    // Registry handles (per node), resolved once.
    obs::Counter* issued = nullptr;
    obs::Counter* ok = nullptr;
    obs::Counter* failed = nullptr;
    obs::Counter* attempts = nullptr;
    obs::Counter* misroutes = nullptr;
    obs::Counter* proxy_fallbacks = nullptr;
    obs::Histogram* latency = nullptr;
  };

  int phase_of(sim::Time at) const;
  void build_agent(size_t index);
  void teardown_agent(size_t index, bool count_aborted);
  void schedule_arrival(size_t index);
  void fire(size_t index);
  void on_complete(size_t index, int phase,
                   const service::InvokeResult& result);

  sim::Simulation& sim_;
  net::Network& net_;
  protocols::Cluster& cluster_;
  sim::Duration warmup_;
  util::Rng rng_;
  bool started_ = false;
  bool accepting_ = false;
  sim::Time fault_start_ = std::numeric_limits<sim::Time>::max();
  sim::Time heal_start_ = std::numeric_limits<sim::Time>::max();
  std::vector<Agent> agents_;
  uint64_t issued_total_ = 0;
  std::array<PhaseSlo, kPhaseCount> phases_{};
  // Successful latencies per phase (ns), for exact-rank percentiles.
  std::array<std::vector<int64_t>, kPhaseCount> latencies_;
};

}  // namespace tamp::workload
