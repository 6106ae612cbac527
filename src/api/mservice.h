// MService — the membership service library API of paper Figure 8:
//
//   class MService {
//     MService(const char *configuration);
//     void control(int cmd, void *arg);
//     int run(void);
//     int register_service(const char *name, const char *partition);
//     int update_value(const char *key, const void *value, int size);
//     int delete_value(const char *key);
//   };
//
// The simulated variant keeps those five operations with the same meaning,
// adding only what the simulation needs instead of the OS: the Simulation,
// Network, host identity, and the DirectoryStore that stands in for shared
// memory. `run()` spins up the hierarchical daemon (the paper's
// Announcer / Receiver / StatusTracker / Informer / Contender threads are
// the daemon's timers and handlers in the event-driven world).
#pragma once

#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "api/config.h"
#include "api/directory_store.h"
#include "api/status.h"
#include "protocols/hier.h"

namespace tamp::api {

// --- control surface ---------------------------------------------------------
//
// The paper's `control(int cmd, void *arg)` as one typed request per job.
// Parameter changes (the three Set* requests) must precede run() and are
// validated like the configuration file; LeadershipQuery, MetricsQuery and
// SloQuery read the live daemon and are refused before run(); TraceControl
// drives the Network's tracer at any time. Every rejection is a Status in
// the response, never an assert.

struct SetFrequencyRequest {
  double heartbeats_per_second = 1.0;  // MCAST_FREQ
};
struct SetMaxLossRequest {
  int consecutive_losses = 5;  // MAX_LOSS
};
struct SetMaxTtlRequest {
  int max_ttl = 4;  // formation TTL ceiling
};
// Snapshot the daemon's per-level leadership view.
struct LeadershipQuery {};

// Read every one of this node's hierarchical-protocol counters whose name
// matches the filter — the digest-round anti-entropy counters included. An
// oversized filter is rejected.
struct MetricsQuery {
  std::string name_filter;  // substring match; empty = all (<= 256 chars)
};

// Upper bound on the trace ring a service may configure (2^22 events ≈
// 160 MiB of TraceEvent) — large enough for any soak, small enough that a
// typo'd capacity cannot exhaust memory.
inline constexpr size_t kMaxTraceCapacity = size_t{1} << 22;

// Reconfigure the network's structured tracer — the one way a service sets
// it up. Works before or after run() (the tracer lives on the Network, not
// the daemon).
struct TraceControl {
  bool enable = true;
  size_t capacity = size_t{1} << 16;           // in [1, kMaxTraceCapacity]
  uint64_t kinds_mask = obs::kAllTraceKinds;   // subset of kAllTraceKinds
};

// Read this node's application-workload counters and its success-latency
// distribution. Percentiles are exact ranks over the recorded samples.
struct SloQuery {};

using ControlRequest =
    std::variant<SetFrequencyRequest, SetMaxLossRequest, SetMaxTtlRequest,
                 LeadershipQuery, MetricsQuery, TraceControl, SloQuery>;

// One level of the hierarchy as the local daemon sees it.
struct LeadershipInfo {
  int level = 0;
  bool joined = false;
  bool is_leader = false;
  membership::NodeId leader = membership::kInvalidNode;
  membership::NodeId backup = membership::kInvalidNode;
  // Highest leadership epoch known for the level (the node's own minted
  // epoch where is_leader).
  membership::Epoch epoch = 0;
};

// One named counter value from a MetricsQuery.
struct MetricValue {
  std::string name;
  uint64_t value = 0;
};

// This node's workload counters, from an SloQuery. All zero when the node
// runs no workload (the counters simply don't exist).
struct WorkloadStats {
  uint64_t requests_issued = 0;
  uint64_t requests_ok = 0;
  uint64_t requests_failed = 0;
  uint64_t request_attempts = 0;
  uint64_t misroutes = 0;
  uint64_t proxy_fallbacks = 0;
};

// The node's success-latency distribution, from an SloQuery. Nanosecond
// percentiles are -1 when no sample has been recorded.
struct SloStats {
  uint64_t latency_samples = 0;
  int64_t p50_ns = -1;
  int64_t p99_ns = -1;
  int64_t p999_ns = -1;
  int64_t max_ns = -1;
};

struct ControlResponse {
  Status status;
  // Filled for LeadershipQuery (empty otherwise):
  membership::Incarnation incarnation = 0;  // the node's own incarnation
  std::vector<LeadershipInfo> leadership;   // one entry per level
  // Filled for MetricsQuery (empty otherwise), sorted by name.
  std::vector<MetricValue> metrics;
  // Filled for SloQuery (defaults otherwise).
  WorkloadStats workload;
  SloStats slo;
};

class MService {
 public:
  // Both constructors validate the configuration (the text one parses
  // the Figure-7 file first). A configuration that fails either step falls
  // back to defaults, like the paper's implementation ("if the
  // configuration file is not available, default values will be used");
  // `config_error()` reports what went wrong.
  MService(sim::Simulation& sim, net::Network& net, DirectoryStore& store,
           net::HostId self, MembershipConfig config);
  MService(sim::Simulation& sim, net::Network& net, DirectoryStore& store,
           net::HostId self, const std::string& configuration);
  ~MService();

  MService(const MService&) = delete;
  MService& operator=(const MService&) = delete;

  // Typed control: parameter requests must precede run() and are validated
  // through validate(), like the constructors; queries require a running
  // daemon. Never asserts — rejections come back in `status`.
  ControlResponse control(const ControlRequest& request);

  // Start the membership daemon, publish the directory segment, and
  // register the services from the configuration file. Returns 0 on
  // success (paper-style), -1 if already running.
  int run();
  void shutdown();

  // Returns -1, registering nothing, before run() or on a malformed
  // partition spec.
  int register_service(const std::string& name,
                       const std::string& partition_spec);
  int update_value(const std::string& key, const std::string& value);
  int delete_value(const std::string& key);

  bool running() const { return daemon_ != nullptr && daemon_->running(); }
  const std::string& config_error() const { return config_error_; }
  const MembershipConfig& config() const { return config_; }
  int shm_key() const { return config_.system.shm_key; }

  // Escape hatch for tests and composition with the proxy/service layers.
  protocols::HierDaemon& daemon();

 private:
  // Takes `config` if validate() accepts it; otherwise keeps the defaults
  // and records the reason in config_error_.
  void adopt(MembershipConfig config);

  // One handler per ControlRequest alternative, dispatched by std::visit in
  // control(): a request type without a handler does not compile.
  void handle(const SetFrequencyRequest& request, ControlResponse& response);
  void handle(const SetMaxLossRequest& request, ControlResponse& response);
  void handle(const SetMaxTtlRequest& request, ControlResponse& response);
  void handle(const LeadershipQuery& request, ControlResponse& response);
  void handle(const MetricsQuery& request, ControlResponse& response);
  void handle(const TraceControl& request, ControlResponse& response);
  void handle(const SloQuery& request, ControlResponse& response);
  // Shared steps: a parameter change validates a candidate configuration;
  // a daemon-backed query needs a running daemon.
  void apply(MembershipConfig candidate, ControlResponse& response);
  bool require_running(const char* what, ControlResponse& response) const;

  sim::Simulation& sim_;
  net::Network& net_;
  DirectoryStore& store_;
  net::HostId self_;
  MembershipConfig config_;
  std::string config_error_;
  std::unique_ptr<protocols::HierDaemon> daemon_;
};

}  // namespace tamp::api
