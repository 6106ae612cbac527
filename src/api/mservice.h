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

// --- control surface (v4) --------------------------------------------------
//
// The paper's `control(int cmd, void *arg)` became an enum + double in v1;
// v2 replaced it with typed, versioned request/response structs. v3 added
// the observability requests: MetricsQuery reads this node's registry
// counters, TraceControl drives the network's structured tracer. v4 added
// AntiEntropyQuery, reporting the digest-round economics (rows shipped vs.
// suppressed, full-image fallbacks). v5 adds the application-traffic
// queries: WorkloadQuery reads this node's workload counters (requests
// issued/ok/failed, attempts, misroutes, proxy fallbacks) and SloQuery
// additionally reports the node's success-latency distribution. The
// versioned requests carry their wire version explicitly and are rejected
// on mismatch — an older client sending a newer-only request (or a struct
// stamped with the old version) gets a Status error, never silent
// misinterpretation. Parameter changes are requests validated before
// run(); queries work on the live daemon.
inline constexpr int kControlApiVersion = 5;

struct SetFrequencyRequest {
  double heartbeats_per_second = 1.0;  // MCAST_FREQ
};
struct SetMaxLossRequest {
  int consecutive_losses = 5;  // MAX_LOSS
};
struct SetMaxTtlRequest {
  int max_ttl = 4;  // formation TTL ceiling
};
// Snapshot the daemon's per-level leadership view (requires run()).
struct LeadershipQuery {};

// Read this node's hierarchical-protocol counters from the registry
// (requires run()). Versioned: a request stamped with an older API version
// is rejected, because older clients do not know these semantics. Bounded:
// an oversized filter or result cap is rejected, not truncated silently.
struct MetricsQuery {
  int version = kControlApiVersion;
  std::string name_filter;     // substring match; empty = all (<= 256 chars)
  size_t max_results = 64;     // in [1, 4096]
};

// Reconfigure the network's structured tracer. Works before or after
// run() (the tracer lives on the Network, not the daemon). Versioned and
// bounds-checked like MetricsQuery.
struct TraceControl {
  int version = kControlApiVersion;
  bool enable = true;
  size_t capacity = size_t{1} << 16;           // in [1, kMaxTraceCapacity]
  uint64_t kinds_mask = obs::kAllTraceKinds;   // subset of kAllTraceKinds
};

// Report the digest-round anti-entropy statistics (requires run()).
// Versioned like MetricsQuery: a request stamped with an older API version
// is rejected — pre-v4 clients do not know digest rounds exist and would
// misread the stats.
struct AntiEntropyQuery {
  int version = kControlApiVersion;
};

// Read this node's application-workload counters (requires run()).
// Versioned like the other queries: pre-v5 clients do not know the
// workload layer exists.
struct WorkloadQuery {
  int version = kControlApiVersion;
};

// WorkloadQuery plus the node's success-latency distribution (requires
// run()). Percentiles are exact ranks over the recorded samples.
struct SloQuery {
  int version = kControlApiVersion;
};

using ControlRequest =
    std::variant<SetFrequencyRequest, SetMaxLossRequest, SetMaxTtlRequest,
                 LeadershipQuery, MetricsQuery, TraceControl,
                 AntiEntropyQuery, WorkloadQuery, SloQuery>;

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

// The digest-round economics this node has observed, from an
// AntiEntropyQuery. Shipped/suppressed count rows this node *served* (as a
// delta responder); pulls/deltas/fallbacks cover both roles.
struct AntiEntropyStats {
  uint64_t digests_sent = 0;
  uint64_t digest_pulls_sent = 0;
  uint64_t digest_pulls_served = 0;
  uint64_t deltas_sent = 0;
  uint64_t delta_rows_shipped = 0;
  uint64_t digest_rows_suppressed = 0;
  uint64_t digest_full_fallbacks = 0;
};

// This node's workload counters, from a WorkloadQuery or SloQuery. All
// zero when the node runs no workload (the counters simply don't exist).
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
  int version = kControlApiVersion;
  Status status;
  // Filled for LeadershipQuery (empty otherwise):
  membership::Incarnation incarnation = 0;  // the node's own incarnation
  std::vector<LeadershipInfo> leadership;   // one entry per level
  // Filled for MetricsQuery (empty otherwise), sorted by name.
  std::vector<MetricValue> metrics;
  // Filled for AntiEntropyQuery (defaults otherwise).
  AntiEntropyStats anti_entropy;
  // Filled for WorkloadQuery and SloQuery (defaults otherwise).
  WorkloadStats workload;
  // Filled for SloQuery (defaults otherwise).
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

  sim::Simulation& sim_;
  net::Network& net_;
  DirectoryStore& store_;
  net::HostId self_;
  MembershipConfig config_;
  std::string config_error_;
  // A successful TraceControl outlives run(): the static configuration's
  // trace settings are only applied when no explicit control preceded them.
  bool trace_overridden_ = false;
  std::unique_ptr<protocols::HierDaemon> daemon_;
};

}  // namespace tamp::api
