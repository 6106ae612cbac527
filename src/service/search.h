// The prototype search engine of paper Figure 1, built on the service
// plane: protocol gateways fan a query out to index-server partitions, then
// translate the matching document ids through doc-server partitions, and
// compile the final result. Used by the search-engine example and by the
// Figure 14 (proxy failover) experiment.
#pragma once

#include <memory>
#include <vector>

#include "protocols/cluster.h"
#include "service/consumer.h"
#include "service/provider.h"
#include "sim/timer.h"
#include "util/stats.h"

namespace tamp::service {

inline constexpr char kIndexService[] = "index";
inline constexpr char kDocService[] = "doc";

struct SearchParams {
  int gateways = 3;
  int index_partitions = 2;
  int doc_partitions = 3;
  int replicas = 3;
  sim::Duration index_service_time = 8 * sim::kMillisecond;
  sim::Duration doc_service_time = 5 * sim::kMillisecond;
  uint32_t query_bytes = 300;
  uint32_t index_response_bytes = 1500;
  uint32_t doc_request_bytes = 400;
  uint32_t doc_response_bytes = 3000;
};

struct QueryResult {
  bool ok = false;
  sim::Duration latency = 0;
  bool used_proxy = false;  // any leg crossed a datacenter
};

// One protocol gateway: owns a consumer and runs the two-phase query flow.
class SearchGateway {
 public:
  using Callback = std::function<void(const QueryResult&)>;

  SearchGateway(sim::Simulation& sim, net::Network& net,
                protocols::MembershipDaemon& membership,
                const SearchParams& params);

  void start() { consumer_.start(); }
  void stop() { consumer_.stop(); }
  void query(Callback callback);

  ServiceConsumer& consumer() { return consumer_; }

 private:
  struct QueryState {
    Callback callback;
    sim::Time started = 0;
    int outstanding = 0;
    bool failed = false;
    bool used_proxy = false;
  };

  void start_doc_phase(std::shared_ptr<QueryState> state);

  sim::Simulation& sim_;
  const SearchParams& params_;
  ServiceConsumer consumer_;
};

// Places the whole search service onto a cluster's hosts: the first
// `gateways` hosts become gateways; index and doc partition replicas are
// assigned round-robin over the remaining hosts (a host may serve several
// partitions when the cluster is small).
class SearchDeployment {
 public:
  SearchDeployment(sim::Simulation& sim, net::Network& net,
                   protocols::Cluster& cluster, SearchParams params);

  void start();
  void stop();

  const SearchParams& params() const { return params_; }
  std::vector<SearchGateway*> gateways();

  // Cluster indices of the nodes hosting the document service (for failure
  // injection: kill/restart these through the Cluster).
  const std::vector<size_t>& doc_nodes() const { return doc_nodes_; }

  // Re-create and start the provider on a restarted node. The Cluster must
  // have been restart()ed first (the provider binds to the fresh daemon).
  void restart_providers_on(size_t cluster_index);

 private:
  sim::Simulation& sim_;
  net::Network& net_;
  protocols::Cluster& cluster_;
  SearchParams params_;
  std::vector<std::unique_ptr<SearchGateway>> gateways_;
  std::map<size_t, std::unique_ptr<ServiceProvider>> providers_;
  std::vector<size_t> doc_nodes_;
  // (cluster index, service, partition, service time) for rebuilds.
  struct Placement {
    size_t cluster_index;
    std::string service;
    int partition;
    sim::Duration service_time;
  };
  std::vector<Placement> placements_;
};

// Open-loop Poisson query workload over a set of gateways, with per-second
// throughput / latency buckets — what Figure 14 plots.
class SearchWorkload {
 public:
  struct Bucket {
    int arrived = 0;
    int completed = 0;
    int failed = 0;
    double latency_ms_sum = 0;

    double mean_latency_ms() const {
      return completed > 0 ? latency_ms_sum / completed : 0.0;
    }
  };

  SearchWorkload(sim::Simulation& sim, std::vector<SearchGateway*> gateways,
                 double rate_qps);

  void run_for(sim::Duration duration);
  void stop() { arrival_timer_.cancel(); }

  const std::vector<Bucket>& buckets() const { return buckets_; }
  util::Percentiles& latencies() { return latencies_; }
  uint64_t total_completed() const { return completed_; }
  uint64_t total_failed() const { return failed_; }

 private:
  void schedule_next();
  Bucket& bucket_at(sim::Time t);

  sim::Simulation& sim_;
  std::vector<SearchGateway*> gateways_;
  double rate_qps_;
  sim::Time end_ = 0;
  sim::OneShotTimer arrival_timer_;
  std::vector<Bucket> buckets_;
  util::Percentiles latencies_;
  uint64_t completed_ = 0;
  uint64_t failed_ = 0;
};

}  // namespace tamp::service
