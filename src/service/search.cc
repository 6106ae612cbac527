#include "service/search.h"

#include "util/check.h"

namespace tamp::service {

SearchGateway::SearchGateway(sim::Simulation& sim, net::Network& net,
                             protocols::MembershipDaemon& membership,
                             const SearchParams& params)
    : sim_(sim),
      params_(params),
      consumer_(sim, net, membership) {}

void SearchGateway::query(Callback callback) {
  auto state = std::make_shared<QueryState>();
  state->callback = std::move(callback);
  state->started = sim_.now();
  state->outstanding = params_.index_partitions;

  // Phase 1 (Fig. 1 step 2): all index partitions in parallel.
  for (int partition = 0; partition < params_.index_partitions; ++partition) {
    consumer_.invoke(
        kIndexService, partition, params_.query_bytes,
        params_.index_response_bytes,
        [this, state](const InvokeResult& result) {
          if (!result.ok()) state->failed = true;
          if (result.via_proxy) state->used_proxy = true;
          if (--state->outstanding > 0) return;
          if (state->failed) {
            QueryResult out;
            out.latency = sim_.now() - state->started;
            out.used_proxy = state->used_proxy;
            state->callback(out);
            return;
          }
          start_doc_phase(state);
        });
  }
}

void SearchGateway::start_doc_phase(std::shared_ptr<QueryState> state) {
  // Phase 2 (Fig. 1 step 3): translate document ids on all doc partitions.
  state->outstanding = params_.doc_partitions;
  for (int partition = 0; partition < params_.doc_partitions; ++partition) {
    consumer_.invoke(
        kDocService, partition, params_.doc_request_bytes,
        params_.doc_response_bytes,
        [this, state](const InvokeResult& result) {
          if (!result.ok()) state->failed = true;
          if (result.via_proxy) state->used_proxy = true;
          if (--state->outstanding > 0) return;
          QueryResult out;
          out.ok = !state->failed;
          out.latency = sim_.now() - state->started;
          out.used_proxy = state->used_proxy;
          state->callback(out);
        });
  }
}

SearchDeployment::SearchDeployment(sim::Simulation& sim, net::Network& net,
                                   protocols::Cluster& cluster,
                                   SearchParams params)
    : sim_(sim), net_(net), cluster_(cluster), params_(params) {
  const size_t hosts = cluster_.size();
  TAMP_CHECK(hosts > static_cast<size_t>(params_.gateways) + 1);

  for (int g = 0; g < params_.gateways; ++g) {
    gateways_.push_back(std::make_unique<SearchGateway>(
        sim_, net_, cluster_.daemon(static_cast<size_t>(g)), params_));
  }

  // Round-robin partition replicas over the non-gateway hosts.
  size_t cursor = static_cast<size_t>(params_.gateways);
  auto next_host = [&] {
    size_t host = cursor;
    cursor = cursor + 1 < hosts ? cursor + 1
                                : static_cast<size_t>(params_.gateways);
    return host;
  };
  for (int partition = 0; partition < params_.index_partitions; ++partition) {
    for (int replica = 0; replica < params_.replicas; ++replica) {
      size_t host = next_host();
      placements_.push_back(
          {host, kIndexService, partition, params_.index_service_time});
    }
  }
  for (int partition = 0; partition < params_.doc_partitions; ++partition) {
    for (int replica = 0; replica < params_.replicas; ++replica) {
      size_t host = next_host();
      placements_.push_back(
          {host, kDocService, partition, params_.doc_service_time});
      doc_nodes_.push_back(host);
    }
  }
}

void SearchDeployment::start() {
  // A host can appear in several placements (small clusters): merge them
  // into one provider per host so the port binds once.
  std::map<size_t, std::vector<const Placement*>> by_host;
  for (const auto& placement : placements_) {
    by_host[placement.cluster_index].push_back(&placement);
  }
  for (const auto& [host, list] : by_host) {
    (void)list;
    restart_providers_on(host);
  }
  for (auto& gateway : gateways_) gateway->start();
}

void SearchDeployment::stop() {
  for (auto& gateway : gateways_) gateway->stop();
  for (auto& [host, provider] : providers_) provider->stop();
}

std::vector<SearchGateway*> SearchDeployment::gateways() {
  std::vector<SearchGateway*> out;
  for (auto& gateway : gateways_) out.push_back(gateway.get());
  return out;
}

void SearchDeployment::restart_providers_on(size_t cluster_index) {
  std::map<std::string, std::vector<int>> merged;
  sim::Duration service_time = 0;
  for (const auto& placement : placements_) {
    if (placement.cluster_index == cluster_index) {
      merged[placement.service].push_back(placement.partition);
      service_time = placement.service_time;
    }
  }
  if (merged.empty()) return;
  // Tear down the previous incarnation's provider (releases the port).
  auto existing = providers_.find(cluster_index);
  if (existing != providers_.end()) {
    existing->second->stop();
    providers_.erase(existing);
  }
  ProviderConfig config;
  config.mean_service_time = service_time;
  auto provider = std::make_unique<ServiceProvider>(
      sim_, net_, cluster_.daemon(cluster_index), config);
  for (const auto& [service, partitions] : merged) {
    provider->host_service(service, partitions);
  }
  provider->start();
  providers_.emplace(cluster_index, std::move(provider));
}

SearchWorkload::SearchWorkload(sim::Simulation& sim,
                               std::vector<SearchGateway*> gateways,
                               double rate_qps)
    : sim_(sim),
      gateways_(std::move(gateways)),
      rate_qps_(rate_qps),
      arrival_timer_(sim, [this] { schedule_next(); }) {
  TAMP_CHECK(!gateways_.empty() && rate_qps_ > 0);
}

SearchWorkload::Bucket& SearchWorkload::bucket_at(sim::Time t) {
  size_t second = static_cast<size_t>(t / sim::kSecond);
  if (buckets_.size() <= second) buckets_.resize(second + 1);
  return buckets_[second];
}

void SearchWorkload::run_for(sim::Duration duration) {
  end_ = sim_.now() + duration;
  schedule_next();
}

void SearchWorkload::schedule_next() {
  if (sim_.now() >= end_) return;
  // Fire one arrival now, then draw the next inter-arrival gap.
  bucket_at(sim_.now()).arrived += 1;
  SearchGateway* gateway =
      gateways_[sim_.rng().uniform_u64(gateways_.size())];
  gateway->query([this](const QueryResult& result) {
    Bucket& bucket = bucket_at(sim_.now());
    if (result.ok) {
      bucket.completed += 1;
      bucket.latency_ms_sum += sim::to_millis(result.latency);
      latencies_.add(sim::to_millis(result.latency));
      ++completed_;
    } else {
      bucket.failed += 1;
      ++failed_;
    }
  });
  auto gap = static_cast<sim::Duration>(
      sim_.rng().exponential(1e9 / rate_qps_));
  arrival_timer_.restart(gap);
}

}  // namespace tamp::service
