#include "api/mservice.h"

#include "membership/codec.h"
#include "membership/messages.h"
#include "util/check.h"
#include "util/strings.h"

namespace tamp::api {

MService::MService(sim::Simulation& sim, net::Network& net,
                   DirectoryStore& store, net::HostId self,
                   MembershipConfig config)
    : sim_(sim), net_(net), store_(store), self_(self) {
  adopt(std::move(config));
}

MService::MService(sim::Simulation& sim, net::Network& net,
                   DirectoryStore& store, net::HostId self,
                   const std::string& configuration)
    : sim_(sim), net_(net), store_(store), self_(self) {
  auto parsed = parse_config(configuration, &config_error_);
  if (parsed) adopt(std::move(*parsed));
}

void MService::adopt(MembershipConfig config) {
  Status status = validate(config);
  if (status.ok()) {
    config_ = std::move(config);
  } else {
    config_error_ = status.message();
  }
}

MService::~MService() { shutdown(); }

ControlResponse MService::control(const ControlRequest& request) {
  ControlResponse response;
  // Parameter changes re-validate the whole configuration, so control()
  // can never push the daemon somewhere the constructors would have
  // refused.
  auto apply = [&](MembershipConfig candidate) {
    if (daemon_ != nullptr) {
      response.status =
          Status::Error("parameter changes must precede run()");
      return;
    }
    response.status = validate(candidate);
    if (response.status.ok()) config_ = std::move(candidate);
  };

  if (const auto* metrics = std::get_if<MetricsQuery>(&request)) {
    if (metrics->version != kControlApiVersion) {
      response.status = Status::Error(
          "MetricsQuery version " + std::to_string(metrics->version) +
          " not supported (this service speaks v" +
          std::to_string(kControlApiVersion) + ")");
      return response;
    }
    if (metrics->name_filter.size() > 256) {
      response.status = Status::Error("name_filter exceeds 256 characters");
      return response;
    }
    if (metrics->max_results < 1 || metrics->max_results > 4096) {
      response.status =
          Status::Error("max_results must be in [1, 4096], got " +
                        std::to_string(metrics->max_results));
      return response;
    }
    if (daemon_ == nullptr || !daemon_->running()) {
      response.status = Status::Error("metrics query requires run()");
      return response;
    }
    net_.obs().metrics.visit_counters(
        [&](const obs::MetricsRegistry::CounterRow& row) {
          if (row.protocol != obs::Protocol::kHier || row.node != self_) {
            return;
          }
          if (!metrics->name_filter.empty() &&
              row.name.find(metrics->name_filter) == std::string_view::npos) {
            return;
          }
          if (response.metrics.size() >= metrics->max_results) return;
          response.metrics.push_back(
              MetricValue{std::string(row.name), row.value});
        });
    return response;
  }
  if (const auto* anti = std::get_if<AntiEntropyQuery>(&request)) {
    if (anti->version != kControlApiVersion) {
      response.status = Status::Error(
          "AntiEntropyQuery version " + std::to_string(anti->version) +
          " not supported (this service speaks v" +
          std::to_string(kControlApiVersion) + ")");
      return response;
    }
    if (daemon_ == nullptr || !daemon_->running()) {
      response.status = Status::Error("anti-entropy query requires run()");
      return response;
    }
    const obs::MetricsRegistry& metrics = net_.obs().metrics;
    auto counter = [&](std::string_view name) {
      return metrics.counter_value(obs::Protocol::kHier, name, self_);
    };
    AntiEntropyStats& stats = response.anti_entropy;
    stats.digests_sent = counter("digests_sent");
    stats.digest_pulls_sent = counter("digest_pulls_sent");
    stats.digest_pulls_served = counter("digest_pulls_served");
    stats.deltas_sent = counter("deltas_sent");
    stats.delta_rows_shipped = counter("delta_rows_shipped");
    stats.digest_rows_suppressed = counter("digest_rows_suppressed");
    stats.digest_full_fallbacks = counter("digest_full_fallbacks");
    return response;
  }
  // Shared reader for the two application-traffic queries: both start from
  // the node's workload counters.
  auto read_workload = [&](int version, const char* what) -> bool {
    if (version != kControlApiVersion) {
      response.status = Status::Error(
          std::string(what) + " version " + std::to_string(version) +
          " not supported (this service speaks v" +
          std::to_string(kControlApiVersion) + ")");
      return false;
    }
    if (daemon_ == nullptr || !daemon_->running()) {
      response.status =
          Status::Error(std::string(what) + " requires run()");
      return false;
    }
    const obs::MetricsRegistry& metrics = net_.obs().metrics;
    auto counter = [&](std::string_view name) {
      return metrics.counter_value(obs::Protocol::kWorkload, name, self_);
    };
    WorkloadStats& stats = response.workload;
    stats.requests_issued = counter("requests_issued");
    stats.requests_ok = counter("requests_ok");
    stats.requests_failed = counter("requests_failed");
    stats.request_attempts = counter("request_attempts");
    stats.misroutes = counter("misroutes");
    stats.proxy_fallbacks = counter("proxy_fallbacks");
    return true;
  };
  if (const auto* wl = std::get_if<WorkloadQuery>(&request)) {
    read_workload(wl->version, "WorkloadQuery");
    return response;
  }
  if (const auto* slo = std::get_if<SloQuery>(&request)) {
    if (!read_workload(slo->version, "SloQuery")) return response;
    const obs::Histogram* hist = net_.obs().metrics.find_histogram(
        obs::Protocol::kWorkload, "latency_ns", self_);
    if (hist != nullptr && hist->tail.count() > 0) {
      // Percentile queries sort lazily; work on a copy so the registry
      // cell stays untouched.
      util::Percentiles tail = hist->tail;
      SloStats& stats = response.slo;
      stats.latency_samples = tail.count();
      stats.p50_ns = static_cast<int64_t>(tail.median());
      stats.p99_ns = static_cast<int64_t>(tail.p99());
      stats.p999_ns = static_cast<int64_t>(tail.p999());
      stats.max_ns = static_cast<int64_t>(tail.max());
    }
    return response;
  }
  if (const auto* trace = std::get_if<TraceControl>(&request)) {
    if (trace->version != kControlApiVersion) {
      response.status = Status::Error(
          "TraceControl version " + std::to_string(trace->version) +
          " not supported (this service speaks v" +
          std::to_string(kControlApiVersion) + ")");
      return response;
    }
    if (trace->capacity < 1 || trace->capacity > kMaxTraceCapacity) {
      response.status =
          Status::Error("trace capacity must be in [1, " +
                        std::to_string(kMaxTraceCapacity) + "], got " +
                        std::to_string(trace->capacity));
      return response;
    }
    if ((trace->kinds_mask & ~obs::kAllTraceKinds) != 0) {
      response.status = Status::Error("kinds_mask names unknown trace kinds");
      return response;
    }
    obs::Tracer& tracer = net_.obs().tracer;
    tracer.set_capacity(trace->capacity);
    tracer.set_kinds_mask(trace->kinds_mask);
    tracer.set_enabled(trace->enable);
    trace_overridden_ = true;  // run() must not stomp an explicit control
    return response;
  }

  if (const auto* freq = std::get_if<SetFrequencyRequest>(&request)) {
    MembershipConfig candidate = config_;
    candidate.system.mcast_freq = freq->heartbeats_per_second;
    apply(std::move(candidate));
  } else if (const auto* loss = std::get_if<SetMaxLossRequest>(&request)) {
    MembershipConfig candidate = config_;
    candidate.system.max_loss = loss->consecutive_losses;
    apply(std::move(candidate));
  } else if (const auto* ttl = std::get_if<SetMaxTtlRequest>(&request)) {
    MembershipConfig candidate = config_;
    candidate.system.max_ttl = ttl->max_ttl;
    apply(std::move(candidate));
  } else {  // LeadershipQuery
    if (daemon_ == nullptr || !daemon_->running()) {
      response.status = Status::Error("leadership query requires run()");
      return response;
    }
    response.incarnation = daemon_->own_entry().incarnation;
    for (int level = 0; level < config_.system.max_ttl; ++level) {
      LeadershipInfo info;
      info.level = level;
      info.joined = daemon_->joined(level);
      info.is_leader = daemon_->is_leader(level);
      info.leader = daemon_->leader_of(level);
      info.backup = daemon_->backup_of(level);
      info.epoch = daemon_->epoch_of(level);
      response.leadership.push_back(info);
    }
  }
  return response;
}

int MService::run() {
  if (daemon_ != nullptr) return -1;

  // Observability first: the daemon resolves its registry handles at
  // construction, so a disabled registry must be disabled before then. A
  // TraceControl issued before run() wins over the static configuration.
  net_.obs().metrics.set_enabled(config_.system.metrics_enabled);
  if (!trace_overridden_) {
    net_.obs().tracer.set_capacity(config_.system.trace_capacity);
    net_.obs().tracer.set_kinds_mask(config_.system.trace_kinds_mask);
  }
  membership::install_wire_classifier(net_);

  protocols::HierConfig hier;
  hier.base_channel = channel_for_mcast_addr(config_.system.mcast_addr);
  hier.data_port = static_cast<net::Port>(config_.system.mcast_port);
  hier.control_port = static_cast<net::Port>(config_.system.mcast_port + 1);
  hier.max_ttl = config_.system.max_ttl;
  hier.period = static_cast<sim::Duration>(1e9 / config_.system.mcast_freq);
  hier.max_losses = config_.system.max_loss;

  membership::EntryData own = membership::make_representative_entry(self_, 1);
  own.services.clear();

  daemon_ = std::make_unique<protocols::HierDaemon>(sim_, net_, self_,
                                                    std::move(own), hier);
  for (const auto& service : config_.services) {
    auto partitions = util::expand_partition_spec(service.partition_spec);
    daemon_->register_service(
        service.name, partitions.value_or(std::vector<int>{0}),
        service.params);
  }
  daemon_->start();
  store_.publish(self_, config_.system.shm_key, &daemon_->table());
  return 0;
}

void MService::shutdown() {
  if (daemon_ == nullptr) return;
  store_.withdraw(self_, config_.system.shm_key);
  daemon_->stop();
  daemon_.reset();
}

int MService::register_service(const std::string& name,
                               const std::string& partition_spec) {
  if (daemon_ == nullptr) return -1;
  auto partitions = util::expand_partition_spec(partition_spec);
  if (partitions && partitions->empty()) return -1;  // malformed spec
  daemon_->register_service(name, partitions.value_or(std::vector<int>{0}));
  return 0;
}

int MService::update_value(const std::string& key, const std::string& value) {
  if (daemon_ == nullptr) return -1;
  daemon_->update_value(key, value);
  return 0;
}

int MService::delete_value(const std::string& key) {
  if (daemon_ == nullptr) return -1;
  daemon_->delete_value(key);
  return 0;
}

protocols::HierDaemon& MService::daemon() {
  TAMP_CHECK_MSG(daemon_ != nullptr, "run() first");
  return *daemon_;
}

}  // namespace tamp::api
