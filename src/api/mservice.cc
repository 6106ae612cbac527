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
  std::visit([&](const auto& alternative) { handle(alternative, response); },
             request);
  return response;
}

// Parameter changes re-validate the whole configuration, so control() can
// never push the daemon somewhere the constructors would have refused.
void MService::apply(MembershipConfig candidate, ControlResponse& response) {
  if (daemon_ != nullptr) {
    response.status = Status::Error("parameter changes must precede run()");
    return;
  }
  response.status = validate(candidate);
  if (response.status.ok()) config_ = std::move(candidate);
}

bool MService::require_running(const char* what,
                               ControlResponse& response) const {
  if (running()) return true;
  response.status = Status::Error(std::string(what) + " requires run()");
  return false;
}

void MService::handle(const SetFrequencyRequest& request,
                      ControlResponse& response) {
  MembershipConfig candidate = config_;
  candidate.system.mcast_freq = request.heartbeats_per_second;
  apply(std::move(candidate), response);
}

void MService::handle(const SetMaxLossRequest& request,
                      ControlResponse& response) {
  MembershipConfig candidate = config_;
  candidate.system.max_loss = request.consecutive_losses;
  apply(std::move(candidate), response);
}

void MService::handle(const SetMaxTtlRequest& request,
                      ControlResponse& response) {
  MembershipConfig candidate = config_;
  candidate.system.max_ttl = request.max_ttl;
  apply(std::move(candidate), response);
}

void MService::handle(const LeadershipQuery&, ControlResponse& response) {
  if (!require_running("LeadershipQuery", response)) return;
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

void MService::handle(const MetricsQuery& request, ControlResponse& response) {
  if (request.name_filter.size() > 256) {
    response.status = Status::Error("name_filter exceeds 256 characters");
    return;
  }
  if (!require_running("MetricsQuery", response)) return;
  net_.obs().metrics.visit_counters(
      [&](const obs::MetricsRegistry::CounterRow& row) {
        if (row.protocol != obs::Protocol::kHier || row.node != self_) return;
        if (!request.name_filter.empty() &&
            row.name.find(request.name_filter) == std::string_view::npos) {
          return;
        }
        response.metrics.push_back(
            MetricValue{std::string(row.name), row.value});
      });
}

void MService::handle(const TraceControl& request, ControlResponse& response) {
  if (request.capacity < 1 || request.capacity > kMaxTraceCapacity) {
    response.status =
        Status::Error("trace capacity must be in [1, " +
                      std::to_string(kMaxTraceCapacity) + "], got " +
                      std::to_string(request.capacity));
    return;
  }
  if ((request.kinds_mask & ~obs::kAllTraceKinds) != 0) {
    response.status = Status::Error("kinds_mask names unknown trace kinds");
    return;
  }
  obs::Tracer& tracer = net_.obs().tracer;
  tracer.set_capacity(request.capacity);
  tracer.set_kinds_mask(request.kinds_mask);
  tracer.set_enabled(request.enable);
}

void MService::handle(const SloQuery&, ControlResponse& response) {
  if (!require_running("SloQuery", response)) return;
  const obs::MetricsRegistry& metrics = net_.obs().metrics;
  auto counter = [&](std::string_view name) {
    return metrics.counter_value(obs::Protocol::kWorkload, name, self_);
  };
  WorkloadStats& workload = response.workload;
  workload.requests_issued = counter("requests_issued");
  workload.requests_ok = counter("requests_ok");
  workload.requests_failed = counter("requests_failed");
  workload.request_attempts = counter("request_attempts");
  workload.misroutes = counter("misroutes");
  workload.proxy_fallbacks = counter("proxy_fallbacks");

  const obs::Histogram* hist =
      metrics.find_histogram(obs::Protocol::kWorkload, "latency_ns", self_);
  if (hist == nullptr || hist->tail.count() == 0) return;
  // Percentile queries sort lazily; work on a copy so the registry cell
  // stays untouched.
  util::Percentiles tail = hist->tail;
  SloStats& slo = response.slo;
  slo.latency_samples = tail.count();
  slo.p50_ns = static_cast<int64_t>(tail.median());
  slo.p99_ns = static_cast<int64_t>(tail.p99());
  slo.p999_ns = static_cast<int64_t>(tail.p999());
  slo.max_ns = static_cast<int64_t>(tail.max());
}

int MService::run() {
  if (daemon_ != nullptr) return -1;

  membership::install_wire_kind_names(net_);

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
