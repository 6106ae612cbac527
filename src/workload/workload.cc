#include "workload/workload.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "util/check.h"

namespace tamp::workload {

namespace {

// Distinct stream from the simulation's protocol Rng: the arrival process
// must not depend on how many protocol draws preceded it.
constexpr uint64_t kArrivalSeedSalt = 0x9E3779B97F4A7C15ull;

// Exact-rank percentile (nearest-rank method) over a sorted sample vector:
// integer in, integer out, no interpolation — deterministic across
// platforms. q in (0, 1].
int64_t rank_percentile(const std::vector<int64_t>& sorted, double q) {
  if (sorted.empty()) return -1;
  size_t rank = static_cast<size_t>(
      q * static_cast<double>(sorted.size()) + 0.9999999);
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

}  // namespace

const char* phase_name(int phase) {
  switch (phase) {
    case 0:
      return "pre";
    case 1:
      return "fault";
    case 2:
      return "heal";
  }
  return "?";
}

WorkloadDriver::WorkloadDriver(sim::Simulation& sim, net::Network& net,
                               protocols::Cluster& cluster,
                               sim::Duration warmup, uint64_t seed)
    : sim_(sim),
      net_(net),
      cluster_(cluster),
      warmup_(warmup),
      rng_(seed ^ kArrivalSeedSalt) {
  agents_.resize(cluster_.size());
}

WorkloadDriver::~WorkloadDriver() { stop(); }

void WorkloadDriver::set_phase_bounds(sim::Time fault_start,
                                      sim::Time heal_start) {
  fault_start_ = fault_start;
  heal_start_ = std::max(fault_start, heal_start);
}

int WorkloadDriver::phase_of(sim::Time at) const {
  if (at < fault_start_) return 0;
  if (at < heal_start_) return 1;
  return 2;
}

void WorkloadDriver::start() {
  if (started_) return;
  started_ = true;
  accepting_ = true;
  for (size_t i = 0; i < agents_.size(); ++i) {
    if (!cluster_.alive(i)) continue;
    build_agent(i);
  }
}

void WorkloadDriver::build_agent(size_t index) {
  Agent& agent = agents_[index];
  const net::HostId host = cluster_.hosts()[index];
  obs::MetricsRegistry& m = net_.obs().metrics;
  if (agent.issued == nullptr) {
    agent.issued = m.counter(obs::Protocol::kWorkload, "requests_issued", host);
    agent.ok = m.counter(obs::Protocol::kWorkload, "requests_ok", host);
    agent.failed = m.counter(obs::Protocol::kWorkload, "requests_failed", host);
    agent.attempts =
        m.counter(obs::Protocol::kWorkload, "request_attempts", host);
    agent.misroutes = m.counter(obs::Protocol::kWorkload, "misroutes", host);
    agent.proxy_fallbacks =
        m.counter(obs::Protocol::kWorkload, "proxy_fallbacks", host);
    agent.latency =
        m.histogram(obs::Protocol::kWorkload, "latency_ns", host);
  }

  // Providers: partition p lives on node indices (p*replicas + r) mod n.
  // Recomputed (not cached) so a rebuilt agent re-hosts the same set.
  agent.hosted_partitions.clear();
  for (int p = 0; p < kPartitions; ++p) {
    for (int r = 0; r < kReplicas; ++r) {
      const size_t owner =
          (static_cast<size_t>(p) * static_cast<size_t>(kReplicas) +
           static_cast<size_t>(r)) %
          agents_.size();
      if (owner == index) agent.hosted_partitions.push_back(p);
    }
  }
  if (!agent.hosted_partitions.empty()) {
    service::ProviderConfig provider_config;
    provider_config.concurrency = kProviderConcurrency;
    provider_config.max_queue = kProviderMaxQueue;
    provider_config.mean_service_time = kProviderServiceTime;
    agent.provider = std::make_unique<service::ServiceProvider>(
        sim_, net_, cluster_.daemon(index), provider_config);
    agent.provider->host_service(kServiceName, agent.hosted_partitions);
    agent.provider->start();
  }

  // Every node fronts users.
  agent.consumer = std::make_unique<service::ServiceConsumer>(
      sim_, net_, cluster_.daemon(index));
  agent.consumer->start();
  if (accepting_) schedule_arrival(index);
}

void WorkloadDriver::teardown_agent(size_t index, bool count_aborted) {
  Agent& agent = agents_[index];
  sim_.cancel(agent.arrival);
  agent.arrival = sim::kInvalidEventId;
  if (count_aborted) {
    for (int phase = 0; phase < kPhaseCount; ++phase) {
      phases_[static_cast<size_t>(phase)].aborted +=
          agent.inflight[static_cast<size_t>(phase)];
    }
  }
  agent.inflight = {};
  // Destroying the consumer clears its pending map without firing
  // callbacks; the inflight counters above already graded those requests.
  agent.consumer.reset();
  agent.provider.reset();
}

void WorkloadDriver::quiesce() {
  accepting_ = false;
  for (Agent& agent : agents_) {
    sim_.cancel(agent.arrival);
    agent.arrival = sim::kInvalidEventId;
  }
}

void WorkloadDriver::stop() {
  if (!started_) return;
  accepting_ = false;
  for (size_t i = 0; i < agents_.size(); ++i) {
    teardown_agent(i, /*count_aborted=*/true);
  }
  started_ = false;
}

void WorkloadDriver::note_kill(size_t index) {
  if (!started_ || index >= agents_.size()) return;
  teardown_agent(index, /*count_aborted=*/true);
}

void WorkloadDriver::note_restart(size_t index) {
  if (!started_ || index >= agents_.size()) return;
  if (agents_[index].consumer != nullptr) return;  // never torn down
  build_agent(index);
}

void WorkloadDriver::schedule_arrival(size_t index) {
  Agent& agent = agents_[index];
  const double mean_gap_ns = 1e9 / kRequestsPerSec;
  auto gap = static_cast<sim::Duration>(rng_.exponential(mean_gap_ns));
  sim::Time at = std::max(sim_.now(), warmup_) + gap;
  agent.arrival = sim_.schedule_at(at, [this, index] { fire(index); });
}

void WorkloadDriver::fire(size_t index) {
  Agent& agent = agents_[index];
  agent.arrival = sim::kInvalidEventId;
  if (!accepting_ || agent.consumer == nullptr) return;

  const int phase = phase_of(sim_.now());
  const int partition =
      static_cast<int>(rng_.uniform_u64(
          static_cast<uint64_t>(kPartitions)));
  ++issued_total_;
  ++phases_[static_cast<size_t>(phase)].issued;
  agent.inflight[static_cast<size_t>(phase)] += 1;
  agent.issued->add();

  agent.consumer->invoke(
      kServiceName, partition, kRequestBytes, kResponseBytes,
      [this, index, phase](const service::InvokeResult& result) {
        on_complete(index, phase, result);
      });
  schedule_arrival(index);
}

void WorkloadDriver::on_complete(size_t index, int phase,
                                 const service::InvokeResult& result) {
  Agent& agent = agents_[index];
  PhaseSlo& slo = phases_[static_cast<size_t>(phase)];
  TAMP_CHECK(agent.inflight[static_cast<size_t>(phase)] > 0);
  agent.inflight[static_cast<size_t>(phase)] -= 1;

  slo.attempts += static_cast<uint64_t>(result.attempts);
  slo.misroutes += static_cast<uint64_t>(result.misroutes);
  if (result.via_proxy) {
    ++slo.via_proxy;
    agent.proxy_fallbacks->add();
  }
  agent.attempts->add(static_cast<uint64_t>(result.attempts));
  agent.misroutes->add(static_cast<uint64_t>(result.misroutes));

  if (result.ok()) {
    ++slo.ok;
    agent.ok->add();
    latencies_[static_cast<size_t>(phase)].push_back(result.latency);
    agent.latency->observe(static_cast<double>(result.latency));
  } else {
    ++slo.failed;
    slo.failed_by_cause[static_cast<size_t>(result.cause)] += 1;
    agent.failed->add();
  }
}

std::vector<PhaseSlo> WorkloadDriver::report() const {
  std::vector<PhaseSlo> out(phases_.begin(), phases_.end());
  for (int phase = 0; phase < kPhaseCount; ++phase) {
    PhaseSlo& slo = out[static_cast<size_t>(phase)];
    slo.unresolved = 0;
    for (const Agent& agent : agents_) {
      slo.unresolved += agent.inflight[static_cast<size_t>(phase)];
    }
    std::vector<int64_t> sorted = latencies_[static_cast<size_t>(phase)];
    std::sort(sorted.begin(), sorted.end());
    slo.p50_ns = rank_percentile(sorted, 0.5);
    slo.p99_ns = rank_percentile(sorted, 0.99);
    slo.p999_ns = rank_percentile(sorted, 0.999);
    slo.max_ns = sorted.empty() ? -1 : sorted.back();
  }
  return out;
}

std::string WorkloadDriver::report_json() const {
  const std::vector<PhaseSlo> phases = report();
  std::string out;
  char buf[256];
  auto emit = [&](const char* fmt, auto... args) {
    std::snprintf(buf, sizeof(buf), fmt, args...);
    out += buf;
  };
  uint64_t completed = 0, aborted = 0, unresolved = 0;
  for (const PhaseSlo& slo : phases) {
    completed += slo.ok + slo.failed;
    aborted += slo.aborted;
    unresolved += slo.unresolved;
  }
  emit("{\"service\":\"%s\",\"issued\":%" PRIu64 ",\"completed\":%" PRIu64
       ",\"aborted\":%" PRIu64 ",\"unresolved\":%" PRIu64 ",\"phases\":[",
       kServiceName, issued_total_, completed, aborted, unresolved);
  for (int phase = 0; phase < kPhaseCount; ++phase) {
    const PhaseSlo& slo = phases[static_cast<size_t>(phase)];
    if (phase > 0) out += ",";
    emit("{\"phase\":\"%s\",\"issued\":%" PRIu64 ",\"ok\":%" PRIu64
         ",\"failed\":%" PRIu64 ",\"aborted\":%" PRIu64
         ",\"unresolved\":%" PRIu64 ",\"attempts\":%" PRIu64
         ",\"misroutes\":%" PRIu64 ",\"via_proxy\":%" PRIu64,
         phase_name(phase), slo.issued, slo.ok, slo.failed, slo.aborted,
         slo.unresolved, slo.attempts, slo.misroutes, slo.via_proxy);
    for (int cause = 1; cause < service::kFailureCauseCount; ++cause) {
      emit(",\"fail_%s\":%" PRIu64,
           service::failure_cause_name(
               static_cast<service::FailureCause>(cause)),
           slo.failed_by_cause[static_cast<size_t>(cause)]);
    }
    emit(",\"p50_ns\":%" PRId64 ",\"p99_ns\":%" PRId64 ",\"p999_ns\":%" PRId64
         ",\"max_ns\":%" PRId64 "}",
         slo.p50_ns, slo.p99_ns, slo.p999_ns, slo.max_ns);
  }
  out += "]}";
  return out;
}

}  // namespace tamp::workload
