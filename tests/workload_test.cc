// The application traffic layer: the deterministic open-loop workload
// driver, its phase-bucketed SLO accounting, and its integration with the
// chaos scenario runner (SLO mode must be a pure function of the spec at
// any parallel-runner worker count).
#include <gtest/gtest.h>

#include <numeric>

#include "net/builders.h"
#include "protocols/cluster.h"
#include "sim/parallel_runner.h"
#include "sim/scenario.h"
#include "workload/workload.h"

namespace tamp::workload {
namespace {

struct WorkloadFixture {
  sim::Simulation sim;
  net::Topology topo;
  net::ClusterLayout layout;
  std::unique_ptr<net::Network> net;
  std::unique_ptr<protocols::Cluster> cluster;
  std::unique_ptr<WorkloadDriver> driver;

  explicit WorkloadFixture(uint64_t sim_seed = 33) : sim(sim_seed) {}

  void build(int hosts, uint64_t workload_seed = 5) {
    layout = net::build_single_segment(topo, hosts);
    net = std::make_unique<net::Network>(sim, topo);
    protocols::Cluster::Options opts;
    opts.scheme = protocols::Scheme::kHierarchical;
    opts.hier.max_ttl = 1;
    cluster = std::make_unique<protocols::Cluster>(sim, *net, layout.hosts,
                                                   opts);
    cluster->start_all();
    driver = std::make_unique<WorkloadDriver>(
        sim, *net, *cluster, /*warmup=*/10 * sim::kSecond, workload_seed);
    driver->start();
  }
};

uint64_t phase_balance(const PhaseSlo& phase) {
  return phase.ok + phase.failed + phase.aborted + phase.unresolved;
}

TEST(Workload, HealthyClusterCompletesEverythingInPre) {
  WorkloadFixture fx;
  fx.build(6);
  fx.sim.run_until(40 * sim::kSecond);
  fx.driver->quiesce();
  fx.sim.run_until(45 * sim::kSecond);

  std::vector<PhaseSlo> phases = fx.driver->report();
  ASSERT_EQ(phases.size(), static_cast<size_t>(kPhaseCount));
  // No phase bounds set: everything lands in "pre".
  EXPECT_GT(phases[0].issued, 100u);
  EXPECT_EQ(phases[1].issued, 0u);
  EXPECT_EQ(phases[2].issued, 0u);
  EXPECT_EQ(phases[0].issued, phase_balance(phases[0]));
  EXPECT_EQ(phases[0].unresolved, 0u);  // quiesce drained the tail
  EXPECT_EQ(phases[0].failed, 0u);
  EXPECT_EQ(phases[0].ok, phases[0].issued);
  // A healthy directory never misroutes and never needs the proxy.
  EXPECT_EQ(phases[0].misroutes, 0u);
  EXPECT_EQ(phases[0].via_proxy, 0u);
  // Load-balanced dispatch sometimes polls, so attempts == completions.
  EXPECT_EQ(phases[0].attempts, phases[0].ok);
  // Percentiles are populated, ordered, and plausible for a 2 ms service.
  EXPECT_GT(phases[0].p50_ns, 0);
  EXPECT_LE(phases[0].p50_ns, phases[0].p99_ns);
  EXPECT_LE(phases[0].p99_ns, phases[0].p999_ns);
  EXPECT_LE(phases[0].p999_ns, phases[0].max_ns);
}

TEST(Workload, RegistryCountersMatchTheReport) {
  WorkloadFixture fx;
  fx.build(5);
  fx.sim.run_until(30 * sim::kSecond);
  fx.driver->quiesce();
  fx.sim.run_until(35 * sim::kSecond);

  std::vector<PhaseSlo> phases = fx.driver->report();
  uint64_t issued = 0, ok = 0;
  for (const PhaseSlo& p : phases) {
    issued += p.issued;
    ok += p.ok;
  }
  const obs::MetricsRegistry& metrics = fx.net->obs().metrics;
  EXPECT_EQ(metrics.counter_sum_over_nodes(obs::Protocol::kWorkload,
                                           "requests_issued"),
            issued);
  EXPECT_EQ(
      metrics.counter_sum_over_nodes(obs::Protocol::kWorkload, "requests_ok"),
      ok);
  EXPECT_EQ(fx.driver->issued(), issued);
}

TEST(Workload, SameSeedSameBytes) {
  std::string first, second;
  for (std::string* out : {&first, &second}) {
    WorkloadFixture fx;
    fx.build(5, /*workload_seed=*/9);
    fx.sim.run_until(30 * sim::kSecond);
    fx.driver->quiesce();
    fx.sim.run_until(35 * sim::kSecond);
    *out = fx.driver->report_json();
  }
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("\"phases\""), std::string::npos);
}

TEST(Workload, DifferentSeedDifferentArrivals) {
  uint64_t issued_a = 0, issued_b = 0;
  for (auto [seed, out] : {std::pair<uint64_t, uint64_t*>{3, &issued_a},
                           std::pair<uint64_t, uint64_t*>{4, &issued_b}}) {
    WorkloadFixture fx;
    fx.build(5, seed);
    fx.sim.run_until(30 * sim::kSecond);
    *out = fx.driver->issued();
  }
  // Poisson arrivals from different seeds almost surely differ in count;
  // equality would mean the seed is being ignored.
  EXPECT_NE(issued_a, issued_b);
}

TEST(Workload, SilentProviderDeathShowsUpAsMisroutes) {
  WorkloadFixture fx;
  fx.build(4);
  fx.sim.run_until(20 * sim::kSecond);

  // A provider host dies silently: the membership layer needs detection
  // time, and until then its directory rows are misroute bait.
  fx.net->set_host_up(fx.layout.hosts[1], false);
  fx.sim.run_until(40 * sim::kSecond);
  fx.driver->quiesce();
  fx.sim.run_until(46 * sim::kSecond);

  std::vector<PhaseSlo> phases = fx.driver->report();
  EXPECT_GT(phases[0].misroutes, 0u);
  // Nothing leaks: the dead host's own doomed requests and everyone
  // else's retries all land in some bucket.
  for (const PhaseSlo& p : phases) {
    EXPECT_EQ(p.issued, phase_balance(p));
  }
}

TEST(Workload, NoteKillAndRestartRebuildTheAgent) {
  WorkloadFixture fx;
  fx.build(4);
  fx.sim.run_until(20 * sim::kSecond);
  const uint64_t before = fx.driver->issued();
  EXPECT_GT(before, 0u);

  fx.driver->note_kill(1);
  fx.cluster->kill(1);
  fx.sim.run_until(25 * sim::kSecond);
  fx.cluster->restart(1);
  fx.driver->note_restart(1);
  fx.sim.run_until(45 * sim::kSecond);
  fx.driver->quiesce();
  fx.sim.run_until(50 * sim::kSecond);

  // The rebuilt agent issues again (arrivals resumed after restart).
  std::vector<PhaseSlo> phases = fx.driver->report();
  uint64_t issued = 0;
  for (const PhaseSlo& p : phases) issued += p.issued;
  EXPECT_GT(issued, before);
  for (const PhaseSlo& p : phases) {
    EXPECT_EQ(p.issued, phase_balance(p));
    EXPECT_EQ(p.unresolved, 0u);
  }
}

// --- scenario integration --------------------------------------------------

TEST(WorkloadScenario, SloModeGradesPhasesAndBalances) {
  chaos::ScenarioSpec spec;
  spec.scheme = protocols::Scheme::kHierarchical;
  spec.shape = chaos::ShapeKind::kRacked;
  spec.plan = chaos::PlanKind::kCrashRestart;
  spec.seed = 1;
  spec.slo = true;
  chaos::ScenarioResult result = chaos::run_scenario(spec);
  EXPECT_TRUE(result.passed) << result.report;
  ASSERT_EQ(result.slo_phases.size(), static_cast<size_t>(kPhaseCount));
  for (const PhaseSlo& p : result.slo_phases) {
    EXPECT_GT(p.issued, 0u);
    EXPECT_EQ(p.issued, phase_balance(p));
  }
  EXPECT_NE(result.slo_json.find("\"phase\":\"fault\""), std::string::npos);
  // scenario_name advertises SLO mode, so red matrix entries reproduce it.
  EXPECT_NE(result.name.find("/slo"), std::string::npos);
  EXPECT_NE(result.repro.find("--slo"), std::string::npos);
}

TEST(WorkloadScenario, SloJsonIdenticalAcrossWorkerCounts) {
  std::vector<chaos::ScenarioSpec> specs;
  for (chaos::PlanKind plan :
       {chaos::PlanKind::kCrashRestart, chaos::PlanKind::kRouterFlap}) {
    chaos::ScenarioSpec spec;
    spec.scheme = protocols::Scheme::kHierarchical;
    spec.shape = chaos::ShapeKind::kRacked;
    spec.plan = plan;
    spec.seed = 2;
    spec.slo = true;
    specs.push_back(spec);
  }
  std::vector<std::string> serial, parallel;
  for (auto [jobs, out] :
       {std::pair<size_t, std::vector<std::string>*>{1, &serial},
        std::pair<size_t, std::vector<std::string>*>{4, &parallel}}) {
    chaos::ParallelRunOptions options;
    options.jobs = jobs;
    options.on_result = [&](size_t, const chaos::ScenarioResult& result) {
      out->push_back(result.slo_json);
    };
    chaos::run_scenarios(specs, options);
  }
  ASSERT_EQ(serial.size(), specs.size());
  EXPECT_EQ(serial, parallel);
  for (const std::string& json : serial) EXPECT_FALSE(json.empty());
}

}  // namespace
}  // namespace tamp::workload
