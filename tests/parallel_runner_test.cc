// The parallel scenario runner's contract: byte-identical to the serial
// runner for every seed, results in input order regardless of completion
// order, and one failing scenario never poisons its siblings.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "sim/parallel_runner.h"
#include "sim/scenario.h"

namespace tamp::chaos {
namespace {

using protocols::Scheme;

ScenarioSpec spec_of(Scheme scheme, ShapeKind shape, PlanKind plan,
                     uint64_t seed, bool observed = true) {
  ScenarioSpec spec;
  spec.scheme = scheme;
  spec.shape = shape;
  spec.plan = plan;
  spec.seed = seed;
  spec.trace = observed;
  spec.metrics = observed;
  return spec;
}

// A cross-section of the matrix: every scheme, every shape, storm and
// non-storm plans, several seeds — small enough to run twice (serial +
// parallel) in a unit test, diverse enough that any cross-scenario state
// bleed (RNG, metrics registry, tracer, static caches) would corrupt at
// least one byte of some artifact.
std::vector<ScenarioSpec> sample_specs() {
  return {
      spec_of(Scheme::kHierarchical, ShapeKind::kRacked, PlanKind::kLeaderKill,
              1),
      spec_of(Scheme::kHierarchical, ShapeKind::kRouterChain,
              PlanKind::kPauseResume, 2),
      spec_of(Scheme::kHierarchical, ShapeKind::kSingleSegment,
              PlanKind::kHealStorm, 3),
      spec_of(Scheme::kHierarchical, ShapeKind::kRacked, PlanKind::kJoinStorm,
              1),
      spec_of(Scheme::kGossip, ShapeKind::kRacked, PlanKind::kCrashRestart, 1),
      spec_of(Scheme::kGossip, ShapeKind::kSingleSegment, PlanKind::kLossStorm,
              2),
      spec_of(Scheme::kAllToAll, ShapeKind::kRouterChain,
              PlanKind::kPartitionHeal, 1),
      spec_of(Scheme::kAllToAll, ShapeKind::kRacked, PlanKind::kUplinkFlap, 2),
  };
}

void expect_identical(const ScenarioResult& a, const ScenarioResult& b) {
  EXPECT_EQ(a.passed, b.passed) << a.name;
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.repro, b.repro) << a.name;
  EXPECT_EQ(a.report, b.report) << a.name;
  EXPECT_EQ(a.violation_count, b.violation_count) << a.name;
  EXPECT_EQ(a.oracle_checks, b.oracle_checks) << a.name;
  EXPECT_EQ(a.horizon, b.horizon) << a.name;
  EXPECT_EQ(a.events, b.events) << a.name;
  EXPECT_EQ(a.final_converged, b.final_converged) << a.name;
  EXPECT_EQ(a.final_running, b.final_running) << a.name;
  // The byte-identity core of the contract: traces and metric snapshots.
  EXPECT_EQ(a.trace_jsonl, b.trace_jsonl) << a.name;
  EXPECT_EQ(a.metrics_json, b.metrics_json) << a.name;
}

// --- serial-vs-parallel equivalence ---------------------------------------

TEST(ParallelRunner, ByteIdenticalToSerialRunner) {
  const std::vector<ScenarioSpec> specs = sample_specs();

  std::vector<ScenarioResult> serial;
  serial.reserve(specs.size());
  for (const ScenarioSpec& spec : specs) serial.push_back(run_scenario(spec));

  ParallelRunOptions options;
  options.jobs = 4;
  const std::vector<ScenarioResult> parallel = run_scenarios(specs, options);

  ASSERT_EQ(parallel.size(), serial.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    expect_identical(serial[i], parallel[i]);
  }
}

// Running the *same* spec concurrently on every worker is the sharpest
// shared-state probe: any global RNG draw, metrics registration, or tracer
// append from a sibling shows up as a byte difference between the copies.
TEST(ParallelRunner, ConcurrentCopiesOfOneSpecAreIdentical) {
  const ScenarioSpec spec = spec_of(Scheme::kHierarchical, ShapeKind::kRacked,
                                    PlanKind::kPauseResume, 5);
  const std::vector<ScenarioSpec> specs(4, spec);

  ParallelRunOptions options;
  options.jobs = 4;
  const std::vector<ScenarioResult> results = run_scenarios(specs, options);

  ASSERT_EQ(results.size(), 4u);
  EXPECT_FALSE(results[0].trace_jsonl.empty());
  for (size_t i = 1; i < results.size(); ++i) {
    expect_identical(results[0], results[i]);
  }
}

TEST(ParallelRunner, OneJobMatchesDirectSerialCalls) {
  const std::vector<ScenarioSpec> specs = {
      spec_of(Scheme::kHierarchical, ShapeKind::kRacked,
              PlanKind::kCrashRestart, 1),
      spec_of(Scheme::kGossip, ShapeKind::kSingleSegment,
              PlanKind::kLeaderKill, 2),
  };
  ParallelRunOptions options;
  options.jobs = 1;
  const std::vector<ScenarioResult> results = run_scenarios(specs, options);
  ASSERT_EQ(results.size(), 2u);
  for (size_t i = 0; i < specs.size(); ++i) {
    expect_identical(run_scenario(specs[i]), results[i]);
  }
}

// --- result isolation ------------------------------------------------------

// gossip/partition-heal is deliberately excluded from the matrix because it
// *really* violates the convergence invariant (symmetric split: plain gossip
// has no rejoin path). Here that makes it the perfect mid-batch red entry:
// a genuine oracle failure between two green siblings.
TEST(ParallelRunner, OracleFailureMidBatchDoesNotPoisonSiblings) {
  const ScenarioSpec red = spec_of(Scheme::kGossip, ShapeKind::kSingleSegment,
                                   PlanKind::kPartitionHeal, 1);
  ASSERT_FALSE(plan_applicable(red.scheme, red.plan));
  const std::vector<ScenarioSpec> specs = {
      spec_of(Scheme::kHierarchical, ShapeKind::kRacked, PlanKind::kLeaderKill,
              1),
      red,
      spec_of(Scheme::kAllToAll, ShapeKind::kRacked, PlanKind::kCrashRestart,
              3),
  };

  ParallelRunOptions options;
  options.jobs = 3;
  const std::vector<ScenarioResult> results = run_scenarios(specs, options);

  ASSERT_EQ(results.size(), 3u);
  EXPECT_FALSE(results[1].passed) << results[1].name;
  EXPECT_GT(results[1].violation_count, 0u);
  // The siblings are not merely green: they are byte-identical to their
  // solo serial runs, so the failure leaked nothing into them.
  expect_identical(run_scenario(specs[0]), results[0]);
  expect_identical(run_scenario(specs[2]), results[2]);
}

TEST(ParallelRunner, ThrowingScenarioIsIsolatedToItsSlot) {
  const std::vector<ScenarioSpec> specs(4, ScenarioSpec{});
  ParallelRunOptions options;
  options.jobs = 4;
  options.run = [](const ScenarioSpec& spec) -> ScenarioResult {
    if (spec.seed == 99) throw std::runtime_error("injected fault");
    ScenarioResult result;
    result.passed = true;
    result.name = scenario_name(spec);
    return result;
  };
  std::vector<ScenarioSpec> mutated = specs;
  mutated[2].seed = 99;

  const std::vector<ScenarioResult> results = run_scenarios(mutated, options);

  ASSERT_EQ(results.size(), 4u);
  for (size_t i : {size_t{0}, size_t{1}, size_t{3}}) {
    EXPECT_TRUE(results[i].passed) << i;
  }
  EXPECT_FALSE(results[2].passed);
  EXPECT_EQ(results[2].violation_count, 1u);
  EXPECT_NE(results[2].report.find("injected fault"), std::string::npos)
      << results[2].report;
  // The failed slot still carries its reproduction coordinates.
  EXPECT_EQ(results[2].name, scenario_name(mutated[2]));
  EXPECT_EQ(results[2].repro, repro_command(mutated[2]));
}

// --- edge cases -------------------------------------------------------------

TEST(ParallelRunner, EmptyScenarioSet) {
  std::atomic<int> emitted{0};
  ParallelRunOptions options;
  options.jobs = 8;
  options.on_result = [&](size_t, const ScenarioResult&) { ++emitted; };
  const std::vector<ScenarioResult> results = run_scenarios({}, options);
  EXPECT_TRUE(results.empty());
  EXPECT_EQ(emitted.load(), 0);
}

TEST(ParallelRunner, MoreThreadsThanScenarios) {
  std::vector<ScenarioSpec> specs(2, ScenarioSpec{});
  specs[0].seed = 10;
  specs[1].seed = 11;
  ParallelRunOptions options;
  options.jobs = 16;
  options.run = [](const ScenarioSpec& spec) {
    ScenarioResult result;
    result.passed = true;
    result.name = scenario_name(spec);
    return result;
  };
  const std::vector<ScenarioResult> results = run_scenarios(specs, options);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].name, scenario_name(specs[0]));
  EXPECT_EQ(results[1].name, scenario_name(specs[1]));
  // Surplus workers are not spawned at all.
  EXPECT_EQ(effective_jobs(16, 2), 2u);
}

TEST(ParallelRunner, EffectiveJobsResolution) {
  EXPECT_EQ(effective_jobs(1, 100), 1u);
  EXPECT_EQ(effective_jobs(8, 100), 8u);
  EXPECT_EQ(effective_jobs(8, 3), 3u);
  EXPECT_EQ(effective_jobs(5, 0), 1u);
  EXPECT_GE(effective_jobs(0, 100), 1u);  // hardware concurrency, >= 1
}

// Workers finish in reverse order (earlier specs sleep longest); the
// results vector and the on_result stream must still be in input order.
TEST(ParallelRunner, DeterministicOrderingRegardlessOfCompletionOrder) {
  constexpr size_t kCount = 6;
  std::vector<ScenarioSpec> specs(kCount, ScenarioSpec{});
  for (size_t i = 0; i < kCount; ++i) specs[i].seed = i;

  std::atomic<int> completion_rank{0};
  std::vector<int> completed_rank(kCount, -1);
  ParallelRunOptions options;
  options.jobs = kCount;
  options.run = [&](const ScenarioSpec& spec) {
    const auto index = static_cast<size_t>(spec.seed);
    std::this_thread::sleep_for(
        std::chrono::milliseconds(5 * (kCount - index)));
    completed_rank[index] = completion_rank.fetch_add(1);
    ScenarioResult result;
    result.passed = true;
    result.name = scenario_name(spec);
    return result;
  };
  std::vector<size_t> emitted;
  std::thread::id caller = std::this_thread::get_id();
  options.on_result = [&](size_t index, const ScenarioResult& result) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    EXPECT_EQ(result.name, scenario_name(specs[index]));
    emitted.push_back(index);
  };

  const std::vector<ScenarioResult> results = run_scenarios(specs, options);

  ASSERT_EQ(results.size(), kCount);
  for (size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(results[i].name, scenario_name(specs[i])) << i;
    EXPECT_EQ(emitted[i], i);
  }
  // Sanity: the staggered sleeps really did complete out of input order
  // (the last spec, sleeping shortest, finished before the first).
  EXPECT_LT(completed_rank[kCount - 1], completed_rank[0]);
}

// The full grid helper feeds the chaos matrix test and the chaos-grid
// benchmark; pin its shape so a silent shrink can't pass unnoticed.
TEST(ParallelRunner, FullMatrixShape) {
  const std::vector<ScenarioSpec> specs = full_matrix();
  size_t expected = 0;
  for (Scheme scheme :
       {Scheme::kAllToAll, Scheme::kGossip, Scheme::kHierarchical}) {
    for (PlanKind plan : kAllPlanKinds) {
      if (plan_applicable(scheme, plan)) expected += 3 * 3;  // shapes x seeds
    }
  }
  EXPECT_EQ(specs.size(), expected);
  EXPECT_GE(specs.size(), 162u);  // the grid only ever grows
  for (const ScenarioSpec& spec : specs) {
    EXPECT_TRUE(plan_applicable(spec.scheme, spec.plan))
        << scenario_name(spec);
  }
}

}  // namespace
}  // namespace tamp::chaos
