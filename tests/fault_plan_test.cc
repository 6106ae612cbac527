// FaultPlan generation: determinism, ordering, and the scenario naming /
// parsing round-trips that make a failing chaos tuple reproducible.
#include <gtest/gtest.h>

#include <set>

#include "sim/fault_plan.h"
#include "sim/scenario.h"

namespace tamp::chaos {
namespace {

std::string render(const FaultPlan& plan) {
  std::string out;
  for (const auto& event : plan.events) {
    out += sim::format_time(event.at) + " " + describe(event.action) + "\n";
  }
  return out;
}

TEST(FaultPlan, SameTupleSameSchedule) {
  for (PlanKind kind : kAllPlanKinds) {
    FaultPlan a = make_fault_plan(kind, 12, 4, 15 * sim::kSecond, 7);
    FaultPlan b = make_fault_plan(kind, 12, 4, 15 * sim::kSecond, 7);
    EXPECT_EQ(render(a), render(b)) << plan_name(kind);
    EXPECT_EQ(a.name, plan_name(kind));
  }
}

TEST(FaultPlan, EventsSortedAndNonEmpty) {
  for (PlanKind kind : kAllPlanKinds) {
    for (uint64_t seed = 1; seed <= 5; ++seed) {
      FaultPlan plan = make_fault_plan(kind, 12, 4, 10 * sim::kSecond, seed);
      ASSERT_FALSE(plan.events.empty()) << plan_name(kind);
      for (size_t i = 1; i < plan.events.size(); ++i) {
        EXPECT_LE(plan.events[i - 1].at, plan.events[i].at);
      }
      EXPECT_GE(plan.events.front().at, 10 * sim::kSecond);
      EXPECT_EQ(plan.last_event_time(), plan.events.back().at);
    }
  }
}

TEST(FaultPlan, SeedSelectsDifferentVictims) {
  // Across a spread of seeds the crash plan must not always pick the same
  // victim (the whole point of the seed sweep).
  std::set<std::string> schedules;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    schedules.insert(
        render(make_fault_plan(PlanKind::kCrashRestart, 12, 4, 0, seed)));
  }
  EXPECT_GT(schedules.size(), 1u);
}

TEST(FaultPlan, VictimsNeverTargetNodeZero) {
  // Index 0 is the bully winner; only the leader-targeted plans may touch
  // it, so the random-victim plans stay distinguishable from them.
  for (PlanKind kind : {PlanKind::kCrashRestart, PlanKind::kPauseResume}) {
    for (uint64_t seed = 1; seed <= 20; ++seed) {
      FaultPlan plan = make_fault_plan(kind, 8, 8, 0, seed);
      for (const auto& event : plan.events) {
        if (const auto* crash = std::get_if<CrashFault>(&event.action)) {
          EXPECT_NE(crash->node, 0u);
        }
        if (const auto* pause = std::get_if<PauseFault>(&event.action)) {
          EXPECT_NE(pause->node, 0u);
        }
      }
    }
  }
}

TEST(FaultPlan, PlanKindTableIsExhaustive) {
  // The static_assert in fault_plan.h pins std::size(kAllPlanKinds) to the
  // kCount sentinel; this sweep pins the rest of the surface to the array,
  // so a new PlanKind cannot ship with a missing name, generator, or
  // describe() case.
  EXPECT_EQ(std::size(kAllPlanKinds), kPlanKindCount);
  std::set<std::string> names;
  for (PlanKind kind : kAllPlanKinds) {
    std::string name = plan_name(kind);
    EXPECT_FALSE(name.empty());
    EXPECT_NE(name, "?") << "PlanKind " << static_cast<int>(kind)
                         << " missing from plan_name()";
    EXPECT_TRUE(names.insert(name).second) << "duplicate plan name " << name;
    FaultPlan plan = make_fault_plan(kind, 12, 4, 0, 1);
    EXPECT_FALSE(plan.events.empty()) << name;
    for (const auto& event : plan.events) {
      EXPECT_FALSE(describe(event.action).empty()) << name;
    }
  }
}

TEST(FaultPlan, DescribeCoversEveryAction) {
  for (PlanKind kind : kAllPlanKinds) {
    FaultPlan plan = make_fault_plan(kind, 12, 4, 0, 3);
    for (const auto& event : plan.events) {
      EXPECT_FALSE(describe(event.action).empty());
    }
  }
}

TEST(ScenarioNaming, ParseRoundTripsEveryCoordinate) {
  using protocols::Scheme;
  for (Scheme scheme :
       {Scheme::kAllToAll, Scheme::kGossip, Scheme::kHierarchical}) {
    Scheme parsed;
    ASSERT_TRUE(parse_scheme(protocols::scheme_name(scheme), &parsed));
    EXPECT_EQ(parsed, scheme);
  }
  for (ShapeKind shape : kAllShapeKinds) {
    ShapeKind parsed;
    ASSERT_TRUE(parse_shape(shape_name(shape), &parsed));
    EXPECT_EQ(parsed, shape);
  }
  for (PlanKind plan : kAllPlanKinds) {
    PlanKind parsed;
    ASSERT_TRUE(parse_plan(plan_name(plan), &parsed));
    EXPECT_EQ(parsed, plan);
  }
  Scheme scheme;
  ShapeKind shape;
  PlanKind plan;
  EXPECT_FALSE(parse_scheme("carrier-pigeon", &scheme));
  EXPECT_FALSE(parse_shape("moebius", &shape));
  EXPECT_FALSE(parse_plan("bees", &plan));
}

TEST(ScenarioNaming, NameAndReproCarryAllFourCoordinates) {
  ScenarioSpec spec;
  spec.scheme = protocols::Scheme::kGossip;
  spec.shape = ShapeKind::kRouterChain;
  spec.plan = PlanKind::kLossStorm;
  spec.seed = 42;
  std::string name = scenario_name(spec);
  EXPECT_NE(name.find("gossip"), std::string::npos);
  EXPECT_NE(name.find("router-chain"), std::string::npos);
  EXPECT_NE(name.find("loss-storm"), std::string::npos);
  EXPECT_NE(name.find("s42"), std::string::npos);
  std::string repro = repro_command(spec);
  EXPECT_NE(repro.find("chaos_soak"), std::string::npos);
  EXPECT_NE(repro.find("--seed=42"), std::string::npos);
}

TEST(PlanApplicability, GossipSkipsOnlySymmetricSplits) {
  using protocols::Scheme;
  int applicable = 0;
  for (PlanKind plan : kAllPlanKinds) {
    EXPECT_TRUE(plan_applicable(Scheme::kAllToAll, plan));
    EXPECT_TRUE(plan_applicable(Scheme::kHierarchical, plan));
    if (plan_applicable(Scheme::kGossip, plan)) ++applicable;
  }
  // The matrix requirement: at least four plan kinds per scheme.
  EXPECT_GE(applicable, 4);
}

// Racked and router-chain build three equal segments. A node count those
// shapes cannot lay out exits before the run, naming the shape and both
// counts, instead of aborting on a victim index past the built hosts
// (racked, 20) or silently running one node short (router-chain, 13).
TEST(ScenarioSpecDeathTest, NodeCountTheShapeCannotBuildAborts) {
  ScenarioSpec spec;
  spec.scheme = protocols::Scheme::kGossip;
  spec.shape = ShapeKind::kRacked;
  spec.plan = PlanKind::kCrashRestart;
  spec.seed = 2;
  spec.nodes = 20;
  EXPECT_DEATH(run_scenario(spec),
               "--shape=racked builds 18 hosts, not --nodes=20");
  spec.shape = ShapeKind::kRouterChain;
  spec.nodes = 13;
  EXPECT_DEATH(run_scenario(spec),
               "--shape=router-chain builds 12 hosts, not --nodes=13");
}

}  // namespace
}  // namespace tamp::chaos
