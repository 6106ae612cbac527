// The chaos matrix: every (scheme x shape x plan x seed) scenario runs a
// full fault schedule through the transport's FaultInjector and is graded
// by the MembershipOracle. A failing entry prints the exact reproduction
// tuple and the bench/chaos_soak command that replays it.
#include <gtest/gtest.h>

#include <cctype>
#include <vector>

#include "sim/scenario.h"

namespace tamp::chaos {
namespace {

// The grid itself comes from full_matrix(). bench/chaos_soak --scheme=all
// --shape=all --plan=all runs the same set in its own seed-major order.
std::vector<ScenarioSpec> matrix() { return full_matrix(); }

std::string param_name(const ::testing::TestParamInfo<ScenarioSpec>& info) {
  std::string name = scenario_name(info.param);
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name;
}

class ChaosMatrix : public ::testing::TestWithParam<ScenarioSpec> {};

TEST_P(ChaosMatrix, InvariantsHoldUnderFaults) {
  ScenarioResult result = run_scenario(GetParam());
  EXPECT_GT(result.oracle_checks, 0u) << result.name;
  EXPECT_GT(result.final_running, 0u) << result.name;
  EXPECT_TRUE(result.passed)
      << result.name << ": " << result.violation_count
      << " invariant violation(s)\n"
      << result.report << "\nreproduce with: " << result.repro;
  // At quiescence the cluster itself must agree with the oracle: every
  // running view converged back to the running set.
  EXPECT_EQ(result.final_converged, result.final_running)
      << result.name << "\nreproduce with: " << result.repro;
}

INSTANTIATE_TEST_SUITE_P(Sweep, ChaosMatrix, ::testing::ValuesIn(matrix()),
                         param_name);

// Sweep's hierarchical rows again, under their historical "_digest" test
// ids. Digest rounds are the only periodic anti-entropy, so these repeat
// Sweep's rows exactly; they are kept only so the existing ids keep
// resolving (ROADMAP item 6 retires them).
std::vector<ScenarioSpec> hierarchical_rows() {
  std::vector<ScenarioSpec> rows;
  for (const ScenarioSpec& spec : matrix()) {
    if (spec.scheme == protocols::Scheme::kHierarchical) rows.push_back(spec);
  }
  return rows;
}

INSTANTIATE_TEST_SUITE_P(
    DigestSweep, ChaosMatrix, ::testing::ValuesIn(hierarchical_rows()),
    [](const ::testing::TestParamInfo<ScenarioSpec>& info) {
      return param_name(info) + "_digest";
    });

}  // namespace
}  // namespace tamp::chaos
