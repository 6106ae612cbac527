// Long-horizon chaos driver, and the reproduction vehicle for red chaos
// matrix entries: a failing test prints a chaos_soak command line whose
// four coordinates (scheme, shape, plan, seed) replay the exact scenario.
//
//   bench/chaos_soak --scheme=hierarchical --shape=racked --plan=leader-kill --seed=3
//   bench/chaos_soak --plan=all --runs=20        # soak: 20 seeds x all plans
//   bench/chaos_soak --trace=trace.jsonl         # deterministic event trace
//   bench/chaos_soak --metrics=metrics.json      # registry snapshots
//   bench/chaos_soak --jobs=8                    # parallel scenario runner
//
// Output (stdout, trace, metrics) is emitted in sweep order regardless of
// --jobs, and every scenario is a pure function of its spec, so the bytes
// produced at --jobs=1 and --jobs=8 are identical.
#include <cstdio>
#include <string>
#include <vector>

#include "sim/parallel_runner.h"
#include "sim/scenario.h"
#include "util/flags.h"

int main(int argc, char** argv) {
  using namespace tamp;

  util::FlagSet flags("chaos_soak");
  auto& scheme_flag =
      flags.add_string("scheme", "hierarchical",
                       "all-to-all | gossip | hierarchical | all");
  auto& shape_flag = flags.add_string(
      "shape", "racked", "single-segment | racked | router-chain | all");
  auto& plan_flag = flags.add_string(
      "plan", "all", "fault plan name (see src/sim/fault_plan.h) or 'all'");
  auto& seed_flag = flags.add_int("seed", 1, "first seed");
  auto& runs_flag = flags.add_int("runs", 1, "consecutive seeds to sweep");
  auto& nodes_flag = flags.add_int("nodes", 12, "cluster size");
  auto& jobs_flag = flags.add_int(
      "jobs", 1, "worker threads (0 = hardware concurrency); output is"
                 " byte-identical for any value");
  auto& trace_flag = flags.add_string(
      "trace", "", "append each scenario's structured event trace (JSONL,"
                   " byte-identical per seed) to this file");
  auto& metrics_flag = flags.add_string(
      "metrics", "", "append each scenario's metrics-registry snapshot"
                     " (JSON) to this file");
  auto& slo_flag = flags.add_bool(
      "slo", false, "run the application workload on every scenario and"
                    " print its per-phase SLO report (deterministic JSON)");
  auto& slo_out_flag = flags.add_string(
      "slo-out", "", "with --slo: also append each scenario's SLO report"
                     " (JSONL, byte-identical per seed) to this file");
  flags.parse(argc, argv);

  std::vector<protocols::Scheme> schemes;
  if (scheme_flag == "all") {
    schemes = {protocols::Scheme::kAllToAll, protocols::Scheme::kGossip,
               protocols::Scheme::kHierarchical};
  } else {
    protocols::Scheme scheme;
    if (!chaos::parse_scheme(scheme_flag, &scheme)) {
      std::fprintf(stderr, "unknown --scheme=%s\n", scheme_flag.c_str());
      return 2;
    }
    schemes = {scheme};
  }

  std::vector<chaos::ShapeKind> shapes;
  if (shape_flag == "all") {
    shapes.assign(std::begin(chaos::kAllShapeKinds),
                  std::end(chaos::kAllShapeKinds));
  } else {
    chaos::ShapeKind shape;
    if (!chaos::parse_shape(shape_flag, &shape)) {
      std::fprintf(stderr, "unknown --shape=%s\n", shape_flag.c_str());
      return 2;
    }
    shapes = {shape};
  }

  for (chaos::ShapeKind shape : shapes) {
    const std::string error = chaos::nodes_error(shape, nodes_flag);
    if (!error.empty()) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 2;
    }
  }

  std::vector<chaos::PlanKind> plans;
  if (plan_flag == "all") {
    plans.assign(std::begin(chaos::kAllPlanKinds),
                 std::end(chaos::kAllPlanKinds));
  } else {
    chaos::PlanKind plan;
    if (!chaos::parse_plan(plan_flag, &plan)) {
      std::fprintf(stderr, "unknown --plan=%s\n", plan_flag.c_str());
      return 2;
    }
    plans = {plan};
  }

  std::FILE* trace_out = nullptr;
  if (!trace_flag.empty()) {
    trace_out = std::fopen(trace_flag.c_str(), "w");
    if (trace_out == nullptr) {
      std::fprintf(stderr, "cannot open --trace=%s\n", trace_flag.c_str());
      return 2;
    }
  }
  std::FILE* metrics_out = nullptr;
  if (!metrics_flag.empty()) {
    metrics_out = std::fopen(metrics_flag.c_str(), "w");
    if (metrics_out == nullptr) {
      std::fprintf(stderr, "cannot open --metrics=%s\n", metrics_flag.c_str());
      return 2;
    }
  }
  std::FILE* slo_out = nullptr;
  if (!slo_out_flag.empty()) {
    if (!slo_flag) {
      std::fprintf(stderr, "--slo-out requires --slo\n");
      return 2;
    }
    slo_out = std::fopen(slo_out_flag.c_str(), "w");
    if (slo_out == nullptr) {
      std::fprintf(stderr, "cannot open --slo-out=%s\n",
                   slo_out_flag.c_str());
      return 2;
    }
  }

  // Collect the sweep in canonical order first; the runner preserves this
  // order in its output stream no matter how many workers execute it.
  std::vector<chaos::ScenarioSpec> specs;
  int skipped = 0;
  for (int run = 0; run < runs_flag; ++run) {
    for (protocols::Scheme scheme : schemes) {
      for (chaos::ShapeKind shape : shapes) {
        for (chaos::PlanKind plan : plans) {
          if (!chaos::plan_applicable(scheme, plan)) {
            ++skipped;
            continue;
          }
          chaos::ScenarioSpec spec;
          spec.scheme = scheme;
          spec.shape = shape;
          spec.plan = plan;
          spec.seed = static_cast<uint64_t>(seed_flag + run);
          spec.nodes = static_cast<size_t>(nodes_flag);
          spec.trace = trace_out != nullptr;
          spec.metrics = metrics_out != nullptr;
          spec.slo = slo_flag;
          specs.push_back(spec);
        }
      }
    }
  }

  int failed = 0;
  chaos::ParallelRunOptions options;
  options.jobs = static_cast<size_t>(jobs_flag < 0 ? 1 : jobs_flag);
  options.on_result = [&](size_t, const chaos::ScenarioResult& result) {
    if (trace_out != nullptr) {
      std::fprintf(trace_out, "{\"scenario\":\"%s\"}\n", result.name.c_str());
      std::fputs(result.trace_jsonl.c_str(), trace_out);
    }
    if (metrics_out != nullptr) {
      std::fprintf(metrics_out, "{\"scenario\":\"%s\"}\n",
                   result.name.c_str());
      std::fprintf(metrics_out, "%s\n", result.metrics_json.c_str());
    }
    if (slo_out != nullptr) {
      std::fprintf(slo_out, "{\"scenario\":\"%s\",\"slo\":%s}\n",
                   result.name.c_str(), result.slo_json.c_str());
    }
    std::printf("%-4s %-55s horizon=%6.1fs events=%-8llu checks=%-4llu"
                " converged=%zu/%zu\n",
                result.passed ? "ok" : "FAIL", result.name.c_str(),
                sim::to_seconds(result.horizon),
                static_cast<unsigned long long>(result.events),
                static_cast<unsigned long long>(result.oracle_checks),
                result.final_converged, result.final_running);
    if (!result.slo_json.empty()) {
      std::printf("     slo %s\n", result.slo_json.c_str());
    }
    if (!result.passed) {
      ++failed;
      std::printf("%s\nreproduce with: %s\n", result.report.c_str(),
                  result.repro.c_str());
    }
  };
  chaos::run_scenarios(specs, options);

  if (trace_out != nullptr) std::fclose(trace_out);
  if (metrics_out != nullptr) std::fclose(metrics_out);
  if (slo_out != nullptr) std::fclose(slo_out);
  std::printf("chaos_soak: %zu scenario(s), %d failed, %d skipped"
              " (inapplicable)\n",
              specs.size(), failed, skipped);
  return failed > 0 ? 1 : 0;
}
