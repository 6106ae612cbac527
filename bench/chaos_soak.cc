// Scenario-sweep driver: the long-horizon chaos soak, the reproduction
// vehicle for red chaos matrix entries, and the SLO-during-churn report. A
// failing test prints a chaos_soak command line whose four coordinates
// (scheme, shape, plan, seed) replay the exact scenario.
//
//   bench/chaos_soak --scheme=hierarchical --shape=racked --plan=leader-kill --seed=3
//   bench/chaos_soak --plan=all --runs=20        # soak: 20 seeds x all plans
//   bench/chaos_soak --trace=trace.jsonl         # deterministic event trace
//   bench/chaos_soak --metrics=metrics.json      # registry snapshots
//   bench/chaos_soak --jobs=8                    # parallel scenario runner
//   bench/chaos_soak --scheme=all --shape=racked --slo --json=BENCH_slo.json
//       --plan=crash-restart,loss-storm,leader-kill,join-storm,router-flap
//
// --slo runs the deterministic application workload (src/workload) on every
// scenario. --json then reports what each failure mode costs users, one row
// per (scheme, plan, seed): misroute rate, retry amplification,
// proxy-fallback rate, success rate, and fault/heal-phase tail latency
// (p99/p999). The workload accounting is integer-valued, and the rates are
// fixed-precision renderings of integer ratios computed once here. The
// committed slate above covers node churn, congestion, control-plane loss,
// membership growth and network-device churn; router-flap invalidates
// directory rows without killing any provider. Gossip skips router-flap by
// plan applicability (no rejoin path across a healed symmetric split), so
// its row set is one shorter.
//
// Output (stdout, trace, metrics, json) is emitted in sweep order regardless
// of --jobs, and every scenario is a pure function of its spec, so the bytes
// produced at --jobs=1 and --jobs=8 are identical.
#include <algorithm>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "sim/parallel_runner.h"
#include "sim/scenario.h"
#include "util/flags.h"

using namespace tamp;

namespace {

struct Row {
  chaos::ScenarioSpec spec;
  bool passed = false;
  std::vector<workload::PhaseSlo> phases;
};

// The phases' counts summed; the percentile fields stay unset.
workload::PhaseSlo sum_phases(const std::vector<workload::PhaseSlo>& phases) {
  workload::PhaseSlo total;
  for (const workload::PhaseSlo& p : phases) {
    total.issued += p.issued;
    total.ok += p.ok;
    total.failed += p.failed;
    total.aborted += p.aborted;
    total.unresolved += p.unresolved;
    total.attempts += p.attempts;
    total.misroutes += p.misroutes;
    total.via_proxy += p.via_proxy;
  }
  return total;
}

double ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0.0
                  : static_cast<double>(num) / static_cast<double>(den);
}

void write_json(std::FILE* out, uint64_t first_seed, int64_t runs,
                size_t nodes, const std::vector<Row>& rows) {
  // "slo_churn" names the report (BENCH_slo.json's header), not a binary.
  std::fprintf(out, "{\n  \"bench\": \"slo_churn\",\n");
  std::fprintf(out, "  \"nodes\": %zu,\n", nodes);
  std::fprintf(out, "  \"first_seed\": %llu,\n",
               static_cast<unsigned long long>(first_seed));
  std::fprintf(out, "  \"runs\": %lld,\n", static_cast<long long>(runs));
  std::fprintf(out, "  \"rows\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    const workload::PhaseSlo t = sum_phases(r.phases);
    const uint64_t completed = t.ok + t.failed;
    const workload::PhaseSlo& fault = r.phases[1];
    const workload::PhaseSlo& heal = r.phases[2];
    std::fprintf(
        out,
        "    {\"scheme\": \"%s\", \"plan\": \"%s\", \"seed\": %llu,"
        " \"passed\": %s,"
        " \"issued\": %llu, \"ok\": %llu, \"failed\": %llu,"
        " \"aborted\": %llu, \"unresolved\": %llu,"
        " \"attempts\": %llu, \"misroutes\": %llu, \"via_proxy\": %llu,"
        " \"ok_rate\": %.6f, \"misroute_rate\": %.6f,"
        " \"retry_amplification\": %.6f, \"proxy_rate\": %.6f,"
        " \"pre_p99_ns\": %lld,"
        " \"fault_p99_ns\": %lld, \"fault_p999_ns\": %lld,"
        " \"heal_p99_ns\": %lld, \"heal_p999_ns\": %lld}%s\n",
        protocols::scheme_name(r.spec.scheme), chaos::plan_name(r.spec.plan),
        static_cast<unsigned long long>(r.spec.seed),
        r.passed ? "true" : "false",
        static_cast<unsigned long long>(t.issued),
        static_cast<unsigned long long>(t.ok),
        static_cast<unsigned long long>(t.failed),
        static_cast<unsigned long long>(t.aborted),
        static_cast<unsigned long long>(t.unresolved),
        static_cast<unsigned long long>(t.attempts),
        static_cast<unsigned long long>(t.misroutes),
        static_cast<unsigned long long>(t.via_proxy),
        ratio(t.ok, t.issued), ratio(t.misroutes, t.issued),
        ratio(t.attempts, completed), ratio(t.via_proxy, completed),
        static_cast<long long>(r.phases[0].p99_ns),
        static_cast<long long>(fault.p99_ns),
        static_cast<long long>(fault.p999_ns),
        static_cast<long long>(heal.p99_ns),
        static_cast<long long>(heal.p999_ns),
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
}

// --plan: 'all', or comma-separated plan names run in the order given.
// Returns an error message for an unknown, empty or repeated name.
std::string parse_plans(const std::string& text,
                        std::vector<chaos::PlanKind>* plans) {
  if (text == "all") {
    plans->assign(std::begin(chaos::kAllPlanKinds),
                  std::end(chaos::kAllPlanKinds));
    return "";
  }
  for (size_t start = 0; start <= text.size();) {
    size_t comma = text.find(',', start);
    if (comma == std::string::npos) comma = text.size();
    const std::string token = text.substr(start, comma - start);
    chaos::PlanKind plan;
    if (token.empty()) return "empty plan name in --plan=" + text;
    if (!chaos::parse_plan(token, &plan)) {
      return "unknown plan '" + token + "' in --plan=" + text;
    }
    if (std::find(plans->begin(), plans->end(), plan) != plans->end()) {
      return "plan '" + token + "' repeats in --plan=" + text;
    }
    plans->push_back(plan);
    start = comma + 1;
  }
  return "";
}

// Opens an output file before any scenario runs, so an unwritable path is a
// usage error rather than a finished sweep with nothing written.
bool open_output(const char* flag, const std::string& path, std::FILE** out) {
  if (path.empty()) return true;
  *out = std::fopen(path.c_str(), "w");
  if (*out == nullptr) {
    std::fprintf(stderr, "cannot open --%s=%s\n", flag, path.c_str());
  }
  return *out != nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  util::FlagSet flags("chaos_soak");
  auto& scheme_flag =
      flags.add_string("scheme", "hierarchical",
                       "all-to-all | gossip | hierarchical | all");
  auto& shape_flag = flags.add_string(
      "shape", "racked", "single-segment | racked | router-chain | all");
  auto& plan_flag = flags.add_string(
      "plan", "all", "fault plan name (see src/sim/fault_plan.h), a"
                     " comma-separated list run in the order given, or 'all'");
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
  auto& json_flag = flags.add_string(
      "json", "", "with --slo and one shape: write the SLO report, one row"
                  " per scenario (the BENCH_slo.json format), to this file");
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
  const std::string plan_error = parse_plans(plan_flag, &plans);
  if (!plan_error.empty()) {
    std::fprintf(stderr, "%s\n", plan_error.c_str());
    return 2;
  }

  // A sweep whose flags cannot mean what they say exits 2 here, before a
  // mistyped gate can pass on zero scenarios or on seeds nobody asked for.
  if (runs_flag < 1) {
    std::fprintf(stderr, "--runs=%lld must be at least 1\n",
                 static_cast<long long>(runs_flag));
    return 2;
  }
  if (seed_flag < 0 ||
      runs_flag - 1 > std::numeric_limits<int64_t>::max() - seed_flag) {
    std::fprintf(stderr,
                 "--seed=%lld --runs=%lld: seeds must lie in [0, 2^63)\n",
                 static_cast<long long>(seed_flag),
                 static_cast<long long>(runs_flag));
    return 2;
  }
  if (jobs_flag < 0) {
    std::fprintf(stderr,
                 "--jobs=%lld must be >= 0 (0 = hardware concurrency)\n",
                 static_cast<long long>(jobs_flag));
    return 2;
  }
  if (!json_flag.empty() && !slo_flag) {
    std::fprintf(stderr, "--json requires --slo\n");
    return 2;
  }
  // The report's rows are keyed by (scheme, plan, seed) alone.
  if (!json_flag.empty() && shapes.size() != 1) {
    std::fprintf(stderr, "--json reports one shape; pick one --shape\n");
    return 2;
  }

  // Collect the sweep in canonical order first; the runner preserves this
  // order in its output stream no matter how many workers execute it.
  std::vector<chaos::ScenarioSpec> specs;
  int skipped = 0;
  for (int64_t run = 0; run < runs_flag; ++run) {
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
          spec.trace = !trace_flag.empty();
          spec.metrics = !metrics_flag.empty();
          spec.slo = slo_flag;
          specs.push_back(spec);
        }
      }
    }
  }
  if (specs.empty()) {
    std::fprintf(stderr,
                 "empty sweep: no --plan applies to any --scheme (%d"
                 " skipped as inapplicable)\n",
                 skipped);
    return 2;
  }

  std::FILE* trace_out = nullptr;
  std::FILE* metrics_out = nullptr;
  std::FILE* json_out = nullptr;
  if (!open_output("trace", trace_flag, &trace_out) ||
      !open_output("metrics", metrics_flag, &metrics_out) ||
      !open_output("json", json_flag, &json_out)) {
    return 2;
  }

  std::vector<Row> rows;
  int failed = 0;
  chaos::ParallelRunOptions options;
  options.jobs = static_cast<size_t>(jobs_flag);
  options.on_result = [&](size_t index, const chaos::ScenarioResult& result) {
    if (trace_out != nullptr) {
      std::fprintf(trace_out, "{\"scenario\":\"%s\"}\n", result.name.c_str());
      std::fputs(result.trace_jsonl.c_str(), trace_out);
    }
    if (metrics_out != nullptr) {
      std::fprintf(metrics_out, "{\"scenario\":\"%s\"}\n",
                   result.name.c_str());
      std::fprintf(metrics_out, "%s\n", result.metrics_json.c_str());
    }
    if (json_out != nullptr) {
      rows.push_back({specs[index], result.passed, result.slo_phases});
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
  if (json_out != nullptr) {
    write_json(json_out, static_cast<uint64_t>(seed_flag), runs_flag,
               static_cast<size_t>(nodes_flag), rows);
    std::fclose(json_out);
  }
  std::printf("chaos_soak: %zu scenario(s), %d failed, %d skipped"
              " (inapplicable)\n",
              specs.size(), failed, skipped);
  return failed > 0 ? 1 : 0;
}
