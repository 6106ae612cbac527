// SLO-during-churn bench: what does each failure mode cost *users*?
//
// Runs the deterministic application workload (src/workload) on top of the
// chaos scenario runner for every membership scheme under a fixed slate of
// fault plans, and reports the user-visible damage per (scheme, plan):
// misroute rate, retry amplification, proxy-fallback rate, success rate,
// and fault/heal-phase tail latency (p99/p999).
//
//   bench/slo_churn --json=BENCH_slo.json            # the committed artifact
//   bench/slo_churn --jobs=8                         # same bytes, faster
//   bench/slo_churn --plans=crash-restart,router-flap --runs=2
//
// Every scenario is a pure function of its (scheme, shape, plan, seed)
// tuple and the workload accounting is integer-valued, so the JSON (and
// stdout) is byte-identical for any --jobs value. Rates are fixed-precision
// renderings of integer ratios, computed once here from the integer counts.
//
// Gossip skips router-flap by plan applicability (no rejoin path across a
// healed symmetric split — a baseline property, not a bug), so its row set
// is one shorter; the remaining plans still cover >= 4 distinct faults.
#include <cstdio>
#include <string>
#include <vector>

#include "sim/parallel_runner.h"
#include "sim/scenario.h"
#include "util/flags.h"

using namespace tamp;

namespace {

// The bench's fault slate: node churn, congestion, control-plane loss,
// membership growth, and network-device churn. router-flap is the headline
// plan — it invalidates directory rows without killing any provider.
const chaos::PlanKind kDefaultPlans[] = {
    chaos::PlanKind::kCrashRestart, chaos::PlanKind::kLossStorm,
    chaos::PlanKind::kLeaderKill, chaos::PlanKind::kJoinStorm,
    chaos::PlanKind::kRouterFlap};

struct Row {
  chaos::ScenarioSpec spec;
  bool passed = false;
  workload::PhaseSlo total;  // phase sums (percentile fields unused)
  std::vector<workload::PhaseSlo> phases;
};

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
    for (int c = 0; c < service::kFailureCauseCount; ++c) {
      total.failed_by_cause[static_cast<size_t>(c)] +=
          p.failed_by_cause[static_cast<size_t>(c)];
    }
  }
  return total;
}

double ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0.0
                  : static_cast<double>(num) / static_cast<double>(den);
}

void write_json(const std::string& path, uint64_t first_seed, int runs,
                size_t nodes, const std::vector<Row>& rows) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open --json=%s\n", path.c_str());
    return;
  }
  std::fprintf(out, "{\n  \"bench\": \"slo_churn\",\n");
  std::fprintf(out, "  \"nodes\": %zu,\n", nodes);
  std::fprintf(out, "  \"first_seed\": %llu,\n",
               static_cast<unsigned long long>(first_seed));
  std::fprintf(out, "  \"runs\": %d,\n", runs);
  std::fprintf(out, "  \"rows\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    const workload::PhaseSlo& t = r.total;
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
  std::fclose(out);
}

}  // namespace

int main(int argc, char** argv) {
  util::FlagSet flags("slo_churn");
  auto& seed_flag = flags.add_int("seed", 1, "first seed");
  auto& runs_flag = flags.add_int("runs", 1, "consecutive seeds to sweep");
  auto& nodes_flag = flags.add_int("nodes", 12, "cluster size");
  auto& plans_flag = flags.add_string(
      "plans", "", "comma-separated plan names (default: the bench slate)");
  auto& jobs_flag = flags.add_int(
      "jobs", 1, "worker threads (0 = hardware concurrency); output is"
                 " byte-identical for any value");
  auto& json_flag = flags.add_string(
      "json", "", "write machine-readable results to this file");
  flags.parse(argc, argv);

  const std::string nodes_error =
      chaos::nodes_error(chaos::ShapeKind::kRacked, nodes_flag);
  if (!nodes_error.empty()) {
    std::fprintf(stderr, "%s\n", nodes_error.c_str());
    return 2;
  }

  std::vector<chaos::PlanKind> plans;
  if (plans_flag.empty()) {
    plans.assign(std::begin(kDefaultPlans), std::end(kDefaultPlans));
  } else {
    std::string token;
    for (size_t i = 0; i <= plans_flag.size(); ++i) {
      if (i == plans_flag.size() || plans_flag[i] == ',') {
        chaos::PlanKind plan;
        if (!token.empty() && !chaos::parse_plan(token, &plan)) {
          std::fprintf(stderr, "unknown plan '%s' in --plans\n",
                       token.c_str());
          return 2;
        }
        if (!token.empty()) plans.push_back(plan);
        token.clear();
      } else {
        token.push_back(plans_flag[i]);
      }
    }
  }

  const protocols::Scheme kSchemes[] = {protocols::Scheme::kAllToAll,
                                        protocols::Scheme::kGossip,
                                        protocols::Scheme::kHierarchical};

  std::vector<chaos::ScenarioSpec> specs;
  int skipped = 0;
  for (int run = 0; run < runs_flag; ++run) {
    for (protocols::Scheme scheme : kSchemes) {
      for (chaos::PlanKind plan : plans) {
        if (!chaos::plan_applicable(scheme, plan)) {
          ++skipped;
          continue;
        }
        chaos::ScenarioSpec spec;
        spec.scheme = scheme;
        spec.shape = chaos::ShapeKind::kRacked;
        spec.plan = plan;
        spec.seed = static_cast<uint64_t>(seed_flag + run);
        spec.nodes = static_cast<size_t>(nodes_flag);
        spec.slo = true;
        specs.push_back(spec);
      }
    }
  }

  std::printf("SLO during churn — racked shape, %d node(s), workload on"
              " every node\n\n",
              static_cast<int>(nodes_flag));
  std::printf("%-13s %-14s %5s %8s %9s %8s %7s %7s %10s %10s\n", "scheme",
              "plan", "seed", "issued", "misroute", "retry", "proxy", "ok",
              "fault p99", "heal p99");

  std::vector<Row> rows;
  int failed = 0;
  chaos::ParallelRunOptions options;
  options.jobs = static_cast<size_t>(jobs_flag < 0 ? 1 : jobs_flag);
  options.on_result = [&](size_t index, const chaos::ScenarioResult& result) {
    Row row;
    row.spec = specs[index];
    row.passed = result.passed;
    row.phases = result.slo_phases;
    row.total = sum_phases(result.slo_phases);
    const uint64_t completed = row.total.ok + row.total.failed;
    std::printf(
        "%-13s %-14s %5llu %8llu %9.4f %8.4f %7.4f %7.4f %9.1fms %9.1fms\n",
        protocols::scheme_name(row.spec.scheme),
        chaos::plan_name(row.spec.plan),
        static_cast<unsigned long long>(row.spec.seed),
        static_cast<unsigned long long>(row.total.issued),
        ratio(row.total.misroutes, row.total.issued),
        ratio(row.total.attempts, completed),
        ratio(row.total.via_proxy, completed),
        ratio(row.total.ok, row.total.issued),
        static_cast<double>(row.phases[1].p99_ns) / 1e6,
        static_cast<double>(row.phases[2].p99_ns) / 1e6);
    if (!result.passed) {
      ++failed;
      std::printf("FAIL %s\n%s\nreproduce with: %s\n", result.name.c_str(),
                  result.report.c_str(), result.repro.c_str());
    }
    rows.push_back(std::move(row));
  };
  chaos::run_scenarios(specs, options);

  if (!json_flag.empty()) {
    write_json(json_flag, static_cast<uint64_t>(seed_flag),
               static_cast<int>(runs_flag), static_cast<size_t>(nodes_flag),
               rows);
  }
  std::printf("\nslo_churn: %zu scenario(s), %d failed, %d skipped"
              " (inapplicable)\n",
              specs.size(), failed, skipped);
  return failed > 0 ? 1 : 0;
}
