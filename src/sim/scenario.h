// Chaos scenario runner: one deterministic end-to-end experiment.
//
// A scenario is fully described by four coordinates — (scheme, shape, plan,
// seed) — and run_scenario() turns that tuple into a complete graded
// experiment: build the topology shape, bring up a cluster of the chosen
// scheme, attach the MembershipOracle, execute the FaultPlan through the
// transport's FaultInjector hook, and run until the oracle's quiescence
// horizon has passed. The result carries the oracle's verdict plus a
// ready-to-paste reproduction command, so a red chaos-matrix entry in a CI
// log is reproducible from the test name alone.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/obs.h"
#include "protocols/cluster.h"
#include "sim/fault_plan.h"
#include "workload/workload.h"

namespace tamp::chaos {

// Topology families the matrix sweeps. Single segment exercises one flat
// level-0 group; racked is the paper's evaluation layout (TTL 2); the router
// chain makes the higher-level groups overlap (paper Fig. 4, generalized).
enum class ShapeKind { kSingleSegment, kRacked, kRouterChain };

inline constexpr ShapeKind kAllShapeKinds[] = {
    ShapeKind::kSingleSegment, ShapeKind::kRacked, ShapeKind::kRouterChain};

const char* shape_name(ShapeKind shape);

// Why `shape` cannot build a cluster of `nodes` hosts, or "" if it can. A
// scenario needs at least 6 hosts, and racked and router-chain split them
// into three equal segments. Drivers check flags with it before building
// any scenario; the runner aborts on a size the shape cannot build.
std::string nodes_error(ShapeKind shape, int64_t nodes);

// Whether `plan` is a fair test for `scheme`. Plain gossip has no rejoin
// mechanism: after a *symmetric* split both sides remove (and quarantine)
// each other, and since targets are drawn from the local view, no packet
// ever crosses the healed boundary again. That is a real property of the
// baseline protocol, not a bug, so the bisection-style plans are skipped
// for gossip rather than graded as violations.
bool plan_applicable(protocols::Scheme scheme, PlanKind plan);

struct ScenarioSpec {
  protocols::Scheme scheme = protocols::Scheme::kHierarchical;
  ShapeKind shape = ShapeKind::kRacked;
  PlanKind plan = PlanKind::kCrashRestart;
  uint64_t seed = 1;
  size_t nodes = 12;  // total cluster size (split into 3 equal segments on
                      // the racked / chain shapes: a multiple of 3 there)
  // Extra virtual time simulated past the oracle's quiescence bound, so the
  // quiescent invariants get several check ticks.
  sim::Duration tail = 8 * sim::kSecond;
  // Observability. When `trace` is set the runner enables the network's
  // structured tracer (capacity / kinds below) and returns the JSONL dump
  // in ScenarioResult::trace_jsonl — byte-identical across same-seed runs.
  // When `metrics` is set, ScenarioResult::metrics_json carries the
  // registry snapshot. Independent of either flag, every run cross-checks
  // the registry's conservation identities (per-host sums vs totals,
  // per-kind decomposition, protocol-vs-transport send counts) and grades a
  // mismatch as a failure.
  bool trace = false;
  size_t trace_capacity = size_t{1} << 16;
  uint64_t trace_kinds_mask = obs::kAllTraceKinds;
  bool metrics = false;
  // SLO mode: run the deterministic application workload (src/workload) on
  // top of the scenario — every node issues open-loop user requests through
  // its live ServiceConsumer while the fault plan executes — and return the
  // per-phase SLO report in ScenarioResult::slo_json. Workload arrivals
  // derive from `seed`, so the report is part of the reproduction tuple:
  // byte-identical across same-seed runs at any parallel-runner jobs count.
  bool slo = false;
};

// "hierarchical/racked/leader-kill/s3" — the four reproduction coordinates.
std::string scenario_name(const ScenarioSpec& spec);
// The bench/chaos_soak command line that replays this exact scenario.
std::string repro_command(const ScenarioSpec& spec);

// Flag-string parsers for the repro command (accept the canonical names
// plus the obvious short aliases). Return false on an unknown token.
bool parse_scheme(const std::string& token, protocols::Scheme* out);
bool parse_shape(const std::string& token, ShapeKind* out);
bool parse_plan(const std::string& token, PlanKind* out);

struct ScenarioResult {
  bool passed = false;
  std::string name;    // scenario_name(spec)
  std::string repro;   // repro_command(spec)
  std::string report;  // oracle violations, one per line (empty when passed)
  size_t violation_count = 0;
  uint64_t oracle_checks = 0;
  sim::Time horizon = 0;     // virtual time simulated
  uint64_t events = 0;       // simulation events executed
  size_t final_converged = 0;
  size_t final_running = 0;
  std::string trace_jsonl;   // filled when spec.trace
  std::string metrics_json;  // filled when spec.metrics
  std::string slo_json;      // filled when spec.slo (integer-only JSON)
  // Structured form of slo_json (kPhaseCount entries when spec.slo).
  std::vector<workload::PhaseSlo> slo_phases;
};

ScenarioResult run_scenario(const ScenarioSpec& spec);

// The full chaos matrix: every applicable (scheme, shape, plan, seed) tuple
// for `seed_count` consecutive seeds from `first_seed`, in canonical sweep
// order (scheme-major, then shape, then plan, then seed). The matrix test
// and perfbench's chaos-grid workload iterate it, and the parallel-runner
// test pins its size. chaos_soak's all/all/all sweep does not call it: it
// builds its own seed-major loop over the same set.
struct MatrixOptions {
  uint64_t first_seed = 1;
  uint64_t seed_count = 3;
  size_t nodes = 12;
  bool trace = false;
  bool metrics = false;
  bool slo = false;
};
std::vector<ScenarioSpec> full_matrix(const MatrixOptions& options = {});

}  // namespace tamp::chaos
