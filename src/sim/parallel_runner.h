// Parallel chaos scenario runner.
//
// Scenarios are pure functions of their ScenarioSpec: every byte of a
// ScenarioResult (trace JSONL, metrics snapshot, oracle verdict) derives
// from the seeded simulation, and run_scenario() builds a private
// Simulation / Topology / Network / Cluster / Oracle stack per call. That
// makes the chaos matrix embarrassingly parallel — run_scenarios() exploits
// it with N worker threads pulling specs from a shared work queue, while
// guaranteeing results that are **byte-identical to the serial runner** for
// every seed.
//
// Determinism contract:
//  * results[i] corresponds to specs[i] (input order), regardless of which
//    worker ran it or when it finished.
//  * options.on_result fires on the *calling* thread, strictly in input
//    order (result i is emitted only after 0..i-1), so streaming consumers
//    (chaos_soak's stdout, trace/metrics files) produce identical bytes at
//    --jobs=1 and --jobs=8.
//  * A scenario that throws is converted into a failed ScenarioResult for
//    its own slot; sibling scenarios are unaffected (result isolation).
//
// A scenario touches no process-global state: its RNG, event queue, metrics
// registry and tracer are owned by the per-scenario Network/Simulation pair.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "sim/scenario.h"

namespace tamp::chaos {

struct ParallelRunOptions {
  // Worker thread count. 0 picks std::thread::hardware_concurrency()
  // (minimum 1). 1 runs inline on the calling thread — the serial baseline.
  // More threads than scenarios is fine: surplus workers find the queue
  // empty and exit.
  size_t jobs = 0;

  // The scenario function. Defaults to run_scenario(); tests substitute
  // fakes to exercise runner edge cases (exceptions, slow completions)
  // without paying for real simulations.
  std::function<ScenarioResult(const ScenarioSpec&)> run;

  // Streaming observer, called as (input_index, result) on the calling
  // thread, in input order. Optional.
  std::function<void(size_t index, const ScenarioResult& result)> on_result;
};

// Resolve the worker count actually used for `requested` jobs over
// `scenarios` specs (0 → hardware concurrency; never 0, never more workers
// than scenarios).
size_t effective_jobs(size_t requested, size_t scenarios);

// Run every spec and return the results in input order. See the determinism
// contract above.
std::vector<ScenarioResult> run_scenarios(
    const std::vector<ScenarioSpec>& specs,
    const ParallelRunOptions& options = {});

}  // namespace tamp::chaos
