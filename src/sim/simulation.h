// The discrete-event simulation driver.
//
// Single-threaded and deterministic: all randomness flows from the seed
// given at construction, and simultaneous events execute in scheduling
// order. Protocol daemons, the network, and workload generators all
// schedule against one Simulation.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>

#include "sim/callback.h"
#include "sim/event_queue.h"
#include "sim/time.h"
#include "util/rng.h"

namespace tamp::sim {

class Simulation {
 public:
  explicit Simulation(uint64_t seed = 1) : rng_(seed) {}

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  Time now() const { return now_; }
  util::Rng& rng() { return rng_; }

  // Schedule `fn` at absolute virtual time `t` (must be >= now()).
  EventId schedule_at(Time t, Callback fn);

  // Schedule `fn` after a delay (clamped to >= 0).
  EventId schedule_after(Duration delay, Callback fn);

  // Cancel a pending event. Returns false if already fired/cancelled.
  bool cancel(EventId id) { return queue_.cancel(id); }

  // Run until the queue drains or `deadline` passes, whichever first. Events
  // scheduled exactly at the deadline still run. Returns the number of
  // events executed.
  uint64_t run_until(Time deadline);

  // Run until the queue is empty.
  uint64_t run() { return run_until(std::numeric_limits<Time>::max()); }

  uint64_t events_executed() const { return events_executed_; }

  // Install/remove a per-event hook (used by tests to trace execution).
  void set_trace_hook(std::function<void(Time, EventId)> hook) {
    trace_hook_ = std::move(hook);
  }

 private:
  Time now_ = 0;
  EventQueue queue_;
  util::Rng rng_;
  uint64_t events_executed_ = 0;
  std::function<void(Time, EventId)> trace_hook_;
};

}  // namespace tamp::sim
