#include "sim/simulation.h"

#include "util/check.h"
#include "util/strings.h"

namespace tamp::sim {

std::string format_time(Time t) {
  return util::strformat("%.6fs", to_seconds(t));
}

EventId Simulation::schedule_at(Time t, Callback fn) {
  TAMP_CHECK_MSG(t >= now_, "cannot schedule into the past");
  return queue_.push(t, std::move(fn));
}

EventId Simulation::schedule_after(Duration delay, Callback fn) {
  if (delay < 0) delay = 0;
  return queue_.push(now_ + delay, std::move(fn));
}

uint64_t Simulation::run_until(Time deadline) {
  uint64_t executed = 0;
  while (!queue_.empty() && queue_.next_time() <= deadline) {
    auto fired = queue_.pop();
    now_ = fired.t;
    if (trace_hook_) trace_hook_(fired.t, fired.id);
    fired.fn();
    ++executed;
    ++events_executed_;
  }
  if (now_ < deadline && deadline != std::numeric_limits<Time>::max()) {
    now_ = deadline;
  }
  return executed;
}

}  // namespace tamp::sim
