#include "sim/simulation.h"

#include "util/check.h"
#include "util/strings.h"

namespace tamp::sim {

std::string format_time(Time t) {
  return util::strformat("%.6fs", to_seconds(t));
}

uint64_t Simulation::run_until(Time deadline) {
  TAMP_CHECK_MSG(!running_, "run_until called from inside an event");
  running_ = true;
  uint64_t executed = 0;
  const auto at = [this](Time t, EventId id) {
    now_ = t;
    if (trace_hook_) trace_hook_(t, id);
  };
  while (queue_.run_next(deadline, at)) {
    ++executed;
    ++events_executed_;
  }
  running_ = false;
  if (now_ < deadline && deadline != std::numeric_limits<Time>::max()) {
    now_ = deadline;
  }
  return executed;
}

}  // namespace tamp::sim
