// Probes for tests that pin the tick on which a membership scan declares a
// death: when a value changed, read between simulation events, and when a
// traced timeout expiry named a member.
#pragma once

#include <functional>
#include <string_view>
#include <utility>
#include <vector>

#include "net/transport.h"
#include "obs/obs.h"
#include "sim/simulation.h"

namespace tamp::protocols {

// Sim times of the events during which `read()` changed. Holds the
// simulation's one trace hook while alive.
class ChangeTimes {
 public:
  ChangeTimes(sim::Simulation& sim, std::function<uint64_t()> read)
      : sim_(sim), read_(std::move(read)), seen_(read_()) {
    sim_.set_trace_hook([this](sim::Time at, sim::EventId) {
      poll();
      previous_ = at;
    });
  }
  ~ChangeTimes() { sim_.set_trace_hook(nullptr); }
  ChangeTimes(const ChangeTimes&) = delete;
  ChangeTimes& operator=(const ChangeTimes&) = delete;

  const std::vector<sim::Time>& times() {
    poll();
    return times_;
  }
  sim::Time last() { return times().empty() ? -1 : times_.back(); }

 private:
  // The value moved during the event that ran at `previous_`.
  void poll() {
    const uint64_t value = read_();
    if (value == seen_) return;
    seen_ = value;
    times_.push_back(previous_);
  }

  sim::Simulation& sim_;
  std::function<uint64_t()> read_;
  uint64_t seen_;
  sim::Time previous_ = 0;
  std::vector<sim::Time> times_;
};

// Reads `host`'s transport counter `name` (e.g. "rx_multicast_messages"),
// for ChangeTimes: the times `host` took delivery of what it counts.
inline std::function<uint64_t()> net_counter(net::Network& net,
                                             net::HostId host,
                                             std::string_view name) {
  const obs::Counter* counter =
      net.obs().metrics.counter(obs::Protocol::kNet, name, host);
  return [counter] { return counter->value; };
}

// When `observer` declared `member` dead at `level` (-1 for the flat
// schemes), or -1.
inline sim::Time declared_dead_at(const net::Network& net,
                                  net::HostId observer, net::HostId member,
                                  int level = 0) {
  for (const auto& event : net.obs().tracer.events()) {
    if (event.kind == obs::TraceKind::kTimeoutExpiry &&
        event.node == observer && event.a == member && event.level == level) {
      return event.at;
    }
  }
  return -1;
}

inline void trace_expiries(net::Network& net) {
  net.obs().tracer.set_enabled(true);
  net.obs().tracer.set_kinds_mask(
      obs::trace_bit(obs::TraceKind::kTimeoutExpiry));
}

}  // namespace tamp::protocols
