// Virtual time. All simulation timestamps are int64 nanoseconds from the
// start of the run; helpers build durations readably at call sites:
//
//   sim.schedule_after(2 * sim::kSecond, ...);
#pragma once

#include <cstdint>
#include <string>

namespace tamp::sim {

using Time = int64_t;       // absolute virtual time, ns
using Duration = int64_t;   // virtual duration, ns

inline constexpr Duration kNanosecond = 1;
inline constexpr Duration kMicrosecond = 1000 * kNanosecond;
inline constexpr Duration kMillisecond = 1000 * kMicrosecond;
inline constexpr Duration kSecond = 1000 * kMillisecond;

inline constexpr double to_seconds(Duration d) {
  return static_cast<double>(d) / 1e9;
}
inline constexpr double to_millis(Duration d) {
  return static_cast<double>(d) / 1e6;
}
inline constexpr Duration from_seconds(double s) {
  return static_cast<Duration>(s * 1e9);
}

// "12.345s" rendering for reports and violation text.
std::string format_time(Time t);

}  // namespace tamp::sim
