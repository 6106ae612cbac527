// Timer helpers built on Simulation.
//
// PeriodicTimer fires a callback every `period`, optionally with a random
// initial phase so a cluster's heartbeats don't all fire on the same tick
// (mirrors real daemons starting at different times). GridTimer keeps that
// grid but fires only once a deadline its owner armed has passed — the idiom
// for timeout scans, which have nothing to do before the earliest member can
// have expired. OneShotTimer is a restartable deadline — the idiom for
// failure-suspicion timeouts.
#pragma once

#include <algorithm>
#include <functional>
#include <utility>

#include "sim/simulation.h"

namespace tamp::sim {

class PeriodicTimer {
 public:
  PeriodicTimer(Simulation& sim, Duration period, std::function<void()> fn)
      : sim_(sim), period_(period), fn_(std::move(fn)) {}

  ~PeriodicTimer() { stop(); }
  PeriodicTimer(const PeriodicTimer&) = delete;
  PeriodicTimer& operator=(const PeriodicTimer&) = delete;

  // Starts ticking; first fire after `initial_delay` (default: one period).
  void start(Duration initial_delay = -1) {
    stop();
    running_ = true;
    Duration first = initial_delay >= 0 ? initial_delay : period_;
    event_ = sim_.schedule_after(first, [this] { fire(); });
  }

  // Starts with a uniformly random phase in [0, period).
  void start_with_random_phase() {
    start(static_cast<Duration>(
        sim_.rng().uniform_u64(static_cast<uint64_t>(period_))));
  }

  void stop() {
    if (running_) {
      sim_.cancel(event_);
      running_ = false;
      event_ = kInvalidEventId;
    }
  }

 private:
  void fire() {
    if (!running_) return;
    event_ = sim_.schedule_after(period_, [this] { fire(); });
    fn_();
  }

  Simulation& sim_;
  Duration period_;
  std::function<void()> fn_;
  bool running_ = false;
  EventId event_ = kInvalidEventId;
};

// Ticks on PeriodicTimer's grid — start_with_random_phase() draws the same
// phase at the same point, so the grid is the one a PeriodicTimer started
// there would tick on — but fires only on the first tick strictly after the
// earliest deadline armed. A scan that polls on every tick and finds work
// only past some member's deadline does the same work on the same ticks
// from at most two events per deadline. Firing disarms; the owner re-arms
// from its handler.
class GridTimer {
 public:
  GridTimer(Simulation& sim, Duration interval, std::function<void()> fn)
      : sim_(sim), interval_(interval), fn_(std::move(fn)) {}

  ~GridTimer() { stop(); }
  GridTimer(const GridTimer&) = delete;
  GridTimer& operator=(const GridTimer&) = delete;

  // Lays the grid at now + a uniformly random phase in [0, interval), one
  // tick per interval from there. Unarmed until arm().
  void start_with_random_phase() {
    stop();
    running_ = true;
    origin_ = sim_.now() + static_cast<Duration>(sim_.rng().uniform_u64(
                               static_cast<uint64_t>(interval_)));
  }

  void stop() {
    disarm();
    running_ = false;
  }

  // Fire on the first tick strictly after both `deadline` and now. A
  // deadline whose tick is not earlier than the armed one changes nothing,
  // so the earliest deadline armed wins. Ignored while stopped.
  void arm(Time deadline) {
    if (!running_) return;
    const Time tick = tick_after(std::max(deadline, sim_.now()));
    if (armed() && tick >= fire_at_) return;
    disarm();
    fire_at_ = tick;
    // Events due on one instant run in push order, and a PeriodicTimer
    // pushes each tick's event as the tick before it fires. Pushing it
    // then too keeps the tick's place among the owner's other timers,
    // which often land on the same instant (they are started from a tick
    // and run whole multiples of the interval).
    const Time lead = tick - interval_;
    if (lead > sim_.now()) {
      event_ = sim_.schedule_at(lead, [this] { push_tick(); });
    } else {
      push_tick();
    }
  }

  bool armed() const { return event_ != kInvalidEventId; }
  // The tick armed to fire; meaningful while armed().
  Time fire_at() const { return fire_at_; }

 private:
  // The first tick strictly after `t`.
  Time tick_after(Time t) const {
    if (t < origin_) return origin_;
    return origin_ + ((t - origin_) / interval_ + 1) * interval_;
  }

  void push_tick() {
    event_ = sim_.schedule_at(fire_at_, [this] {
      event_ = kInvalidEventId;
      fn_();
    });
  }

  void disarm() {
    if (armed()) {
      sim_.cancel(event_);
      event_ = kInvalidEventId;
    }
  }

  Simulation& sim_;
  Duration interval_;
  std::function<void()> fn_;
  bool running_ = false;
  Time origin_ = 0;
  Time fire_at_ = 0;
  EventId event_ = kInvalidEventId;
};

class OneShotTimer {
 public:
  OneShotTimer(Simulation& sim, std::function<void()> fn)
      : sim_(sim), fn_(std::move(fn)) {}

  ~OneShotTimer() { cancel(); }
  OneShotTimer(const OneShotTimer&) = delete;
  OneShotTimer& operator=(const OneShotTimer&) = delete;

  // (Re)arm the timer to fire after `delay`; any previous arm is cancelled.
  void restart(Duration delay) {
    cancel();
    armed_ = true;
    event_ = sim_.schedule_after(delay, [this] {
      armed_ = false;
      fn_();
    });
  }

  void cancel() {
    if (armed_) {
      sim_.cancel(event_);
      armed_ = false;
      event_ = kInvalidEventId;
    }
  }

  bool armed() const { return armed_; }

 private:
  Simulation& sim_;
  std::function<void()> fn_;
  bool armed_ = false;
  EventId event_ = kInvalidEventId;
};

}  // namespace tamp::sim
