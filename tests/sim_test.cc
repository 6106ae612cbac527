#include <gtest/gtest.h>

#include <array>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/callback.h"
#include "sim/simulation.h"
#include "sim/timer.h"
#include "util/rng.h"

namespace tamp::sim {
namespace {

constexpr Time kForever = std::numeric_limits<Time>::max();

// Runs every pending event in order; returns the times they ran at.
std::vector<Time> drain(EventQueue& q) {
  std::vector<Time> times;
  while (q.run_next(kForever, [&](Time t, EventId) { times.push_back(t); })) {
  }
  return times;
}

TEST(EventQueue, OrdersByTime) {
  EventQueue q;
  std::vector<int> order;
  q.push(30, [&] { order.push_back(3); });
  q.push(10, [&] { order.push_back(1); });
  q.push(20, [&] { order.push_back(2); });
  EXPECT_EQ(drain(q), (std::vector<Time>{10, 20, 30}));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) q.push(100, [&order, i] { order.push_back(i); });
  drain(q);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, Cancel) {
  EventQueue q;
  bool ran = false;
  EventId id = q.push(10, [&] { ran = true; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));  // second cancel is a no-op
  EXPECT_TRUE(q.empty());
  EXPECT_TRUE(drain(q).empty());
  EXPECT_FALSE(ran);
}

TEST(EventQueue, CancelInvalidId) {
  EventQueue q;
  EXPECT_FALSE(q.cancel(kInvalidEventId));
  EXPECT_FALSE(q.cancel(9999));
}

TEST(EventQueue, SizeTracksLiveEvents) {
  EventQueue q;
  EventId a = q.push(1, [] {});
  q.push(2, [] {});
  EXPECT_EQ(q.size(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
  // The cancelled event at t=1 is skipped; the next one is not yet due.
  EXPECT_FALSE(q.run_next(1, [](Time, EventId) { FAIL(); }));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(drain(q), std::vector<Time>{2});
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, ReusedSlotFiresAtItsOwnTime) {
  EventQueue q;
  std::vector<int> tags;
  EventId early = q.push(10, [&] { tags.push_back(1); });
  ASSERT_TRUE(q.cancel(early));
  // The next push takes the freed slot; the stale heap entry at t=10 must
  // not fire it.
  EventId late = q.push(50, [&] { tags.push_back(2); });
  q.push(30, [&] { tags.push_back(3); });
  EXPECT_NE(late, early);
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(drain(q), (std::vector<Time>{30, 50}));
  EXPECT_EQ(tags, (std::vector<int>{3, 2}));
}

TEST(EventQueue, CancelOfDeadIdFailsAfterSlotReuse) {
  EventQueue q;
  EventId fired = q.push(1, [] {});
  drain(q);
  EventId reuser = q.push(2, [] {});
  EXPECT_FALSE(q.cancel(fired));
  EXPECT_EQ(q.size(), 1u);

  EXPECT_TRUE(q.cancel(reuser));
  EventId second = q.push(3, [] {});
  EXPECT_FALSE(q.cancel(reuser));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_TRUE(q.cancel(second));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, TiesKeepPushOrderAcrossSlotReuse) {
  EventQueue q;
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 6; ++i) {
    ids.push_back(q.push(100, [&order, i] { order.push_back(i); }));
  }
  // Free slots in the middle; later pushes reuse them (low slot numbers)
  // but must still run after every earlier push at the same time.
  q.cancel(ids[1]);
  q.cancel(ids[3]);
  q.cancel(ids[0]);
  for (int i = 6; i < 9; ++i) {
    q.push(100, [&order, i] { order.push_back(i); });
  }
  drain(q);
  EXPECT_EQ(order, (std::vector<int>{2, 4, 5, 6, 7, 8}));
}

// Random pushes, cancels and runs against a reference map keyed on (time,
// push order), made both from the test and from inside running callbacks:
// the fire order and size() must match step for step.
class ReferenceDriver {
 public:
  void run(int ops) {
    for (int op = 0; op < ops; ++op) {
      const uint64_t dice = rng_.uniform_u64(10);
      if (dice < 5) {
        push(now_ + static_cast<Time>(rng_.uniform_u64(8)));
      } else if (dice < 8) {
        cancel_random();
      } else if (!reference_.empty()) {
        ASSERT_TRUE(run_one()) << "op " << op;
      }
      // Now and then run the queue nearly dry, where pushes earlier than
      // every pending event are common.
      if (op % 1000 == 999) {
        while (reference_.size() > 2) ASSERT_TRUE(run_one()) << "op " << op;
      }
      ASSERT_EQ(q_.size(), reference_.size()) << "op " << op;
    }
    while (!reference_.empty()) ASSERT_TRUE(run_one());
    EXPECT_FALSE(run_one());
    EXPECT_TRUE(q_.empty());
  }

  std::vector<int> fired, expected;
  int earliest_pushes = 0;      // pushed before every pending event
  int hole_filler_cancels = 0;  // a callback's first push, cancelled
  int nested_pushes = 0;

 private:
  using Key = std::pair<Time, int>;  // (t, push#)

  EventId push(Time t) {
    const int tag = pushes_++;
    EventId id = q_.push(t, [this, tag] { fire(tag); });
    reference_.emplace(Key{t, tag}, tag);
    issued_.emplace_back(id, Key{t, tag});
    pushed_in_callback_ = true;
    return id;
  }

  void cancel_random() {
    if (issued_.empty()) return;
    const auto& [id, key] = issued_[rng_.uniform_u64(issued_.size())];
    ASSERT_EQ(q_.cancel(id), reference_.erase(key) == 1);
  }

  bool run_one() {
    return q_.run_next(kForever, [this](Time t, EventId id) {
      ASSERT_FALSE(reference_.empty());
      ASSERT_EQ(t, reference_.begin()->first.first);
      expected.push_back(reference_.begin()->second);
      reference_.erase(reference_.begin());
      now_ = t;
      running_ = id;
      pushed_in_callback_ = false;
    });
  }

  // The callback of every event: checks the queue from inside, then makes
  // up to three random pushes and cancels of its own.
  void fire(int tag) {
    fired.push_back(tag);
    EXPECT_EQ(q_.size(), reference_.size());
    EXPECT_FALSE(q_.cancel(running_));  // the running event's own id
    for (uint64_t n = rng_.uniform_u64(4); n > 0; --n) {
      const uint64_t dice = rng_.uniform_u64(4);
      const bool first = !pushed_in_callback_;
      if (dice == 0) {
        push(now_ + static_cast<Time>(rng_.uniform_u64(8)));  // ties common
      } else if (dice == 1) {
        if (reference_.empty() || reference_.begin()->first.first > now_) {
          ++earliest_pushes;
        }
        push(now_);
      } else if (dice == 2) {
        // Cancel at once what this push placed: the root hole when first.
        EXPECT_TRUE(q_.cancel(push(now_ + 1)));
        reference_.erase(issued_.back().second);
        if (first) ++hole_filler_cancels;
      } else {
        cancel_random();
        continue;
      }
      ++nested_pushes;
    }
    EXPECT_EQ(q_.size(), reference_.size());
  }

  util::Rng rng_{2024};
  EventQueue q_;
  std::map<Key, int> reference_;  // -> tag
  std::vector<std::pair<EventId, Key>> issued_;
  Time now_ = 0;
  int pushes_ = 0;
  EventId running_ = kInvalidEventId;
  bool pushed_in_callback_ = false;  // reset as each event starts
};

TEST(EventQueue, MatchesReferenceOrderUnderRandomOps) {
  ReferenceDriver driver;
  driver.run(100000);
  EXPECT_EQ(driver.fired, driver.expected);
  EXPECT_GT(driver.fired.size(), 10000u);
  EXPECT_GT(driver.nested_pushes, 10000);
  EXPECT_GT(driver.earliest_pushes, 1000);
  EXPECT_GT(driver.hole_filler_cancels, 1000);
}

// Counts moves and notes where the latest copy lives.
struct Anchor {
  explicit Anchor(const Anchor** where) : where(where) { *where = this; }
  Anchor(Anchor&& other) noexcept : where(other.where), moves(other.moves + 1) {
    *where = this;
  }
  const Anchor** where;
  int moves = 0;
};

// A callback that pushes pages' worth of events runs on in its own slot:
// the closure was built once, where it runs, and its captures stay valid
// (the ASan build checks the reads).
TEST(EventQueue, CallbackPushingPagesKeepsItsCaptures) {
  EventQueue q;
  const Anchor* latest = nullptr;
  std::vector<int> seen;
  auto fn = [&q, &seen, anchor = Anchor(&latest),
             data = std::vector<int>(64, 3)] {
    for (int i = 0; i < 500; ++i) q.push(2, [] {});
    EXPECT_EQ(&anchor, *anchor.where);
    EXPECT_EQ(anchor.moves, 1);  // into its slot, once
    seen = data;
  };
  static_assert(Callback::kFitsInline<decltype(fn)>);
  q.push(1, std::move(fn));
  EXPECT_EQ(drain(q).size(), 501u);
  EXPECT_EQ(seen, std::vector<int>(64, 3));
}

TEST(EventQueue, SizeDuringACallbackExcludesTheRunningEvent) {
  EventQueue q;
  std::vector<size_t> sizes;
  q.push(1, [&] {
    sizes.push_back(q.size());
    q.push(3, [] {});
    sizes.push_back(q.size());
  });
  q.push(2, [&] { sizes.push_back(q.size()); });
  drain(q);
  EXPECT_EQ(sizes, (std::vector<size_t>{1, 2, 1}));
}

// Calls `fn` when destroyed, unless moved from.
template <class Fn>
struct OnDestroy {
  explicit OnDestroy(Fn fn) : fn(std::move(fn)) {}
  OnDestroy(OnDestroy&& other) noexcept
      : fn(std::move(other.fn)), armed(std::exchange(other.armed, false)) {}
  ~OnDestroy() {
    if (armed) fn();
  }
  Fn fn;
  bool armed = true;
};

// A capture's destructor runs after its callback has returned, and may
// push: the slot it frees is not handed out until it is done.
TEST(EventQueue, CaptureDestructorThatPushesRunsAfterTheCallback) {
  EventQueue q;
  std::vector<std::string> log;
  EventId running = kInvalidEventId;
  EventId pushed = kInvalidEventId;
  auto on_destroy = [&] {
    log.push_back("destroyed");
    EXPECT_FALSE(q.cancel(running));
    EXPECT_EQ(q.size(), 0u);
    pushed = q.push(5, [&] { log.push_back("pushed ran"); });
  };
  q.push(1, [&, guard = OnDestroy(on_destroy)] { log.push_back("ran"); });
  EXPECT_TRUE(q.run_next(kForever, [&](Time, EventId id) { running = id; }));
  EXPECT_EQ(log, (std::vector<std::string>{"ran", "destroyed"}));
  constexpr EventId kSlotMask = (EventId{1} << 24) - 1;
  EXPECT_NE(pushed & kSlotMask, running & kSlotMask);
  EXPECT_EQ(drain(q), std::vector<Time>{5});
  EXPECT_EQ(log.back(), "pushed ran");
}

// Counts destructions of live (not moved-from) copies.
struct DestroyCounter {
  explicit DestroyCounter(int* destroyed) : destroyed(destroyed) {}
  DestroyCounter(DestroyCounter&& other) noexcept
      : destroyed(std::exchange(other.destroyed, nullptr)) {}
  ~DestroyCounter() {
    if (destroyed != nullptr) ++*destroyed;
  }
  int* destroyed;
};

TEST(Callback, HoldsMoveOnlyCapture) {
  int seen = 0;
  Callback cb = [p = std::make_unique<int>(7), &seen] { seen = *p; };
  cb();
  EXPECT_EQ(seen, 7);

  EventQueue q;
  q.push(1, [p = std::make_unique<int>(9), &seen] { seen = *p; });
  drain(q);
  EXPECT_EQ(seen, 9);
}

TEST(Callback, QueueReleasesCapturesOnCancelFireAndDestruction) {
  auto token = std::make_shared<int>(0);
  {
    EventQueue q;
    EventId cancelled = q.push(1, [token] {});
    q.push(2, [token] {});
    q.push(3, [token] {});
    EXPECT_EQ(token.use_count(), 4);
    q.cancel(cancelled);
    EXPECT_EQ(token.use_count(), 3);  // destroyed at cancel, not at pop
    ASSERT_TRUE(q.run_next(kForever, [](Time, EventId) {}));
    EXPECT_EQ(token.use_count(), 2);  // destroyed after firing
  }
  EXPECT_EQ(token.use_count(), 1);  // the queue's destructor dropped the rest
}

TEST(Callback, OversizedCaptureTakesHeapPath) {
  int destroyed = 0;
  int runs = 0;
  std::array<char, 2 * Callback::kInlineSize> big{};
  big.back() = 5;
  auto fn = [big, counter = DestroyCounter(&destroyed), &runs] {
    runs += big.back();
  };
  static_assert(!Callback::kFitsInline<decltype(fn)>);
  {
    Callback cb(std::move(fn));
    Callback moved = std::move(cb);
    moved();
    moved();
    EXPECT_EQ(runs, 10);
    EXPECT_EQ(destroyed, 0);
  }
  EXPECT_EQ(destroyed, 1);
}

TEST(Callback, InlineCaptureDestroysOnce) {
  int destroyed = 0;
  auto fn = [counter = DestroyCounter(&destroyed)] {};
  static_assert(Callback::kFitsInline<decltype(fn)>);
  {
    Callback cb(std::move(fn));
    Callback moved = std::move(cb);
    moved();
  }
  EXPECT_EQ(destroyed, 1);
}

TEST(Callback, MovedFromIsEmpty) {
  int runs = 0;
  Callback a = [&runs] { ++runs; };
  EXPECT_TRUE(a);
  Callback b = std::move(a);
  EXPECT_FALSE(a);  // NOLINT(bugprone-use-after-move): the point
  ASSERT_TRUE(b);
  b();
  EXPECT_EQ(runs, 1);
  Callback c;
  EXPECT_FALSE(c);
  c = std::move(b);
  EXPECT_FALSE(b);  // NOLINT(bugprone-use-after-move)
  c();
  EXPECT_EQ(runs, 2);
}

TEST(Simulation, NowAdvancesWithEvents) {
  Simulation sim;
  Time seen = -1;
  sim.schedule_at(5 * kSecond, [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, 5 * kSecond);
  EXPECT_EQ(sim.now(), 5 * kSecond);
}

TEST(Simulation, RunUntilStopsAtDeadline) {
  Simulation sim;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    sim.schedule_at(i * kSecond, [&] { ++count; });
  }
  sim.run_until(5 * kSecond);  // inclusive
  EXPECT_EQ(count, 5);
  EXPECT_EQ(sim.now(), 5 * kSecond);
  sim.run();
  EXPECT_EQ(count, 10);
}

// A callback runs in its queue slot with the clock at its own time, so a
// nested run is refused rather than run beneath it.
TEST(Simulation, RunUntilFromInsideAnEventAborts) {
  Simulation sim;
  sim.schedule_at(kSecond, [&] { sim.run_until(2 * kSecond); });
  EXPECT_DEATH(sim.run(), "run_until called from inside an event");
}

TEST(Simulation, EventsCanSchedule) {
  Simulation sim;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 5) sim.schedule_after(kSecond, chain);
  };
  sim.schedule_after(kSecond, chain);
  sim.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sim.now(), 5 * kSecond);
}

TEST(Simulation, NegativeDelayClamps) {
  Simulation sim;
  bool ran = false;
  sim.schedule_after(-100, [&] { ran = true; });
  sim.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(sim.now(), 0);
}

TEST(Simulation, DeterministicAcrossRuns) {
  auto run = [](uint64_t seed) {
    Simulation sim(seed);
    std::vector<uint64_t> draws;
    for (int i = 0; i < 10; ++i) {
      sim.schedule_after(i * kMillisecond,
                         [&] { draws.push_back(sim.rng().next_u64()); });
    }
    sim.run();
    return draws;
  };
  EXPECT_EQ(run(99), run(99));
  EXPECT_NE(run(99), run(100));
}

TEST(PeriodicTimer, FiresAtPeriod) {
  Simulation sim;
  int fires = 0;
  PeriodicTimer timer(sim, kSecond, [&] { ++fires; });
  timer.start();
  sim.run_until(10 * kSecond);
  EXPECT_EQ(fires, 10);
}

TEST(PeriodicTimer, StopPreventsFurtherFires) {
  Simulation sim;
  int fires = 0;
  PeriodicTimer timer(sim, kSecond, [&] { ++fires; });
  timer.start();
  sim.schedule_at(3 * kSecond + 1, [&] { timer.stop(); });
  sim.run_until(10 * kSecond);
  EXPECT_EQ(fires, 3);
}

TEST(PeriodicTimer, RandomPhaseWithinPeriod) {
  Simulation sim(5);
  Time first = -1;
  PeriodicTimer timer(sim, kSecond, [&] {
    if (first < 0) first = sim.now();
  });
  timer.start_with_random_phase();
  sim.run_until(2 * kSecond);
  EXPECT_GE(first, 0);
  EXPECT_LT(first, kSecond);
}

// The first tick of a PeriodicTimer started with a random phase at t = 0
// under `seed`: GridTimer draws the same phase, so it is its grid's origin.
Time periodic_origin(uint64_t seed, Duration interval) {
  Simulation sim(seed);
  Time first = -1;
  PeriodicTimer timer(sim, interval, [&] {
    if (first < 0) first = sim.now();
  });
  timer.start_with_random_phase();
  sim.run_until(interval);
  return first;
}

constexpr Duration kTick = 100 * kMillisecond;

// Fire times of a GridTimer started at t = 0 under `seed` and armed there
// at `deadline`, up to 10 s.
std::vector<Time> grid_fires(uint64_t seed, Time deadline) {
  Simulation sim(seed);
  std::vector<Time> fires;
  GridTimer timer(sim, kTick, [&] { fires.push_back(sim.now()); });
  timer.start_with_random_phase();
  timer.arm(deadline);
  sim.run_until(10 * kSecond);
  return fires;
}

TEST(GridTimer, DrawsPeriodicTimersPhase) {
  for (uint64_t seed : {1, 2, 3, 5, 8}) {
    const Time origin = periodic_origin(seed, kTick);
    ASSERT_GT(origin, 0);
    EXPECT_EQ(grid_fires(seed, 0), std::vector<Time>{origin}) << seed;
    // The draw consumes the generator exactly as PeriodicTimer's does.
    Simulation periodic_sim(seed), grid_sim(seed);
    PeriodicTimer periodic(periodic_sim, kTick, [] {});
    GridTimer grid(grid_sim, kTick, [] {});
    periodic.start_with_random_phase();
    grid.start_with_random_phase();
    EXPECT_EQ(periodic_sim.rng().next_u64(), grid_sim.rng().next_u64());
  }
}

TEST(GridTimer, FiresOnFirstTickStrictlyAfterDeadline) {
  const uint64_t seed = 7;
  const Time origin = periodic_origin(seed, kTick);
  EXPECT_EQ(grid_fires(seed, origin + 3 * kTick + 1),
            std::vector<Time>{origin + 4 * kTick});
  EXPECT_EQ(grid_fires(seed, origin + 4 * kTick - 1),
            std::vector<Time>{origin + 4 * kTick});
  // A deadline exactly on a tick waits for the next one.
  EXPECT_EQ(grid_fires(seed, origin + 3 * kTick),
            std::vector<Time>{origin + 4 * kTick});
  EXPECT_EQ(grid_fires(seed, origin), std::vector<Time>{origin + kTick});
}

TEST(GridTimer, EarlierDeadlineMovesTheFireLaterOneDoesNot) {
  Simulation sim(7);
  const Time origin = periodic_origin(7, kTick);
  std::vector<Time> fires;
  GridTimer timer(sim, kTick, [&] { fires.push_back(sim.now()); });
  timer.start_with_random_phase();
  timer.arm(origin + 5 * kTick);
  timer.arm(origin + 2 * kTick);
  EXPECT_EQ(timer.fire_at(), origin + 3 * kTick);
  timer.arm(origin + 8 * kTick);
  EXPECT_EQ(timer.fire_at(), origin + 3 * kTick);
  sim.run_until(10 * kSecond);
  EXPECT_EQ(fires, std::vector<Time>{origin + 3 * kTick});
}

TEST(GridTimer, StopCancelsAndAFiredTimerWaitsForTheNextArm) {
  Simulation sim(7);
  const Time origin = periodic_origin(7, kTick);
  std::vector<Time> fires;
  GridTimer timer(sim, kTick, [&] { fires.push_back(sim.now()); });
  timer.start_with_random_phase();
  timer.arm(origin + 2 * kTick);
  timer.stop();
  EXPECT_FALSE(timer.armed());
  timer.arm(origin);  // ignored while stopped
  sim.run_until(2 * kSecond);
  EXPECT_TRUE(fires.empty());

  timer.start_with_random_phase();
  timer.arm(sim.now());
  sim.run_until(4 * kSecond);
  ASSERT_EQ(fires.size(), 1u);
  EXPECT_FALSE(timer.armed());
  sim.run_until(6 * kSecond);
  EXPECT_EQ(fires.size(), 1u);  // silent until armed again
  timer.arm(sim.now());
  sim.run_until(8 * kSecond);
  EXPECT_EQ(fires.size(), 2u);
  EXPECT_GT(fires[1], 6 * kSecond);
  EXPECT_LE(fires[1], 6 * kSecond + kTick);
}

// Events due on one instant run in push order. A tick armed long ahead must
// still run after an event pushed before the preceding tick, as a
// PeriodicTimer's tick does: its event is pushed one tick ahead.
TEST(GridTimer, TickKeepsPeriodicTimersPlaceAmongSameInstantEvents) {
  const Time origin = periodic_origin(7, kTick);
  const Time tick = origin + 30 * kTick;
  for (bool grid : {false, true}) {
    Simulation sim(7);
    std::vector<char> order;
    PeriodicTimer periodic(sim, kTick, [&] {
      if (sim.now() == tick) order.push_back('T');
    });
    GridTimer timer(sim, kTick, [&] { order.push_back('T'); });
    if (grid) {
      timer.start_with_random_phase();
      timer.arm(tick - 1);
    } else {
      periodic.start_with_random_phase();
    }
    // Pushed two ticks ahead and one tick ahead of the tick instant.
    sim.schedule_at(tick - 2 * kTick, [&] {
      sim.schedule_at(tick, [&] { order.push_back('a'); });
    });
    sim.schedule_at(tick - kTick + 1, [&] {
      sim.schedule_at(tick, [&] { order.push_back('b'); });
    });
    sim.run_until(tick);
    EXPECT_EQ(order, (std::vector<char>{'a', 'T', 'b'})) << grid;
  }
}

TEST(OneShotTimer, RestartReplacesDeadline) {
  Simulation sim;
  int fires = 0;
  OneShotTimer timer(sim, [&] { ++fires; });
  timer.restart(2 * kSecond);
  sim.schedule_at(kSecond, [&] { timer.restart(5 * kSecond); });
  sim.run_until(4 * kSecond);
  EXPECT_EQ(fires, 0);  // original deadline was superseded
  sim.run_until(10 * kSecond);
  EXPECT_EQ(fires, 1);
}

TEST(OneShotTimer, CancelStops) {
  Simulation sim;
  int fires = 0;
  OneShotTimer timer(sim, [&] { ++fires; });
  timer.restart(kSecond);
  EXPECT_TRUE(timer.armed());
  timer.cancel();
  EXPECT_FALSE(timer.armed());
  sim.run();
  EXPECT_EQ(fires, 0);
}

TEST(OneShotTimer, DestructorCancels) {
  Simulation sim;
  int fires = 0;
  {
    OneShotTimer timer(sim, [&] { ++fires; });
    timer.restart(kSecond);
  }
  sim.run();
  EXPECT_EQ(fires, 0);
}

}  // namespace
}  // namespace tamp::sim
