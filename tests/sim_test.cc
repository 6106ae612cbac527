#include <gtest/gtest.h>

#include <array>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "sim/callback.h"
#include "sim/simulation.h"
#include "sim/timer.h"
#include "util/rng.h"

namespace tamp::sim {
namespace {

TEST(EventQueue, OrdersByTime) {
  EventQueue q;
  std::vector<int> order;
  q.push(30, [&] { order.push_back(3); });
  q.push(10, [&] { order.push_back(1); });
  q.push(20, [&] { order.push_back(2); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) q.push(100, [&order, i] { order.push_back(i); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, Cancel) {
  EventQueue q;
  bool ran = false;
  EventId id = q.push(10, [&] { ran = true; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));  // second cancel is a no-op
  EXPECT_TRUE(q.empty());
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
  EXPECT_EQ(q.next_time(), 2);
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
  EXPECT_EQ(q.next_time(), 30);
  std::vector<Time> times;
  while (!q.empty()) {
    auto event = q.pop();
    event.fn();
    times.push_back(event.t);
  }
  EXPECT_EQ(tags, (std::vector<int>{3, 2}));
  EXPECT_EQ(times, (std::vector<Time>{30, 50}));
}

TEST(EventQueue, CancelOfDeadIdFailsAfterSlotReuse) {
  EventQueue q;
  EventId fired = q.push(1, [] {});
  q.pop().fn();
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
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{2, 4, 5, 6, 7, 8}));
}

// Random push/cancel/pop against a reference map keyed on (time, push
// order): the fire sequence and size() must match step for step.
TEST(EventQueue, MatchesReferenceOrderUnderRandomOps) {
  util::Rng rng(2024);
  EventQueue q;
  std::map<std::pair<Time, int>, int> reference;  // (t, push#) -> tag
  std::vector<std::pair<EventId, std::pair<Time, int>>> issued;
  std::vector<int> fired, expected;
  Time now = 0;
  int pushes = 0;
  for (int op = 0; op < 100000; ++op) {
    const uint64_t dice = rng.uniform_u64(10);
    if (dice < 5) {
      // Few distinct times, so ties are common.
      const Time t = now + static_cast<Time>(rng.uniform_u64(8));
      const int tag = pushes++;
      EventId id = q.push(t, [&fired, tag] { fired.push_back(tag); });
      reference.emplace(std::pair{t, tag}, tag);
      issued.emplace_back(id, std::pair{t, tag});
    } else if (dice < 8 && !issued.empty()) {
      const auto& [id, key] = issued[rng.uniform_u64(issued.size())];
      ASSERT_EQ(q.cancel(id), reference.erase(key) == 1) << "op " << op;
    } else if (!reference.empty()) {
      ASSERT_EQ(q.next_time(), reference.begin()->first.first);
      auto event = q.pop();
      now = event.t;
      event.fn();
      expected.push_back(reference.begin()->second);
      reference.erase(reference.begin());
    }
    ASSERT_EQ(q.size(), reference.size()) << "op " << op;
  }
  while (!reference.empty()) {
    q.pop().fn();
    expected.push_back(reference.begin()->second);
    reference.erase(reference.begin());
  }
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(fired, expected);
  EXPECT_GT(fired.size(), 10000u);
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
  q.pop().fn();
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
    q.pop().fn();
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
