// Pending-event set for the discrete-event engine.
//
// Each pending callback lives in a slot, and a 4-ary min-heap of 16-B
// (time, id) entries orders them; a node's four children are 64 contiguous
// bytes. An EventId is `seq << kSlotBits | slot`: `seq` counts pushes, so
// ids are unique and grow with insertion order, and ties in time break by
// push order exactly as a (time, seq) key would — the slot bits never decide
// a comparison. Execution is fully deterministic.
//
// Slots sit in fixed pages that never move. push() builds a closure in its
// slot, and run_next() runs it there: a callback is never relocated, even
// when it pushes enough events to add pages.
//
// One heap walk per event: run_next() takes the root entry and leaves a
// hole at the root. The first push the callback makes fills the hole with
// one sift-down from the root, and a near-term delivery or reply stops
// almost at once. The next take settles a hole left unfilled.
//
// Cancellation empties the slot (and destroys the callback) at once but
// leaves the heap entry behind; an entry whose slot no longer holds its id
// is stale and skipped when it reaches the root, so a reused slot can never
// fire early or twice. cancel() is O(1) — protocols cancel timers
// constantly (every heartbeat refreshes a failure-suspicion timer). No
// operation hashes, and closures that fit Callback's inline buffer are
// never heap-allocated.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sim/callback.h"
#include "sim/time.h"

namespace tamp::sim {

using EventId = uint64_t;
inline constexpr EventId kInvalidEventId = 0;

class EventQueue {
 public:
  // Builds `fn` in a free slot and schedules it at `t`.
  template <class F>
  EventId push(Time t, F&& fn);

  // Cancels a pending event; returns false if it already ran, is running or
  // was cancelled. Safe to call with kInvalidEventId.
  bool cancel(EventId id);

  bool empty() const { return live_ == 0; }
  // Pending events; a running event is no longer pending.
  size_t size() const { return live_; }

  // Runs the earliest pending event if it is due at or before `deadline`:
  // calls `at(t, id)`, then the callback in its slot, and returns true.
  // Returns false, running nothing, when no event is due. The running
  // event's id is dead before the callback starts, so cancelling it returns
  // false. Its slot is freed only after the callback has returned and its
  // captures are destroyed: a capture's destructor may still push or cancel.
  template <class At>
  bool run_next(Time deadline, At&& at);

 private:
  // At most 2^24 (16.7M) events pending at once; `seq` gets the other 40
  // bits, room for 10^12 pushes.
  static constexpr int kSlotBits = 24;
  static constexpr EventId kSlotMask = (EventId{1} << kSlotBits) - 1;
  // 64 slots of 80 B per page: the queue grows 5 KB at a time, so a small
  // scenario's queue stays small.
  static constexpr int kPageBits = 6;
  static constexpr uint32_t kPageSlots = uint32_t{1} << kPageBits;

  struct Slot {
    EventId id = kInvalidEventId;  // kInvalidEventId while free or running
    Callback fn;
  };

  struct HeapEntry {
    Time t;
    EventId id;  // orders as its seq: the high bits
  };
  static bool before(const HeapEntry& a, const HeapEntry& b) {
    return a.t != b.t ? a.t < b.t : a.id < b.id;
  }

  static uint32_t slot_of(EventId id) {
    return static_cast<uint32_t>(id & kSlotMask);
  }
  Slot& slot(uint32_t index) {
    return pages_[index >> kPageBits][index & (kPageSlots - 1)];
  }
  bool pending(EventId id) { return slot(slot_of(id)).id == id; }

  // A free slot: a recycled one, else the next one, on a new page if need be.
  uint32_t claim_slot();
  // Destroys the callback of a slot whose id is already dead, then frees it.
  void retire(uint32_t index);
  // Adds an entry: into the root hole if one is open, else as a new leaf.
  void place(HeapEntry entry);
  // Fills an open hole and drops stale roots; false when nothing is pending.
  bool settle_root();
  void sift_up(size_t hole, HeapEntry entry);
  void sift_down(size_t hole, HeapEntry entry);

  std::vector<HeapEntry> heap_;
  bool hole_ = false;  // heap_[0] is a taken root, not yet refilled
  std::vector<std::unique_ptr<Slot[]>> pages_;
  uint32_t slot_count_ = 0;     // slots handed out so far, in pages_
  std::vector<uint32_t> free_;  // indices of empty slots
  size_t live_ = 0;             // pending events
  uint64_t next_seq_ = 1;
};

template <class F>
EventId EventQueue::push(Time t, F&& fn) {
  const uint32_t index = claim_slot();
  const EventId id = next_seq_++ << kSlotBits | index;
  Slot& s = slot(index);
  s.fn.emplace(std::forward<F>(fn));
  s.id = id;
  ++live_;
  place(HeapEntry{t, id});
  return id;
}

template <class At>
bool EventQueue::run_next(Time deadline, At&& at) {
  if (!settle_root() || heap_[0].t > deadline) return false;
  const HeapEntry top = heap_[0];
  hole_ = true;
  const uint32_t index = slot_of(top.id);
  Slot& s = slot(index);
  s.id = kInvalidEventId;
  --live_;
  at(top.t, top.id);
  s.fn();
  retire(index);
  return true;
}

}  // namespace tamp::sim
