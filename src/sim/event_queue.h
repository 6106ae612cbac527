// Pending-event set for the discrete-event engine.
//
// Callbacks live in a slot store (a vector with a free list), and a binary
// heap orders (time, id) keys. An EventId is `seq << kSlotBits | slot`:
// `seq` counts pushes, so ids are unique and grow with insertion order, and
// ties in time break by push order exactly as a (time, seq) key would — the
// slot bits never decide a comparison. Execution is fully deterministic.
//
// Cancellation frees the slot (and destroys the callback) at once but
// leaves the heap entry behind; an entry whose slot no longer holds its id
// is stale and skipped on pop, so a reused slot can never fire early or
// twice. cancel() is O(1) — protocols cancel timers constantly (every
// heartbeat refreshes a failure-suspicion timer). No operation hashes, and
// closures that fit Callback's inline buffer are never heap-allocated.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "sim/callback.h"
#include "sim/time.h"

namespace tamp::sim {

using EventId = uint64_t;
inline constexpr EventId kInvalidEventId = 0;

class EventQueue {
 public:
  EventId push(Time t, Callback&& fn);

  // Cancels a pending event; returns false if it already ran or was
  // cancelled. Safe to call with kInvalidEventId.
  bool cancel(EventId id);

  bool empty() const { return size() == 0; }
  size_t size() const { return slots_.size() - free_.size(); }

  // Time of the earliest pending event; undefined when empty().
  Time next_time();

  // Pops and returns the earliest event's callback, advancing past cancelled
  // entries. Must not be called when empty().
  struct Fired {
    Time t;
    EventId id;
    Callback fn;
  };
  Fired pop();

 private:
  // At most 2^24 (16.7M) events pending at once; `seq` gets the other 40
  // bits, room for 10^12 pushes.
  static constexpr int kSlotBits = 24;
  static constexpr EventId kSlotMask = (EventId{1} << kSlotBits) - 1;

  struct Slot {
    EventId id = kInvalidEventId;  // kInvalidEventId while free
    Callback fn;
  };

  struct HeapEntry {
    Time t;
    EventId id;  // orders as its seq: the high bits
    bool operator>(const HeapEntry& other) const {
      if (t != other.t) return t > other.t;
      return id > other.id;
    }
  };

  bool pending(EventId id) const { return slots_[id & kSlotMask].id == id; }
  // Empties the slot and returns its callback for the caller to run or drop.
  Callback release(EventId id);
  void skip_cancelled();

  std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                      std::greater<HeapEntry>>
      heap_;
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_;  // indices of empty slots
  uint64_t next_seq_ = 1;
};

}  // namespace tamp::sim
