#include "sim/event_queue.h"

#include <algorithm>

#include "util/check.h"

namespace tamp::sim {

uint32_t EventQueue::claim_slot() {
  if (!free_.empty()) {
    const uint32_t index = free_.back();
    free_.pop_back();
    return index;
  }
  TAMP_CHECK_MSG(slot_count_ <= kSlotMask,
                 "more than 2^24 events pending at once");
  if (slot_count_ % kPageSlots == 0) {
    pages_.push_back(std::make_unique<Slot[]>(kPageSlots));
  }
  return slot_count_++;
}

void EventQueue::retire(uint32_t index) {
  // The slot is handed out again only once the callback is gone: a
  // capture's destructor may itself push or cancel.
  slot(index).fn.reset();
  free_.push_back(index);
}

bool EventQueue::cancel(EventId id) {
  if (id == kInvalidEventId || slot_of(id) >= slot_count_ || !pending(id)) {
    return false;
  }
  slot(slot_of(id)).id = kInvalidEventId;
  --live_;
  retire(slot_of(id));
  return true;
}

void EventQueue::place(HeapEntry entry) {
  if (hole_) {
    hole_ = false;
    sift_down(0, entry);
  } else {
    heap_.push_back(entry);
    sift_up(heap_.size() - 1, entry);
  }
}

bool EventQueue::settle_root() {
  for (;;) {
    if (hole_) {
      hole_ = false;
      const HeapEntry last = heap_.back();
      heap_.pop_back();
      if (!heap_.empty()) sift_down(0, last);
    }
    if (heap_.empty()) return false;
    if (pending(heap_[0].id)) return true;
    hole_ = true;  // a cancelled event's entry: drop it
  }
}

void EventQueue::sift_up(size_t hole, HeapEntry entry) {
  while (hole > 0) {
    const size_t parent = (hole - 1) / 4;
    if (!before(entry, heap_[parent])) break;
    heap_[hole] = heap_[parent];
    hole = parent;
  }
  heap_[hole] = entry;
}

void EventQueue::sift_down(size_t hole, HeapEntry entry) {
  const size_t n = heap_.size();
  for (;;) {
    const size_t first = 4 * hole + 1;
    if (first >= n) break;
    size_t best = first;
    const size_t end = std::min(first + 4, n);
    for (size_t child = first + 1; child < end; ++child) {
      if (before(heap_[child], heap_[best])) best = child;
    }
    if (!before(heap_[best], entry)) break;
    heap_[hole] = heap_[best];
    hole = best;
  }
  heap_[hole] = entry;
}

}  // namespace tamp::sim
