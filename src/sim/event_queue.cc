#include "sim/event_queue.h"

#include "util/check.h"

namespace tamp::sim {

EventId EventQueue::push(Time t, Callback&& fn) {
  auto slot = static_cast<uint32_t>(slots_.size());
  if (free_.empty()) {
    TAMP_CHECK_MSG(slot <= kSlotMask, "more than 2^24 events pending at once");
    slots_.emplace_back();
  } else {
    slot = free_.back();
    free_.pop_back();
  }
  const EventId id = next_seq_++ << kSlotBits | slot;
  slots_[slot].id = id;
  slots_[slot].fn = std::move(fn);
  heap_.push(HeapEntry{t, id});
  return id;
}

Callback EventQueue::release(EventId id) {
  const auto slot = static_cast<uint32_t>(id & kSlotMask);
  slots_[slot].id = kInvalidEventId;
  free_.push_back(slot);
  return std::move(slots_[slot].fn);
}

bool EventQueue::cancel(EventId id) {
  if (id == kInvalidEventId || (id & kSlotMask) >= slots_.size() ||
      !pending(id)) {
    return false;
  }
  // The released callback dies at the end of this statement, once the slot
  // is consistent again: a capture's destructor may itself push or cancel.
  release(id);
  return true;
}

void EventQueue::skip_cancelled() {
  while (!heap_.empty() && !pending(heap_.top().id)) heap_.pop();
}

Time EventQueue::next_time() {
  skip_cancelled();
  TAMP_CHECK(!heap_.empty());
  return heap_.top().t;
}

EventQueue::Fired EventQueue::pop() {
  skip_cancelled();
  TAMP_CHECK(!heap_.empty());
  const HeapEntry top = heap_.top();
  heap_.pop();
  return Fired{top.t, top.id, release(top.id)};
}

}  // namespace tamp::sim
