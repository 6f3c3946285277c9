#include "sim/event_queue.h"

#include <algorithm>

#include "common/logging.h"

namespace cosmos {

void EventQueue::Push(Timestamp when, Callback cb) {
  heap_.push_back(Event{when, next_seq_++, std::move(cb)});
  std::push_heap(heap_.begin(), heap_.end(), FiresAfter);
}

Timestamp EventQueue::NextTime() const {
  return heap_.empty() ? kInvalidTimestamp : heap_.front().when;
}

std::pair<Timestamp, EventQueue::Callback> EventQueue::Pop() {
  COSMOS_CHECK(!heap_.empty()) << "Pop() on empty event queue";
  std::pop_heap(heap_.begin(), heap_.end(), FiresAfter);
  Event e = std::move(heap_.back());
  heap_.pop_back();
  return {e.when, std::move(e.cb)};
}

}  // namespace cosmos
