#ifndef COSMOS_SIM_EVENT_QUEUE_H_
#define COSMOS_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/time.h"

namespace cosmos {

// A deterministic future-event list: events fire in (time, insertion order).
// One binary heap of {when, seq, callback}; an event, once pushed, fires.
// A caller that may outlive its interest in an event (SelfTuner) makes the
// callback check a token instead of cancelling it.
class EventQueue {
 public:
  using Callback = std::function<void()>;

  // Enqueues `cb` to fire at absolute time `when`.
  void Push(Timestamp when, Callback cb);

  bool Empty() const { return heap_.empty(); }
  size_t size() const { return heap_.size(); }

  // Timestamp of the earliest event; kInvalidTimestamp when empty.
  Timestamp NextTime() const;

  // Removes and returns the earliest event. Requires !Empty().
  std::pair<Timestamp, Callback> Pop();

 private:
  struct Event {
    Timestamp when;
    uint64_t seq;
    Callback cb;
  };
  // The heap's "less than": the std heap functions keep the greatest
  // element on top, which under this order is the earliest event (then the
  // first inserted).
  static bool FiresAfter(const Event& a, const Event& b) {
    if (a.when != b.when) return a.when > b.when;
    return a.seq > b.seq;
  }

  std::vector<Event> heap_;
  uint64_t next_seq_ = 0;
};

}  // namespace cosmos

#endif  // COSMOS_SIM_EVENT_QUEUE_H_
