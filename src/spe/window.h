#ifndef COSMOS_SPE_WINDOW_H_
#define COSMOS_SPE_WINDOW_H_

#include <cstdint>
#include <deque>
#include <utility>

#include "common/time.h"

namespace cosmos {

// A time-based sliding window w(T) (paper §4) of rows in arrival order:
// holds the rows with timestamps in [now - T, now]. A row is whatever its
// owner needs back at eviction, never a whole tuple. Rows are numbered by
// arrival (their seq), so an owner can tell which of its rows leaves.
// Insertion must be in non-decreasing timestamp order.
template <typename Row>
class WindowBuffer {
 public:
  explicit WindowBuffer(Duration size) : size_(size) {}

  Duration size() const { return size_; }

  // Appends `row` stamped `ts`; returns its seq.
  uint64_t Insert(Timestamp ts, Row row) {
    rows_.push_back({ts, std::move(row)});
    return front_seq_ + rows_.size() - 1;
  }

  // Evicts the rows that fell out of the window as of time `now` (those
  // with timestamp < now - T; unbounded windows never evict), oldest first,
  // calling `on_evict(seq, row)` on each. Returns the number evicted.
  template <typename OnEvict>
  size_t EvictExpired(Timestamp now, OnEvict&& on_evict) {
    if (size_ == kInfiniteDuration) return 0;
    const Timestamp cutoff = now - size_;
    size_t n = 0;
    while (!rows_.empty() && rows_.front().ts < cutoff) {
      on_evict(front_seq_, rows_.front().row);
      rows_.pop_front();
      ++front_seq_;
      ++n;
    }
    return n;
  }

  size_t count() const { return rows_.size(); }

 private:
  struct Entry {
    Timestamp ts;
    Row row;
  };

  Duration size_;
  std::deque<Entry> rows_;
  uint64_t front_seq_ = 0;  // seq of rows_.front()
};

}  // namespace cosmos

#endif  // COSMOS_SPE_WINDOW_H_
