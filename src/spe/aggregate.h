#ifndef COSMOS_SPE_AGGREGATE_H_
#define COSMOS_SPE_AGGREGATE_H_

#include <deque>
#include <map>
#include <vector>

#include "query/ast.h"
#include "spe/operator.h"
#include "spe/window.h"

namespace cosmos {

// One aggregate computed by the operator.
struct AggSpec {
  AggFunc func = AggFunc::kCount;
  bool star = false;   // COUNT(*)
  size_t arg = 0;      // input attribute index (when !star)
};

// Windowed grouped aggregation over one input stream: maintains the
// sliding-window contents per Theorem 2's w(T) semantics and, on each
// arrival, emits the refreshed aggregate row of the arriving tuple's group
// (timestamp = arrival time). Evictions update state silently — the next
// emission of a group reflects them; no retraction rows are produced (an
// Istream-style simplification documented in DESIGN.md).
//
// Every aggregate is maintained incrementally, so the work per arrival does
// not grow with the window: COUNT, SUM and AVG add on insert and subtract
// on eviction (COUNT(col) skips NULL arguments, as SQL does); MIN and MAX
// read the front of a per-group monotonic deque of candidates. The window
// keeps per row only what eviction needs, and an unbounded window keeps no
// rows at all.
class WindowAggregateOperator final : public Operator {
 public:
  // `group_keys` are input attribute indexes; the output schema lists the
  // group columns first, then one column per AggSpec.
  WindowAggregateOperator(Duration window, std::vector<size_t> group_keys,
                          std::vector<AggSpec> aggs,
                          std::shared_ptr<const Schema> output_schema);

  void Push(size_t port, const Tuple& tuple) override;

  size_t num_groups() const { return groups_.size(); }
  // Rows the window holds for eviction (0 for an unbounded window).
  size_t num_rows() const { return window_.count(); }

 private:
  // Group key as a vector of values (ordered map keeps determinism).
  struct KeyLess {
    bool operator()(const std::vector<Value>& a,
                    const std::vector<Value>& b) const;
  };
  // A MIN/MAX candidate: a row's argument that no later row in the window
  // beats.
  struct Candidate {
    uint64_t seq;
    Value value;
  };
  struct GroupState {
    int64_t rows = 0;             // rows in window
    std::vector<double> sums;     // per agg (SUM/AVG)
    std::vector<int64_t> counts;  // per agg: rows counted (not COUNT(*))
    // Per MIN/MAX agg (in aggs_ order): candidates in seq order, the best
    // at the front; ties keep the earliest row.
    std::vector<std::deque<Candidate>> extrema;
  };
  using GroupMap = std::map<std::vector<Value>, GroupState, KeyLess>;
  // A row's COUNT(col), SUM or AVG argument: whether it counts (non-NULL
  // for COUNT, numeric for SUM and AVG) and what it adds to the sum.
  struct Arg {
    double value;
    bool counted;
  };

  void Insert(GroupState& g, const Tuple& t, uint64_t seq);
  void Evict(uint64_t seq, GroupMap::iterator group);
  Value Finalize(const GroupState& g, size_t agg_index) const;

  std::vector<size_t> group_keys_;
  std::vector<AggSpec> aggs_;
  std::shared_ptr<const Schema> output_schema_;
  // Per MIN/MAX agg: its index among a group's extrema.
  std::vector<size_t> slot_;
  size_t num_extrema_ = 0;

  // A row of the window is its group's map entry (node-stable); its
  // arguments sit in args_, one per COUNT(col), SUM or AVG agg, in the same
  // order.
  WindowBuffer<GroupMap::iterator> window_;
  std::deque<Arg> args_;
  GroupMap groups_;
  std::vector<Value> key_;  // scratch: the arriving tuple's group key
};

}  // namespace cosmos

#endif  // COSMOS_SPE_AGGREGATE_H_
