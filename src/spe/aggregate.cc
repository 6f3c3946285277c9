#include "spe/aggregate.h"

#include "common/logging.h"

namespace cosmos {

namespace {

// Whether `v` beats `held` as a MIN (or MAX) candidate. Incomparable values
// never beat each other.
bool Beats(const Value& v, const Value& held, bool want_min) {
  auto cmp = v.Compare(held);
  return cmp.ok() && (want_min ? *cmp < 0 : *cmp > 0);
}

}  // namespace

bool WindowAggregateOperator::KeyLess::operator()(
    const std::vector<Value>& a, const std::vector<Value>& b) const {
  COSMOS_CHECK_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    auto cmp = a[i].Compare(b[i]);
    if (cmp.ok()) {
      if (*cmp < 0) return true;
      if (*cmp > 0) return false;
      continue;
    }
    // Incomparable types: order by type id, then by string form.
    if (a[i].type() != b[i].type()) return a[i].type() < b[i].type();
    std::string sa = a[i].ToString();
    std::string sb = b[i].ToString();
    if (sa != sb) return sa < sb;
  }
  return false;
}

WindowAggregateOperator::WindowAggregateOperator(
    Duration window, std::vector<size_t> group_keys, std::vector<AggSpec> aggs,
    std::shared_ptr<const Schema> output_schema)
    : group_keys_(std::move(group_keys)),
      aggs_(std::move(aggs)),
      output_schema_(std::move(output_schema)),
      window_(window) {
  COSMOS_CHECK(output_schema_->num_attributes() ==
               group_keys_.size() + aggs_.size());
  for (const AggSpec& a : aggs_) {
    const bool extremum = a.func == AggFunc::kMin || a.func == AggFunc::kMax;
    slot_.push_back(extremum ? num_extrema_++ : 0);
  }
}

void WindowAggregateOperator::Insert(GroupState& g, const Tuple& t,
                                     uint64_t seq) {
  const bool bounded = window_.size() != kInfiniteDuration;
  ++g.rows;
  for (size_t i = 0; i < aggs_.size(); ++i) {
    const AggSpec& a = aggs_[i];
    switch (a.func) {
      case AggFunc::kCount:
      case AggFunc::kSum:
      case AggFunc::kAvg: {
        if (a.star) break;  // COUNT(*) counts the group's rows
        // COUNT(col) counts the non-NULL arguments, SUM and AVG add the
        // numeric ones.
        const Value& v = t.value(a.arg);
        const bool count = a.func == AggFunc::kCount;
        const Arg arg{!count && v.is_numeric() ? v.NumericValue() : 0.0,
                      count ? !v.is_null() : v.is_numeric()};
        if (arg.counted) {
          ++g.counts[i];
          g.sums[i] += arg.value;
        }
        if (bounded) args_.push_back(arg);
        break;
      }
      case AggFunc::kMin:
      case AggFunc::kMax: {
        const Value& v = t.value(a.arg);
        if (v.is_null()) break;
        const bool want_min = a.func == AggFunc::kMin;
        std::deque<Candidate>& c = g.extrema[slot_[i]];
        while (!c.empty() && Beats(v, c.back().value, want_min)) c.pop_back();
        // An unbounded window never evicts its front, so nothing behind it
        // could surface.
        if (bounded || c.empty()) c.push_back({seq, v});
        break;
      }
    }
  }
}

void WindowAggregateOperator::Evict(uint64_t seq, GroupMap::iterator group) {
  GroupState& g = group->second;
  --g.rows;
  for (size_t i = 0; i < aggs_.size(); ++i) {
    switch (aggs_[i].func) {
      case AggFunc::kCount:
      case AggFunc::kSum:
      case AggFunc::kAvg: {
        if (aggs_[i].star) break;
        const Arg& arg = args_.front();
        if (arg.counted) {
          --g.counts[i];
          g.sums[i] -= arg.value;
        }
        args_.pop_front();
        break;
      }
      case AggFunc::kMin:
      case AggFunc::kMax: {
        std::deque<Candidate>& c = g.extrema[slot_[i]];
        if (!c.empty() && c.front().seq == seq) c.pop_front();
        break;
      }
    }
  }
  if (g.rows == 0) groups_.erase(group);
}

Value WindowAggregateOperator::Finalize(const GroupState& g,
                                        size_t agg_index) const {
  const AggSpec& a = aggs_[agg_index];
  switch (a.func) {
    case AggFunc::kCount:
      return Value(a.star ? g.rows : g.counts[agg_index]);
    case AggFunc::kSum:
      return Value(g.sums[agg_index]);
    case AggFunc::kAvg:
      if (g.counts[agg_index] == 0) return Value();
      return Value(g.sums[agg_index] /
                   static_cast<double>(g.counts[agg_index]));
    case AggFunc::kMin:
    case AggFunc::kMax: {
      const std::deque<Candidate>& c = g.extrema[slot_[agg_index]];
      return c.empty() ? Value() : c.front().value;  // Null: no rows
    }
  }
  return Value();
}

void WindowAggregateOperator::Push(size_t port, const Tuple& tuple) {
  (void)port;
  const Timestamp now = tuple.timestamp();

  // Evict expired rows, updating their groups.
  window_.EvictExpired(now, [this](uint64_t seq, GroupMap::iterator group) {
    Evict(seq, group);
  });

  // Insert the arrival; an unbounded window keeps no row of it.
  key_.clear();
  for (size_t i : group_keys_) key_.push_back(tuple.value(i));
  auto it = groups_.find(key_);
  if (it == groups_.end()) {
    GroupState fresh;
    fresh.sums.assign(aggs_.size(), 0.0);
    fresh.counts.assign(aggs_.size(), 0);
    fresh.extrema.resize(num_extrema_);
    it = groups_.emplace(key_, std::move(fresh)).first;
  }
  const uint64_t seq = window_.size() == kInfiniteDuration
                           ? 0
                           : window_.Insert(now, it);
  GroupState& g = it->second;
  Insert(g, tuple, seq);

  // Emit the refreshed row of this group.
  std::vector<Value> out;
  out.reserve(output_schema_->num_attributes());
  for (const auto& k : it->first) out.push_back(k);
  for (size_t i = 0; i < aggs_.size(); ++i) out.push_back(Finalize(g, i));
  Emit(Tuple(output_schema_, std::move(out), now));
}

}  // namespace cosmos
