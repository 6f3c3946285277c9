#include "spe/aggregate.h"

#include "common/logging.h"

namespace cosmos {

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
    : window_size_(window),
      group_keys_(std::move(group_keys)),
      aggs_(std::move(aggs)),
      output_schema_(std::move(output_schema)),
      window_(window) {
  COSMOS_CHECK(output_schema_->num_attributes() ==
               group_keys_.size() + aggs_.size());
}

std::vector<Value> WindowAggregateOperator::KeyOf(const Tuple& t) const {
  std::vector<Value> key;
  key.reserve(group_keys_.size());
  for (size_t i : group_keys_) key.push_back(t.value(i));
  return key;
}

void WindowAggregateOperator::Apply(GroupState& g, const Tuple& t, int sign) {
  g.count += sign;
  if (g.sums.size() != aggs_.size()) {
    g.sums.assign(aggs_.size(), 0.0);
    g.counts.assign(aggs_.size(), 0);
  }
  for (size_t i = 0; i < aggs_.size(); ++i) {
    const AggSpec& a = aggs_[i];
    if (a.star || a.func == AggFunc::kCount) {
      g.counts[i] += sign;
      continue;
    }
    const Value& v = t.value(a.arg);
    if (!v.is_numeric()) {
      if (a.func == AggFunc::kMin || a.func == AggFunc::kMax) {
        g.counts[i] += sign;  // extrema recomputed from window contents
      }
      continue;
    }
    g.counts[i] += sign;
    if (a.func == AggFunc::kSum || a.func == AggFunc::kAvg) {
      g.sums[i] += sign * v.NumericValue();
    }
  }
}

Value WindowAggregateOperator::RecomputeExtremum(
    const std::vector<Value>& key, size_t agg_index, bool want_min) const {
  const AggSpec& a = aggs_[agg_index];
  // Compared in place: the scan visits every group's rows.
  auto in_group = [&](const Tuple& t) {
    for (size_t j = 0; j < group_keys_.size(); ++j) {
      if (t.value(group_keys_[j]) != key[j]) return false;
    }
    return true;
  };
  bool found = false;
  Value best;
  for (const auto& t : window_.contents()) {
    if (!in_group(t)) continue;
    const Value& v = t.value(a.arg);
    if (v.is_null()) continue;
    if (!found) {
      best = v;
      found = true;
      continue;
    }
    auto cmp = v.Compare(best);
    if (cmp.ok() && ((want_min && *cmp < 0) || (!want_min && *cmp > 0))) {
      best = v;
    }
  }
  return best;  // Null when the group has no rows
}

Value WindowAggregateOperator::Finalize(const GroupState& g, size_t agg_index,
                                        const std::vector<Value>& key) const {
  const AggSpec& a = aggs_[agg_index];
  switch (a.func) {
    case AggFunc::kCount:
      return Value(static_cast<int64_t>(g.counts[agg_index]));
    case AggFunc::kSum:
      return Value(g.sums[agg_index]);
    case AggFunc::kAvg:
      if (g.counts[agg_index] == 0) return Value();
      return Value(g.sums[agg_index] /
                   static_cast<double>(g.counts[agg_index]));
    case AggFunc::kMin:
      return RecomputeExtremum(key, agg_index, /*want_min=*/true);
    case AggFunc::kMax:
      return RecomputeExtremum(key, agg_index, /*want_min=*/false);
  }
  return Value();
}

void WindowAggregateOperator::Push(size_t port, const Tuple& tuple) {
  (void)port;
  const Timestamp now = tuple.timestamp();

  // Evict expired tuples, updating their groups.
  std::vector<Tuple> evicted;
  window_.EvictExpired(now, &evicted);
  for (const auto& victim : evicted) {
    auto key = KeyOf(victim);
    auto it = groups_.find(key);
    if (it != groups_.end()) {
      Apply(it->second, victim, -1);
      if (it->second.count == 0) groups_.erase(it);
    }
  }

  // Insert the arrival.
  window_.Insert(tuple);
  std::vector<Value> key = KeyOf(tuple);
  GroupState& g = groups_[key];
  Apply(g, tuple, +1);

  // Emit the refreshed row of this group.
  std::vector<Value> out;
  out.reserve(output_schema_->num_attributes());
  for (const auto& k : key) out.push_back(k);
  for (size_t i = 0; i < aggs_.size(); ++i) {
    out.push_back(Finalize(g, i, key));
  }
  Emit(Tuple(output_schema_, std::move(out), now));
}

}  // namespace cosmos
