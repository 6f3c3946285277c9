#include "spe/aggregate.h"

#include <gtest/gtest.h>

#include <limits>
#include <random>
#include <string>

namespace cosmos {
namespace {

std::shared_ptr<const Schema> InSchema() {
  return std::make_shared<Schema>(
      "S", std::vector<AttributeDef>{{"g", ValueType::kInt64},
                                     {"v", ValueType::kDouble}});
}

std::shared_ptr<const Schema> OutSchema(const char* agg_name,
                                        ValueType agg_type) {
  return std::make_shared<Schema>(
      "out", std::vector<AttributeDef>{{"g", ValueType::kInt64},
                                       {agg_name, agg_type}});
}

Tuple In(int64_t g, double v, Timestamp ts) {
  return Tuple(InSchema(), {Value(g), Value(v)}, ts);
}

TEST(WindowAggregate, CountPerGroup) {
  WindowAggregateOperator agg(kInfiniteDuration, {0},
                              {{AggFunc::kCount, true, 0}},
                              OutSchema("cnt", ValueType::kInt64));
  std::vector<Tuple> out;
  agg.SetSink([&](const Tuple& t) { out.push_back(t); });
  agg.Push(0, In(1, 0, 0));
  agg.Push(0, In(1, 0, 1));
  agg.Push(0, In(2, 0, 2));
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].value(1).AsInt64(), 1);
  EXPECT_EQ(out[1].value(1).AsInt64(), 2);
  EXPECT_EQ(out[2].value(1).AsInt64(), 1);  // group 2
  EXPECT_EQ(agg.num_groups(), 2u);
}

TEST(WindowAggregate, SumAndAvg) {
  WindowAggregateOperator agg(
      kInfiniteDuration, {0},
      {{AggFunc::kSum, false, 1}, {AggFunc::kAvg, false, 1}},
      std::make_shared<Schema>(
          "out", std::vector<AttributeDef>{{"g", ValueType::kInt64},
                                           {"s", ValueType::kDouble},
                                           {"a", ValueType::kDouble}}));
  std::vector<Tuple> out;
  agg.SetSink([&](const Tuple& t) { out.push_back(t); });
  agg.Push(0, In(1, 10, 0));
  agg.Push(0, In(1, 20, 1));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_DOUBLE_EQ(out[1].value(1).AsDouble(), 30.0);
  EXPECT_DOUBLE_EQ(out[1].value(2).AsDouble(), 15.0);
}

TEST(WindowAggregate, MinMaxTrackWindow) {
  WindowAggregateOperator agg(
      kInfiniteDuration, {0},
      {{AggFunc::kMin, false, 1}, {AggFunc::kMax, false, 1}},
      std::make_shared<Schema>(
          "out", std::vector<AttributeDef>{{"g", ValueType::kInt64},
                                           {"lo", ValueType::kDouble},
                                           {"hi", ValueType::kDouble}}));
  std::vector<Tuple> out;
  agg.SetSink([&](const Tuple& t) { out.push_back(t); });
  agg.Push(0, In(1, 5, 0));
  agg.Push(0, In(1, 3, 1));
  agg.Push(0, In(1, 8, 2));
  ASSERT_EQ(out.size(), 3u);
  EXPECT_DOUBLE_EQ(out[2].value(1).AsDouble(), 3.0);
  EXPECT_DOUBLE_EQ(out[2].value(2).AsDouble(), 8.0);
}

TEST(WindowAggregate, WindowEvictionUpdatesState) {
  // Window of 10: at ts=15, the tuple from ts=0 has left.
  WindowAggregateOperator agg(10, {0}, {{AggFunc::kSum, false, 1}},
                              OutSchema("s", ValueType::kDouble));
  std::vector<Tuple> out;
  agg.SetSink([&](const Tuple& t) { out.push_back(t); });
  agg.Push(0, In(1, 100, 0));
  agg.Push(0, In(1, 10, 15));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_DOUBLE_EQ(out[1].value(1).AsDouble(), 10.0);  // 100 evicted
}

TEST(WindowAggregate, MinRecomputedAfterEviction) {
  WindowAggregateOperator agg(10, {0}, {{AggFunc::kMin, false, 1}},
                              OutSchema("lo", ValueType::kDouble));
  std::vector<Tuple> out;
  agg.SetSink([&](const Tuple& t) { out.push_back(t); });
  agg.Push(0, In(1, 1, 0));   // min = 1
  agg.Push(0, In(1, 5, 8));   // min = 1
  agg.Push(0, In(1, 7, 15));  // ts=0 evicted (cutoff 5); min of {5,7} = 5
  ASSERT_EQ(out.size(), 3u);
  EXPECT_DOUBLE_EQ(out[2].value(1).AsDouble(), 5.0);
}

TEST(WindowAggregate, GroupsDisappearWhenEmpty) {
  WindowAggregateOperator agg(5, {0}, {{AggFunc::kCount, true, 0}},
                              OutSchema("c", ValueType::kInt64));
  agg.SetSink(nullptr);
  agg.Push(0, In(1, 0, 0));
  agg.Push(0, In(2, 0, 100));  // group 1 evicted entirely
  EXPECT_EQ(agg.num_groups(), 1u);
}

TEST(WindowAggregate, EmptyGroupByAggregatesGlobally) {
  WindowAggregateOperator agg(kInfiniteDuration, {},
                              {{AggFunc::kCount, true, 0}},
                              std::make_shared<Schema>(
                                  "out", std::vector<AttributeDef>{
                                             {"c", ValueType::kInt64}}));
  std::vector<Tuple> out;
  agg.SetSink([&](const Tuple& t) { out.push_back(t); });
  agg.Push(0, In(1, 0, 0));
  agg.Push(0, In(9, 0, 1));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[1].value(0).AsInt64(), 2);
  EXPECT_EQ(agg.num_groups(), 1u);
}

TEST(WindowAggregate, EmissionTimestampIsArrivalTime) {
  WindowAggregateOperator agg(kInfiniteDuration, {0},
                              {{AggFunc::kCount, true, 0}},
                              OutSchema("c", ValueType::kInt64));
  std::vector<Tuple> out;
  agg.SetSink([&](const Tuple& t) { out.push_back(t); });
  agg.Push(0, In(1, 0, 77));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].timestamp(), 77);
}

TEST(WindowAggregate, CountColumnSkipsNullMeasurements) {
  // COUNT(v) counts the non-NULL measurements still in the window, COUNT(*)
  // every row; an evicted NULL row must not take a count with it.
  WindowAggregateOperator agg(
      2, {0}, {{AggFunc::kCount, true, 0}, {AggFunc::kCount, false, 1}},
      std::make_shared<Schema>(
          "out", std::vector<AttributeDef>{{"g", ValueType::kInt64},
                                           {"rows", ValueType::kInt64},
                                           {"cnt", ValueType::kInt64}}));
  std::vector<Tuple> out;
  agg.SetSink([&](const Tuple& t) { out.push_back(t); });
  auto push = [&](Value v, Timestamp ts) {
    agg.Push(0, Tuple(InSchema(), {Value(int64_t{1}), std::move(v)}, ts));
    return std::make_pair(out.back().value(1).AsInt64(),
                          out.back().value(2).AsInt64());
  };
  using Counts = std::pair<int64_t, int64_t>;
  EXPECT_EQ(push(Value(), 0), Counts(1, 0));
  EXPECT_EQ(push(Value(1.5), 1), Counts(2, 1));
  EXPECT_EQ(push(Value(), 2), Counts(3, 1));
  EXPECT_EQ(push(Value(2.5), 3), Counts(3, 2));  // the NULL at 0 left
  EXPECT_EQ(push(Value(), 5), Counts(2, 1));     // 1.5 and the NULL at 2 left
  EXPECT_EQ(push(Value(), 8), Counts(1, 0));
}

// ---- Reference check: every emitted row against a whole-window rescan ----

// Input rows for the rescan check: a two-column group key, a numeric and a
// string argument, either of which may be NULL.
std::shared_ptr<const Schema> RescanInSchema() {
  return std::make_shared<Schema>(
      "S", std::vector<AttributeDef>{{"g1", ValueType::kInt64},
                                     {"g2", ValueType::kString},
                                     {"v", ValueType::kDouble},
                                     {"s", ValueType::kString}});
}

// Reference MIN/MAX by rescan: walk the group's rows in arrival order, keep
// the first non-NULL value and replace it only by a strictly better one.
Value RescanExtremum(const std::vector<const Tuple*>& rows, size_t arg,
                     bool want_min) {
  bool found = false;
  Value best;
  for (const Tuple* t : rows) {
    const Value& v = t->value(arg);
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
  return best;
}

// The row the operator must emit on the arrival of `seen.back()`,
// recomputed from every row in the window; `window_rows` receives the
// number of rows (of all groups) the window holds.
std::vector<Value> RescanRow(const std::vector<Tuple>& seen, Duration window,
                             const std::vector<size_t>& keys,
                             const std::vector<AggSpec>& aggs,
                             size_t* window_rows) {
  const Tuple& now = seen.back();
  const Timestamp cutoff = window == kInfiniteDuration
                               ? std::numeric_limits<Timestamp>::min()
                               : now.timestamp() - window;
  std::vector<const Tuple*> group;
  *window_rows = 0;
  for (const Tuple& t : seen) {
    if (t.timestamp() < cutoff) continue;
    ++*window_rows;
    bool same = true;
    for (size_t k : keys) same = same && t.value(k) == now.value(k);
    if (same) group.push_back(&t);
  }
  std::vector<Value> row;
  for (size_t k : keys) row.push_back(now.value(k));
  for (const AggSpec& a : aggs) {
    double sum = 0.0;
    int64_t numeric = 0;
    int64_t present = 0;
    if (!a.star) {
      for (const Tuple* t : group) {
        if (!t->value(a.arg).is_null()) ++present;
        if (!t->value(a.arg).is_numeric()) continue;
        sum += t->value(a.arg).NumericValue();
        ++numeric;
      }
    }
    switch (a.func) {
      case AggFunc::kCount:  // COUNT(col) skips NULL arguments
        row.emplace_back(a.star ? static_cast<int64_t>(group.size())
                                : present);
        break;
      case AggFunc::kSum:
        row.emplace_back(sum);
        break;
      case AggFunc::kAvg:
        row.push_back(numeric == 0 ? Value()
                                   : Value(sum / static_cast<double>(numeric)));
        break;
      case AggFunc::kMin:
        row.push_back(RescanExtremum(group, a.arg, /*want_min=*/true));
        break;
      case AggFunc::kMax:
        row.push_back(RescanExtremum(group, a.arg, /*want_min=*/false));
        break;
    }
  }
  return row;
}

std::string Render(const std::vector<Value>& row) {
  std::string s;
  for (const Value& v : row) {
    s += v.ToString();
    s += ' ';
  }
  return s;
}

TEST(WindowAggregate, MatchesWholeWindowRescan) {
  // Small integral values make SUM exact in any order and give value ties;
  // a third of the arrivals share the previous timestamp.
  const std::vector<size_t> keys = {0, 1};
  const std::vector<AggSpec> aggs = {
      {AggFunc::kCount, true, 0}, {AggFunc::kCount, false, 2},
      {AggFunc::kCount, false, 3},
      {AggFunc::kSum, false, 2},  {AggFunc::kAvg, false, 2},
      {AggFunc::kMin, false, 2},  {AggFunc::kMax, false, 2},
      {AggFunc::kMin, false, 3},  {AggFunc::kMax, false, 3}};
  std::vector<AttributeDef> out_attrs = {{"g1", ValueType::kInt64},
                                         {"g2", ValueType::kString}};
  for (size_t i = 0; i < aggs.size(); ++i) {
    std::string name = "a";
    name += std::to_string(i);
    out_attrs.emplace_back(std::move(name), ValueType::kDouble);
  }
  auto out_schema = std::make_shared<Schema>("out", out_attrs);
  const char* names[] = {"ant", "bee", "cat", "dog"};

  // [Now], short, long and unbounded windows.
  for (Duration window : {Duration{0}, Duration{3}, Duration{25},
                          kInfiniteDuration}) {
    SCOPED_TRACE(window);
    WindowAggregateOperator agg(window, keys, aggs, out_schema);
    std::vector<Tuple> out;
    agg.SetSink([&](const Tuple& t) { out.push_back(t); });
    std::mt19937 rng(12345);
    std::vector<Tuple> seen;
    Timestamp ts = 0;
    for (int n = 0; n < 1500; ++n) {
      if (rng() % 3 != 0) ts += 1 + rng() % 3;
      Value v;  // NULL one time in 7
      if (rng() % 7 != 0) v = Value(static_cast<double>(rng() % 6));
      Value s;
      if (rng() % 7 != 0) s = Value(names[rng() % 4]);
      Value g1(static_cast<int64_t>(rng() % 3));
      Value g2(rng() % 2 ? "x" : "y");
      seen.emplace_back(RescanInSchema(),
                        std::vector<Value>{std::move(g1), std::move(g2),
                                           std::move(v), std::move(s)},
                        ts);
      agg.Push(0, seen.back());
      size_t window_rows = 0;
      const std::vector<Value> want =
          RescanRow(seen, window, keys, aggs, &window_rows);
      ASSERT_EQ(out.size(), seen.size());
      ASSERT_TRUE(out.back().values() == want)
          << "arrival " << n << ": emitted " << Render(out.back().values())
          << ", rescan " << Render(want);
      EXPECT_EQ(out.back().timestamp(), ts);
      ASSERT_EQ(agg.num_rows(),
                window == kInfiniteDuration ? 0u : window_rows);
    }
  }
}

}  // namespace
}  // namespace cosmos
