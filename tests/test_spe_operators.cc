#include <gtest/gtest.h>

#include "query/parser.h"
#include "spe/operator.h"
#include "spe/window.h"

namespace cosmos {
namespace {

std::shared_ptr<const Schema> ABSchema() {
  return std::make_shared<Schema>(
      "S", std::vector<AttributeDef>{{"a", ValueType::kInt64},
                                     {"b", ValueType::kDouble}});
}

Tuple MakeTuple(int64_t a, double b, Timestamp ts = 0) {
  return Tuple(ABSchema(), {Value(a), Value(b)}, ts);
}

TEST(SelectOperator, FiltersByPredicate) {
  SelectOperator op(*ParseExpression("a >= 5"));
  std::vector<Tuple> out;
  op.SetSink([&](const Tuple& t) { out.push_back(t); });
  for (int i = 0; i < 10; ++i) op.Push(0, MakeTuple(i, 0.0));
  EXPECT_EQ(out.size(), 5u);
}

TEST(SelectOperator, NullPredicatePassesAll) {
  SelectOperator op(nullptr);
  int n = 0;
  op.SetSink([&](const Tuple&) { ++n; });
  op.Push(0, MakeTuple(1, 1.0));
  op.Push(0, MakeTuple(2, 2.0));
  EXPECT_EQ(n, 2);
}

TEST(SelectOperator, RebindsPerInputSchema) {
  // Same logical predicate evaluated against two physically different
  // schemas (different attribute positions).
  SelectOperator op(*ParseExpression("a >= 5"));
  int n = 0;
  op.SetSink([&](const Tuple&) { ++n; });
  op.Push(0, MakeTuple(7, 0.0));
  auto flipped = std::make_shared<Schema>(
      "S", std::vector<AttributeDef>{{"b", ValueType::kDouble},
                                     {"a", ValueType::kInt64}});
  op.Push(0, Tuple(flipped, {Value(0.0), Value(int64_t{9})}, 0));
  EXPECT_EQ(n, 2);
}

TEST(SelectOperator, UnbindableSchemaDropsTuples) {
  SelectOperator op(*ParseExpression("missing >= 5"));
  int n = 0;
  op.SetSink([&](const Tuple&) { ++n; });
  op.Push(0, MakeTuple(7, 0.0));
  EXPECT_EQ(n, 0);
}

TEST(AdaptOperator, ReordersAndDropsExtras) {
  auto target = std::make_shared<Schema>(
      "S", std::vector<AttributeDef>{{"b", ValueType::kDouble}});
  AdaptOperator op(target);
  std::vector<Tuple> out;
  op.SetSink([&](const Tuple& t) { out.push_back(t); });
  op.Push(0, MakeTuple(1, 2.5, 42));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].num_values(), 1u);
  EXPECT_DOUBLE_EQ(out[0].value(0).AsDouble(), 2.5);
  EXPECT_EQ(out[0].timestamp(), 42);
}

TEST(AdaptOperator, DropsTuplesMissingTargetAttributes) {
  auto target = std::make_shared<Schema>(
      "S", std::vector<AttributeDef>{{"z", ValueType::kInt64}});
  AdaptOperator op(target);
  int n = 0;
  op.SetSink([&](const Tuple&) { ++n; });
  op.Push(0, MakeTuple(1, 1.0));
  EXPECT_EQ(n, 0);
}

TEST(AdaptOperator, FreesRetiredInputSchemas) {
  // The operator keeps a seen input schema alive only while something else
  // holds it too: the next new schema frees one nobody else holds.
  auto target = std::make_shared<Schema>(
      "S", std::vector<AttributeDef>{{"b", ValueType::kDouble}});
  AdaptOperator op(target);
  int n = 0;
  op.SetSink([&](const Tuple&) { ++n; });
  auto a = ABSchema();
  std::weak_ptr<const Schema> retired = a;
  op.Push(0, Tuple(std::move(a), {Value(int64_t{1}), Value(2.0)}, 0));
  EXPECT_FALSE(retired.expired());  // still cached
  op.Push(0, MakeTuple(3, 4.0, 1));
  EXPECT_TRUE(retired.expired());
  EXPECT_EQ(n, 2);
}

TEST(SelectOperator, FreesRetiredInputSchemas) {
  SelectOperator op(*ParseExpression("a >= 5"));
  int n = 0;
  op.SetSink([&](const Tuple&) { ++n; });
  auto a = ABSchema();
  std::weak_ptr<const Schema> retired = a;
  op.Push(0, Tuple(std::move(a), {Value(int64_t{7}), Value(0.0)}, 0));
  op.Push(0, MakeTuple(9, 0.0, 1));
  EXPECT_TRUE(retired.expired());
  EXPECT_EQ(n, 2);
}

TEST(ProjectOperator, MapsIndexes) {
  auto out_schema = std::make_shared<Schema>(
      "out", std::vector<AttributeDef>{{"renamed", ValueType::kInt64}});
  ProjectOperator op({0}, out_schema);
  std::vector<Tuple> out;
  op.SetSink([&](const Tuple& t) { out.push_back(t); });
  op.Push(0, MakeTuple(9, 1.0, 5));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].schema()->attribute(0).name, "renamed");
  EXPECT_EQ(out[0].value(0).AsInt64(), 9);
}

// The window's rows here are plain ints; `evicted` collects (seq, row).
using Evicted = std::vector<std::pair<uint64_t, int>>;

size_t Evict(WindowBuffer<int>& w, Timestamp now, Evicted* evicted) {
  return w.EvictExpired(now, [&](uint64_t seq, int row) {
    evicted->emplace_back(seq, row);
  });
}

TEST(WindowBuffer, EvictsExpired) {
  WindowBuffer<int> w(10);
  EXPECT_EQ(w.Insert(0, 1), 0u);
  EXPECT_EQ(w.Insert(5, 2), 1u);
  EXPECT_EQ(w.Insert(10, 3), 2u);
  Evicted evicted;
  // At now=12, cutoff = 2: the row at ts=0 leaves.
  EXPECT_EQ(Evict(w, 12, &evicted), 1u);
  EXPECT_EQ(w.count(), 2u);
  EXPECT_EQ(evicted, (Evicted{{0, 1}}));
  // Seqs keep counting across evictions.
  EXPECT_EQ(w.Insert(20, 4), 3u);
  EXPECT_EQ(Evict(w, 21, &evicted), 2u);
  EXPECT_EQ(evicted, (Evicted{{0, 1}, {1, 2}, {2, 3}}));
}

TEST(WindowBuffer, BoundaryTupleStays) {
  WindowBuffer<int> w(10);
  w.Insert(0, 1);
  Evicted evicted;
  // cutoff = now - T = 0: ts=0 is still inside [now-T, now].
  EXPECT_EQ(Evict(w, 10, &evicted), 0u);
  EXPECT_EQ(Evict(w, 11, &evicted), 1u);
}

TEST(WindowBuffer, UnboundedNeverEvicts) {
  WindowBuffer<int> w(kInfiniteDuration);
  for (int i = 0; i < 100; ++i) w.Insert(i, i);
  Evicted evicted;
  EXPECT_EQ(Evict(w, 1'000'000'000, &evicted), 0u);
  EXPECT_TRUE(evicted.empty());
  EXPECT_EQ(w.count(), 100u);
}

TEST(WindowBuffer, NowWindowKeepsOnlyCurrentInstant) {
  WindowBuffer<int> w(0);
  w.Insert(5, 1);
  Evicted evicted;
  EXPECT_EQ(Evict(w, 5, &evicted), 0u);  // same instant survives
  EXPECT_EQ(Evict(w, 6, &evicted), 1u);
}

}  // namespace
}  // namespace cosmos
