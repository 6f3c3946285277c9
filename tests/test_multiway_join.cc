#include "spe/join.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

#include "common/random.h"
#include "query/parser.h"

namespace cosmos {
namespace {

std::shared_ptr<const Schema> PartSchema(const std::string& name) {
  return std::make_shared<Schema>(
      name, std::vector<AttributeDef>{{"k", ValueType::kInt64},
                                      {"v", ValueType::kDouble}});
}

Tuple Part(const std::shared_ptr<const Schema>& schema, int64_t k, double v,
           Timestamp ts) {
  return Tuple(schema, {Value(k), Value(v)}, ts);
}

class MultiWayJoinTest : public ::testing::Test {
 protected:
  void SetUp() override {
    a_ = PartSchema("A");
    b_ = PartSchema("B");
    c_ = PartSchema("C");
    out_ = MakeConcatenatedSchema(
        {{a_.get(), "A"}, {b_.get(), "B"}, {c_.get(), "C"}}, "J");
  }

  std::shared_ptr<const Schema> a_, b_, c_, out_;
};

TEST_F(MultiWayJoinTest, ConcatenatedSchemaQualifies) {
  EXPECT_EQ(out_->num_attributes(), 6u);
  EXPECT_TRUE(out_->HasAttribute("A.k"));
  EXPECT_TRUE(out_->HasAttribute("B.v"));
  EXPECT_TRUE(out_->HasAttribute("C.k"));
}

TEST_F(MultiWayJoinTest, ThreeWayKeyChainJoins) {
  // A.k = B.k and B.k = C.k.
  WindowJoinOperator join(
      {kInfiniteDuration, kInfiniteDuration, kInfiniteDuration},
      {{0, 0, 1, 0}, {1, 0, 2, 0}}, nullptr, out_);
  std::vector<Tuple> results;
  join.SetSink([&](const Tuple& t) { results.push_back(t); });
  join.Push(0, Part(a_, 1, 0.5, 0));
  join.Push(1, Part(b_, 1, 1.5, 1));
  EXPECT_TRUE(results.empty());  // C still missing
  join.Push(2, Part(c_, 1, 2.5, 2));
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].GetAttribute("A.k")->AsInt64(), 1);
  EXPECT_DOUBLE_EQ(results[0].GetAttribute("C.v")->AsDouble(), 2.5);
  EXPECT_EQ(results[0].timestamp(), 2);  // tau = max
  // Mismatched key never joins.
  join.Push(2, Part(c_, 9, 0.0, 3));
  EXPECT_EQ(results.size(), 1u);
}

TEST_F(MultiWayJoinTest, ArrivalOnMiddlePortCompletesCombination) {
  WindowJoinOperator join(
      {kInfiniteDuration, kInfiniteDuration, kInfiniteDuration},
      {{0, 0, 1, 0}, {1, 0, 2, 0}}, nullptr, out_);
  int n = 0;
  join.SetSink([&](const Tuple&) { ++n; });
  join.Push(0, Part(a_, 7, 0, 0));
  join.Push(2, Part(c_, 7, 0, 1));
  join.Push(1, Part(b_, 7, 0, 2));  // completes on the middle port
  EXPECT_EQ(n, 1);
}

TEST_F(MultiWayJoinTest, WindowConditionUsesTau) {
  // Windows: A 10, B 10, C 10. A combination joins iff every component is
  // within 10 of the max timestamp.
  WindowJoinOperator join({10, 10, 10}, {{0, 0, 1, 0}, {1, 0, 2, 0}},
                            nullptr, out_);
  int n = 0;
  join.SetSink([&](const Tuple&) { ++n; });
  join.Push(0, Part(a_, 1, 0, 0));
  join.Push(1, Part(b_, 1, 0, 5));
  join.Push(2, Part(c_, 1, 0, 9));  // tau=9: ages 9,4,0 all <= 10
  EXPECT_EQ(n, 1);
  join.Push(0, Part(a_, 2, 0, 20));
  join.Push(1, Part(b_, 2, 0, 25));
  join.Push(2, Part(c_, 2, 0, 35));  // tau=35: A's age 15 > 10
  EXPECT_EQ(n, 1);
}

TEST_F(MultiWayJoinTest, MultipleCombinationsPerArrival) {
  WindowJoinOperator join(
      {kInfiniteDuration, kInfiniteDuration, kInfiniteDuration},
      {{0, 0, 1, 0}, {1, 0, 2, 0}}, nullptr, out_);
  int n = 0;
  join.SetSink([&](const Tuple&) { ++n; });
  join.Push(0, Part(a_, 1, 0, 0));
  join.Push(0, Part(a_, 1, 1, 1));
  join.Push(1, Part(b_, 1, 0, 2));
  join.Push(1, Part(b_, 1, 1, 3));
  join.Push(2, Part(c_, 1, 0, 4));  // 2 As x 2 Bs
  EXPECT_EQ(n, 4);
}

TEST_F(MultiWayJoinTest, ResidualFiltersCombinations) {
  auto residual = ParseExpression("A.v < C.v");
  ASSERT_TRUE(residual.ok());
  WindowJoinOperator join(
      {kInfiniteDuration, kInfiniteDuration, kInfiniteDuration},
      {{0, 0, 1, 0}, {1, 0, 2, 0}}, *residual, out_);
  int n = 0;
  join.SetSink([&](const Tuple&) { ++n; });
  join.Push(0, Part(a_, 1, 5.0, 0));
  join.Push(1, Part(b_, 1, 0.0, 1));
  join.Push(2, Part(c_, 1, 9.0, 2));  // 5 < 9: pass
  join.Push(2, Part(c_, 1, 1.0, 3));  // 5 < 1: fail
  EXPECT_EQ(n, 1);
}

TEST_F(MultiWayJoinTest, ResultsDoNotDependOnCrossPortArrivalOrder) {
  // A@100, B@100, C@95 with windows 10: tau = 100 and every age is <= 10,
  // so the combination joins whichever tuple arrives last.
  auto by_port = [](const auto& x, const auto& y) { return x.first < y.first; };
  std::vector<std::pair<size_t, Tuple>> arrivals = {
      {0, Part(a_, 1, 0, 100)}, {1, Part(b_, 1, 0, 100)},
      {2, Part(c_, 1, 0, 95)}};
  do {
    WindowJoinOperator join({10, 10, 10}, {{0, 0, 1, 0}, {1, 0, 2, 0}},
                            nullptr, out_);
    std::vector<Tuple> results;
    join.SetSink([&](const Tuple& t) { results.push_back(t); });
    for (const auto& [port, tuple] : arrivals) join.Push(port, tuple);
    ASSERT_EQ(results.size(), 1u) << "last port " << arrivals.back().first;
    EXPECT_EQ(results[0].timestamp(), 100);
  } while (std::next_permutation(arrivals.begin(), arrivals.end(), by_port));
}

TEST_F(MultiWayJoinTest, EvictionWaitsForTheSlowestPort) {
  // Windows 20. A@100 must not evict B@45 while C has not yet been seen:
  // C@60 still completes (A@50, B@45, C@60) at tau = 60.
  WindowJoinOperator join({20, 20, 20}, {{0, 0, 1, 0}, {1, 0, 2, 0}},
                          nullptr, out_);
  std::vector<Tuple> results;
  join.SetSink([&](const Tuple& t) { results.push_back(t); });
  join.Push(0, Part(a_, 1, 0, 50));
  join.Push(1, Part(b_, 1, 0, 45));
  join.Push(0, Part(a_, 1, 0, 100));
  join.Push(2, Part(c_, 1, 0, 60));
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].GetAttribute("A.k")->AsInt64(), 1);
  EXPECT_EQ(results[0].timestamp(), 60);
  // Once every other port has moved past B@45's window, it is evicted.
  join.Push(2, Part(c_, 1, 0, 100));
  EXPECT_EQ(join.buffer_size(1), 0u);
}

// The streaming join against a nested-loop oracle over the full history:
// `n` ports chained by equal keys, random windows, and each port's tuples
// in event-time order but the ports interleaved at random, as when streams
// reach a processor over paths of different delay.
void ExpectMatchesNestedLoopOracle(size_t n, uint64_t seed,
                                   int tuples_per_port) {
  Rng rng(seed);
  std::vector<std::shared_ptr<const Schema>> schemas;
  std::vector<std::string> aliases;
  std::vector<Duration> windows;
  std::vector<WindowJoinOperator::KeyConstraint> keys;
  for (size_t p = 0; p < n; ++p) {
    aliases.emplace_back(1, static_cast<char>('A' + p));
    schemas.push_back(PartSchema(aliases.back()));
    windows.push_back(rng.NextInt(0, 15));
    if (p > 0) keys.push_back({p - 1, 0, p, 0});
  }
  std::vector<std::pair<const Schema*, std::string>> parts;
  for (size_t p = 0; p < n; ++p) {
    parts.emplace_back(schemas[p].get(), aliases[p]);
  }
  auto out = MakeConcatenatedSchema(parts, "J");

  struct Row {
    int64_t k;
    Timestamp ts;
  };
  std::vector<std::vector<Row>> history(n);
  for (auto& rows : history) {
    Timestamp now = 0;
    for (int i = 0; i < tuples_per_port; ++i) {
      now += rng.NextInt(0, 3);
      rows.push_back({rng.NextInt(0, 3), now});
    }
  }

  WindowJoinOperator join(windows, keys, nullptr, out);
  int streamed = 0;
  join.SetSink([&](const Tuple&) { ++streamed; });
  std::vector<size_t> next(n, 0);
  for (size_t left = n * tuples_per_port; left > 0;) {
    size_t p = rng.NextBounded(n);
    if (next[p] == history[p].size()) continue;
    const Row& r = history[p][next[p]++];
    join.Push(p, Part(schemas[p], r.k, 0, r.ts));
    --left;
  }

  // Oracle: every combination with equal keys whose components are all
  // inside their windows at tau = the newest timestamp.
  int oracle = 0;
  std::vector<const Row*> combo(n);
  std::function<void(size_t)> extend = [&](size_t p) {
    if (p == n) {
      Timestamp tau = 0;
      for (const Row* r : combo) tau = std::max(tau, r->ts);
      for (size_t i = 0; i < n; ++i) {
        if (tau - combo[i]->ts > windows[i]) return;
      }
      ++oracle;
      return;
    }
    for (const Row& r : history[p]) {
      if (p > 0 && r.k != combo[0]->k) continue;
      combo[p] = &r;
      extend(p + 1);
    }
  };
  extend(0);
  EXPECT_EQ(streamed, oracle) << "n=" << n << " seed=" << seed;
}

class MultiWayOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MultiWayOracleTest, TwoWayMatchesNestedLoopOracle) {
  ExpectMatchesNestedLoopOracle(2, GetParam(), 100);
}

TEST_P(MultiWayOracleTest, ThreeWayMatchesNestedLoopOracle) {
  ExpectMatchesNestedLoopOracle(3, GetParam(), 40);
}

TEST_P(MultiWayOracleTest, FourWayMatchesNestedLoopOracle) {
  ExpectMatchesNestedLoopOracle(4, GetParam(), 20);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MultiWayOracleTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

}  // namespace
}  // namespace cosmos
