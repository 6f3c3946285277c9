#include "spe/join.h"

#include <gtest/gtest.h>

#include "common/random.h"
#include "query/parser.h"

namespace cosmos {
namespace {

std::shared_ptr<const Schema> LeftSchema() {
  return std::make_shared<Schema>(
      "L", std::vector<AttributeDef>{{"id", ValueType::kInt64},
                                     {"x", ValueType::kDouble}});
}

std::shared_ptr<const Schema> RightSchema() {
  return std::make_shared<Schema>(
      "R", std::vector<AttributeDef>{{"id", ValueType::kInt64},
                                     {"y", ValueType::kDouble}});
}

Tuple L(int64_t id, double x, Timestamp ts) {
  return Tuple(LeftSchema(), {Value(id), Value(x)}, ts);
}
Tuple R(int64_t id, double y, Timestamp ts) {
  return Tuple(RightSchema(), {Value(id), Value(y)}, ts);
}

std::shared_ptr<const Schema> Joined() {
  return MakeConcatenatedSchema(
      {{LeftSchema().get(), "L"}, {RightSchema().get(), "R"}}, "J");
}

// Equi-join on L.id = R.id.
const std::vector<WindowJoinOperator::KeyConstraint> kOnId = {{0, 0, 1, 0}};

TEST(WindowJoin, EquiKeyMatch) {
  WindowJoinOperator join({kInfiniteDuration, kInfiniteDuration}, kOnId,
                          nullptr, Joined());
  std::vector<Tuple> out;
  join.SetSink([&](const Tuple& t) { out.push_back(t); });
  join.Push(0, L(1, 1.0, 0));
  join.Push(0, L(2, 2.0, 1));
  join.Push(1, R(1, 9.0, 2));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].GetAttribute("L.id")->AsInt64(), 1);
  EXPECT_DOUBLE_EQ(out[0].GetAttribute("R.y")->AsDouble(), 9.0);
  EXPECT_EQ(out[0].timestamp(), 2);  // max of inputs
}

TEST(WindowJoin, SymmetricProbing) {
  WindowJoinOperator join({kInfiniteDuration, kInfiniteDuration}, kOnId,
                          nullptr, Joined());
  int n = 0;
  join.SetSink([&](const Tuple&) { ++n; });
  join.Push(1, R(7, 1.0, 0));
  join.Push(0, L(7, 2.0, 1));  // arrival on the left probes the right
  EXPECT_EQ(n, 1);
}

TEST(WindowJoin, Lemma1TemporalCondition) {
  // T1 (left window) = 10, T2 (right window) = 5:
  // join iff -10 <= l.ts - r.ts <= 5.
  WindowJoinOperator join({10, 5}, kOnId, nullptr, Joined());
  std::vector<std::pair<Timestamp, Timestamp>> matched;
  join.SetSink([&](const Tuple& t) {
    matched.push_back({t.GetAttribute("L.id")->AsInt64(),
                       t.GetAttribute("R.id")->AsInt64()});
  });
  // Interleave arrivals in event-time order; all share key semantics via
  // distinct ids so each (l, r) pair is identified by ids.
  join.Push(0, L(100, 0, 100));
  join.Push(1, R(100, 0, 104));  // l.ts - r.ts = -4: within [-10, 5]: match
  join.Push(0, L(200, 0, 105));
  join.Push(1, R(200, 0, 116));  // -11 < -10: no match
  join.Push(1, R(300, 0, 120));
  join.Push(0, L(300, 0, 124));  // 124-120 = 4 <= 5: match
  join.Push(1, R(400, 0, 130));
  join.Push(0, L(400, 0, 140));  // 10 > 5: no match
  ASSERT_EQ(matched.size(), 2u);
  EXPECT_EQ(matched[0].first, 100);
  EXPECT_EQ(matched[1].first, 300);
}

TEST(WindowJoin, NowWindowMatchesEqualTimestampsOnly) {
  // Right window [Now] (0): l.ts - r.ts <= 0; left window 10.
  WindowJoinOperator join({10, 0}, kOnId, nullptr, Joined());
  int n = 0;
  join.SetSink([&](const Tuple&) { ++n; });
  join.Push(0, L(1, 0, 100));
  join.Push(1, R(1, 0, 105));  // l older than r by 5 <= T1: match
  EXPECT_EQ(n, 1);
  join.Push(1, R(2, 0, 110));
  join.Push(0, L(2, 0, 115));  // l newer than r: l.ts-r.ts = 5 > 0: no
  EXPECT_EQ(n, 1);
}

TEST(WindowJoin, EvictionDropsExpiredPartners) {
  WindowJoinOperator join({10, 10}, kOnId, nullptr, Joined());
  int n = 0;
  join.SetSink([&](const Tuple&) { ++n; });
  join.Push(0, L(1, 0, 0));
  join.Push(1, R(1, 0, 20));  // l expired (20 - 0 > 10): no match
  EXPECT_EQ(n, 0);
  EXPECT_EQ(join.buffer_size(0), 0u);  // evicted
}

TEST(WindowJoin, MultipleMatchesPerArrival) {
  WindowJoinOperator join({kInfiniteDuration, kInfiniteDuration}, kOnId,
                          nullptr, Joined());
  int n = 0;
  join.SetSink([&](const Tuple&) { ++n; });
  join.Push(0, L(1, 0, 0));
  join.Push(0, L(1, 1, 1));
  join.Push(0, L(1, 2, 2));
  join.Push(1, R(1, 0, 3));
  EXPECT_EQ(n, 3);
}

TEST(WindowJoin, ResidualPredicateFiltersJoined) {
  // Join with residual L.x < R.y.
  WindowJoinOperator join({kInfiniteDuration, kInfiniteDuration}, kOnId,
                          *ParseExpression("L.x < R.y"), Joined());
  int n = 0;
  join.SetSink([&](const Tuple&) { ++n; });
  join.Push(0, L(1, 5.0, 0));
  join.Push(1, R(1, 9.0, 1));  // 5 < 9: pass
  join.Push(1, R(1, 2.0, 2));  // 5 < 2: fail
  EXPECT_EQ(n, 1);
}

TEST(WindowJoin, NoKeysMeansTemporalCrossJoin) {
  WindowJoinOperator join({5, 5}, {}, nullptr, Joined());
  int n = 0;
  join.SetSink([&](const Tuple&) { ++n; });
  join.Push(0, L(1, 0, 0));
  join.Push(0, L(2, 0, 1));
  join.Push(1, R(99, 0, 3));
  EXPECT_EQ(n, 2);  // matches both lefts regardless of key
}

TEST(WindowJoin, MultiKeyJoin) {
  // Join on (id, x=y).
  WindowJoinOperator join({kInfiniteDuration, kInfiniteDuration},
                          {{0, 0, 1, 0}, {0, 1, 1, 1}}, nullptr, Joined());
  int n = 0;
  join.SetSink([&](const Tuple&) { ++n; });
  join.Push(0, L(1, 5.0, 0));
  join.Push(1, R(1, 5.0, 1));  // both keys equal
  join.Push(1, R(1, 6.0, 2));  // second key differs
  EXPECT_EQ(n, 1);
}

// Property test: the streaming join equals the naive nested-loop join over
// the full history, for random inputs (Lemma 1 as the oracle).
class JoinPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JoinPropertyTest, MatchesNestedLoopOracle) {
  Rng rng(GetParam());
  const Duration t_left = rng.NextInt(0, 20);
  const Duration t_right = rng.NextInt(0, 20);

  struct Row {
    int64_t id;
    Timestamp ts;
    bool left;
  };
  std::vector<Row> rows;
  Timestamp now = 0;
  for (int i = 0; i < 200; ++i) {
    now += rng.NextInt(0, 3);
    rows.push_back({rng.NextInt(0, 5), now, rng.NextBool()});
  }

  WindowJoinOperator join({t_left, t_right}, kOnId, nullptr, Joined());
  int streamed = 0;
  join.SetSink([&](const Tuple&) { ++streamed; });
  for (const auto& r : rows) {
    if (r.left) {
      join.Push(0, L(r.id, 0, r.ts));
    } else {
      join.Push(1, R(r.id, 0, r.ts));
    }
  }

  int oracle = 0;
  for (const auto& l : rows) {
    if (!l.left) continue;
    for (const auto& r : rows) {
      if (r.left) continue;
      if (l.id != r.id) continue;
      int64_t diff = l.ts - r.ts;
      if (diff >= -t_left && diff <= t_right) ++oracle;
    }
  }
  EXPECT_EQ(streamed, oracle)
      << "T_left=" << t_left << " T_right=" << t_right;
}

INSTANTIATE_TEST_SUITE_P(Seeds, JoinPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

}  // namespace
}  // namespace cosmos
