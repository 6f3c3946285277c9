#include <gtest/gtest.h>

#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

#include "common/random.h"
#include "query/analyzer.h"
#include "query/parser.h"

namespace cosmos {
namespace {

// The CQL parser is an input surface: SubmitQuery hands it whatever text a
// user sends. Every input must come back as a Status, never as a crash.

constexpr int kDeep = 100000;

std::string Repeat(const std::string& s, int n) {
  std::string out;
  out.reserve(s.size() * n);
  for (int i = 0; i < n; ++i) out += s;
  return out;
}

// Joins `parts` with +=: GCC 12 at -O3 raises a false -Wrestrict on
// `"literal" + std::string` temporaries, which stops a -Werror build.
std::string Cat(std::initializer_list<std::string_view> parts) {
  std::string out;
  for (std::string_view part : parts) out += part;
  return out;
}

std::string Nested(int parens) {
  return Cat({"SELECT a FROM S WHERE ", Repeat("(", parens), "a > 1",
              Repeat(")", parens)});
}

TEST(ParserFuzz, DeepExpressionsFailInsteadOfOverflowingTheStack) {
  const std::string shapes[] = {
      Nested(kDeep),
      Cat({"SELECT a FROM S WHERE ", Repeat("NOT ", kDeep), "a > 1"}),
      Cat({"SELECT a FROM S WHERE a > ", Repeat("- ", kDeep), "a"}),
      // Built by a loop, but the left-associative tree is kDeep levels deep.
      Cat({"SELECT a FROM S WHERE a > 1", Repeat(" + 1", kDeep)}),
  };
  for (const std::string& cql : shapes) {
    auto q = ParseQuery(cql);
    ASSERT_FALSE(q.ok()) << cql.substr(0, 60);
    EXPECT_EQ(q.status().code(), StatusCode::kInvalidArgument)
        << q.status().ToString();
  }
  EXPECT_FALSE(ParseExpression(Cat({Repeat("(", kDeep), "1"})).ok());
  EXPECT_FALSE(ParseExpression(Cat({"1", Repeat(" * 2", kDeep)})).ok());
}

TEST(ParserFuzz, NestingLimitIs256Levels) {
  EXPECT_TRUE(ParseQuery(Nested(256)).ok());
  EXPECT_EQ(ParseQuery(Nested(257)).status().code(),
            StatusCode::kInvalidArgument);
  // A chain of 256 operators is 256 levels; its siblings under AND are not
  // nested in one another.
  const std::string chain = Cat({"a > 1", Repeat(" + 1", 256)});
  EXPECT_TRUE(ParseExpression(chain).ok());
  EXPECT_TRUE(ParseExpression(Cat({chain, " AND ", chain})).ok());
  EXPECT_FALSE(ParseExpression(Cat({chain, " + 1"})).ok());
}

// Seeded mutation fuzz: valid queries are damaged by byte flips, deletions,
// insertions of CQL tokens, truncations and raw bytes, then parsed and
// analyzed.
TEST(ParserFuzz, MutatedQueriesAlwaysReturnAStatus) {
  Catalog catalog;
  ASSERT_TRUE(catalog
                  .RegisterStream(
                      std::make_shared<Schema>(
                          "S", std::vector<AttributeDef>{
                                   {"a", ValueType::kInt64},
                                   {"b", ValueType::kDouble},
                                   {"tag", ValueType::kString}}),
                      1.0)
                  .ok());
  ASSERT_TRUE(catalog
                  .RegisterStream(
                      std::make_shared<Schema>(
                          "T", std::vector<AttributeDef>{
                                   {"a", ValueType::kInt64},
                                   {"c", ValueType::kDouble}}),
                      1.0)
                  .ok());
  const std::vector<std::string> seeds = {
      "SELECT a FROM S",
      "SELECT a, b AS x FROM S [Range 3 Hour] WHERE a > 10 AND b <= 2.5",
      "SELECT * FROM S WHERE (a > 1 OR b > 2) AND NOT tag = 'x'",
      "SELECT a FROM S WHERE -3 <= a - b <= 0",
      "SELECT a FROM S WHERE a BETWEEN 1 AND 5 * 2",
      "SELECT S.a, T.c FROM S [Range 10 Minutes], T [Now] WHERE S.a = T.a",
      "SELECT X.a FROM S [Range 1 Day] X, T Y WHERE X.a = Y.a AND Y.c < 1e3",
      "SELECT a, COUNT(*), AVG(b) AS m FROM S [Range 1 Hour] GROUP BY a",
      "SELECT SUM(b), MIN(b), MAX(a) FROM S [Unbounded] WHERE -a < 5",
      "SELECT a FROM S WHERE tag = 'it''s' OR b / 2 >= -0.5",
  };
  const std::vector<std::string> tokens = {
      "SELECT", "FROM", "WHERE", "GROUP", "BY", "AND", "OR", "NOT", "AS",
      "BETWEEN", "Range", "Now", "Unbounded", "Hour", "(", ")", "[", "]",
      ",", ".", "*", "+", "-", "/", "=", "<>", "!=", "<", "<=", ">", ">=",
      "'", "''", "1", "-7", "2.5e-3", "COUNT", "AVG", "S", "T", "a", "b",
      " ", "\n"};

  Rng rng(20081);
  size_t accepted = 0;
  for (int iter = 0; iter < 20000; ++iter) {
    std::string q = seeds[rng.NextBounded(seeds.size())];
    const int mutations = 1 + static_cast<int>(rng.NextBounded(4));
    for (int m = 0; m < mutations; ++m) {
      const size_t pos = q.empty() ? 0 : rng.NextBounded(q.size());
      switch (rng.NextBounded(5)) {
        case 0:  // flip one bit
          if (!q.empty()) {
            q[pos] = static_cast<char>(q[pos] ^ (1 << rng.NextBounded(8)));
          }
          break;
        case 1:  // delete a short run
          if (!q.empty()) q.erase(pos, 1 + rng.NextBounded(4));
          break;
        case 2:  // insert a CQL token
          q.insert(pos, tokens[rng.NextBounded(tokens.size())]);
          break;
        case 3:  // truncate
          q.resize(pos);
          break;
        default:  // insert raw bytes, NUL and high bytes included
          for (uint64_t k = 1 + rng.NextBounded(3); k > 0; --k) {
            q.insert(q.begin() + static_cast<ptrdiff_t>(pos),
                     static_cast<char>(rng.NextBounded(256)));
          }
          break;
      }
    }
    auto parsed = ParseQuery(q);
    auto analyzed = ParseAndAnalyze(q, catalog, "result_fuzz");
    // Analysis only ever narrows what parses.
    if (analyzed.ok()) {
      EXPECT_TRUE(parsed.ok()) << q;
      ++accepted;
    }
  }
  // The mutations leave some queries valid, so analysis is exercised too.
  EXPECT_GT(accepted, 0u);
}

}  // namespace
}  // namespace cosmos
