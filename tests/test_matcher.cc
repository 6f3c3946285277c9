#include "cbn/matcher.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "cbn/router.h"
#include "cbn/routing_table.h"
#include "common/random.h"
#include "expr/expression.h"

namespace cosmos {
namespace {

const std::shared_ptr<const Schema>& FullSchema() {
  static const auto& schema = *new std::shared_ptr<const Schema>(
      std::make_shared<Schema>(
          "s", std::vector<AttributeDef>{
                   {"d0", ValueType::kDouble, 0, 10},
                   {"d1", ValueType::kDouble, 0, 10},
                   {"i0", ValueType::kInt64, 0, 5},
                   {"s0", ValueType::kString},
                   {"b0", ValueType::kBool}}));
  return schema;
}

// The same stream after upstream projection dropped d1/s0/b0 — datagrams on
// it exercise the absent-attribute (presence) semantics.
const std::shared_ptr<const Schema>& NarrowSchema() {
  static const auto& schema = *new std::shared_ptr<const Schema>(
      std::make_shared<Schema>(
          "s", std::vector<AttributeDef>{{"d0", ValueType::kDouble, 0, 10},
                                         {"i0", ValueType::kInt64, 0, 5}}));
  return schema;
}

Datagram MakeDatagram(double d0, double d1, int64_t i0,
                      const std::string& s0, bool b0) {
  return Datagram{"s", Tuple(FullSchema(),
                             {Value(d0), Value(d1), Value(i0), Value(s0),
                              Value(b0)},
                             0)};
}

Datagram MakeNarrowDatagram(double d0, int64_t i0) {
  return Datagram{"s", Tuple(NarrowSchema(), {Value(d0), Value(i0)}, 0)};
}

// Reference implementation: the interpreted per-profile walk.
std::vector<uint32_t> InterpretedMatch(
    const std::vector<ProfilePtr>& profiles, const Datagram& d) {
  std::vector<uint32_t> out;
  for (uint32_t i = 0; i < profiles.size(); ++i) {
    if (profiles[i]->Covers(d)) out.push_back(i);
  }
  return out;
}

std::vector<uint32_t> CompiledMatch(const CompiledMatcher& m,
                                    const Datagram& d) {
  CompiledMatcher::Scratch scratch;
  std::vector<uint32_t> out;
  m.Match(d, &scratch, &out);
  return out;
}

CompiledMatcher Compile(const std::vector<ProfilePtr>& profiles) {
  std::vector<const Profile*> raw;
  raw.reserve(profiles.size());
  for (const auto& p : profiles) raw.push_back(p.get());
  return CompiledMatcher("s", raw);
}

ProfilePtr RangeProfile(double lo, double hi) {
  auto p = std::make_shared<Profile>();
  ConjunctiveClause c;
  c.ConstrainInterval("d0", Interval(lo, false, hi, false));
  p->AddFilter(Filter("s", std::move(c)));
  return p;
}

TEST(CompiledMatcher, EqualityAndRangeTables) {
  std::vector<ProfilePtr> profiles;
  profiles.push_back(RangeProfile(0, 5));  // d0 in [0,5]
  auto eq = std::make_shared<Profile>();
  ConjunctiveClause ec;
  ec.ConstrainEquals("i0", Value(int64_t{3}));  // point interval
  eq->AddFilter(Filter("s", std::move(ec)));
  profiles.push_back(eq);

  CompiledMatcher m = Compile(profiles);
  EXPECT_EQ(m.num_profiles(), 2u);
  EXPECT_EQ(m.num_conjuncts(), 2u);
  EXPECT_EQ(CompiledMatch(m, MakeDatagram(2, 0, 3, "x", true)),
            (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(CompiledMatch(m, MakeDatagram(7, 0, 3, "x", true)),
            (std::vector<uint32_t>{1}));
  EXPECT_EQ(CompiledMatch(m, MakeDatagram(7, 0, 4, "x", true)),
            (std::vector<uint32_t>{}));
}

TEST(CompiledMatcher, DisjunctionMatchesOnAnyConjunct) {
  auto p = std::make_shared<Profile>();
  ConjunctiveClause a;
  a.ConstrainInterval("d0", Interval::AtMost(1));
  p->AddFilter(Filter("s", std::move(a)));
  ConjunctiveClause b;
  b.ConstrainInterval("d0", Interval::AtLeast(9));
  p->AddFilter(Filter("s", std::move(b)));

  CompiledMatcher m = Compile({p});
  EXPECT_EQ(CompiledMatch(m, MakeDatagram(0.5, 0, 0, "x", false)),
            (std::vector<uint32_t>{0}));
  EXPECT_EQ(CompiledMatch(m, MakeDatagram(9.5, 0, 0, "x", false)),
            (std::vector<uint32_t>{0}));
  // Both conjuncts hit: the profile is still reported once.
  EXPECT_EQ(CompiledMatch(m, MakeDatagram(5, 0, 0, "x", false)),
            (std::vector<uint32_t>{}));
}

TEST(CompiledMatcher, UnconditionalAndZeroArityProfiles) {
  auto unconditional = std::make_shared<Profile>();
  unconditional->AddStream("s");
  auto zero_arity = std::make_shared<Profile>();
  // A clause with only a residual: arity 0, gated by the fallback.
  ConjunctiveClause c;
  c.AddResidual(MakeCompare(CompareOp::kGt, MakeColumn("d0"),
                            MakeLiteral(Value(5.0))));
  zero_arity->AddFilter(Filter("s", std::move(c)));

  CompiledMatcher m = Compile({unconditional, zero_arity});
  EXPECT_EQ(CompiledMatch(m, MakeDatagram(7, 0, 0, "x", false)),
            (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(CompiledMatch(m, MakeDatagram(3, 0, 0, "x", false)),
            (std::vector<uint32_t>{0}));
}

TEST(CompiledMatcher, AbsentAttributeFailsEvenWhenUnconstrained) {
  auto p = std::make_shared<Profile>();
  ConjunctiveClause c;
  // Presence-only constraint: All-interval on d1.
  c.ConstrainInterval("d1", Interval::All());
  p->AddFilter(Filter("s", std::move(c)));

  CompiledMatcher m = Compile({p});
  EXPECT_EQ(CompiledMatch(m, MakeDatagram(1, 1, 0, "x", false)),
            (std::vector<uint32_t>{0}));
  // d1 was projected away upstream: the constraint must fail, exactly like
  // MatchesCanonical's resolution failure.
  EXPECT_EQ(CompiledMatch(m, MakeNarrowDatagram(1, 0)),
            (std::vector<uint32_t>{}));
  EXPECT_FALSE(p->Covers(MakeNarrowDatagram(1, 0)));
}

TEST(CompiledMatcher, UnsatisfiableConjunctDroppedWhole) {
  auto p = std::make_shared<Profile>();
  ConjunctiveClause dead;
  dead.ConstrainInterval("d0", Interval::Empty());
  dead.ConstrainInterval("d1", Interval::All());
  p->AddFilter(Filter("s", std::move(dead)));
  ConjunctiveClause live;
  live.ConstrainInterval("d0", Interval::AtLeast(5));
  p->AddFilter(Filter("s", std::move(live)));

  CompiledMatcher m = Compile({p});
  // Only the live conjunct remains; the dead one must not contribute a
  // lowered-arity partial match.
  EXPECT_EQ(m.num_conjuncts(), 1u);
  EXPECT_EQ(CompiledMatch(m, MakeDatagram(7, 1, 0, "x", false)),
            (std::vector<uint32_t>{0}));
  EXPECT_EQ(CompiledMatch(m, MakeDatagram(3, 1, 0, "x", false)),
            (std::vector<uint32_t>{}));
}

TEST(CompiledMatcher, StringAndBoolConstraintsUseMiscTable) {
  auto p = std::make_shared<Profile>();
  ConjunctiveClause c;
  c.ConstrainEquals("s0", Value("x"));
  c.ConstrainNotEquals("s0", Value("y"));
  c.ConstrainEquals("b0", Value(true));
  p->AddFilter(Filter("s", std::move(c)));

  CompiledMatcher m = Compile({p});
  EXPECT_EQ(CompiledMatch(m, MakeDatagram(0, 0, 0, "x", true)),
            (std::vector<uint32_t>{0}));
  EXPECT_EQ(CompiledMatch(m, MakeDatagram(0, 0, 0, "y", true)),
            (std::vector<uint32_t>{}));
  EXPECT_EQ(CompiledMatch(m, MakeDatagram(0, 0, 0, "x", false)),
            (std::vector<uint32_t>{}));
}

TEST(CompiledMatcher, ResidualFallbackOnlyAfterCanonicalPass) {
  auto p = std::make_shared<Profile>();
  ConjunctiveClause c;
  c.ConstrainInterval("d0", Interval::AtLeast(5));
  c.AddResidual(MakeCompare(CompareOp::kLe,
                            MakeArith(ArithOp::kAdd, MakeColumn("d0"),
                                      MakeColumn("d1")),
                            MakeLiteral(Value(12.0))));
  p->AddFilter(Filter("s", std::move(c)));

  CompiledMatcher m = Compile({p});
  CompiledMatcher::Scratch scratch;
  std::vector<uint32_t> out;
  // Canonical stage fails: the residual must not even be evaluated.
  m.Match(MakeDatagram(3, 3, 0, "x", false), &scratch, &out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(scratch.fallback_evals, 0u);
  // Canonical passes, residual decides.
  m.Match(MakeDatagram(6, 3, 0, "x", false), &scratch, &out);
  EXPECT_EQ(out, (std::vector<uint32_t>{0}));
  EXPECT_EQ(scratch.fallback_evals, 1u);
  m.Match(MakeDatagram(6, 9, 0, "x", false), &scratch, &out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(scratch.fallback_evals, 1u);
}

TEST(CompiledMatcher, NumericNotEqualsStaysExactViaResidual) {
  auto p = std::make_shared<Profile>();
  ConjunctiveClause c;
  c.ConstrainInterval("d0", Interval(0, false, 10, false));
  c.ConstrainNotEquals("d0", Value(5.0));  // lands in the residual
  p->AddFilter(Filter("s", std::move(c)));

  CompiledMatcher m = Compile({p});
  EXPECT_EQ(CompiledMatch(m, MakeDatagram(4, 0, 0, "x", false)),
            (std::vector<uint32_t>{0}));
  EXPECT_EQ(CompiledMatch(m, MakeDatagram(5, 0, 0, "x", false)),
            (std::vector<uint32_t>{}));
}

TEST(CompiledMatcher, BucketInvalidationOnChurn) {
  RoutingTable t;
  t.Add(1, 1, RangeProfile(0, 5));
  const RoutingTable::StreamBucket* bucket = t.BucketFor(1, "s");
  ASSERT_NE(bucket, nullptr);
  EXPECT_FALSE(bucket->has_compiled());
  EXPECT_EQ(bucket->Compiled("s").num_profiles(), 1u);
  EXPECT_TRUE(bucket->has_compiled());

  // Every mutation hook must drop the compiled matcher.
  t.Add(1, 2, RangeProfile(3, 8));
  bucket = t.BucketFor(1, "s");
  ASSERT_NE(bucket, nullptr);
  EXPECT_FALSE(bucket->has_compiled());
  EXPECT_EQ(bucket->Compiled("s").num_profiles(), 2u);

  t.Remove(1, 1);
  bucket = t.BucketFor(1, "s");
  ASSERT_NE(bucket, nullptr);
  EXPECT_FALSE(bucket->has_compiled());
  EXPECT_EQ(bucket->Compiled("s").num_profiles(), 1u);
}

// ---------------------------------------------------------------------------
// Randomized equivalence fuzz: compiled (match set, projection union) must
// equal the interpreted Filter::Covers path on arbitrary profile mixes,
// arbitrary datagrams (including projected schemas), and across churn.
// ---------------------------------------------------------------------------

constexpr double kLevels[] = {0, 1, 2.5, 4, 5, 6.5, 8, 10};
const char* const kStrings[] = {"x", "y", "z"};

Value RandomLevel(Rng& rng) {
  return Value(kLevels[rng.NextBounded(std::size(kLevels))]);
}

ConjunctiveClause RandomClause(Rng& rng) {
  ConjunctiveClause c;
  const int n = static_cast<int>(rng.NextBounded(3)) + 1;
  for (int k = 0; k < n; ++k) {
    switch (rng.NextBounded(7)) {
      case 0: {  // closed/open interval on a double attribute
        double lo = kLevels[rng.NextBounded(std::size(kLevels))];
        double hi = kLevels[rng.NextBounded(std::size(kLevels))];
        if (lo > hi) std::swap(lo, hi);
        c.ConstrainInterval(rng.NextBool() ? "d0" : "d1",
                            Interval(lo, rng.NextBool(), hi, rng.NextBool()));
        break;
      }
      case 1:  // half-open range
        c.ConstrainInterval(rng.NextBool() ? "d0" : "d1",
                            rng.NextBool()
                                ? Interval::AtLeast(rng.NextDouble(0, 10))
                                : Interval::AtMost(rng.NextDouble(0, 10)));
        break;
      case 2:  // numeric point equality (int attribute)
        c.ConstrainEquals("i0", Value(rng.NextInt(0, 5)));
        break;
      case 3:  // string equality / disequality
        if (rng.NextBool()) {
          c.ConstrainEquals("s0",
                            Value(kStrings[rng.NextBounded(3)]));
        } else {
          c.ConstrainNotEquals("s0",
                               Value(kStrings[rng.NextBounded(3)]));
        }
        break;
      case 4:  // bool equality
        c.ConstrainEquals("b0", Value(rng.NextBool()));
        break;
      case 5:  // presence-only constraint
        c.ConstrainInterval(rng.NextBool() ? "d1" : "b0", Interval::All());
        break;
      case 6:  // residual: d0 + d1 <= threshold, or numeric disequality
        if (rng.NextBool()) {
          c.AddResidual(MakeCompare(
              CompareOp::kLe,
              MakeArith(ArithOp::kAdd, MakeColumn("d0"), MakeColumn("d1")),
              MakeLiteral(Value(rng.NextDouble(0, 20)))));
        } else {
          c.ConstrainNotEquals("d0", RandomLevel(rng));
        }
        break;
    }
  }
  return c;
}

ProfilePtr RandomProfile(Rng& rng) {
  auto p = std::make_shared<Profile>();
  if (rng.NextBool(0.3)) {
    // A projection set (must precede AddFilter, which defaults to "all"):
    // exercises the projection-union path downstream.
    std::vector<std::string> proj = {"d0"};
    if (rng.NextBool()) proj.push_back("i0");
    p->AddStream("s", std::move(proj));
  }
  if (rng.NextBool(0.1)) {
    p->AddStream("s");  // unconditional (no filters)
  } else {
    const int filters = static_cast<int>(rng.NextBounded(3)) + 1;
    for (int f = 0; f < filters; ++f) {
      p->AddFilter(Filter("s", RandomClause(rng)));
    }
  }
  return p;
}

Datagram RandomDatagram(Rng& rng) {
  const double d0 = rng.NextBool(0.7)
                        ? kLevels[rng.NextBounded(std::size(kLevels))]
                        : rng.NextDouble(0, 10);
  const double d1 = rng.NextDouble(0, 10);
  const int64_t i0 = rng.NextInt(0, 5);
  if (rng.NextBool(0.15)) return MakeNarrowDatagram(d0, i0);
  return MakeDatagram(d0, d1, i0, kStrings[rng.NextBounded(3)],
                      rng.NextBool());
}

TEST(MatcherFuzz, CompiledEqualsInterpretedAcrossSeeds) {
  Rng root(0xC0DEC0DE);
  for (int trial = 0; trial < 25; ++trial) {
    Rng prof_rng = root.Derive(2 * static_cast<uint64_t>(trial));
    Rng data_rng = root.Derive(2 * static_cast<uint64_t>(trial) + 1);
    std::vector<ProfilePtr> profiles;
    const size_t n = prof_rng.NextBounded(40) + 1;
    for (size_t i = 0; i < n; ++i) profiles.push_back(RandomProfile(prof_rng));

    CompiledMatcher m = Compile(profiles);
    CompiledMatcher::Scratch scratch;
    std::vector<uint32_t> hits;
    for (int k = 0; k < 80; ++k) {
      Datagram d = RandomDatagram(data_rng);
      m.Match(d, &scratch, &hits);
      EXPECT_EQ(hits, InterpretedMatch(profiles, d))
          << "trial " << trial << " datagram " << k << ": "
          << d.tuple.ToString();
    }
  }
}

// Reference forwarding decision: the interpreted per-profile Covers walk
// over the (link, stream) bucket, projected to the sorted union of the
// matching slots' required attributes (any slot wanting all attributes
// disables projection).
std::optional<Datagram> ReferenceForward(const RoutingTable& table,
                                         const Datagram& d, NodeId link,
                                         ProjectionCache& cache) {
  const RoutingTable::StreamBucket* bucket = table.BucketFor(link, d.stream);
  if (bucket == nullptr) return std::nullopt;
  bool matched = false;
  std::set<std::string> attrs;
  for (const auto& slot : bucket->slots()) {
    if (!slot.profile->Covers(d)) continue;
    if (slot.required.empty()) return d;
    matched = true;
    attrs.insert(slot.required.begin(), slot.required.end());
  }
  if (!matched) return std::nullopt;
  return cache.Project(d, std::vector<std::string>(attrs.begin(), attrs.end()));
}

// Full-router equivalence including the projection union: the router's
// DecideForward must equal the reference walk over the same table —
// including the early-projected schema — across Add/Remove/
// RemoveEverywhere churn.
TEST(MatcherFuzz, RouterForwardEquivalenceUnderChurn) {
  Rng root(0xFACADE);
  for (int trial = 0; trial < 10; ++trial) {
    Rng rng = root.Derive(static_cast<uint64_t>(trial));
    Router router(0);
    ProjectionCache cache_c, cache_i;
    const NodeId kLink = 1;
    ProfileId next_id = 1;
    std::vector<ProfileId> live;

    auto check_round = [&](int round) {
      for (int k = 0; k < 40; ++k) {
        Datagram d = RandomDatagram(rng);
        std::optional<Datagram> a =
            router.DecideForward(d, kLink, /*early_projection=*/true,
                                 cache_c);
        std::optional<Datagram> b =
            ReferenceForward(router.table(), d, kLink, cache_i);
        ASSERT_EQ(a.has_value(), b.has_value())
            << "trial " << trial << " round " << round;
        if (a.has_value()) {
          EXPECT_EQ(a->stream, b->stream);
          EXPECT_EQ(a->tuple, b->tuple)
              << "projection-union divergence: " << a->tuple.ToString()
              << " vs " << b->tuple.ToString();
        }
      }
    };

    for (int round = 0; round < 4; ++round) {
      const size_t adds = rng.NextBounded(12) + 1;
      for (size_t i = 0; i < adds; ++i) {
        router.table().Add(kLink, next_id, RandomProfile(rng));
        live.push_back(next_id++);
      }
      if (round > 0 && !live.empty() && rng.NextBool(0.7)) {
        const size_t victim = rng.NextBounded(live.size());
        if (rng.NextBool()) {
          router.table().Remove(kLink, live[victim]);
        } else {
          router.table().RemoveEverywhere(live[victim]);
        }
        live.erase(live.begin() + static_cast<long>(victim));
      }
      check_round(round);
    }
  }
}

// Local-delivery equivalence: the router must fire the callbacks of
// exactly the subscribers whose profiles cover the datagram, in
// subscription order, each with its last-hop projection.
TEST(MatcherFuzz, LocalDeliveryEquivalence) {
  Rng root(0x10CA1);
  for (int trial = 0; trial < 10; ++trial) {
    Rng rng = root.Derive(static_cast<uint64_t>(trial));
    Router router(0);
    ProjectionCache cache_c, cache_i;
    std::vector<std::string> got_c, got_i;
    std::vector<ProfilePtr> profiles;
    const size_t n = rng.NextBounded(12) + 1;
    for (size_t i = 0; i < n; ++i) {
      profiles.push_back(RandomProfile(rng));
      auto tag = std::to_string(i) + ":";
      router.AddLocal(i + 1, profiles.back(),
                      [&got_c, tag](const std::string&, const Tuple& t) {
                        got_c.push_back(tag + t.ToString());
                      });
    }
    for (int k = 0; k < 60; ++k) {
      Datagram d = RandomDatagram(rng);
      const size_t dc = router.DeliverLocal(d, cache_c);
      size_t di = 0;
      for (size_t i = 0; i < profiles.size(); ++i) {
        if (!profiles[i]->Covers(d)) continue;
        Datagram out = cache_i.Project(d, profiles[i]->ProjectionOf(d.stream));
        got_i.push_back(std::to_string(i) + ":" + out.tuple.ToString());
        ++di;
      }
      ASSERT_EQ(dc, di) << "trial " << trial << " datagram " << k;
    }
    EXPECT_EQ(got_c, got_i);
  }
}

}  // namespace
}  // namespace cosmos
