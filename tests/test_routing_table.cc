#include "cbn/routing_table.h"

#include <gtest/gtest.h>

#include "cbn/router.h"
#include "query/parser.h"

namespace cosmos {
namespace {

const std::shared_ptr<const Schema>& SensorSchema() {
  // One shared instance: ProjectionCache keys plans on the schema pointer.
  static const auto& schema = *new std::shared_ptr<const Schema>(
      std::make_shared<Schema>(
          "s",
          std::vector<AttributeDef>{{"temp", ValueType::kDouble, -10, 40},
                                    {"hum", ValueType::kDouble, 0, 100}}));
  return schema;
}

Datagram MakeDatagram(double temp, double hum = 50) {
  return Datagram{"s",
                  Tuple(SensorSchema(), {Value(temp), Value(hum)}, 0)};
}

ProfilePtr MakeProfile(double lo, double hi,
                       std::vector<std::string> projection = {}) {
  auto p = std::make_shared<Profile>();
  ConjunctiveClause c;
  c.ConstrainInterval("temp", Interval(lo, false, hi, false));
  p->AddStream("s", std::move(projection));
  p->AddFilter(Filter("s", std::move(c)));
  return p;
}

TEST(RoutingTable, AddAndLookup) {
  RoutingTable t;
  t.Add(3, 1, MakeProfile(0, 10));
  t.Add(3, 2, MakeProfile(20, 30));
  t.Add(5, 3, MakeProfile(0, 40));
  EXPECT_EQ(t.EntriesFor(3).size(), 2u);
  EXPECT_EQ(t.EntriesFor(5).size(), 1u);
  EXPECT_TRUE(t.EntriesFor(9).empty());
  EXPECT_EQ(t.TotalEntries(), 3u);
  EXPECT_EQ(t.Links(), (std::vector<NodeId>{3, 5}));
}

TEST(RoutingTable, LinkCoversAnyProfile) {
  RoutingTable t;
  t.Add(3, 1, MakeProfile(0, 10));
  t.Add(3, 2, MakeProfile(20, 30));
  EXPECT_TRUE(t.LinkCovers(3, MakeDatagram(5)));
  EXPECT_TRUE(t.LinkCovers(3, MakeDatagram(25)));
  EXPECT_FALSE(t.LinkCovers(3, MakeDatagram(15)));
  EXPECT_FALSE(t.LinkCovers(9, MakeDatagram(5)));
}

TEST(RoutingTable, MatchingProfilesReturnsAll) {
  RoutingTable t;
  t.Add(3, 1, MakeProfile(0, 20));
  t.Add(3, 2, MakeProfile(10, 30));
  EXPECT_EQ(t.MatchingProfiles(3, MakeDatagram(15)).size(), 2u);
  EXPECT_EQ(t.MatchingProfiles(3, MakeDatagram(5)).size(), 1u);
}

TEST(RoutingTable, RemoveByIdOnLink) {
  RoutingTable t;
  t.Add(3, 1, MakeProfile(0, 10));
  t.Add(3, 2, MakeProfile(20, 30));
  EXPECT_TRUE(t.Remove(3, 1));
  EXPECT_FALSE(t.Remove(3, 1));
  EXPECT_EQ(t.EntriesFor(3).size(), 1u);
  EXPECT_FALSE(t.Remove(9, 2));
}

TEST(RoutingTable, RemoveEverywhereSweepsAllLinks) {
  RoutingTable t;
  auto p = MakeProfile(0, 10);
  t.Add(1, 7, p);
  t.Add(2, 7, p);
  t.Add(3, 8, p);
  EXPECT_EQ(t.RemoveEverywhere(7), 2u);
  EXPECT_EQ(t.TotalEntries(), 1u);
  EXPECT_EQ(t.RemoveEverywhere(7), 0u);
  // Emptied links disappear from Links().
  EXPECT_EQ(t.Links(), (std::vector<NodeId>{3}));
}

TEST(RoutingTable, ContainsChecksLinkAndId) {
  RoutingTable t;
  t.Add(3, 1, MakeProfile(0, 10));
  EXPECT_TRUE(t.Contains(3, 1));
  EXPECT_FALSE(t.Contains(3, 2));
  EXPECT_FALSE(t.Contains(5, 1));
}

TEST(RoutingTable, BucketForPartitionsByStream) {
  RoutingTable t;
  t.Add(3, 1, MakeProfile(0, 10));
  ASSERT_NE(t.BucketFor(3, "s"), nullptr);
  EXPECT_EQ(t.BucketFor(3, "s")->slots().size(), 1u);
  EXPECT_EQ(t.BucketFor(3, "other"), nullptr);
  EXPECT_EQ(t.BucketFor(9, "s"), nullptr);
  // A datagram of an unindexed stream matches nothing without touching
  // the "s" entries.
  auto other_schema = std::make_shared<Schema>(
      "other", std::vector<AttributeDef>{{"temp", ValueType::kDouble}});
  Datagram d{"other", Tuple(other_schema, {Value(5.0)}, 0)};
  EXPECT_FALSE(t.LinkCovers(3, d));
  EXPECT_TRUE(t.MatchingProfiles(3, d).empty());
}

TEST(RoutingTable, MultiStreamProfileHasOneSlotPerStream) {
  RoutingTable t;
  auto p = std::make_shared<Profile>();
  p->AddStream("a", {"x"});
  p->AddStream("b");
  t.Add(3, 7, p);
  EXPECT_EQ(t.TotalEntries(), 1u);
  EXPECT_EQ(t.TotalIndexedSlots(), 2u);
  ASSERT_NE(t.BucketFor(3, "a"), nullptr);
  ASSERT_NE(t.BucketFor(3, "b"), nullptr);
  EXPECT_TRUE(t.CheckInvariants());
  EXPECT_TRUE(t.Remove(3, 7));
  EXPECT_EQ(t.TotalIndexedSlots(), 0u);
  EXPECT_EQ(t.BucketFor(3, "a"), nullptr);
  EXPECT_EQ(t.BucketFor(3, "b"), nullptr);
}

TEST(RoutingTable, ScratchMatchingProfilesAppends) {
  RoutingTable t;
  t.Add(3, 1, MakeProfile(0, 20));
  t.Add(3, 2, MakeProfile(10, 30));
  std::vector<const Profile*> scratch;
  t.MatchingProfiles(3, MakeDatagram(15), &scratch);
  EXPECT_EQ(scratch.size(), 2u);
  // Caller owns the scratch: a second call appends rather than clears.
  t.MatchingProfiles(3, MakeDatagram(5), &scratch);
  EXPECT_EQ(scratch.size(), 3u);
}

TEST(RoutingTable, UnionRequiredCachesAcrossSlots) {
  RoutingTable t;
  t.Add(3, 1, MakeProfile(0, 10, {"temp"}));
  t.Add(3, 2, MakeProfile(0, 10, {"hum"}));
  bool wants_all = true;
  const auto* bucket = t.BucketFor(3, "s");
  ASSERT_NE(bucket, nullptr);
  const auto& u = bucket->UnionRequired(&wants_all);
  EXPECT_FALSE(wants_all);
  EXPECT_EQ(u, (std::vector<std::string>{"hum", "temp"}));  // sorted
  // A profile needing every attribute poisons the union.
  t.Add(3, 4, MakeProfile(0, 10));
  bucket = t.BucketFor(3, "s");
  ASSERT_NE(bucket, nullptr);
  (void)bucket->UnionRequired(&wants_all);
  EXPECT_TRUE(wants_all);
  // Removing it restores the attribute union (invalidation on Remove).
  EXPECT_TRUE(t.Remove(3, 4));
  bucket = t.BucketFor(3, "s");
  ASSERT_NE(bucket, nullptr);
  EXPECT_EQ(bucket->UnionRequired(&wants_all),
            (std::vector<std::string>{"hum", "temp"}));
  EXPECT_FALSE(wants_all);
}

TEST(RoutingTable, IndexSurvivesChurn) {
  RoutingTable t;
  for (ProfileId id = 1; id <= 40; ++id) {
    t.Add(static_cast<NodeId>(id % 4), id,
          MakeProfile(static_cast<double>(id % 7), 30));
  }
  EXPECT_TRUE(t.CheckInvariants());
  EXPECT_EQ(t.TotalIndexedSlots(), t.TotalEntries());
  for (ProfileId id = 1; id <= 40; id += 2) {
    EXPECT_EQ(t.RemoveEverywhere(id), 1u);
  }
  EXPECT_TRUE(t.CheckInvariants());
  EXPECT_EQ(t.TotalIndexedSlots(), t.TotalEntries());
  EXPECT_EQ(t.TotalEntries(), 20u);
}

TEST(Router, DeliverLocalAppliesExactProjection) {
  Router r(0);
  ProjectionCache cache;
  std::vector<Tuple> got;
  r.AddLocal(1, MakeProfile(0, 40, {"hum"}),
             [&](const std::string&, const Tuple& t) { got.push_back(t); });
  r.DeliverLocal(MakeDatagram(10, 77), cache);
  ASSERT_EQ(got.size(), 1u);
  ASSERT_EQ(got[0].num_values(), 1u);
  EXPECT_DOUBLE_EQ(got[0].value(0).AsDouble(), 77.0);
}

TEST(Router, DeliverLocalSkipsNonMatching) {
  Router r(0);
  ProjectionCache cache;
  int hits = 0;
  r.AddLocal(1, MakeProfile(0, 10),
             [&](const std::string&, const Tuple&) { ++hits; });
  EXPECT_EQ(r.DeliverLocal(MakeDatagram(50), cache), 0u);
  EXPECT_EQ(hits, 0);
}

TEST(Router, RemoveLocalStopsDelivery) {
  Router r(0);
  ProjectionCache cache;
  int hits = 0;
  r.AddLocal(1, MakeProfile(0, 40),
             [&](const std::string&, const Tuple&) { ++hits; });
  EXPECT_TRUE(r.RemoveLocal(1));
  EXPECT_FALSE(r.RemoveLocal(1));
  r.DeliverLocal(MakeDatagram(10), cache);
  EXPECT_EQ(hits, 0);
}

TEST(Router, DecideForwardNoMatchIsNullopt) {
  Router r(0);
  ProjectionCache cache;
  r.table().Add(2, 1, MakeProfile(0, 10));
  EXPECT_FALSE(r.DecideForward(MakeDatagram(50), 2, true, cache).has_value());
  EXPECT_FALSE(r.DecideForward(MakeDatagram(5), 9, true, cache).has_value());
}

TEST(Router, DecideForwardProjectsToUnionOfNeeds) {
  Router r(0);
  ProjectionCache cache;
  r.table().Add(2, 1, MakeProfile(0, 20, {"temp"}));
  r.table().Add(2, 2, MakeProfile(10, 30, {"hum"}));
  // Datagram at 15 matches both: union {temp, hum} = identity here.
  auto out = r.DecideForward(MakeDatagram(15), 2, true, cache);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->tuple.num_values(), 2u);
  // Datagram at 5 matches only the temp profile: projected to {temp}.
  out = r.DecideForward(MakeDatagram(5), 2, true, cache);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->tuple.num_values(), 1u);
  EXPECT_EQ(out->tuple.schema()->attribute(0).name, "temp");
}

TEST(Router, DecideForwardWithoutEarlyProjectionKeepsWholeDatagram) {
  Router r(0);
  ProjectionCache cache;
  r.table().Add(2, 1, MakeProfile(0, 20, {"temp"}));
  auto out = r.DecideForward(MakeDatagram(5), 2, false, cache);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->tuple.num_values(), 2u);
}

TEST(Router, AllAttributeProfileDisablesProjection) {
  Router r(0);
  ProjectionCache cache;
  r.table().Add(2, 1, MakeProfile(0, 20));  // wants all attributes
  r.table().Add(2, 2, MakeProfile(0, 20, {"temp"}));
  auto out = r.DecideForward(MakeDatagram(5), 2, true, cache);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->tuple.num_values(), 2u);
}

TEST(Router, DecideForwardTracksTableMutations) {
  Router r(0);
  ProjectionCache cache;
  r.table().Add(2, 1, MakeProfile(0, 20, {"temp"}));
  auto out = r.DecideForward(MakeDatagram(5), 2, true, cache);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->tuple.num_values(), 1u);
  // Adding a hum-projecting profile widens the all-match union.
  r.table().Add(2, 2, MakeProfile(0, 20, {"hum"}));
  out = r.DecideForward(MakeDatagram(5), 2, true, cache);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->tuple.num_values(), 2u);
  // Removing it narrows the union again (invalidation on Remove).
  EXPECT_TRUE(r.table().Remove(2, 2));
  out = r.DecideForward(MakeDatagram(5), 2, true, cache);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->tuple.num_values(), 1u);
  EXPECT_EQ(out->tuple.schema()->attribute(0).name, "temp");
}

TEST(Router, DeliverLocalIgnoresOtherStreams) {
  Router r(0);
  ProjectionCache cache;
  int hits = 0;
  r.AddLocal(1, MakeProfile(0, 40),
             [&](const std::string&, const Tuple&) { ++hits; });
  auto other_schema = std::make_shared<Schema>(
      "other", std::vector<AttributeDef>{{"temp", ValueType::kDouble}});
  Datagram d{"other", Tuple(other_schema, {Value(5.0)}, 0)};
  EXPECT_EQ(r.DeliverLocal(d, cache), 0u);
  EXPECT_EQ(hits, 0);
  EXPECT_EQ(r.DeliverLocal(MakeDatagram(10), cache), 1u);
  EXPECT_EQ(hits, 1);
}

TEST(ProjectionCache, IdentityWhenAllAttributesSelected) {
  ProjectionCache cache;
  Datagram d = MakeDatagram(1, 2);
  Datagram out = cache.Project(d, {"temp", "hum"});
  EXPECT_EQ(out.tuple.num_values(), 2u);
  // Identity reuses the same schema object.
  EXPECT_EQ(out.tuple.schema().get(), d.tuple.schema().get());
}

TEST(ProjectionCache, SkipsUnknownAttributes) {
  ProjectionCache cache;
  Datagram d = MakeDatagram(1, 2);
  Datagram out = cache.Project(d, {"temp", "not_there"});
  EXPECT_EQ(out.tuple.num_values(), 1u);
}

TEST(ProjectionCache, ReusesPlansAcrossCalls) {
  ProjectionCache cache;
  Datagram d1 = MakeDatagram(1, 2);
  Datagram d2 = MakeDatagram(3, 4);
  Datagram o1 = cache.Project(d1, {"temp"});
  Datagram o2 = cache.Project(d2, {"temp"});
  // Same source schema + attr set => same projected schema instance.
  EXPECT_EQ(o1.tuple.schema().get(), o2.tuple.schema().get());
}

}  // namespace
}  // namespace cosmos
