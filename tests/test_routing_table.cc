#include "cbn/routing_table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <type_traits>

#include "cbn/router.h"
#include "common/random.h"
#include "query/parser.h"

namespace cosmos {
namespace {

const std::shared_ptr<const Schema>& SensorSchema() {
  // One shared instance: buckets key their plans on the schema pointer.
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

// The router's decision for `d` on `link`: the tuple put on the wire, or
// nullopt when nothing is forwarded.
std::optional<Tuple> Decide(const Router& r, PayloadPool& pool,
                            const Datagram& d, NodeId link,
                            bool early_projection = true) {
  const RoutingTable::StreamBucket* bucket =
      r.table().BucketFor(link, d.stream);
  if (bucket == nullptr) return std::nullopt;
  PayloadRef out = r.Forward(*bucket, pool.Make(d), early_projection, pool);
  if (!out) return std::nullopt;
  return out->tuple();
}

size_t Deliver(Router& r, PayloadPool& pool, const Datagram& d) {
  return r.DeliverLocal(r.streams()->Intern(d.stream), *pool.Make(d));
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
  // The all-match plan projects onto the union of every slot's required
  // attributes; the bucket keeps it across calls and rebuilds it when a
  // slot comes or goes.
  RoutingTable t;
  t.Add(3, 1, MakeProfile(0, 10, {"temp"}));  // requires {temp}
  const auto* bucket = t.BucketFor(3, "s");
  ASSERT_NE(bucket, nullptr);
  const ProjectionPlan& temp_only = bucket->PlanFor(SensorSchema(), {0});
  EXPECT_FALSE(temp_only.identity());
  EXPECT_EQ(temp_only.indices, (std::vector<size_t>{0}));
  EXPECT_EQ(temp_only.schema->attribute(0).name, "temp");
  EXPECT_EQ(&bucket->PlanFor(SensorSchema(), {0}), &temp_only);
  // A profile needing every attribute poisons the union.
  t.Add(3, 4, MakeProfile(0, 10));
  bucket = t.BucketFor(3, "s");
  ASSERT_NE(bucket, nullptr);
  EXPECT_TRUE(bucket->PlanFor(SensorSchema(), {0, 1}).identity());
  // A partial match without it still projects.
  EXPECT_EQ(bucket->PlanFor(SensorSchema(), {0}).indices,
            (std::vector<size_t>{0}));
  // Removing it restores the narrow union (invalidation on Remove).
  EXPECT_TRUE(t.Remove(3, 4));
  bucket = t.BucketFor(3, "s");
  ASSERT_NE(bucket, nullptr);
  EXPECT_EQ(bucket->PlanFor(SensorSchema(), {0}).indices,
            (std::vector<size_t>{0}));
  // {temp} plus {hum, temp} is every column: the identity.
  t.Add(3, 2, MakeProfile(0, 10, {"hum"}));
  bucket = t.BucketFor(3, "s");
  ASSERT_NE(bucket, nullptr);
  EXPECT_TRUE(bucket->PlanFor(SensorSchema(), {0, 1}).identity());
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

// Links listed for each stream, computed from the entry lists alone: the
// links whose entries request the stream, in the table's link order.
std::vector<NodeId> ExpectedLinks(const RoutingTable& t,
                                  const std::string& stream,
                                  const std::vector<NodeId>& order) {
  std::vector<NodeId> links;
  for (NodeId link : order) {
    for (const auto& e : t.EntriesFor(link)) {
      if (e.profile->WantsStream(stream)) {
        links.push_back(link);
        break;
      }
    }
  }
  return links;
}

TEST(RoutingTable, LinkIndexMirrorsEntriesUnderRandomChurn) {
  // Random Add/Remove/RemoveEverywhere over five links and three streams
  // (some profiles on two): after every step each stream lists exactly the
  // links whose entries request it, once each, in link order, and each
  // bucket holds exactly those entries' ids.
  const std::vector<NodeId> order = {7, 2, 9, 4, 5};
  const std::vector<std::string> streams = {"a", "b", "c"};
  Rng rng(0x1DE7);
  for (int trial = 0; trial < 20; ++trial) {
    RoutingTable t(nullptr, order);
    std::vector<std::pair<NodeId, ProfileId>> live;
    ProfileId next_id = 1;
    for (int step = 0; step < 60; ++step) {
      const uint64_t op = rng.NextBounded(4);
      if (op <= 1 || live.empty()) {
        auto p = std::make_shared<Profile>();
        p->AddStream(streams[rng.NextBounded(streams.size())]);
        if (rng.NextBool(0.3)) {
          p->AddStream(streams[rng.NextBounded(streams.size())]);
        }
        const NodeId link = order[rng.NextBounded(order.size())];
        // An id may sit on several links, as a subscription's does.
        const ProfileId id = rng.NextBool(0.2) && !live.empty()
                                 ? live[rng.NextBounded(live.size())].second
                                 : next_id++;
        if (std::find(live.begin(), live.end(), std::make_pair(link, id)) !=
            live.end()) {
          continue;
        }
        t.Add(link, id, p);
        live.emplace_back(link, id);
      } else if (op == 2) {
        const size_t k = rng.NextBounded(live.size());
        EXPECT_TRUE(t.Remove(live[k].first, live[k].second));
        live.erase(live.begin() + static_cast<long>(k));
      } else {
        const ProfileId id = live[rng.NextBounded(live.size())].second;
        const size_t n = static_cast<size_t>(
            std::count_if(live.begin(), live.end(),
                          [&](const auto& e) { return e.second == id; }));
        EXPECT_EQ(t.RemoveEverywhere(id), n);
        std::erase_if(live, [&](const auto& e) { return e.second == id; });
      }
      ASSERT_TRUE(t.CheckInvariants()) << "trial " << trial << " step "
                                       << step;
      EXPECT_EQ(t.TotalEntries(), live.size());
      for (const std::string& stream : streams) {
        const StreamId sid = t.streams()->Find(stream);
        std::vector<NodeId> listed;
        for (const auto& lb : t.LinksFor(sid)) {
          listed.push_back(lb.link);
          std::vector<ProfileId> ids;
          for (const auto& slot : lb.bucket->slots()) ids.push_back(slot.id);
          std::vector<ProfileId> expected;
          for (const auto& e : t.EntriesFor(lb.link)) {
            if (e.profile->WantsStream(stream)) expected.push_back(e.id);
          }
          EXPECT_EQ(ids, expected) << "link " << lb.link << " " << stream;
        }
        EXPECT_EQ(listed, ExpectedLinks(t, stream, order)) << stream;
      }
    }
  }
}

TEST(RoutingTable, MovesButDoesNotCopy) {
  // The index owns its buckets, so a moved table (a router reassigned on a
  // tree rebuild) keeps a consistent index; a copy could not.
  static_assert(!std::is_copy_constructible_v<RoutingTable>);
  static_assert(!std::is_copy_assignable_v<RoutingTable>);
  Router r(0);
  r.table().Add(2, 1, MakeProfile(0, 20, {"temp"}));
  Router moved = std::move(r);
  r = Router(0);
  EXPECT_TRUE(moved.table().CheckInvariants());
  PayloadPool pool;
  auto out = Decide(moved, pool, MakeDatagram(5), 2);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->num_values(), 1u);
  EXPECT_EQ(r.table().TotalEntries(), 0u);
}

TEST(Router, DeliverLocalAppliesExactProjection) {
  Router r(0);
  PayloadPool pool;
  std::vector<Tuple> got;
  r.AddLocal(1, MakeProfile(0, 40, {"hum"}),
             [&](const std::string&, const Tuple& t) { got.push_back(t); });
  Deliver(r, pool, MakeDatagram(10, 77));
  ASSERT_EQ(got.size(), 1u);
  ASSERT_EQ(got[0].num_values(), 1u);
  EXPECT_DOUBLE_EQ(got[0].value(0).AsDouble(), 77.0);
}

TEST(Router, DeliverLocalSkipsNonMatching) {
  Router r(0);
  PayloadPool pool;
  int hits = 0;
  r.AddLocal(1, MakeProfile(0, 10),
             [&](const std::string&, const Tuple&) { ++hits; });
  EXPECT_EQ(Deliver(r, pool, MakeDatagram(50)), 0u);
  EXPECT_EQ(hits, 0);
}

TEST(Router, RemoveLocalStopsDelivery) {
  Router r(0);
  PayloadPool pool;
  int hits = 0;
  r.AddLocal(1, MakeProfile(0, 40),
             [&](const std::string&, const Tuple&) { ++hits; });
  EXPECT_TRUE(r.RemoveLocal(1));
  EXPECT_FALSE(r.RemoveLocal(1));
  Deliver(r, pool, MakeDatagram(10));
  EXPECT_EQ(hits, 0);
}

TEST(Router, DecideForwardNoMatchIsNullopt) {
  Router r(0);
  PayloadPool pool;
  r.table().Add(2, 1, MakeProfile(0, 10));
  EXPECT_FALSE(Decide(r, pool, MakeDatagram(50), 2).has_value());
  EXPECT_FALSE(Decide(r, pool, MakeDatagram(5), 9).has_value());
}

TEST(Router, DecideForwardProjectsToUnionOfNeeds) {
  Router r(0);
  PayloadPool pool;
  r.table().Add(2, 1, MakeProfile(0, 20, {"temp"}));
  r.table().Add(2, 2, MakeProfile(10, 30, {"hum"}));
  // Datagram at 15 matches both: union {temp, hum} = identity here.
  auto out = Decide(r, pool, MakeDatagram(15), 2);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->num_values(), 2u);
  // Datagram at 5 matches only the temp profile: projected to {temp}.
  out = Decide(r, pool, MakeDatagram(5), 2);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->num_values(), 1u);
  EXPECT_EQ(out->schema()->attribute(0).name, "temp");
}

TEST(Router, DecideForwardWithoutEarlyProjectionKeepsWholeDatagram) {
  Router r(0);
  PayloadPool pool;
  r.table().Add(2, 1, MakeProfile(0, 20, {"temp"}));
  auto out = Decide(r, pool, MakeDatagram(5), 2, false);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->num_values(), 2u);
}

TEST(Router, AllAttributeProfileDisablesProjection) {
  Router r(0);
  PayloadPool pool;
  r.table().Add(2, 1, MakeProfile(0, 20));  // wants all attributes
  r.table().Add(2, 2, MakeProfile(0, 20, {"temp"}));
  auto out = Decide(r, pool, MakeDatagram(5), 2);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->num_values(), 2u);
}

TEST(Router, DecideForwardTracksTableMutations) {
  Router r(0);
  PayloadPool pool;
  r.table().Add(2, 1, MakeProfile(0, 20, {"temp"}));
  auto out = Decide(r, pool, MakeDatagram(5), 2);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->num_values(), 1u);
  // Adding a hum-projecting profile widens the all-match union.
  r.table().Add(2, 2, MakeProfile(0, 20, {"hum"}));
  out = Decide(r, pool, MakeDatagram(5), 2);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->num_values(), 2u);
  // Removing it narrows the union again (invalidation on Remove).
  EXPECT_TRUE(r.table().Remove(2, 2));
  out = Decide(r, pool, MakeDatagram(5), 2);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->num_values(), 1u);
  EXPECT_EQ(out->schema()->attribute(0).name, "temp");
}

TEST(Router, DeliverLocalIgnoresOtherStreams) {
  Router r(0);
  PayloadPool pool;
  int hits = 0;
  r.AddLocal(1, MakeProfile(0, 40),
             [&](const std::string&, const Tuple&) { ++hits; });
  auto other_schema = std::make_shared<Schema>(
      "other", std::vector<AttributeDef>{{"temp", ValueType::kDouble}});
  Datagram d{"other", Tuple(other_schema, {Value(5.0)}, 0)};
  EXPECT_EQ(Deliver(r, pool, d), 0u);
  EXPECT_EQ(hits, 0);
  EXPECT_EQ(Deliver(r, pool, MakeDatagram(10)), 1u);
  EXPECT_EQ(hits, 1);
}

TEST(ProjectionPlan, IdentityWhenAllAttributesSelected) {
  ProjectionPlan plan = ProjectionPlan::Named(*SensorSchema(), {"temp", "hum"});
  EXPECT_TRUE(plan.identity());
  EXPECT_TRUE(ProjectionPlan::Named(*SensorSchema(), {}).identity());
}

TEST(ProjectionPlan, SkipsUnknownAttributes) {
  ProjectionPlan plan =
      ProjectionPlan::Named(*SensorSchema(), {"temp", "not_there"});
  ASSERT_FALSE(plan.identity());
  EXPECT_EQ(plan.indices, (std::vector<size_t>{0}));
  EXPECT_EQ(plan.schema->num_attributes(), 1u);
}

TEST(ProjectionPlan, ReusedAcrossDatagrams) {
  // The bucket keeps its plan: datagrams of one schema projected the same
  // way share one projected schema instance.
  Router r(0);
  PayloadPool pool;
  r.table().Add(2, 1, MakeProfile(0, 40, {"temp"}));
  auto o1 = Decide(r, pool, MakeDatagram(1, 2), 2);
  auto o2 = Decide(r, pool, MakeDatagram(3, 4), 2);
  ASSERT_TRUE(o1.has_value() && o2.has_value());
  EXPECT_EQ(o1->num_values(), 1u);
  EXPECT_EQ(o1->schema().get(), o2->schema().get());
}

TEST(SchemaMemo, KeepsLiveSchemasAndDropsRetiredOnes) {
  // Alternating between two live schemas makes each entry once; a schema
  // only the memo still holds goes at the next miss.
  SchemaMemo<int> memo;
  int made = 0;
  auto make = [&] { return ++made; };
  auto a = SensorSchema();
  auto b = std::make_shared<Schema>(
      "s", std::vector<AttributeDef>{{"temp", ValueType::kDouble}});
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(memo.Get(a, make), 1);
    EXPECT_EQ(memo.Get(b, make), 2);
  }
  EXPECT_EQ(made, 2);
  std::weak_ptr<const Schema> retired = b;
  b.reset();
  EXPECT_FALSE(retired.expired());  // the memo still holds it
  auto c = std::make_shared<Schema>(
      "s", std::vector<AttributeDef>{{"hum", ValueType::kDouble}});
  EXPECT_EQ(memo.Get(c, make), 3);
  EXPECT_TRUE(retired.expired());
  EXPECT_EQ(memo.size(), 2u);
}

TEST(PayloadPool, IdentityForwardSharesThePayload) {
  // A forward that keeps every attribute puts the same payload on the
  // wire; a projecting one makes a new payload whose wire size counts the
  // stream name.
  Router r(0);
  PayloadPool pool;
  r.table().Add(2, 1, MakeProfile(0, 40));         // wants all
  r.table().Add(3, 2, MakeProfile(0, 40, {"temp"}));
  PayloadRef in = pool.Make(MakeDatagram(10, 77));
  PayloadRef whole = r.Forward(*r.table().BucketFor(2, "s"), in, true, pool);
  EXPECT_EQ(whole.get(), in.get());
  PayloadRef narrow = r.Forward(*r.table().BucketFor(3, "s"), in, true, pool);
  ASSERT_TRUE(narrow);
  EXPECT_NE(narrow.get(), in.get());
  const Datagram narrow_datagram{"s", narrow->tuple()};
  EXPECT_EQ(narrow->wire_size(), narrow_datagram.SerializedSize());
  EXPECT_EQ(in->wire_size(), MakeDatagram(10, 77).SerializedSize());
  EXPECT_EQ(pool.live(), 2u);
  in.Reset();
  whole.Reset();
  narrow.Reset();
  EXPECT_EQ(pool.live(), 0u);
}

}  // namespace
}  // namespace cosmos
