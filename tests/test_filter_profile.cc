#include <gtest/gtest.h>

#include "cbn/profile.h"
#include "query/parser.h"

namespace cosmos {
namespace {

std::shared_ptr<const Schema> SensorSchema() {
  return std::make_shared<Schema>(
      "sensor", std::vector<AttributeDef>{
                    {"temp", ValueType::kDouble, -10, 40},
                    {"hum", ValueType::kDouble, 0, 100},
                    {"timestamp", ValueType::kInt64},
                });
}

Datagram MakeDatagram(const std::string& stream, double temp, double hum,
                      Timestamp ts = 0) {
  auto schema = SensorSchema();
  return Datagram{stream,
                  Tuple(schema, {Value(temp), Value(hum),
                                 Value(static_cast<int64_t>(ts))},
                        ts)};
}

ConjunctiveClause Clause(const std::string& text) {
  auto c = ClauseFromExpr(*ParseExpression(text));
  EXPECT_TRUE(c.ok());
  return *c;
}

TEST(Filter, CoversRequiresStreamAndConstraints) {
  Filter f("sensor", Clause("temp >= 10 AND temp <= 20"));
  EXPECT_TRUE(f.Covers(MakeDatagram("sensor", 15, 50)));
  EXPECT_FALSE(f.Covers(MakeDatagram("sensor", 25, 50)));
  EXPECT_FALSE(f.Covers(MakeDatagram("other", 15, 50)));
}

TEST(Filter, ResidualConjunctsAreEvaluated) {
  Filter f("sensor", Clause("temp - hum <= 0"));
  EXPECT_TRUE(f.Covers(MakeDatagram("sensor", 10, 50)));
  EXPECT_FALSE(f.Covers(MakeDatagram("sensor", 30, 20)));
}

TEST(Filter, ResidualOnMissingAttributeFailsClosed) {
  Filter f("sensor", Clause("nonexistent > 1"));
  EXPECT_FALSE(f.Covers(MakeDatagram("sensor", 10, 50)));
}

TEST(Filter, ReferencedAttributesIncludeResidualColumns) {
  Filter f("sensor", Clause("temp >= 10 AND temp - hum <= 0"));
  auto attrs = f.ReferencedAttributes();
  EXPECT_EQ(attrs.size(), 2u);
}

TEST(Profile, EmptyProfileCoversNothing) {
  Profile p;
  EXPECT_FALSE(p.Covers(MakeDatagram("sensor", 10, 10)));
}

TEST(Profile, StreamWithoutFilterIsUnconditional) {
  Profile p;
  p.AddStream("sensor");
  EXPECT_TRUE(p.Covers(MakeDatagram("sensor", 99, 99)));
  EXPECT_FALSE(p.Covers(MakeDatagram("other", 1, 1)));
}

TEST(Profile, FilterDisjunction) {
  Profile p;
  p.AddFilter(Filter("sensor", Clause("temp < 0")));
  p.AddFilter(Filter("sensor", Clause("temp > 30")));
  EXPECT_TRUE(p.Covers(MakeDatagram("sensor", -5, 0)));
  EXPECT_TRUE(p.Covers(MakeDatagram("sensor", 35, 0)));
  EXPECT_FALSE(p.Covers(MakeDatagram("sensor", 15, 0)));
}

TEST(Profile, AddFilterRegistersStream) {
  Profile p;
  p.AddFilter(Filter("sensor", Clause("temp > 0")));
  EXPECT_TRUE(p.WantsStream("sensor"));
  EXPECT_EQ(p.streams().size(), 1u);
}

TEST(Profile, ProjectionDefaultsToAll) {
  Profile p;
  p.AddStream("sensor");
  EXPECT_TRUE(p.ProjectionOf("sensor").empty());
}

TEST(Profile, ProjectionUnionAcrossAddStream) {
  Profile p;
  p.AddStream("sensor", {"temp"});
  p.AddStream("sensor", {"hum"});
  auto proj = p.ProjectionOf("sensor");
  EXPECT_EQ(proj.size(), 2u);
}

TEST(Profile, AllAttributesDominatesUnion) {
  Profile p;
  p.AddStream("sensor", {});  // all
  p.AddStream("sensor", {"temp"});
  EXPECT_TRUE(p.ProjectionOf("sensor").empty());
  // In the other order, "all" widens the earlier set.
  Profile q;
  q.AddStream("sensor", {"temp"});
  q.AddStream("sensor", {});
  EXPECT_TRUE(q.ProjectionOf("sensor").empty());
}

TEST(Profile, RequiredAttributesIncludeFilterColumns) {
  Profile p;
  p.AddStream("sensor", {"hum"});
  p.AddFilter(Filter("sensor", Clause("temp > 10")));
  auto req = p.RequiredAttributes("sensor");
  ASSERT_EQ(req.size(), 2u);  // hum + temp
}

TEST(Profile, RequiredAttributesAllWhenProjectionAll) {
  Profile p;
  p.AddStream("sensor");
  p.AddFilter(Filter("sensor", Clause("temp > 10")));
  EXPECT_TRUE(p.RequiredAttributes("sensor").empty());
}

TEST(Profile, FiltersOfSelectsByStream) {
  Profile p;
  p.AddFilter(Filter("a", Clause("temp > 1")));
  p.AddFilter(Filter("b", Clause("temp > 2")));
  p.AddFilter(Filter("a", Clause("temp > 3")));
  EXPECT_EQ(p.FiltersOf("a").size(), 2u);
  EXPECT_EQ(p.FiltersOf("b").size(), 1u);
  EXPECT_TRUE(p.FiltersOf("c").empty());
}

TEST(Datagram, SerializedSizeIncludesStreamHeader) {
  Datagram d = MakeDatagram("sensor", 1, 2);
  // 2 + 6 (name) + tuple(8 ts + 8 + 8 + 8)
  EXPECT_EQ(d.SerializedSize(), 2u + 6u + 32u);
}

}  // namespace
}  // namespace cosmos
