// The CBN under the discrete-event simulator: link delays, in-flight
// ordering, and end-to-end latency accounting.

#include <gtest/gtest.h>

#include <algorithm>

#include "cbn/network.h"
#include "common/random.h"
#include "core/system.h"
#include "harness/oracle.h"

namespace cosmos {
namespace {

std::shared_ptr<const Schema> SensorSchema() {
  return std::make_shared<Schema>(
      "s", std::vector<AttributeDef>{{"temp", ValueType::kDouble, -10, 40}});
}

Datagram MakeDatagram(double temp, Timestamp ts = 0) {
  return Datagram{"s", Tuple(SensorSchema(), {Value(temp)}, ts)};
}

TEST(SimulatedCbn, DeliveryTimeIsPathDelay) {
  // Chain with heterogeneous delays: 0 -(2ms)- 1 -(5ms)- 2 -(1ms)- 3.
  Simulator sim;
  auto tree = DisseminationTree::FromEdges(
                  4, {Edge{0, 1, 2.0}, Edge{1, 2, 5.0}, Edge{2, 3, 1.0}})
                  .value();
  ContentBasedNetwork net(std::move(tree), NetworkOptions{}, &sim);
  std::vector<Timestamp> at;
  Profile p;
  p.AddStream("s");
  net.Subscribe(3, p, [&](const std::string&, const Tuple&) {
    at.push_back(sim.now());
  });
  net.Publish(0, MakeDatagram(1));
  sim.Run();
  ASSERT_EQ(at.size(), 1u);
  EXPECT_EQ(at[0], 8 * kMillisecond);
}

TEST(SimulatedCbn, IntermediateSubscriberSeesItEarlier) {
  Simulator sim;
  auto tree = DisseminationTree::FromEdges(
                  3, {Edge{0, 1, 3.0}, Edge{1, 2, 4.0}})
                  .value();
  ContentBasedNetwork net(std::move(tree), NetworkOptions{}, &sim);
  std::map<NodeId, Timestamp> at;
  Profile p;
  p.AddStream("s");
  net.Subscribe(1, p, [&](const std::string&, const Tuple&) {
    at[1] = sim.now();
  });
  net.Subscribe(2, p, [&](const std::string&, const Tuple&) {
    at[2] = sim.now();
  });
  net.Publish(0, MakeDatagram(1));
  sim.Run();
  EXPECT_EQ(at[1], 3 * kMillisecond);
  EXPECT_EQ(at[2], 7 * kMillisecond);
}

TEST(SimulatedCbn, PublishesInterleaveByDelay) {
  // Two publishers at different distances from the subscriber: arrival
  // order at the subscriber follows delay, not publish order.
  Simulator sim;
  auto tree = DisseminationTree::FromEdges(
                  3, {Edge{0, 2, 10.0}, Edge{1, 2, 1.0}})
                  .value();
  ContentBasedNetwork net(std::move(tree), NetworkOptions{}, &sim);
  std::vector<double> order;
  Profile p;
  p.AddStream("s");
  net.Subscribe(2, p, [&](const std::string&, const Tuple& t) {
    order.push_back(t.value(0).AsDouble());
  });
  net.Publish(0, MakeDatagram(111));  // far: arrives at 10ms
  net.Publish(1, MakeDatagram(222));  // near: arrives at 1ms
  sim.Run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_DOUBLE_EQ(order[0], 222.0);
  EXPECT_DOUBLE_EQ(order[1], 111.0);
}

TEST(SimulatedCbn, NothingMovesUntilTheClockRuns) {
  Simulator sim;
  auto tree =
      DisseminationTree::FromEdges(2, {Edge{0, 1, 1.0}}).value();
  ContentBasedNetwork net(std::move(tree), NetworkOptions{}, &sim);
  int hits = 0;
  Profile p;
  p.AddStream("s");
  net.Subscribe(1, p, [&](const std::string&, const Tuple&) { ++hits; });
  net.Publish(0, MakeDatagram(1));
  EXPECT_EQ(hits, 0);
  EXPECT_TRUE(sim.HasPendingEvents());
  sim.Run();
  EXPECT_EQ(hits, 1);
}

TEST(SimulatedCbn, ByteAccountingIdenticalToSynchronousMode) {
  auto make_tree = [] {
    return DisseminationTree::FromEdges(
               4, {Edge{0, 1, 2.0}, Edge{1, 2, 3.0}, Edge{1, 3, 4.0}})
        .value();
  };
  Profile p;
  p.AddStream("s");

  ContentBasedNetwork sync_net(make_tree());
  sync_net.Subscribe(2, p, nullptr);
  sync_net.Subscribe(3, p, nullptr);
  sync_net.Publish(0, MakeDatagram(1));

  Simulator sim;
  ContentBasedNetwork sim_net(make_tree(), NetworkOptions{}, &sim);
  sim_net.Subscribe(2, p, nullptr);
  sim_net.Subscribe(3, p, nullptr);
  sim_net.Publish(0, MakeDatagram(1));
  sim.Run();

  EXPECT_EQ(sync_net.total_bytes(), sim_net.total_bytes());
  EXPECT_EQ(sync_net.total_deliveries(), sim_net.total_deliveries());
  EXPECT_EQ(sync_net.link_stats().size(), sim_net.link_stats().size());
}

// A result tuple as timestamp plus values; stream and attribute names
// differ between the system's and the oracle's result streams.
std::string ResultKey(const Tuple& t) {
  std::string key = std::to_string(t.timestamp());
  for (const Value& v : t.values()) {
    key += '|';
    key += v.ToString();
  }
  return key;
}

TEST(SimulatedSystem, ThreeWayJoinMatchesOracleUnderSkewedLinkDelays) {
  // Publishers of a, b and c sit 1, 25 and 70 ms from the processor at
  // node 0, so c's tuples reach the join well after a's of the same event
  // time: the three inputs interleave out of event-time order.
  Simulator sim;
  auto tree = DisseminationTree::FromEdges(
                  5, {Edge{0, 1, 1.0}, Edge{0, 2, 25.0}, Edge{0, 3, 70.0},
                      Edge{0, 4, 1.0}})
                  .value();
  CosmosSystem system(std::move(tree), SystemOptions{}, &sim);
  const std::vector<std::string> streams = {"a", "b", "c"};
  std::vector<std::shared_ptr<const Schema>> schemas;
  for (size_t i = 0; i < streams.size(); ++i) {
    schemas.push_back(std::make_shared<Schema>(
        streams[i], std::vector<AttributeDef>{{"k", ValueType::kInt64},
                                              {"v", ValueType::kDouble}}));
    ASSERT_TRUE(system
                    .RegisterSource(schemas.back(), 100.0,
                                    static_cast<NodeId>(i + 1))
                    .ok());
  }
  ASSERT_TRUE(system.AddProcessor(0).ok());

  const std::string cql =
      "SELECT A.v, B.v, C.v FROM a [Range 50 Millisecond] A, "
      "b [Range 100 Millisecond] B, c [Range 150 Millisecond] C "
      "WHERE A.k = B.k AND B.k = C.k";
  std::vector<Tuple> delivered;
  ASSERT_TRUE(system
                  .SubmitQuery(cql, /*user_node=*/4,
                               [&](const std::string&, const Tuple& t) {
                                 delivered.push_back(t);
                               })
                  .ok());
  GroundTruthOracle oracle(&system.catalog());
  ASSERT_TRUE(oracle.Submit("q", cql).ok());
  sim.Run();

  // Every stream publishes about every 10 ms for 2 s, each tuple entering
  // the network at its event time.
  Rng rng(17);
  struct Arrival {
    Timestamp ts;
    size_t stream;
  };
  std::vector<Arrival> arrivals;
  for (size_t i = 0; i < streams.size(); ++i) {
    for (Timestamp ts = kSecond; ts < 3 * kSecond;
         ts += rng.NextInt(5, 15) * kMillisecond) {
      arrivals.push_back({ts, i});
    }
  }
  std::stable_sort(arrivals.begin(), arrivals.end(),
                   [](const Arrival& x, const Arrival& y) {
                     return x.ts < y.ts;
                   });
  for (const Arrival& a : arrivals) {
    sim.RunUntil(a.ts);
    Tuple t(schemas[a.stream],
            {Value(rng.NextInt(0, 3)), Value(rng.NextDouble(0, 1))}, a.ts);
    ASSERT_TRUE(system.PublishSourceTuple(streams[a.stream], t).ok());
    oracle.Inject(streams[a.stream], t);
  }
  sim.Run();

  std::vector<std::string> want;
  std::vector<std::string> got;
  for (const Tuple& t : oracle.ResultsFor("q")) want.push_back(ResultKey(t));
  for (const Tuple& t : delivered) got.push_back(ResultKey(t));
  std::sort(want.begin(), want.end());
  std::sort(got.begin(), got.end());
  ASSERT_GT(want.size(), 100u);
  EXPECT_EQ(got.size(), want.size());
  EXPECT_TRUE(got == want);
}

}  // namespace
}  // namespace cosmos
