#include "cbn/network.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>

#include "common/random.h"
#include "overlay/spanning_tree.h"
#include "overlay/topology.h"
#include "query/parser.h"

namespace cosmos {
namespace {

std::shared_ptr<const Schema> SensorSchema() {
  return std::make_shared<Schema>(
      "s", std::vector<AttributeDef>{{"temp", ValueType::kDouble, -10, 40},
                                     {"hum", ValueType::kDouble, 0, 100},
                                     {"timestamp", ValueType::kInt64}});
}

Datagram MakeDatagram(double temp, double hum, Timestamp ts = 0) {
  return Datagram{
      "s", Tuple(SensorSchema(),
                 {Value(temp), Value(hum), Value(static_cast<int64_t>(ts))},
                 ts)};
}

ConjunctiveClause Clause(const std::string& text) {
  auto c = ClauseFromExpr(*ParseExpression(text));
  EXPECT_TRUE(c.ok());
  return *c;
}

// 0 - 1 - 2
//     |
//     3
DisseminationTree StarTree() {
  return DisseminationTree::FromEdges(
             4, {Edge{0, 1, 1.0}, Edge{1, 2, 1.0}, Edge{1, 3, 1.0}})
      .value();
}

TEST(Network, DeliversToMatchingSubscriberOnly) {
  ContentBasedNetwork net(StarTree());
  int hits2 = 0;
  int hits3 = 0;
  Profile p2;
  p2.AddFilter(Filter("s", Clause("temp > 20")));
  net.Subscribe(2, p2, [&](const std::string&, const Tuple&) { ++hits2; });
  Profile p3;
  p3.AddFilter(Filter("s", Clause("temp <= 20")));
  net.Subscribe(3, p3, [&](const std::string&, const Tuple&) { ++hits3; });

  net.Publish(0, MakeDatagram(25, 50));
  net.Publish(0, MakeDatagram(10, 50));
  EXPECT_EQ(hits2, 1);
  EXPECT_EQ(hits3, 1);
}

TEST(Network, NoSubscribersMeansNoTraffic) {
  ContentBasedNetwork net(StarTree());
  size_t delivered = net.Publish(0, MakeDatagram(25, 50));
  EXPECT_EQ(delivered, 0u);
  EXPECT_EQ(net.total_bytes(), 0u);
}

TEST(Network, LocalSubscriberGetsDataWithoutLinkTraffic) {
  ContentBasedNetwork net(StarTree());
  int hits = 0;
  Profile p;
  p.AddStream("s");
  net.Subscribe(0, p, [&](const std::string&, const Tuple&) { ++hits; });
  net.Publish(0, MakeDatagram(1, 1));
  EXPECT_EQ(hits, 1);
  EXPECT_EQ(net.total_bytes(), 0u);
}

TEST(Network, SharedPathTransfersOnce) {
  // Two subscribers behind the same branch: link 0-1 carries one copy.
  ContentBasedNetwork net(StarTree());
  Profile p;
  p.AddStream("s");
  net.Subscribe(2, p, nullptr);
  net.Subscribe(3, p, nullptr);
  net.Publish(0, MakeDatagram(1, 1));
  const auto& stats = net.link_stats();
  EXPECT_EQ(stats.at({0, 1}).datagrams, 1u);
  EXPECT_EQ(stats.at({1, 2}).datagrams, 1u);
  EXPECT_EQ(stats.at({1, 3}).datagrams, 1u);
  EXPECT_EQ(net.total_deliveries(), 2u);
}

TEST(Network, WireSizeCountsTheStreamName) {
  // Hops carry the stream as an interned id, but the wire size still
  // counts the name: per link, 2 header bytes + the name + the tuple
  // (8-byte timestamp + 8 per double/int64 value). On a chain 0-1-2 with
  // the subscriber at 2 each link carries the whole tuple once; early
  // projection onto {temp} shrinks only the tuple part.
  const auto chain = [] {
    return DisseminationTree::FromEdges(3, {Edge{0, 1, 1.0}, Edge{1, 2, 1.0}})
        .value();
  };
  const uint64_t name = std::string("s").size();
  const uint64_t whole = 2 + name + (8 + 3 * 8);
  const uint64_t temp_only = 2 + name + (8 + 1 * 8);
  for (bool projected : {false, true}) {
    ContentBasedNetwork net(chain());
    Profile p;
    if (projected) {
      p.AddStream("s", {"temp"});
    } else {
      p.AddStream("s");
    }
    net.Subscribe(2, p, nullptr);
    net.Publish(0, MakeDatagram(1, 1, 5));
    const uint64_t expected = projected ? temp_only : whole;
    EXPECT_EQ(net.link_stats().at({0, 1}).bytes, expected) << projected;
    EXPECT_EQ(net.link_stats().at({1, 2}).bytes, expected) << projected;
    EXPECT_EQ(net.total_bytes(), 2 * expected) << projected;
    // The published-bytes ledger counts the unprojected datagram.
    EXPECT_EQ(net.published_by_stream().at("s").bytes, whole);
  }
}

TEST(Network, ForwardingStopsWhereNoInterest) {
  ContentBasedNetwork net(StarTree());
  Profile p;
  p.AddFilter(Filter("s", Clause("temp > 20")));
  net.Subscribe(2, p, nullptr);
  net.Publish(0, MakeDatagram(10, 10));  // matches nobody
  EXPECT_EQ(net.total_bytes(), 0u);
  net.Publish(0, MakeDatagram(30, 10));
  // Reaches 2 via 0-1, 1-2; never touches 1-3.
  EXPECT_EQ(net.link_stats().count({1, 3}), 0u);
}

TEST(Network, EarlyProjectionShrinksDatagrams) {
  NetworkOptions with;
  with.early_projection = true;
  NetworkOptions without;
  without.early_projection = false;

  for (bool early : {false, true}) {
    ContentBasedNetwork net(StarTree(), early ? with : without);
    Profile p;
    p.AddStream("s", {"temp"});
    std::vector<size_t> sizes;
    net.Subscribe(2, p, [&](const std::string&, const Tuple& t) {
      sizes.push_back(t.num_values());
    });
    net.Publish(0, MakeDatagram(1, 1));
    ASSERT_EQ(sizes.size(), 1u);
    // Last-hop projection always applies: subscriber sees only temp.
    EXPECT_EQ(sizes[0], 1u);
    uint64_t bytes = net.link_stats().at({0, 1}).bytes;
    if (early) {
      EXPECT_LT(bytes, 30u);  // projected on the wire
    } else {
      EXPECT_GT(bytes, 30u);  // full tuple on the wire
    }
  }
}

TEST(Network, ProjectionKeepsFilterAttributesForDownstreamReevaluation) {
  // Subscriber wants only "hum" but filters on temp: the wire format must
  // retain temp so intermediate hops can re-evaluate, while the subscriber
  // still receives only hum.
  ContentBasedNetwork net(StarTree());
  Profile p;
  p.AddStream("s", {"hum"});
  p.AddFilter(Filter("s", Clause("temp > 20")));
  std::vector<Tuple> received;
  net.Subscribe(2, p, [&](const std::string&, const Tuple& t) {
    received.push_back(t);
  });
  net.Publish(0, MakeDatagram(30, 77));
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0].num_values(), 1u);
  EXPECT_DOUBLE_EQ(received[0].value(0).AsDouble(), 77.0);
}

TEST(Network, UnsubscribeStopsDelivery) {
  ContentBasedNetwork net(StarTree());
  int hits = 0;
  Profile p;
  p.AddStream("s");
  ProfileId id =
      net.Subscribe(2, p, [&](const std::string&, const Tuple&) { ++hits; });
  net.Publish(0, MakeDatagram(1, 1));
  EXPECT_EQ(hits, 1);
  EXPECT_TRUE(net.Unsubscribe(id));
  EXPECT_FALSE(net.Unsubscribe(id));
  net.Publish(0, MakeDatagram(2, 2));
  EXPECT_EQ(hits, 1);
  EXPECT_EQ(net.router(0).table().TotalEntries(), 0u);
}

TEST(Network, UnsubscribingCoveringProfileDoesNotSilenceCoveredOnes) {
  // Subscription A covers B on every link of their shared path; removing A
  // must leave B's own entries in place or B goes deaf. Chain: publisher at
  // 0, both subscribers at 3.
  auto tree = DisseminationTree::FromEdges(
                  4, {Edge{0, 1, 1.0}, Edge{1, 2, 1.0}, Edge{2, 3, 1.0}})
                  .value();
  ContentBasedNetwork net(std::move(tree));
  int hits_b = 0;
  Profile wide;
  wide.AddFilter(Filter("s", Clause("temp >= 0 AND temp <= 40")));
  Profile narrow;
  narrow.AddFilter(Filter("s", Clause("temp >= 10 AND temp <= 20")));
  ProfileId a = net.Subscribe(3, wide, nullptr);
  net.Subscribe(3, narrow,
                [&](const std::string&, const Tuple&) { ++hits_b; });
  net.Publish(0, MakeDatagram(15, 0));
  EXPECT_EQ(hits_b, 1);
  EXPECT_TRUE(net.Unsubscribe(a));
  net.Publish(0, MakeDatagram(15, 0));
  EXPECT_EQ(hits_b, 2) << "covered subscription went deaf after the "
                          "covering one unsubscribed";
}

TEST(Network, MutuallyCoveringProfilesStayServedAcrossRefreshes) {
  // Equal profiles on overlapping paths, each refreshed behind the other:
  // the publisher side must keep an entry for both. Tree 1 - 0 - 2 - 3,
  // publisher at 3 (advertised by its first publish, after the churn).
  auto tree = DisseminationTree::FromEdges(
                  4, {Edge{1, 0, 1.0}, Edge{0, 2, 1.0}, Edge{2, 3, 1.0}})
                  .value();
  ContentBasedNetwork net(std::move(tree));
  Profile narrow;
  narrow.AddStream("s", {"temp"});
  Profile wide;
  wide.AddStream("s", {"temp"});
  wide.AddStream("t");
  int hits0 = 0;
  int hits1 = 0;
  ProfileId x = net.Subscribe(0, narrow, nullptr);
  net.Subscribe(1, narrow,
                [&](const std::string&, const Tuple&) { ++hits1; });
  ProfileId w = net.Subscribe(0, wide, nullptr);
  EXPECT_TRUE(net.Unsubscribe(x));
  net.Subscribe(0, narrow,
                [&](const std::string&, const Tuple&) { ++hits0; });
  EXPECT_TRUE(net.Unsubscribe(w));
  net.Publish(3, MakeDatagram(15, 0));
  EXPECT_EQ(hits0, 1);
  EXPECT_EQ(hits1, 1);
}

TEST(Network, RepeatedRefreshChurnKeepsDelivery) {
  // The processor's source-profile refresh pattern: subscribe the new
  // merged profile, then unsubscribe the old identical one — repeatedly.
  auto tree = DisseminationTree::FromEdges(
                  3, {Edge{0, 1, 1.0}, Edge{1, 2, 1.0}})
                  .value();
  ContentBasedNetwork net(std::move(tree));
  int hits = 0;
  Profile p;
  p.AddFilter(Filter("s", Clause("temp >= 0 AND temp <= 40")));
  ProfileId current =
      net.Subscribe(2, p, [&](const std::string&, const Tuple&) { ++hits; });
  for (int round = 0; round < 5; ++round) {
    ProfileId next = net.Subscribe(
        2, p, [&](const std::string&, const Tuple&) { ++hits; });
    net.Unsubscribe(current);
    current = next;
    net.Publish(0, MakeDatagram(10, round));
    EXPECT_EQ(hits, round + 1) << "round " << round;
  }
}

// A second stream for cross-stream churn: "t" with one attribute in [0, 100].
Datagram LevelDatagram(double level) {
  static const auto schema = std::make_shared<Schema>(
      "t", std::vector<AttributeDef>{{"level", ValueType::kDouble, 0, 100}});
  return Datagram{"t", Tuple(schema, {Value(level)}, 0)};
}

TEST(Network, ChurnDeliversLikeAnUnprunedNetwork) {
  // Random subscribes and unsubscribes (one to four per step) of nested and
  // overlapping interval profiles on two streams. Halfway through, a new
  // publisher advertises both streams under the live subscriptions. After
  // every step, the churned network must hold exactly the routing state of
  // a network built fresh from the live subscriptions and the same
  // publishers, and each live subscription must get exactly the hits it
  // gets there. An unsubscribed id must leave no entry on any router.
  constexpr int kNodes = 24;
  constexpr int kSteps = 120;
  const NodeId kPublishers[] = {0, kNodes / 2, kNodes - 1};
  constexpr NodeId kLatePublisher = 5;
  struct Live {
    int slot;
    NodeId node;
    Profile profile;
    ProfileId id;
  };
  for (uint64_t seed : {1, 2, 3}) {
    TopologyOptions topo_opts;
    topo_opts.num_nodes = kNodes;
    topo_opts.seed = seed;
    Topology topo = GenerateBarabasiAlbert(topo_opts);
    auto tree = DisseminationTree::FromEdges(
                    kNodes, *MinimumSpanningTree(topo.graph))
                    .value();
    ContentBasedNetwork churned(tree);
    // hits[0][i] / hits[1][i]: this step's deliveries to the i-th
    // subscription in the churned / fresh network.
    std::vector<int> hits[2] = {std::vector<int>(kSteps, 0),
                                std::vector<int>(kSteps, 0)};
    auto counter = [&hits](int net, int slot) {
      return [&hits, net, slot](const std::string&, const Tuple&) {
        ++hits[net][slot];
      };
    };
    bool late_advertised = false;
    auto publish_round = [&](ContentBasedNetwork& net) {
      std::vector<NodeId> from_nodes(std::begin(kPublishers),
                                     std::end(kPublishers));
      if (late_advertised) from_nodes.push_back(kLatePublisher);
      for (NodeId from : from_nodes) {
        for (int v = -10; v <= 40; v += 5) net.Publish(from, MakeDatagram(v, 0));
        for (int v = 0; v <= 100; v += 10) net.Publish(from, LevelDatagram(v));
      }
    };
    std::vector<Live> live;
    Rng rng(seed * 1000 + 7);
    int subscribed = 0;
    int max_hits = 0;
    for (int step = 0; step < kSteps; ++step) {
      double action = rng.NextDouble();
      if (action < 0.5 || live.size() < 2) {
        // Intervals on a coarse grid nest and overlap often.
        double lo = 5.0 * static_cast<double>(rng.NextInt(0, 6));
        double width = 5.0 * static_cast<double>(rng.NextInt(1, 6));
        Profile p;
        ConjunctiveClause c;
        if (rng.NextBounded(2) == 0) {
          c.ConstrainInterval("temp", Interval(lo - 10, false,
                                               lo - 10 + width, false));
          p.AddFilter(Filter("s", std::move(c)));
        } else {
          c.ConstrainInterval("level",
                              Interval(2 * lo, false, 2 * (lo + width), false));
          p.AddFilter(Filter("t", std::move(c)));
        }
        NodeId node = static_cast<NodeId>(rng.NextBounded(kNodes));
        const int slot = subscribed++;
        ProfileId id = churned.Subscribe(node, p, counter(0, slot));
        live.push_back(Live{slot, node, std::move(p), id});
      } else {
        size_t count = action < 0.8 ? 1 : 2 + rng.NextBounded(3);
        for (size_t i = 0; i < count && !live.empty(); ++i) {
          size_t pick = rng.NextBounded(live.size());
          const ProfileId id = live[pick].id;
          EXPECT_TRUE(churned.Unsubscribe(id));
          for (NodeId n = 0; n < kNodes; ++n) {
            ASSERT_EQ(churned.router(n).table().CountOf(id), 0u)
                << "seed " << seed << " step " << step << " node " << n;
          }
          live.erase(live.begin() + static_cast<long>(pick));
        }
      }
      if (step == kSteps / 2) {
        const uint64_t messages = churned.control_messages();
        churned.Advertise(kLatePublisher, "s");
        churned.Advertise(kLatePublisher, "t");
        late_advertised = true;
        // The live subscriptions got routes from the new publisher.
        EXPECT_GT(churned.control_messages(), messages) << "seed " << seed;
      }

      ContentBasedNetwork fresh(tree);
      for (const char* stream : {"s", "t"}) {
        if (const auto* publishers = churned.PublishersOf(stream)) {
          for (NodeId p : *publishers) fresh.Advertise(p, stream);
        }
      }
      for (const Live& l : live) {
        fresh.Subscribe(l.node, l.profile, counter(1, l.slot));
      }
      ASSERT_EQ(churned.TotalTableEntries(), fresh.TotalTableEntries())
          << "seed " << seed << " step " << step;
      std::fill(hits[0].begin(), hits[0].end(), 0);
      std::fill(hits[1].begin(), hits[1].end(), 0);
      publish_round(churned);
      publish_round(fresh);
      ASSERT_EQ(hits[0], hits[1]) << "seed " << seed << " step " << step;
      max_hits = std::max(
          max_hits, *std::max_element(hits[0].begin(), hits[0].end()));
    }
    EXPECT_GT(max_hits, 0);
  }
}

TEST(Network, SimulatedModeDeliversWithDelay) {
  Simulator sim;
  ContentBasedNetwork net(StarTree(), NetworkOptions{}, &sim);
  std::vector<Timestamp> delivery_times;
  Profile p;
  p.AddStream("s");
  net.Subscribe(2, p, [&](const std::string&, const Tuple&) {
    delivery_times.push_back(sim.now());
  });
  net.Publish(0, MakeDatagram(1, 1));
  EXPECT_TRUE(delivery_times.empty());  // nothing until the sim runs
  sim.Run();
  ASSERT_EQ(delivery_times.size(), 1u);
  // Two hops of weight 1.0ms each.
  EXPECT_EQ(delivery_times[0], 2 * kMillisecond);
}

TEST(Network, ResetStatsClearsCounters) {
  ContentBasedNetwork net(StarTree());
  Profile p;
  p.AddStream("s");
  net.Subscribe(2, p, nullptr);
  net.Publish(0, MakeDatagram(1, 1));
  EXPECT_GT(net.total_bytes(), 0u);
  net.ResetStats();
  EXPECT_EQ(net.total_bytes(), 0u);
  EXPECT_TRUE(net.link_stats().empty());
  EXPECT_EQ(net.total_deliveries(), 0u);
}

TEST(Network, AttachedRegistryHoldsTheLedger) {
  MetricsRegistry metrics;
  ContentBasedNetwork net(StarTree());
  net.SetTelemetry(&metrics, nullptr);
  Profile p;
  p.AddStream("s");
  net.Subscribe(2, p, nullptr);
  net.Publish(0, MakeDatagram(1, 1));
  EXPECT_EQ(metrics.FindCounter("cbn.forwarded_bytes")->value(),
            net.total_bytes());
  EXPECT_EQ(metrics.FindCounter("cbn.control_messages")->value(),
            net.control_messages());
  EXPECT_EQ(metrics
                .FindCounter(MetricsRegistry::LabeledName("cbn.link_bytes",
                                                          "link", "0-1"))
                ->value(),
            net.link_stats().at({0, 1}).bytes);
  // Moving the ledger now would strand what it already counted.
  EXPECT_DEATH(net.SetTelemetry(nullptr, nullptr), "CHECK failed");
}

TEST(Network, WeightedBytesUsesEdgeWeights) {
  auto tree = DisseminationTree::FromEdges(
                  2, {Edge{0, 1, 10.0}})
                  .value();
  ContentBasedNetwork net(std::move(tree));
  Profile p;
  p.AddStream("s");
  net.Subscribe(1, p, nullptr);
  net.Publish(0, MakeDatagram(1, 1));
  EXPECT_DOUBLE_EQ(net.WeightedBytes(),
                   static_cast<double>(net.total_bytes()) * 10.0);
}

// Property: CBN delivery matches direct profile evaluation — every
// subscriber receives exactly the datagrams its profile covers.
class CbnDeliveryPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CbnDeliveryPropertyTest, DeliveryEqualsCoverage) {
  Rng rng(GetParam());
  TopologyOptions topo_opts;
  topo_opts.num_nodes = 25;
  topo_opts.seed = GetParam();
  Topology topo = GenerateBarabasiAlbert(topo_opts);
  auto tree =
      DisseminationTree::FromEdges(25, *MinimumSpanningTree(topo.graph))
          .value();
  ContentBasedNetwork net(std::move(tree));

  struct Sub {
    Profile profile;
    int hits = 0;
  };
  std::vector<std::unique_ptr<Sub>> subs;
  for (int i = 0; i < 8; ++i) {
    auto sub = std::make_unique<Sub>();
    ConjunctiveClause c;
    double lo = rng.NextInt(-10, 30);
    c.ConstrainInterval("temp", Interval(lo, false, lo + rng.NextInt(2, 15),
                                         false));
    sub->profile.AddFilter(Filter("s", std::move(c)));
    Sub* raw = sub.get();
    net.Subscribe(static_cast<NodeId>(rng.NextBounded(25)), raw->profile,
                  [raw](const std::string&, const Tuple&) { ++raw->hits; });
    subs.push_back(std::move(sub));
  }

  std::vector<Datagram> published;
  for (int i = 0; i < 100; ++i) {
    Datagram d = MakeDatagram(rng.NextInt(-10, 40), rng.NextInt(0, 100), i);
    net.Publish(static_cast<NodeId>(rng.NextBounded(25)), d);
    published.push_back(d);
  }

  for (const auto& sub : subs) {
    int expected = 0;
    for (const auto& d : published) {
      if (sub->profile.Covers(d)) ++expected;
    }
    EXPECT_EQ(sub->hits, expected);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CbnDeliveryPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5));

// Regression for DST seed 313: a filtered subscription installed after an
// unfiltered one projecting the same attributes must keep its own entries
// on their shared path, or early projection strips the filtered attribute
// upstream and the filtered subscriber goes deaf — initially or after a
// tree rebuild.
TEST(Network, PrunedFilteredSubscriberStillServedUnderEarlyProjection) {
  // Chain 0-1-2-3; publisher at 0.
  auto tree = DisseminationTree::FromEdges(
                  4, {Edge{0, 1, 1.0}, Edge{1, 2, 1.0}, Edge{2, 3, 1.0}})
                  .value();
  ContentBasedNetwork net(std::move(tree));
  int plain_hits = 0;
  int filtered_hits = 0;
  Profile plain;  // everything, but only "hum" retained
  plain.AddStream("s", {"hum"});
  net.Subscribe(2, plain,
                [&](const std::string&, const Tuple&) { ++plain_hits; });
  Profile filtered;  // same projection, but needs "temp" to decide
  filtered.AddStream("s", {"hum"});
  filtered.AddFilter(Filter("s", Clause("temp > 20")));
  net.Subscribe(3, filtered,
                [&](const std::string&, const Tuple&) { ++filtered_hits; });

  net.Publish(0, MakeDatagram(25, 50));
  EXPECT_EQ(plain_hits, 1);
  EXPECT_EQ(filtered_hits, 1) << "filtered subscriber starved of 'temp'";

  // Rebuilding reinstalls subscriptions in registry order (unfiltered
  // first).
  auto same_tree = DisseminationTree::FromEdges(
                       4, {Edge{0, 1, 1.0}, Edge{1, 2, 1.0}, Edge{2, 3, 1.0}})
                       .value();
  ASSERT_TRUE(net.RebuildTree(std::move(same_tree)).ok());
  net.Publish(0, MakeDatagram(30, 60));
  EXPECT_EQ(plain_hits, 2);
  EXPECT_EQ(filtered_hits, 2) << "filtered subscriber deaf after rebuild";

  // Below the filter threshold only the unfiltered subscriber fires.
  net.Publish(0, MakeDatagram(10, 70));
  EXPECT_EQ(plain_hits, 3);
  EXPECT_EQ(filtered_hits, 2);
}

}  // namespace
}  // namespace cosmos
