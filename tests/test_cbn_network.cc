#include "cbn/network.h"

#include <gtest/gtest.h>

#include <algorithm>

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

TEST(Network, CoveringPruneSavesControlMessages) {
  TopologyOptions topo_opts;
  topo_opts.num_nodes = 60;
  Topology topo = GenerateBarabasiAlbert(topo_opts);
  auto tree = DisseminationTree::FromEdges(
                  60, *MinimumSpanningTree(topo.graph))
                  .value();
  Profile wide;
  wide.AddFilter(Filter("s", Clause("temp >= 0 AND temp <= 30")));
  Profile narrow;
  narrow.AddFilter(Filter("s", Clause("temp >= 10 AND temp <= 20")));

  NetworkOptions pruned;
  pruned.covering_prune = true;
  ContentBasedNetwork a(tree, pruned);
  a.Subscribe(5, wide, nullptr);
  uint64_t before = a.control_messages();
  a.Subscribe(5, narrow, nullptr);
  uint64_t pruned_cost = a.control_messages() - before;

  NetworkOptions flood;
  flood.covering_prune = false;
  ContentBasedNetwork b(tree, flood);
  b.Subscribe(5, wide, nullptr);
  before = b.control_messages();
  b.Subscribe(5, narrow, nullptr);
  uint64_t flood_cost = b.control_messages() - before;

  EXPECT_LT(pruned_cost, flood_cost);
}

TEST(Network, CoveringPruneDoesNotLoseDeliveries) {
  // Same subscriptions with and without pruning must deliver identically.
  TopologyOptions topo_opts;
  topo_opts.num_nodes = 30;
  Topology topo = GenerateBarabasiAlbert(topo_opts);
  auto tree = DisseminationTree::FromEdges(
                  30, *MinimumSpanningTree(topo.graph))
                  .value();
  std::vector<int> hits_per_mode;
  for (bool prune : {false, true}) {
    NetworkOptions opts;
    opts.covering_prune = prune;
    ContentBasedNetwork net(tree, opts);
    int hits = 0;
    Rng sub_rng(77);
    for (int i = 0; i < 10; ++i) {
      Profile p;
      double lo = sub_rng.NextInt(-10, 30);
      ConjunctiveClause c;
      c.ConstrainInterval("temp", Interval(lo, false, lo + 10, false));
      p.AddFilter(Filter("s", std::move(c)));
      net.Subscribe(static_cast<NodeId>(sub_rng.NextBounded(30)), p,
                    [&](const std::string&, const Tuple&) { ++hits; });
    }
    Rng pub_rng(99);
    for (int i = 0; i < 50; ++i) {
      net.Publish(static_cast<NodeId>(pub_rng.NextBounded(30)),
                  MakeDatagram(pub_rng.NextInt(-10, 40),
                               pub_rng.NextInt(0, 100)));
    }
    hits_per_mode.push_back(hits);
  }
  ASSERT_EQ(hits_per_mode.size(), 2u);
  EXPECT_GT(hits_per_mode[0], 0);
  EXPECT_EQ(hits_per_mode[0], hits_per_mode[1]);
}

TEST(Network, UnsubscribingCoveringProfileDoesNotSilenceCoveredOnes) {
  // Regression: subscription B's propagation was pruned under covering
  // subscription A; when A unsubscribes, B must be re-propagated or nodes
  // beyond the prune point stop routing toward B ("deaf subscriber").
  // Chain: publisher at 0, both subscribers at 3 — pruning happens at
  // nodes 2 and 1 while flooding outward from node 3.
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
  // Regression: propagation stopped at any other entry on the same link
  // that covered the new profile. Two equal profiles re-propagated after
  // an unsubscribe then pruned each other at the same node, each under the
  // other's partial installation, and the publisher side kept no entry for
  // either. Tree 1 - 0 - 2 - 3, publisher at 3.
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

TEST(Network, UnsubscribeResumesOnlyPrunedFloods) {
  // Chain 0 - 1 - 2 - 3 - 4. Wide A and narrow B subscribe at node 4, so
  // B's flood stops at node 3 under A; C subscribes on stream t at node 0.
  auto tree = DisseminationTree::FromEdges(
                  5, {Edge{0, 1, 1.0}, Edge{1, 2, 1.0}, Edge{2, 3, 1.0},
                      Edge{3, 4, 1.0}})
                  .value();
  ContentBasedNetwork net(std::move(tree));
  Profile wide;
  wide.AddFilter(Filter("s", Clause("temp >= 0 AND temp <= 40")));
  Profile narrow;
  narrow.AddFilter(Filter("s", Clause("temp >= 10 AND temp <= 20")));
  Profile other;
  other.AddStream("t");
  int hits_b = 0;
  int hits_c = 0;
  ProfileId a = net.Subscribe(4, wide, nullptr);
  const uint64_t before_b = net.control_messages();
  ProfileId b = net.Subscribe(
      4, narrow, [&](const std::string&, const Tuple&) { ++hits_b; });
  EXPECT_EQ(net.control_messages() - before_b, 1u) << "B stops at node 3";
  ProfileId c = net.Subscribe(
      0, other, [&](const std::string&, const Tuple&) { ++hits_c; });
  std::vector<size_t> c_entries;
  for (NodeId n = 0; n < net.num_nodes(); ++n) {
    c_entries.push_back(net.router(n).table().CountOf(c));
  }

  const uint64_t before = net.control_messages();
  EXPECT_TRUE(net.Unsubscribe(a));
  // B resumes at node 3 and reaches 2, 1 and 0: three hops, nothing else.
  EXPECT_EQ(net.control_messages() - before, 3u);
  for (NodeId n = 0; n < 4; ++n) {
    EXPECT_EQ(net.router(n).table().CountOf(b), 1u) << "node " << n;
    EXPECT_EQ(net.router(n).table().CountOf(c), c_entries[n]) << "node " << n;
  }
  net.Publish(0, MakeDatagram(15, 0));
  net.Publish(4, LevelDatagram(50));
  EXPECT_EQ(hits_b, 1);
  EXPECT_EQ(hits_c, 1);
}

TEST(Network, ChurnDeliversLikeAnUnprunedNetwork) {
  // Random subscribes, single and batched unsubscribes of nested and
  // overlapping interval profiles on two streams. After every step, each
  // live subscription must get exactly the hits it gets in a network that
  // never prunes, and pruning never costs more control messages.
  constexpr int kNodes = 24;
  constexpr int kSteps = 120;
  for (uint64_t seed : {1, 2, 3}) {
    TopologyOptions topo_opts;
    topo_opts.num_nodes = kNodes;
    topo_opts.seed = seed;
    Topology topo = GenerateBarabasiAlbert(topo_opts);
    auto tree = DisseminationTree::FromEdges(
                    kNodes, *MinimumSpanningTree(topo.graph))
                    .value();
    NetworkOptions flood_opts;
    flood_opts.covering_prune = false;
    ContentBasedNetwork pruned(tree);
    ContentBasedNetwork flood(tree, flood_opts);
    // hits[k][i]: deliveries to the i-th subscription in network k.
    std::vector<int> hits[2] = {std::vector<int>(kSteps, 0),
                                std::vector<int>(kSteps, 0)};
    std::vector<ProfileId> live;
    Rng rng(seed * 1000 + 7);
    int subscribed = 0;
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
        ProfileId id_pruned = pruned.Subscribe(
            node, p, [&hits, slot](const std::string&, const Tuple&) {
              ++hits[0][slot];
            });
        ProfileId id_flood = flood.Subscribe(
            node, p, [&hits, slot](const std::string&, const Tuple&) {
              ++hits[1][slot];
            });
        ASSERT_EQ(id_pruned, id_flood);
        live.push_back(id_pruned);
      } else {
        // One id, or a batch of two to four.
        size_t count = action < 0.8 ? 1 : 2 + rng.NextBounded(3);
        std::vector<ProfileId> batch;
        for (size_t i = 0; i < count && !live.empty(); ++i) {
          size_t pick = rng.NextBounded(live.size());
          batch.push_back(live[pick]);
          live.erase(live.begin() + static_cast<long>(pick));
        }
        EXPECT_EQ(pruned.Unsubscribe(batch), batch.size());
        EXPECT_EQ(flood.Unsubscribe(batch), batch.size());
      }
      for (NodeId from : {NodeId{0}, NodeId{kNodes / 2}, NodeId{kNodes - 1}}) {
        for (int v = -10; v <= 40; v += 5) {
          pruned.Publish(from, MakeDatagram(v, 0));
          flood.Publish(from, MakeDatagram(v, 0));
        }
        for (int v = 0; v <= 100; v += 10) {
          pruned.Publish(from, LevelDatagram(v));
          flood.Publish(from, LevelDatagram(v));
        }
      }
      ASSERT_EQ(hits[0], hits[1]) << "seed " << seed << " step " << step;
      EXPECT_LE(pruned.control_messages(), flood.control_messages());
    }
    EXPECT_GT(*std::max_element(hits[1].begin(), hits[1].end()), 0);
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

// Regression for DST seed 313: a filtered subscription propagated after an
// unfiltered one projecting the same attributes used to be covering-pruned,
// after which early projection stripped the filtered attribute upstream and
// the filtered subscriber went deaf — initially or after a tree rebuild.
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
  // first), the exact shape that used to trigger the faulty prune.
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
