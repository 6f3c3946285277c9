// Data-layer fault tolerance (paper Figure 2's data-layer fault-tolerance
// module): link failure, buffering, overlay repair, tree rebuild, and
// advertisement-scoped subscription state.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "cbn/network.h"
#include "common/random.h"
#include "overlay/spanning_tree.h"
#include "overlay/topology.h"
#include "query/parser.h"
#include "sim/simulator.h"

namespace cosmos {
namespace {

std::shared_ptr<const Schema> SensorSchema() {
  return std::make_shared<Schema>(
      "s", std::vector<AttributeDef>{{"temp", ValueType::kDouble, -10, 40}});
}

Datagram MakeDatagram(double temp, Timestamp ts = 0) {
  return Datagram{"s", Tuple(SensorSchema(), {Value(temp)}, ts)};
}

// Overlay square 0-1-2-3-0; tree is the chain 0-1-2-3.
Graph SquareOverlay() {
  Graph g(4);
  (void)g.AddEdge(0, 1, 1.0);
  (void)g.AddEdge(1, 2, 1.0);
  (void)g.AddEdge(2, 3, 1.0);
  (void)g.AddEdge(3, 0, 2.0);
  return g;
}

DisseminationTree ChainTree() {
  return DisseminationTree::FromEdges(
             4, {Edge{0, 1, 1.0}, Edge{1, 2, 1.0}, Edge{2, 3, 1.0}})
      .value();
}

TEST(FaultTolerance, FailUnknownLinkRejected) {
  ContentBasedNetwork net(ChainTree());
  EXPECT_EQ(net.FailLink(0, 2).code(), StatusCode::kNotFound);
  EXPECT_TRUE(net.FailLink(1, 2).ok());
  EXPECT_TRUE(net.HasFailedLinks());
}

TEST(FaultTolerance, LossWithoutBuffering) {
  NetworkOptions opts;
  opts.buffer_on_failure = false;
  ContentBasedNetwork net(ChainTree(), opts);
  int hits = 0;
  Profile p;
  p.AddStream("s");
  net.Subscribe(3, p, [&](const std::string&, const Tuple&) { ++hits; });
  ASSERT_TRUE(net.FailLink(1, 2).ok());
  net.Publish(0, MakeDatagram(1));
  EXPECT_EQ(hits, 0);
  EXPECT_EQ(net.lost_datagrams(), 1u);
}

TEST(FaultTolerance, BufferAndRecoverAfterRepair) {
  ContentBasedNetwork net(ChainTree());
  std::vector<double> received;
  Profile p;
  p.AddStream("s");
  net.Subscribe(3, p, [&](const std::string&, const Tuple& t) {
    received.push_back(t.value(0).AsDouble());
  });
  net.Publish(0, MakeDatagram(1, 0));
  ASSERT_EQ(received.size(), 1u);

  ASSERT_TRUE(net.FailLink(1, 2).ok());
  net.Publish(0, MakeDatagram(2, 1));
  net.Publish(0, MakeDatagram(3, 2));
  EXPECT_EQ(received.size(), 1u);  // cut off
  EXPECT_EQ(net.buffered_datagrams(), 2u);
  EXPECT_EQ(net.lost_datagrams(), 0u);

  ASSERT_TRUE(net.Repair(SquareOverlay()).ok());
  EXPECT_FALSE(net.HasFailedLinks());
  EXPECT_EQ(net.recovered_datagrams(), 2u);
  ASSERT_EQ(received.size(), 3u);
  EXPECT_DOUBLE_EQ(received[1], 2.0);
  EXPECT_DOUBLE_EQ(received[2], 3.0);

  // The repaired tree works for fresh traffic.
  net.Publish(0, MakeDatagram(4, 3));
  EXPECT_EQ(received.size(), 4u);
}

TEST(FaultTolerance, RepairUsesCheapestCrossEdge) {
  ContentBasedNetwork net(ChainTree());
  ASSERT_TRUE(net.FailLink(1, 2).ok());
  ASSERT_TRUE(net.Repair(SquareOverlay()).ok());
  // The only overlay edge across the {0,1} / {2,3} cut is 3-0.
  EXPECT_TRUE(net.tree().HasEdge(3, 0));
  EXPECT_FALSE(net.tree().HasEdge(1, 2));
}

TEST(FaultTolerance, NoDuplicateDeliveryOnHealthySide) {
  // Subscriber at node 1 (near side) must see each datagram exactly once
  // even though datagrams toward node 3 were buffered and flushed.
  ContentBasedNetwork net(ChainTree());
  int hits1 = 0, hits3 = 0;
  Profile p;
  p.AddStream("s");
  net.Subscribe(1, p, [&](const std::string&, const Tuple&) { ++hits1; });
  net.Subscribe(3, p, [&](const std::string&, const Tuple&) { ++hits3; });
  ASSERT_TRUE(net.FailLink(1, 2).ok());
  net.Publish(0, MakeDatagram(1));
  EXPECT_EQ(hits1, 1);
  EXPECT_EQ(hits3, 0);
  ASSERT_TRUE(net.Repair(SquareOverlay()).ok());
  EXPECT_EQ(hits1, 1);  // no duplicate
  EXPECT_EQ(hits3, 1);  // recovered
}

TEST(FaultTolerance, UnrepairablePartitionReported) {
  // Overlay identical to the tree: no alternate edge across the cut.
  Graph overlay(4);
  (void)overlay.AddEdge(0, 1, 1.0);
  (void)overlay.AddEdge(1, 2, 1.0);
  (void)overlay.AddEdge(2, 3, 1.0);
  ContentBasedNetwork net(ChainTree());
  ASSERT_TRUE(net.FailLink(1, 2).ok());
  EXPECT_EQ(net.Repair(overlay).code(), StatusCode::kFailedPrecondition);
}

TEST(FaultTolerance, MultipleFailuresRepairedTogether) {
  TopologyOptions topo_opts;
  topo_opts.num_nodes = 30;
  topo_opts.ba_edges_per_node = 3;
  Topology topo = GenerateBarabasiAlbert(topo_opts);
  auto tree = DisseminationTree::FromEdges(
                  30, *MinimumSpanningTree(topo.graph))
                  .value();
  ContentBasedNetwork net(tree);
  int hits = 0;
  Profile p;
  p.AddStream("s");
  net.Subscribe(17, p, [&](const std::string&, const Tuple&) { ++hits; });

  // Fail two tree links.
  const auto& edges = tree.edges();
  ASSERT_TRUE(net.FailLink(edges[0].u, edges[0].v).ok());
  ASSERT_TRUE(net.FailLink(edges[5].u, edges[5].v).ok());
  ASSERT_TRUE(net.Repair(topo.graph).ok());
  EXPECT_FALSE(net.HasFailedLinks());
  // Fresh traffic reaches the subscriber from anywhere.
  for (NodeId n = 0; n < 30; n += 7) {
    net.Publish(n, MakeDatagram(1));
  }
  EXPECT_EQ(hits, 5);
}

TEST(RebuildTree, PreservesSubscriptions) {
  ContentBasedNetwork net(ChainTree());
  int hits = 0;
  Profile p;
  ConjunctiveClause c;
  c.ConstrainInterval("temp", Interval(0, false, 10, false));
  p.AddFilter(Filter("s", std::move(c)));
  net.Subscribe(3, p, [&](const std::string&, const Tuple&) { ++hits; });

  // Rebuild on a star topology instead of the chain.
  auto star = DisseminationTree::FromEdges(
                  4, {Edge{0, 1, 1.0}, Edge{0, 2, 1.0}, Edge{0, 3, 1.0}})
                  .value();
  ASSERT_TRUE(net.RebuildTree(star).ok());
  net.Publish(1, MakeDatagram(5));   // match
  net.Publish(1, MakeDatagram(20));  // no match
  EXPECT_EQ(hits, 1);
}

TEST(RebuildTree, HopInFlightOnTheOldTreeDeliversOnce) {
  // Chain 0-1-2-3-4, publisher 0, subscribers at 1 and 4. The datagram is
  // on link 1-2 when the tree becomes a star around 0, where node 2 lies
  // on no publisher->subscriber path. The hop still reaches node 4, and
  // node 1, served before the rebuild, does not see it again.
  auto chain = DisseminationTree::FromEdges(
                   5, {Edge{0, 1, 1.0}, Edge{1, 2, 1.0}, Edge{2, 3, 1.0},
                       Edge{3, 4, 1.0}})
                   .value();
  Simulator sim;
  ContentBasedNetwork net(std::move(chain), NetworkOptions{}, &sim);
  net.Advertise(0, "s");
  int hits1 = 0;
  int hits4 = 0;
  Profile p;
  p.AddStream("s");
  net.Subscribe(1, p, [&](const std::string&, const Tuple&) { ++hits1; });
  net.Subscribe(4, p, [&](const std::string&, const Tuple&) { ++hits4; });
  net.Publish(0, MakeDatagram(1));
  sim.RunUntil(3 * kMillisecond / 2);
  ASSERT_EQ(hits1, 1);
  ASSERT_EQ(hits4, 0);

  auto star = DisseminationTree::FromEdges(
                  5, {Edge{0, 1, 1.0}, Edge{0, 2, 1.0}, Edge{0, 3, 1.0},
                      Edge{0, 4, 1.0}})
                  .value();
  ASSERT_TRUE(net.RebuildTree(std::move(star)).ok());
  // The hop joined the failure buffer and was flushed by the rebuild.
  EXPECT_EQ(net.recovered_datagrams(), 1u);
  EXPECT_EQ(net.buffered_datagrams(), 0u);
  sim.Run();
  EXPECT_EQ(hits1, 1) << "served before the rebuild, delivered again";
  EXPECT_EQ(hits4, 1) << "in-flight datagram lost by the rebuild";
  EXPECT_EQ(net.lost_datagrams(), 0u);
}

TEST(RebuildTree, WrongSizeRejected) {
  ContentBasedNetwork net(ChainTree());
  auto small = DisseminationTree::FromEdges(2, {Edge{0, 1, 1.0}}).value();
  EXPECT_EQ(net.RebuildTree(small).code(), StatusCode::kInvalidArgument);
}

// Routing entries a subscription at `subscriber` needs: one per link of the
// tree path from each publisher of `stream`, shared links counted once.
size_t PathEntries(const DisseminationTree& tree,
                   const std::set<NodeId>& publishers, NodeId subscriber) {
  std::set<std::pair<NodeId, NodeId>> links;
  for (NodeId p : publishers) {
    auto path = tree.Path(p, subscriber);
    for (size_t i = 0; i + 1 < path.size(); ++i) {
      links.emplace(path[i], path[i + 1]);
    }
  }
  return links.size();
}

TEST(Advertisements, ScopingShrinksRoutingState) {
  TopologyOptions topo_opts;
  topo_opts.num_nodes = 50;
  Topology topo = GenerateBarabasiAlbert(topo_opts);
  auto tree = DisseminationTree::FromEdges(
                  50, *MinimumSpanningTree(topo.graph))
                  .value();

  ContentBasedNetwork net(tree);
  net.Advertise(0, "s");
  Profile p;
  p.AddStream("s");
  net.Subscribe(40, p, nullptr);
  // Exactly the publisher->subscriber path, against the 49 entries (one
  // per other node) a flooded subscription installs.
  EXPECT_EQ(net.TotalTableEntries(), PathEntries(tree, {0}, 40));
  EXPECT_EQ(net.control_messages(), net.TotalTableEntries());
  EXPECT_LT(net.TotalTableEntries(), 49u);
  // Delivery still works.
  int hits = 0;
  net.Subscribe(45, p, [&](const std::string&, const Tuple&) { ++hits; });
  net.Publish(0, MakeDatagram(5));
  EXPECT_EQ(hits, 1);
}

TEST(Advertisements, LateAdvertiserGetsRoutes) {
  ContentBasedNetwork net(ChainTree());
  int hits = 0;
  Profile p;
  p.AddStream("s");
  net.Subscribe(3, p, [&](const std::string&, const Tuple&) { ++hits; });
  EXPECT_EQ(net.TotalTableEntries(), 0u);  // nobody publishes s yet
  // Subscription predates the advertisement.
  net.Advertise(0, "s");
  EXPECT_EQ(net.TotalTableEntries(), 3u);
  net.Publish(0, MakeDatagram(1));
  EXPECT_EQ(hits, 1);
}

TEST(Advertisements, PublishAdvertisesItsNode) {
  // A publisher that never called Advertise() is advertised by its first
  // datagram, which still reaches a subscriber that predates it.
  ContentBasedNetwork net(ChainTree());
  int hits = 0;
  Profile p;
  p.AddStream("s");
  net.Subscribe(3, p, [&](const std::string&, const Tuple&) { ++hits; });
  EXPECT_EQ(net.PublishersOf("s"), nullptr);
  net.Publish(1, MakeDatagram(1));
  EXPECT_EQ(hits, 1);
  const auto* pubs = net.PublishersOf("s");
  ASSERT_NE(pubs, nullptr);
  EXPECT_EQ(*pubs, std::set<NodeId>{1});
  EXPECT_EQ(net.TotalTableEntries(), 2u);  // 1->2 and 2->3
}

TEST(Advertisements, ScopedDeliveryMatchesUnscopedDelivery) {
  // Two publishers of one stream: each subscriber gets exactly the
  // datagrams its profile covers, whichever publisher sent them, from
  // entries on the publisher->subscriber paths only.
  TopologyOptions topo_opts;
  topo_opts.num_nodes = 20;
  Topology topo = GenerateBarabasiAlbert(topo_opts);
  auto tree = DisseminationTree::FromEdges(
                  20, *MinimumSpanningTree(topo.graph))
                  .value();
  ContentBasedNetwork net(tree);
  net.Advertise(2, "s");
  net.Advertise(11, "s");
  struct Sub {
    Profile profile;
    NodeId node;
    int hits = 0;
  };
  std::vector<std::unique_ptr<Sub>> subs;
  Rng sub_rng(5);
  for (int i = 0; i < 8; ++i) {
    auto sub = std::make_unique<Sub>();
    ConjunctiveClause c;
    double lo = sub_rng.NextInt(-10, 30);
    c.ConstrainInterval("temp", Interval(lo, false, lo + 10, false));
    sub->profile.AddFilter(Filter("s", std::move(c)));
    sub->node = static_cast<NodeId>(sub_rng.NextBounded(20));
    Sub* raw = sub.get();
    net.Subscribe(raw->node, raw->profile,
                  [raw](const std::string&, const Tuple&) { ++raw->hits; });
    subs.push_back(std::move(sub));
  }
  size_t path_entries = 0;
  for (const auto& sub : subs) {
    path_entries += PathEntries(tree, {2, 11}, sub->node);
  }
  EXPECT_EQ(net.TotalTableEntries(), path_entries);

  Rng pub_rng(9);
  std::vector<Datagram> published;
  for (int i = 0; i < 60; ++i) {
    NodeId publisher = pub_rng.NextBool() ? 2 : 11;
    published.push_back(MakeDatagram(pub_rng.NextInt(-10, 40)));
    net.Publish(publisher, published.back());
  }
  int total = 0;
  for (const auto& sub : subs) {
    int expected = 0;
    for (const auto& d : published) {
      if (sub->profile.Covers(d)) ++expected;
    }
    EXPECT_EQ(sub->hits, expected);
    total += sub->hits;
  }
  EXPECT_GT(total, 0);
}

TEST(Advertisements, PublishersOfTracksAdvertisers) {
  ContentBasedNetwork net(ChainTree());
  EXPECT_EQ(net.PublishersOf("s"), nullptr);
  net.Advertise(1, "s");
  net.Advertise(2, "s");
  net.Advertise(1, "s");  // idempotent
  const auto* pubs = net.PublishersOf("s");
  ASSERT_NE(pubs, nullptr);
  EXPECT_EQ(pubs->size(), 2u);
}

}  // namespace
}  // namespace cosmos
