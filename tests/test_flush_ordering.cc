#include <gtest/gtest.h>

#include <vector>

#include "cbn/network.h"
#include "sim/simulator.h"

namespace cosmos {
namespace {

// Regression tests for the order in which Network::FlushBuffered replays
// datagrams buffered during a link failure: subscribers must observe the
// publish order (FIFO), in both the synchronous network and under the
// discrete-event simulator. A reordering flush would break downstream SPE
// windows, which assume per-stream non-decreasing event time.

std::shared_ptr<const Schema> SeqSchema() {
  return std::make_shared<Schema>(
      "s", std::vector<AttributeDef>{{"seq", ValueType::kInt64},
                                     {"timestamp", ValueType::kInt64}});
}

Datagram SeqDatagram(int64_t seq, Timestamp ts) {
  return Datagram{
      "s", Tuple(SeqSchema(), {Value(seq), Value(static_cast<int64_t>(ts))},
                 ts)};
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

TEST(FlushOrdering, RepairReplaysBufferedInPublishOrder) {
  ContentBasedNetwork net(ChainTree());
  std::vector<int64_t> seen;
  Profile p;
  p.AddStream("s");
  net.Subscribe(3, p, [&](const std::string&, const Tuple& t) {
    seen.push_back(t.value(0).AsInt64());
  });

  ASSERT_TRUE(net.FailLink(2, 3).ok());
  for (int64_t i = 0; i < 10; ++i) {
    net.Publish(0, SeqDatagram(i, static_cast<Timestamp>(i) * 1000));
  }
  EXPECT_TRUE(seen.empty());
  EXPECT_EQ(net.buffered_datagrams(), 10u);

  ASSERT_TRUE(net.Repair(SquareOverlay()).ok());
  ASSERT_EQ(seen.size(), 10u);
  for (int64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(seen[static_cast<size_t>(i)], i) << "flush out of order";
  }
  EXPECT_EQ(net.buffered_datagrams(), 0u);
  EXPECT_EQ(net.recovered_datagrams(), 10u);
  EXPECT_EQ(net.lost_datagrams(), 0u);
}

TEST(FlushOrdering, RepairReplaysBufferedInPublishOrderUnderSimulator) {
  Simulator sim;
  ContentBasedNetwork net(ChainTree(), NetworkOptions{}, &sim);
  std::vector<int64_t> seen;
  Profile p;
  p.AddStream("s");
  net.Subscribe(3, p, [&](const std::string&, const Tuple& t) {
    seen.push_back(t.value(0).AsInt64());
  });

  ASSERT_TRUE(net.FailLink(2, 3).ok());
  for (int64_t i = 0; i < 10; ++i) {
    net.Publish(0, SeqDatagram(i, static_cast<Timestamp>(i) * 1000));
  }
  sim.Run();  // everything up to the cut is delivered/buffered
  EXPECT_TRUE(seen.empty());
  EXPECT_EQ(net.buffered_datagrams(), 10u);

  ASSERT_TRUE(net.Repair(SquareOverlay()).ok());
  sim.Run();
  ASSERT_EQ(seen.size(), 10u);
  for (int64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(seen[static_cast<size_t>(i)], i) << "flush out of order";
  }
  EXPECT_EQ(net.buffered_datagrams(), 0u);
}

TEST(FlushOrdering, PostRepairTrafficFollowsFlushedTraffic) {
  // Tuples published after the repair must not overtake the flushed
  // backlog at the subscriber.
  ContentBasedNetwork net(ChainTree());
  std::vector<int64_t> seen;
  Profile p;
  p.AddStream("s");
  net.Subscribe(3, p, [&](const std::string&, const Tuple& t) {
    seen.push_back(t.value(0).AsInt64());
  });

  net.Publish(0, SeqDatagram(0, 0));
  ASSERT_TRUE(net.FailLink(2, 3).ok());
  net.Publish(0, SeqDatagram(1, 1000));
  net.Publish(0, SeqDatagram(2, 2000));
  ASSERT_TRUE(net.Repair(SquareOverlay()).ok());
  net.Publish(0, SeqDatagram(3, 3000));

  ASSERT_EQ(seen.size(), 4u);
  for (int64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(seen[static_cast<size_t>(i)], i);
  }
}

TEST(FlushOrdering, FlushOnlyReachesTheCutOffSide) {
  // Two subscribers, one on each side of the failed link. The near-side
  // subscriber was served at publish time; the flush must deliver only to
  // the far side, or the near side would see duplicates.
  ContentBasedNetwork net(ChainTree());
  std::vector<int64_t> near_seen;
  std::vector<int64_t> far_seen;
  Profile p;
  p.AddStream("s");
  net.Subscribe(1, p, [&](const std::string&, const Tuple& t) {
    near_seen.push_back(t.value(0).AsInt64());
  });
  net.Subscribe(3, p, [&](const std::string&, const Tuple& t) {
    far_seen.push_back(t.value(0).AsInt64());
  });

  ASSERT_TRUE(net.FailLink(2, 3).ok());
  for (int64_t i = 0; i < 5; ++i) {
    net.Publish(0, SeqDatagram(i, static_cast<Timestamp>(i) * 1000));
  }
  EXPECT_EQ(near_seen.size(), 5u);  // near side unaffected by the cut
  EXPECT_TRUE(far_seen.empty());

  ASSERT_TRUE(net.Repair(SquareOverlay()).ok());
  EXPECT_EQ(near_seen.size(), 5u) << "near side saw duplicates after flush";
  ASSERT_EQ(far_seen.size(), 5u);
  for (int64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(far_seen[static_cast<size_t>(i)], i);
  }
}

TEST(FlushOrdering, BufferedAtTwoLinksArriveInPublishOrder) {
  // Two datagrams of one stream stop at two different failed links. After
  // the repair the later one's stop point is nearer the subscriber than the
  // earlier one's, so replaying each from its stop point would reorder
  // them; both re-enter at the publisher instead. Tree 0 - 1 - 2 - 3
  // (delays 1, 1, 10 ms), publisher 0, subscriber 3; overlay spare edges
  // 1-3 (1 ms) and 0-3 (5 ms).
  auto tree = DisseminationTree::FromEdges(
                  4, {Edge{0, 1, 1.0}, Edge{1, 2, 1.0}, Edge{2, 3, 10.0}})
                  .value();
  Graph overlay(4);
  ASSERT_TRUE(overlay.AddEdge(0, 1, 1.0).ok());
  ASSERT_TRUE(overlay.AddEdge(1, 2, 1.0).ok());
  ASSERT_TRUE(overlay.AddEdge(2, 3, 10.0).ok());
  ASSERT_TRUE(overlay.AddEdge(1, 3, 1.0).ok());
  ASSERT_TRUE(overlay.AddEdge(0, 3, 5.0).ok());

  Simulator sim;
  ContentBasedNetwork net(std::move(tree), NetworkOptions{}, &sim);
  std::vector<int64_t> seen;
  Profile p;
  p.AddStream("s");
  net.Subscribe(3, p, [&](const std::string&, const Tuple& t) {
    seen.push_back(t.value(0).AsInt64());
  });

  // The earlier datagram stops at 1-2 (far end 2), the later one at 0-1
  // (far end 1).
  ASSERT_TRUE(net.FailLink(1, 2).ok());
  net.Publish(0, SeqDatagram(0, 0));
  sim.Run();
  ASSERT_TRUE(net.FailLink(0, 1).ok());
  net.Publish(0, SeqDatagram(1, 1000));
  sim.Run();
  ASSERT_EQ(net.buffered_datagrams(), 2u);
  EXPECT_TRUE(seen.empty());

  // Repair splices 1-3 and 0-3: the tree becomes a star around 3, 1 ms
  // from node 1 and 10 ms from node 2.
  ASSERT_TRUE(net.Repair(overlay).ok());
  ASSERT_TRUE(net.tree().HasEdge(1, 3));
  ASSERT_TRUE(net.tree().HasEdge(0, 3));
  ASSERT_TRUE(net.tree().HasEdge(2, 3));
  net.Publish(0, SeqDatagram(2, 2000));
  sim.Run();

  EXPECT_EQ(seen, (std::vector<int64_t>{0, 1, 2}));
  EXPECT_EQ(net.recovered_datagrams(), 2u);
  EXPECT_EQ(net.lost_datagrams(), 0u);
}

TEST(FlushOrdering, HopInFlightAtARebuildArrivesBeforeLaterPublishes) {
  // Chain 0-1-2-3-4, publisher 0, subscriber 4. Ts 100 is on link 1-2 when
  // the tree becomes a star around 0; ts 200 is published right after. The
  // in-flight hop re-enters at the change, ahead of ts 200, so the
  // subscriber sees publish order.
  auto chain = DisseminationTree::FromEdges(
                   5, {Edge{0, 1, 1.0}, Edge{1, 2, 1.0}, Edge{2, 3, 1.0},
                       Edge{3, 4, 1.0}})
                   .value();
  Simulator sim;
  ContentBasedNetwork net(std::move(chain), NetworkOptions{}, &sim);
  std::vector<Timestamp> seen;
  Profile p;
  p.AddStream("s");
  net.Subscribe(4, p, [&](const std::string&, const Tuple& t) {
    seen.push_back(t.timestamp());
  });
  net.Publish(0, SeqDatagram(0, 100));
  sim.RunUntil(3 * kMillisecond / 2);

  auto star = DisseminationTree::FromEdges(
                  5, {Edge{0, 1, 1.0}, Edge{0, 2, 1.0}, Edge{0, 3, 1.0},
                      Edge{0, 4, 1.0}})
                  .value();
  ASSERT_TRUE(net.RebuildTree(std::move(star)).ok());
  net.Publish(0, SeqDatagram(1, 200));
  sim.Run();

  EXPECT_EQ(seen, (std::vector<Timestamp>{100, 200}));
  EXPECT_EQ(net.recovered_datagrams(), 1u);
  EXPECT_EQ(net.lost_datagrams(), 0u);
}

TEST(FlushOrdering, RepairReplaysBufferedAndInFlightInPublishOrder) {
  // Chain 0-1-2-3 (1 ms links), link 2-3 down, a subscriber on every node.
  // Datagram 0 is buffered at 2-3, datagram 1 is on link 0-1 when Repair()
  // splices in 0-3, and datagram 2 is published right after. Every
  // subscriber receives all three in publish order, once each.
  Simulator sim;
  ContentBasedNetwork net(ChainTree(), NetworkOptions{}, &sim);
  std::vector<std::vector<int64_t>> seen(4);
  Profile p;
  p.AddStream("s");
  for (NodeId n = 0; n < 4; ++n) {
    net.Subscribe(n, p, [&seen, n](const std::string&, const Tuple& t) {
      seen[n].push_back(t.value(0).AsInt64());
    });
  }

  ASSERT_TRUE(net.FailLink(2, 3).ok());
  net.Publish(0, SeqDatagram(0, 0));
  sim.RunUntil(5 * kMillisecond / 2);
  ASSERT_EQ(net.buffered_datagrams(), 1u);
  net.Publish(0, SeqDatagram(1, 1000));
  sim.RunUntil(3 * kMillisecond);

  ASSERT_TRUE(net.Repair(SquareOverlay()).ok());
  EXPECT_EQ(net.buffered_datagrams(), 0u);
  EXPECT_EQ(net.recovered_datagrams(), 2u);
  net.Publish(0, SeqDatagram(2, 2000));
  sim.Run();

  for (NodeId n = 0; n < 4; ++n) {
    EXPECT_EQ(seen[n], (std::vector<int64_t>{0, 1, 2})) << "node " << n;
  }
  EXPECT_EQ(net.lost_datagrams(), 0u);
}

}  // namespace
}  // namespace cosmos
