// Failure recovery: query-layer failover (a processor disappears and its
// queries re-home onto the surviving processors) and data-layer recovery
// regressions (buffered-datagram flushing must neither duplicate nor
// strand deliveries, and recovery statistics must reset cleanly).

#include <gtest/gtest.h>

#include "cbn/network.h"
#include "core/system.h"
#include "stream/sensor_dataset.h"

namespace cosmos {
namespace {

DisseminationTree ChainTree(int n) {
  std::vector<Edge> edges;
  for (int i = 0; i + 1 < n; ++i) edges.push_back(Edge{i, i + 1, 1.0});
  return DisseminationTree::FromEdges(n, edges).value();
}

class FailoverTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SensorDatasetOptions sopts;
    sopts.num_stations = 3;
    sopts.duration = 10 * kMinute;
    sensors_ = std::make_unique<SensorDataset>(sopts);
    system_ = std::make_unique<CosmosSystem>(ChainTree(6));
    for (int k = 0; k < 3; ++k) {
      ASSERT_TRUE(system_
                      ->RegisterSource(sensors_->SchemaOf(k),
                                       sensors_->RatePerStation(), 0)
                      .ok());
    }
    ASSERT_TRUE(system_->AddProcessor(2).ok());
    ASSERT_TRUE(system_->AddProcessor(4).ok());
  }

  std::unique_ptr<SensorDataset> sensors_;
  std::unique_ptr<CosmosSystem> system_;
};

TEST_F(FailoverTest, QueriesSurviveProcessorFailure) {
  int hits = 0;
  auto id = system_->SubmitQuery(
      "SELECT ambient_temperature FROM sensor_01", 5,
      [&](const std::string&, const Tuple&) { ++hits; });
  ASSERT_TRUE(id.ok());

  auto replay1 = sensors_->MakeReplay();
  ASSERT_TRUE(system_->Replay(*replay1).ok());
  EXPECT_EQ(hits, 20);

  // Whichever processor hosts the query, fail it.
  NodeId victim = system_->processor(2) != nullptr &&
                          system_->processor(2)->num_queries() > 0
                      ? 2
                      : 4;
  ASSERT_TRUE(system_->FailProcessor(victim).ok());
  EXPECT_EQ(system_->num_processors(), 1u);
  EXPECT_EQ(system_->TotalQueries(), 1u);

  auto replay2 = sensors_->MakeReplay();
  ASSERT_TRUE(system_->Replay(*replay2).ok());
  EXPECT_EQ(hits, 40) << "query went silent after failover";
}

TEST_F(FailoverTest, CannotFailTheLastProcessor) {
  ASSERT_TRUE(system_->FailProcessor(2).ok());
  EXPECT_EQ(system_->FailProcessor(4).code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(FailoverTest, FailUnknownProcessorRejected) {
  EXPECT_EQ(system_->FailProcessor(1).code(), StatusCode::kNotFound);
}

TEST_F(FailoverTest, MergedGroupsReformAtTheNewHome) {
  int hits1 = 0, hits2 = 0;
  (void)system_->SubmitQuery(
      "SELECT relative_humidity FROM sensor_00 WHERE relative_humidity >= "
      "20 AND relative_humidity <= 60",
      5, [&](const std::string&, const Tuple&) { ++hits1; });
  (void)system_->SubmitQuery(
      "SELECT relative_humidity FROM sensor_00 WHERE relative_humidity >= "
      "40 AND relative_humidity <= 80",
      5, [&](const std::string&, const Tuple&) { ++hits2; });
  // Signature affinity put both on one processor as one group.
  NodeId home = system_->processor(2)->num_queries() == 2 ? 2 : 4;
  EXPECT_EQ(system_->processor(home)->grouping().num_groups(), 1u);

  auto replay1 = sensors_->MakeReplay();
  ASSERT_TRUE(system_->Replay(*replay1).ok());
  int before1 = hits1, before2 = hits2;
  EXPECT_GT(before1 + before2, 0);

  ASSERT_TRUE(system_->FailProcessor(home).ok());
  NodeId survivor = home == 2 ? 4 : 2;
  EXPECT_EQ(system_->processor(survivor)->num_queries(), 2u);
  // The group re-formed at the survivor.
  EXPECT_EQ(system_->processor(survivor)->grouping().num_groups(), 1u);

  auto replay2 = sensors_->MakeReplay();
  ASSERT_TRUE(system_->Replay(*replay2).ok());
  EXPECT_EQ(hits1, 2 * before1);
  EXPECT_EQ(hits2, 2 * before2);
}

TEST_F(FailoverTest, SurvivorLoadReflectsRehoming) {
  for (int i = 0; i < 4; ++i) {
    (void)system_->SubmitQuery(
        "SELECT ambient_temperature FROM sensor_0" + std::to_string(i % 3),
        5, nullptr);
  }
  size_t before = system_->TotalQueries();
  ASSERT_TRUE(system_->FailProcessor(2).ok());
  EXPECT_EQ(system_->TotalQueries(), before);
  EXPECT_EQ(system_->processor(4)->num_queries(), before);
}

// ---- data-layer recovery regressions -------------------------------------

std::shared_ptr<const Schema> CbnSchema() {
  return std::make_shared<Schema>(
      "s", std::vector<AttributeDef>{{"temp", ValueType::kDouble, -10, 40}});
}

Datagram CbnDatagram(double temp, Timestamp ts = 0) {
  return Datagram{"s", Tuple(CbnSchema(), {Value(temp)}, ts)};
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

Profile WholeStreamProfile() {
  Profile p;
  p.AddStream("s");
  return p;
}

TEST(CbnFailureRecovery, RepairUnderSimulatorDoesNotDuplicateDeliveries) {
  // Regression: forwarding hops scheduled on the Simulator dropped the
  // `allowed` component restriction, so a buffered datagram flushed by
  // Repair() re-entered the healthy side and was delivered twice there.
  Simulator sim;
  ContentBasedNetwork net(ChainTree(4), NetworkOptions{}, &sim);
  int hits1 = 0;
  int hits3 = 0;
  net.Subscribe(1, WholeStreamProfile(),
                [&](const std::string&, const Tuple&) { ++hits1; });
  net.Subscribe(3, WholeStreamProfile(),
                [&](const std::string&, const Tuple&) { ++hits3; });
  ASSERT_TRUE(net.FailLink(1, 2).ok());
  net.Publish(0, CbnDatagram(1));
  sim.Run();
  EXPECT_EQ(hits1, 1);
  EXPECT_EQ(hits3, 0);
  EXPECT_EQ(net.buffered_datagrams(), 1u);

  ASSERT_TRUE(net.Repair(SquareOverlay()).ok());
  sim.Run();
  EXPECT_EQ(hits3, 1) << "buffered datagram not recovered";
  EXPECT_EQ(hits1, 1)
      << "scheduled hop dropped the component restriction: duplicate "
         "delivery on the healthy side";
}

TEST(CbnFailureRecovery, RebuildTreeDeliversBufferedDatagrams) {
  // Regression: RebuildTree() cleared failed_links_ but stranded buffered_
  // datagrams — never delivered, never counted lost or recovered.
  ContentBasedNetwork net(ChainTree(4));
  int hits1 = 0;
  int hits3 = 0;
  net.Subscribe(1, WholeStreamProfile(),
                [&](const std::string&, const Tuple&) { ++hits1; });
  net.Subscribe(3, WholeStreamProfile(),
                [&](const std::string&, const Tuple&) { ++hits3; });
  ASSERT_TRUE(net.FailLink(1, 2).ok());
  net.Publish(0, CbnDatagram(1));
  EXPECT_EQ(hits1, 1);
  EXPECT_EQ(hits3, 0);
  EXPECT_EQ(net.buffered_datagrams(), 1u);

  ASSERT_TRUE(net.RebuildTree(ChainTree(4)).ok());
  EXPECT_EQ(hits3, 1) << "RebuildTree stranded the buffered datagram";
  EXPECT_EQ(hits1, 1) << "duplicate delivery on the healthy side";
  EXPECT_EQ(net.buffered_datagrams(), 0u);
  EXPECT_EQ(net.recovered_datagrams(), 1u);
  EXPECT_EQ(net.lost_datagrams(), 0u);
}

TEST(CbnFailureRecovery, ResetStatsClearsRecoveryCounters) {
  // Regression: ResetStats() left recovered_datagrams_ standing, so
  // ablation runs resetting between trials double-counted recoveries.
  ContentBasedNetwork net(ChainTree(4));
  net.Subscribe(3, WholeStreamProfile(), nullptr);
  ASSERT_TRUE(net.FailLink(1, 2).ok());
  net.Publish(0, CbnDatagram(1));
  ASSERT_TRUE(net.Repair(SquareOverlay()).ok());
  ASSERT_EQ(net.recovered_datagrams(), 1u);

  net.ResetStats();
  EXPECT_EQ(net.recovered_datagrams(), 0u);
  EXPECT_EQ(net.lost_datagrams(), 0u);
  EXPECT_EQ(net.total_bytes(), 0u);
}

TEST(CbnFailureRecovery, RepairDropsStatsForRemovedLinks) {
  // Regression: WeightedBytes() kept charging pre-repair link keys that
  // are no longer tree edges, at the value_or(1.0) fallback weight.
  ContentBasedNetwork net(ChainTree(4));
  net.Subscribe(3, WholeStreamProfile(), nullptr);
  net.Publish(0, CbnDatagram(1));
  ASSERT_GT(net.link_stats().count({1, 2}), 0u);

  ASSERT_TRUE(net.FailLink(1, 2).ok());
  ASSERT_TRUE(net.Repair(SquareOverlay()).ok());
  EXPECT_EQ(net.link_stats().count({1, 2}), 0u)
      << "stats survived for a link the repair removed from the tree";
  for (const auto& [key, stats] : net.link_stats()) {
    EXPECT_TRUE(net.tree().HasEdge(key.first, key.second))
        << "stats for (" << key.first << "," << key.second
        << ") but no such tree edge";
  }
}

TEST(CbnFailureRecovery, FlushIsChargedToRecoveryNotLinkTraffic) {
  // A Repair() flush travels the recovery channel: the steady-state link
  // ledger must not move, while its hops and deliveries are counted as
  // recovery.
  MetricsRegistry metrics;
  ContentBasedNetwork net(ChainTree(4));
  net.SetTelemetry(&metrics, nullptr);
  int hits3 = 0;
  net.Subscribe(3, WholeStreamProfile(),
                [&](const std::string&, const Tuple&) { ++hits3; });
  ASSERT_TRUE(net.FailLink(1, 2).ok());
  net.Publish(0, CbnDatagram(1));
  const uint64_t bytes = net.total_bytes();
  const auto links = net.link_stats();
  ASSERT_GT(bytes, 0u);  // 0 -> 1 crossed before the failed link

  ASSERT_TRUE(net.Repair(SquareOverlay()).ok());
  EXPECT_EQ(hits3, 1);
  EXPECT_EQ(net.total_bytes(), bytes);
  const auto after = net.link_stats();
  ASSERT_EQ(after.size(), links.size());
  for (const auto& [key, stats] : links) {
    ASSERT_EQ(after.count(key), 1u);
    EXPECT_EQ(after.at(key).datagrams, stats.datagrams);
    EXPECT_EQ(after.at(key).bytes, stats.bytes);
  }
  EXPECT_GT(metrics.FindCounter("cbn.recovery_forwards")->value(), 0u);
  EXPECT_EQ(metrics
                .FindCounter(MetricsRegistry::LabeledName(
                    "cbn.delivered_recovery", "stream", "s"))
                ->value(),
            1u);
  EXPECT_EQ(metrics
                .FindCounter(MetricsRegistry::LabeledName("cbn.delivered",
                                                          "stream", "s"))
                ->value(),
            0u);
  EXPECT_EQ(net.total_deliveries(), 1u);
  EXPECT_EQ(net.recovered_datagrams(), 1u);
}

// ---- stream-partitioned routing index under churn -------------------------

// Sum over (link, entry) of the entry's stream count: what the per-stream
// index must hold for the table to be consistent.
size_t ExpectedIndexSlots(const RoutingTable& table) {
  size_t expected = 0;
  for (NodeId link : table.Links()) {
    for (const auto& e : table.EntriesFor(link)) {
      expected += e.profile->streams().size();
    }
  }
  return expected;
}

void ExpectIndexConsistent(const ContentBasedNetwork& net) {
  for (NodeId n = 0; n < net.num_nodes(); ++n) {
    const RoutingTable& table = net.router(n).table();
    ASSERT_TRUE(table.CheckInvariants()) << "node " << n;
    EXPECT_EQ(table.TotalIndexedSlots(), ExpectedIndexSlots(table))
        << "node " << n;
  }
}

TEST(RoutingIndexConsistency, SubscribeUnsubscribeRepairChurn) {
  // Random subscribe/unsubscribe/fail/repair churn must keep every node's
  // per-stream bucket index exactly mirroring its entry list. Profiles are
  // single-stream here, so indexed slots == TotalEntries() per node.
  ContentBasedNetwork net(ChainTree(6));
  Graph overlay(6);
  for (int i = 0; i + 1 < 6; ++i) (void)overlay.AddEdge(i, i + 1, 1.0);
  (void)overlay.AddEdge(5, 0, 2.0);
  (void)overlay.AddEdge(4, 0, 3.0);

  Rng rng(2024);
  std::vector<ProfileId> live;
  int delivered = 0;
  for (int round = 0; round < 200; ++round) {
    double action = rng.NextDouble();
    if (action < 0.5 || live.empty()) {
      Profile p;
      ConjunctiveClause c;
      double lo = rng.NextInt(-10, 30);
      c.ConstrainInterval("temp", Interval(lo, false, lo + 10, false));
      p.AddStream("s", {"temp"});
      p.AddFilter(Filter("s", std::move(c)));
      live.push_back(net.Subscribe(
          static_cast<NodeId>(rng.NextBounded(6)), std::move(p),
          [&](const std::string&, const Tuple&) { ++delivered; }));
    } else if (action < 0.8) {
      size_t pick = rng.NextBounded(live.size());
      EXPECT_TRUE(net.Unsubscribe(live[pick]));
      live.erase(live.begin() + static_cast<long>(pick));
    } else {
      // Fail a random edge of the *current* tree (repairs reshape it).
      const auto& edges = net.tree().edges();
      const Edge e = edges[rng.NextBounded(edges.size())];
      ASSERT_TRUE(net.FailLink(e.u, e.v).ok());
      net.Publish(0, CbnDatagram(rng.NextInt(-10, 40)));
      ASSERT_TRUE(net.Repair(overlay).ok());
    }
    net.Publish(static_cast<NodeId>(rng.NextBounded(6)),
                CbnDatagram(rng.NextInt(-10, 40)));
    ExpectIndexConsistent(net);
    size_t expected_total = 0;
    for (NodeId n = 0; n < net.num_nodes(); ++n) {
      expected_total += net.router(n).table().TotalEntries();
    }
    size_t indexed_total = 0;
    for (NodeId n = 0; n < net.num_nodes(); ++n) {
      indexed_total += net.router(n).table().TotalIndexedSlots();
    }
    EXPECT_EQ(indexed_total, expected_total)
        << "single-stream profiles: slots must equal entries";
  }
  EXPECT_GT(delivered, 0);
}

TEST(RoutingIndexConsistency, MultiStreamProfilesIndexEveryStream) {
  ContentBasedNetwork net(ChainTree(4));
  Profile p;
  p.AddStream("a");
  p.AddStream("b");
  int hits = 0;
  ProfileId id = net.Subscribe(
      3, p, [&](const std::string&, const Tuple&) { ++hits; });
  ExpectIndexConsistent(net);
  // Each table entry for this profile carries one slot per stream.
  for (NodeId n = 0; n < 3; ++n) {
    const RoutingTable& t = net.router(n).table();
    EXPECT_EQ(t.TotalIndexedSlots(), 2 * t.TotalEntries()) << "node " << n;
  }
  auto sa = std::make_shared<Schema>(
      "a", std::vector<AttributeDef>{{"x", ValueType::kDouble}});
  auto sb = std::make_shared<Schema>(
      "b", std::vector<AttributeDef>{{"x", ValueType::kDouble}});
  net.Publish(0, Datagram{"a", Tuple(sa, {Value(1.0)}, 0)});
  net.Publish(0, Datagram{"b", Tuple(sb, {Value(2.0)}, 1)});
  EXPECT_EQ(hits, 2);
  EXPECT_TRUE(net.Unsubscribe(id));
  for (NodeId n = 0; n < net.num_nodes(); ++n) {
    EXPECT_EQ(net.router(n).table().TotalIndexedSlots(), 0u);
    EXPECT_EQ(net.router(n).table().TotalEntries(), 0u);
  }
}

}  // namespace
}  // namespace cosmos
