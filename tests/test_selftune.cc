// System-level self-tuning (the "Self-tuning" in COSMOS) and fault
// tolerance through the CosmosSystem façade.

#include <gtest/gtest.h>

#include <memory>

#include "common/string_util.h"
#include "core/self_tuner.h"
#include "core/system.h"
#include "overlay/spanning_tree.h"
#include "overlay/topology.h"
#include "sim/simulator.h"
#include "stream/sensor_dataset.h"
#include "telemetry/registry.h"

namespace cosmos {
namespace {

class SelfTuneTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TopologyOptions opts;
    opts.num_nodes = 20;
    opts.ba_edges_per_node = 3;
    opts.seed = 77;
    topo_ = GenerateBarabasiAlbert(opts);
  }

  Topology topo_;
};

TEST_F(SelfTuneTest, RequiresOverlay) {
  auto tree = DisseminationTree::FromEdges(
                  20, *MinimumSpanningTree(topo_.graph))
                  .value();
  CosmosSystem system(std::move(tree));
  EXPECT_EQ(system.SelfTune().status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(system.RepairLinks().code(), StatusCode::kFailedPrecondition);
}

TEST_F(SelfTuneTest, CollectFlowsCoversSourcesAndUsers) {
  auto tree = DisseminationTree::FromEdges(
                  20, *MinimumSpanningTree(topo_.graph))
                  .value();
  CosmosSystem system(std::move(tree));
  SensorDataset sensors;
  (void)system.RegisterSource(sensors.SchemaOf(0), 2.0, /*publisher=*/5);
  ASSERT_TRUE(system.AddProcessor(3).ok());
  ASSERT_TRUE(system
                  .SubmitQuery("SELECT ambient_temperature FROM sensor_00",
                               /*user=*/9, nullptr)
                  .ok());
  auto flows = system.CollectFlows();
  ASSERT_EQ(flows.size(), 2u);
  // Source flow 5 -> 3 and result flow 3 -> 9.
  bool source_flow = false, result_flow = false;
  for (const auto& f : flows) {
    if (f.source == 5 && f.sink == 3) source_flow = true;
    if (f.source == 3 && f.sink == 9) result_flow = true;
    EXPECT_GT(f.rate_bps, 0.0);
  }
  EXPECT_TRUE(source_flow);
  EXPECT_TRUE(result_flow);
}

TEST_F(SelfTuneTest, SelfTuneNeverHurtsAndKeepsDelivering) {
  // Start from a random (bad) spanning tree so the optimizer has work.
  Rng rng(3);
  auto bad = DisseminationTree::FromEdges(
                 20, *RandomSpanningTree(topo_.graph, rng))
                 .value();
  CosmosSystem system(std::move(bad));
  system.SetOverlay(topo_.graph);
  SensorDatasetOptions sopts;
  sopts.num_stations = 4;
  sopts.duration = 10 * kMinute;
  SensorDataset sensors(sopts);
  for (int k = 0; k < 4; ++k) {
    (void)system.RegisterSource(sensors.SchemaOf(k),
                                sensors.RatePerStation(), k * 3);
  }
  ASSERT_TRUE(system.AddProcessor(1).ok());
  int hits = 0;
  ASSERT_TRUE(system
                  .SubmitQuery("SELECT ambient_temperature FROM sensor_02",
                               /*user=*/19,
                               [&](const std::string&, const Tuple&) {
                                 ++hits;
                               })
                  .ok());

  auto stats = system.SelfTune();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_LE(stats->final_cost, stats->initial_cost);

  // The rebuilt network still routes results end-to-end.
  auto replay = sensors.MakeReplay();
  ASSERT_TRUE(system.Replay(*replay).ok());
  EXPECT_EQ(hits, 20);
}

TEST_F(SelfTuneTest, SelfTunerClosesTheLoopOnMeasuredRates) {
  // A random (bad) tree, and a catalog whose rate estimates invert
  // reality: the hottest stream is registered as the slowest.
  Rng rng(3);
  auto bad = DisseminationTree::FromEdges(
                 20, *RandomSpanningTree(topo_.graph, rng))
                 .value();
  MetricsRegistry metrics;
  SystemOptions options;
  options.metrics = &metrics;
  CosmosSystem system(std::move(bad), options);
  system.SetOverlay(topo_.graph);

  SensorDatasetOptions sopts;
  sopts.num_stations = 4;
  SensorDataset sensors(sopts);
  const double kClaimedRate[] = {0.01, 0.1, 1.0, 4.0};
  const NodeId kPublisher[] = {2, 6, 11, 17};
  for (int k = 0; k < 4; ++k) {
    ASSERT_TRUE(system
                    .RegisterSource(sensors.SchemaOf(k), kClaimedRate[k],
                                    kPublisher[k])
                    .ok());
  }
  ASSERT_TRUE(system.AddProcessor(1).ok());
  int hits = 0;
  for (int k = 0; k < 4; ++k) {
    ASSERT_TRUE(
        system
            .SubmitQuery(StrFormat(
                             "SELECT ambient_temperature FROM sensor_%02d",
                             k),
                         /*user=*/19 - k,
                         [&](const std::string&, const Tuple&) { ++hits; })
            .ok());
  }

  // Real traffic is Zipf-skewed the *other* way: stream k carries
  // 240/(k+1) tuples over one minute, so sensor_00 is the hot stream.
  const size_t num_measurements =
      SensorDataset::MeasurementAttributes().size();
  auto publish_one = [&](int k, Timestamp ts) {
    std::vector<Value> values;
    values.emplace_back(static_cast<int64_t>(k));
    for (size_t m = 0; m < num_measurements; ++m) values.emplace_back(10.0);
    values.emplace_back(static_cast<int64_t>(ts));
    ASSERT_TRUE(system
                    .PublishSourceTuple(
                        SensorDataset::StreamName(k),
                        Tuple(sensors.SchemaOf(k), std::move(values), ts))
                    .ok());
  };
  for (int k = 0; k < 4; ++k) {
    int count = 240 / (k + 1);
    for (int i = 0; i < count; ++i) {
      publish_one(k, static_cast<Timestamp>(i) * kMinute / count);
    }
  }
  EXPECT_GT(hits, 0);

  SelfTuner tuner(&system);
  auto round = tuner.RunOnce(kMinute);
  ASSERT_TRUE(round.ok()) << round.status().ToString();

  // (a) The drift was detected and the catalog recalibrated: estimates now
  //     match the observed Zipf reality, not the registration-time claims.
  EXPECT_GT(round->max_drift, 1.0);
  EXPECT_EQ(round->streams_recalibrated, 4u);
  EXPECT_NEAR(system.catalog().Lookup("sensor_00")->rate_tuples_per_sec,
              4.0, 0.5);
  EXPECT_NEAR(system.catalog().Lookup("sensor_03")->rate_tuples_per_sec,
              1.0, 0.3);

  // (b) Flows came from measured bytes, (c) the optimizer found a cheaper
  //     tree for the real load and applied it.
  EXPECT_GT(round->flows, 0u);
  EXPECT_TRUE(round->tree_changed);
  EXPECT_LT(round->cost_after, round->cost_before);

  // (d) The loop recorded its own actions as telemetry.
  EXPECT_EQ(metrics.FindCounter("selftune.runs")->value(), 1u);
  EXPECT_EQ(metrics.FindCounter("selftune.recalibrations")->value(), 4u);
  EXPECT_GT(metrics.FindCounter("selftune.tree_changes")->value(), 0u);
  EXPECT_GT(metrics.FindGauge("selftune.max_drift")->value(), 1.0);
  EXPECT_LT(metrics.FindGauge("selftune.cost_after")->value(),
            metrics.FindGauge("selftune.cost_before")->value());

  // The rebuilt network still routes end-to-end.
  int before = hits;
  publish_one(0, kMinute + kSecond);
  EXPECT_EQ(hits, before + 1);
}

TEST_F(SelfTuneTest, SelfTunerRunsPeriodicallyOnTheSimulator) {
  auto tree = DisseminationTree::FromEdges(
                  20, *MinimumSpanningTree(topo_.graph))
                  .value();
  Simulator sim;
  CosmosSystem system(std::move(tree), SystemOptions{}, &sim);
  system.SetOverlay(topo_.graph);
  SelfTunerOptions topts;
  topts.period = 10 * kSecond;
  SelfTuner tuner(&system, topts);
  tuner.Start();
  EXPECT_TRUE(tuner.running());
  sim.RunUntil(35 * kSecond);
  EXPECT_EQ(tuner.rounds_run(), 3u);
  // After Stop the queued round does nothing and schedules no other.
  tuner.Stop();
  EXPECT_FALSE(tuner.running());
  sim.RunUntil(2 * kMinute);
  EXPECT_EQ(tuner.rounds_run(), 3u);
  EXPECT_FALSE(sim.HasPendingEvents());
}

// A system on a simulator whose tuner rounds count into `metrics`.
class SelfTunerLifetimeTest : public SelfTuneTest {
 protected:
  void SetUp() override {
    SelfTuneTest::SetUp();
    SystemOptions options;
    options.metrics = &metrics_;
    system_ = std::make_unique<CosmosSystem>(
        DisseminationTree::FromEdges(20, *MinimumSpanningTree(topo_.graph))
            .value(),
        options, &sim_);
    system_->SetOverlay(topo_.graph);
    topts_.period = 10 * kSecond;
  }

  uint64_t Runs() const {
    const Counter* runs = metrics_.FindCounter("selftune.runs");
    return runs == nullptr ? 0 : runs->value();
  }

  Simulator sim_;
  MetricsRegistry metrics_;
  std::unique_ptr<CosmosSystem> system_;
  SelfTunerOptions topts_;
};

TEST_F(SelfTunerLifetimeTest, SelfTunerRestartedWithinAPeriodRunsOneChain) {
  SelfTuner tuner(system_.get(), topts_);
  tuner.Start();
  sim_.RunUntil(15 * kSecond);  // round at 10 s; the next is queued at 20 s
  ASSERT_EQ(tuner.rounds_run(), 1u);
  tuner.Stop();
  tuner.Start();  // the new chain's rounds fall at 25, 35, 45 s
  sim_.RunUntil(24 * kSecond);
  EXPECT_EQ(tuner.rounds_run(), 1u);  // the old chain's 20 s round is inert
  sim_.RunUntil(25 * kSecond);
  EXPECT_EQ(tuner.rounds_run(), 2u);
  sim_.RunUntil(50 * kSecond);
  EXPECT_EQ(tuner.rounds_run(), 4u);
  EXPECT_EQ(Runs(), 4u);
}

TEST_F(SelfTunerLifetimeTest, SelfTunerDestroyedAfterStopLeavesNoLiveRound) {
  {
    SelfTuner tuner(system_.get(), topts_);
    tuner.Start();
    sim_.RunUntil(15 * kSecond);
    tuner.Stop();
  }  // its 20 s round is still queued
  sim_.RunUntil(kMinute);
  EXPECT_EQ(Runs(), 1u);
  EXPECT_FALSE(sim_.HasPendingEvents());
}

TEST_F(SelfTunerLifetimeTest, SelfTunerDestroyedWhileRunningLeavesNoLiveRound) {
  {
    SelfTuner tuner(system_.get(), topts_);
    tuner.Start();
    sim_.RunUntil(15 * kSecond);
  }  // destroyed running, its 20 s round still queued
  sim_.RunUntil(kMinute);
  EXPECT_EQ(Runs(), 1u);
  EXPECT_FALSE(sim_.HasPendingEvents());
}

TEST_F(SelfTuneTest, FailAndRepairThroughSystem) {
  auto mst = DisseminationTree::FromEdges(
                 20, *MinimumSpanningTree(topo_.graph))
                 .value();
  Edge victim = mst.edges()[2];
  CosmosSystem system(std::move(mst));
  system.SetOverlay(topo_.graph);
  SensorDatasetOptions sopts;
  sopts.num_stations = 2;
  sopts.duration = 5 * kMinute;
  SensorDataset sensors(sopts);
  for (int k = 0; k < 2; ++k) {
    (void)system.RegisterSource(sensors.SchemaOf(k),
                                sensors.RatePerStation(), k);
  }
  ASSERT_TRUE(system.AddProcessor(4).ok());
  int hits = 0;
  ASSERT_TRUE(system
                  .SubmitQuery("SELECT ambient_temperature FROM sensor_01",
                               /*user=*/15,
                               [&](const std::string&, const Tuple&) {
                                 ++hits;
                               })
                  .ok());
  ASSERT_TRUE(system.FailLink(victim.u, victim.v).ok());
  auto replay = sensors.MakeReplay();
  ASSERT_TRUE(system.Replay(*replay).ok());
  ASSERT_TRUE(system.RepairLinks().ok());
  // Whatever was cut off arrives after the repair; total deliveries equal
  // the full replay volume.
  EXPECT_EQ(hits, 10);
}

}  // namespace
}  // namespace cosmos
