// Measured stream rates. They have one source: the CBN ledger's
// cbn.published{stream} and cbn.published_bytes{stream} counters, read
// through ContentBasedNetwork::published_by_stream(). A SelfTuner round
// reads rates as the growth since its previous round over the time since
// it; CosmosSystem::CalibrateRates() reads them over the event-time span
// published so far. (The suite is named for the job, rate monitoring.)

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/self_tuner.h"
#include "core/system.h"
#include "stream/sensor_dataset.h"

namespace cosmos {
namespace {

std::unique_ptr<CosmosSystem> TwoNodeSystem() {
  std::vector<Edge> edges = {{0, 1, 1.0}};
  return std::make_unique<CosmosSystem>(
      DisseminationTree::FromEdges(2, edges).value());
}

std::shared_ptr<const Schema> OneColumn(const std::string& stream) {
  return std::make_shared<Schema>(
      stream, std::vector<AttributeDef>{{"x", ValueType::kInt64}});
}

// Registers `stream` at node 0 with the rate estimate `rate`.
void AddSource(CosmosSystem& system, const std::string& stream,
               double rate) {
  ASSERT_TRUE(system.RegisterSource(OneColumn(stream), rate, 0).ok());
}

// Publishes `n` tuples of `stream`, evenly spaced over [from, from + span).
void PublishEvenly(CosmosSystem& system, const std::string& stream, int n,
                   Timestamp from, Duration span) {
  auto schema = system.catalog().LookupSchema(stream).value();
  for (int i = 0; i < n; ++i) {
    Timestamp ts = from + span * i / n;
    ASSERT_TRUE(system
                    .PublishSourceTuple(
                        stream, Tuple(schema, {Value(int64_t{i})}, ts))
                    .ok());
  }
}

double CatalogRate(const CosmosSystem& system, const std::string& stream) {
  return system.catalog().Lookup(stream)->rate_tuples_per_sec;
}

TEST(RateMonitor, EmptyMonitorReportsZero) {
  auto system = TwoNodeSystem();
  AddSource(*system, "s", 5.0);
  EXPECT_EQ(system->CalibrateRates(), 0u);
  SelfTuner tuner(system.get());
  auto round = tuner.RunOnce(kMinute);
  ASSERT_TRUE(round.ok());
  EXPECT_DOUBLE_EQ(round->max_drift, 0.0);
  EXPECT_EQ(round->streams_recalibrated, 0u);
  EXPECT_EQ(round->flows, 0u);
  EXPECT_DOUBLE_EQ(CatalogRate(*system, "s"), 5.0);
}

TEST(RateMonitor, SteadyRateMeasuredCorrectly) {
  auto system = TwoNodeSystem();
  AddSource(*system, "s", 1.0);
  // 2 tuples/second for 30 seconds.
  PublishEvenly(*system, "s", 60, 0, 30 * kSecond);
  const StreamTraffic ledger =
      system->network().published_by_stream().at("s");
  EXPECT_EQ(ledger.tuples, 60u);
  const Datagram one{"s", Tuple(system->catalog().LookupSchema("s").value(),
                                {Value(int64_t{0})}, 0)};
  EXPECT_EQ(ledger.bytes, 60 * one.SerializedSize());
  SelfTuner tuner(system.get());
  auto round = tuner.RunOnce(30 * kSecond);
  ASSERT_TRUE(round.ok());
  EXPECT_NEAR(round->max_drift, 1.0, 1e-9);
  EXPECT_EQ(round->streams_recalibrated, 1u);
  EXPECT_NEAR(CatalogRate(*system, "s"), 2.0, 1e-9);
}

TEST(RateMonitor, WindowForgetsOldTraffic) {
  // A round's window is the time since the previous round: the second
  // round reflects only its own traffic.
  auto system = TwoNodeSystem();
  AddSource(*system, "s", 1.0);
  SelfTuner tuner(system.get());
  PublishEvenly(*system, "s", 120, 0, 30 * kSecond);  // 4/s
  ASSERT_TRUE(tuner.RunOnce(30 * kSecond).ok());
  EXPECT_NEAR(CatalogRate(*system, "s"), 4.0, 1e-9);
  PublishEvenly(*system, "s", 15, 30 * kSecond, 30 * kSecond);  // 0.5/s
  auto round = tuner.RunOnce(60 * kSecond);
  ASSERT_TRUE(round.ok());
  EXPECT_NEAR(round->max_drift, 0.875, 1e-9);  // |0.5 / 4 - 1|
  EXPECT_NEAR(CatalogRate(*system, "s"), 0.5, 1e-9);
}

TEST(RateMonitor, BurstThenIdleDecays) {
  // A stream that published nothing in a round is skipped: no drift, no
  // recalibration, no flow, and the catalog keeps the burst's rate.
  auto system = TwoNodeSystem();
  AddSource(*system, "s", 1.0);
  ASSERT_TRUE(system->AddProcessor(1).ok());
  ASSERT_TRUE(system->SubmitQuery("SELECT x FROM s", 1, nullptr).ok());
  SelfTuner tuner(system.get());
  PublishEvenly(*system, "s", 100, 0, kSecond);  // burst
  auto burst = tuner.RunOnce(10 * kSecond);
  ASSERT_TRUE(burst.ok());
  EXPECT_EQ(burst->streams_recalibrated, 1u);
  EXPECT_GT(burst->flows, 0u);
  auto idle = tuner.RunOnce(20 * kSecond);
  ASSERT_TRUE(idle.ok());
  EXPECT_DOUBLE_EQ(idle->max_drift, 0.0);
  EXPECT_EQ(idle->streams_recalibrated, 0u);
  EXPECT_EQ(idle->flows, 0u);
  EXPECT_NEAR(CatalogRate(*system, "s"), 10.0, 1e-9);
}

TEST(RateMonitor, PerStreamIsolation) {
  auto system = TwoNodeSystem();
  AddSource(*system, "a", 1.0);
  AddSource(*system, "b", 1.0);
  PublishEvenly(*system, "a", 20, 0, 10 * kSecond);
  PublishEvenly(*system, "b", 5, 0, 10 * kSecond);
  SelfTuner tuner(system.get());
  auto round = tuner.RunOnce(10 * kSecond);
  ASSERT_TRUE(round.ok());
  EXPECT_EQ(round->streams_recalibrated, 2u);
  EXPECT_NEAR(CatalogRate(*system, "a"), 2.0, 1e-9);
  EXPECT_NEAR(CatalogRate(*system, "b"), 0.5, 1e-9);
}

TEST(RateMonitor, SpanSecondsClipsToObservedDataEarlyOn) {
  // 5 tuples over 4 seconds: CalibrateRates averages over the 4 observed
  // seconds, and never over less than 1 second.
  auto system = TwoNodeSystem();
  AddSource(*system, "s", 1.0);
  PublishEvenly(*system, "s", 5, 0, 5 * kSecond);
  EXPECT_EQ(system->CalibrateRates(), 1u);
  EXPECT_NEAR(CatalogRate(*system, "s"), 1.25, 0.01);
  // A single sample spans the 1-second floor: finite rate.
  auto single = TwoNodeSystem();
  AddSource(*single, "t", 9.0);
  PublishEvenly(*single, "t", 1, 7 * kSecond, kSecond);
  EXPECT_EQ(single->CalibrateRates(), 1u);
  EXPECT_NEAR(CatalogRate(*single, "t"), 1.0, 1e-9);
}

TEST(RateMonitor, MaxDriftRatioComparesObservedToCatalog) {
  auto system = TwoNodeSystem();
  AddSource(*system, "s", 1.0);
  SelfTuner tuner(system.get());
  // Measured 3 tuples/sec against an estimate of 1 => drift 2.0.
  PublishEvenly(*system, "s", 90, 0, 30 * kSecond);
  // Streams unknown to the catalog are ignored, however hot.
  auto mystery = OneColumn("mystery");
  for (int i = 0; i < 500; ++i) {
    system->network().Publish(
        0, Datagram{"mystery", Tuple(mystery, {Value(int64_t{i})}, 0)});
  }
  auto round = tuner.RunOnce(30 * kSecond);
  ASSERT_TRUE(round.ok());
  EXPECT_NEAR(round->max_drift, 2.0, 1e-9);
  EXPECT_EQ(round->streams_recalibrated, 1u);
  EXPECT_FALSE(system->catalog().HasStream("mystery"));
  // After recalibration the drift collapses at the same rate.
  PublishEvenly(*system, "s", 90, 30 * kSecond, 30 * kSecond);
  round = tuner.RunOnce(60 * kSecond);
  ASSERT_TRUE(round.ok());
  EXPECT_LT(round->max_drift, 0.01);
  EXPECT_EQ(round->streams_recalibrated, 0u);
}

TEST(RateMonitor, CalibrateCatalogWritesObservedRates) {
  auto system = TwoNodeSystem();
  AddSource(*system, "s", 999.0);
  PublishEvenly(*system, "s", 20, 0, 20 * kSecond);
  system->network().Publish(
      0, Datagram{"unknown_stream",
                  Tuple(OneColumn("unknown_stream"), {Value(int64_t{0})},
                        0)});
  EXPECT_EQ(system->CalibrateRates(), 1u);
  EXPECT_NEAR(CatalogRate(*system, "s"), 1.0, 0.2);
}

TEST(RateMonitor, SystemObservesReplayAndCalibrates) {
  std::vector<Edge> edges = {{0, 1, 1.0}};
  CosmosSystem system(DisseminationTree::FromEdges(2, edges).value());
  SensorDatasetOptions sopts;
  sopts.num_stations = 2;
  sopts.duration = 10 * kMinute;
  sopts.sampling_period = 30 * kSecond;
  SensorDataset sensors(sopts);
  for (int k = 0; k < 2; ++k) {
    // Deliberately wrong initial estimates.
    ASSERT_TRUE(
        system.RegisterSource(sensors.SchemaOf(k), 123.0, 0).ok());
  }
  auto replay = sensors.MakeReplay();
  ASSERT_TRUE(system.Replay(*replay).ok());
  EXPECT_EQ(system.network().published_by_stream().at("sensor_00").tuples,
            20u);
  EXPECT_EQ(system.CalibrateRates(), 2u);
  // True rate: one tuple per 30 seconds.
  EXPECT_NEAR(system.catalog().Lookup("sensor_00")->rate_tuples_per_sec,
              1.0 / 30.0, 0.01);
}

}  // namespace
}  // namespace cosmos
