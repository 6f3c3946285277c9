// System option matrix: early projection exercised end-to-end through
// CosmosSystem, plus the size of the advertisement-scoped routing state the
// system installs.

#include <gtest/gtest.h>

#include "core/system.h"
#include "stream/sensor_dataset.h"

namespace cosmos {
namespace {

DisseminationTree ChainTree(int n) {
  std::vector<Edge> edges;
  for (int i = 0; i + 1 < n; ++i) edges.push_back(Edge{i, i + 1, 1.0});
  return DisseminationTree::FromEdges(n, edges).value();
}

int RunScenario(SystemOptions options) {
  SensorDatasetOptions sopts;
  sopts.num_stations = 3;
  sopts.duration = 10 * kMinute;
  SensorDataset sensors(sopts);
  CosmosSystem system(ChainTree(5), options);
  for (int k = 0; k < 3; ++k) {
    EXPECT_TRUE(system
                    .RegisterSource(sensors.SchemaOf(k),
                                    sensors.RatePerStation(), k)
                    .ok());
  }
  EXPECT_TRUE(system.AddProcessor(2).ok());
  int hits = 0;
  EXPECT_TRUE(system
                  .SubmitQuery(
                      "SELECT ambient_temperature FROM sensor_01 WHERE "
                      "ambient_temperature BETWEEN -100 AND 100",
                      4,
                      [&](const std::string&, const Tuple&) { ++hits; })
                  .ok());
  auto replay = sensors.MakeReplay();
  EXPECT_TRUE(system.Replay(*replay).ok());
  return hits;
}

TEST(SystemOptionsMatrix, AllCombinationsDeliverIdentically) {
  std::vector<int> results;
  for (bool proj : {false, true}) {
    SystemOptions options;
    options.network.early_projection = proj;
    results.push_back(RunScenario(options));
  }
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0], 20);
  for (int r : results) {
    EXPECT_EQ(r, results[0]);
  }
}

TEST(SystemOptionsMatrix, AdvertisementScopingShrinksSystemTables) {
  // Chain 0 - 1 - ... - 11: sources at 0, processor at 1, user at 2. The
  // processor's source subscription needs the one link 0->1, the user's
  // result subscription the one link 1->2: two entries, against 2 × 11 for
  // two subscriptions flooded over the tree.
  SensorDatasetOptions sopts;
  sopts.num_stations = 3;
  SensorDataset sensors(sopts);
  CosmosSystem system(ChainTree(12));
  for (int k = 0; k < 3; ++k) {
    ASSERT_TRUE(system
                    .RegisterSource(sensors.SchemaOf(k),
                                    sensors.RatePerStation(), 0)
                    .ok());
  }
  ASSERT_TRUE(system.AddProcessor(1).ok());
  ASSERT_TRUE(system
                  .SubmitQuery("SELECT ambient_temperature FROM sensor_00", 2,
                               nullptr)
                  .ok());
  size_t subscriptions = 0;
  system.network().ForEachSubscription(
      [&](NodeId, const Profile&) { ++subscriptions; });
  EXPECT_EQ(subscriptions, 2u);
  EXPECT_EQ(system.network().TotalTableEntries(), 2u);
}

}  // namespace
}  // namespace cosmos
