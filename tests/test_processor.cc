#include "core/processor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/string_util.h"

#include "stream/auction_dataset.h"

namespace cosmos {
namespace {

// n0 (processor + sources) - n1 - n2, n1 - n3 (users at n2/n3).
class ProcessorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tree_ = std::make_unique<DisseminationTree>(
        DisseminationTree::FromEdges(
            4, {Edge{0, 1, 1.0}, Edge{1, 2, 1.0}, Edge{1, 3, 1.0}})
            .value());
    network_ = std::make_unique<ContentBasedNetwork>(*tree_);
    AuctionDataset auctions;
    ASSERT_TRUE(auctions.RegisterAll(catalog_).ok());
  }

  std::unique_ptr<Processor> MakeProcessor(bool merging = true) {
    ProcessorOptions opts;
    opts.enable_merging = merging;
    return std::make_unique<Processor>(0, &catalog_, network_.get(), opts);
  }

  Tuple Open(int64_t item, double price, Timestamp ts) {
    return Tuple(AuctionDataset::OpenAuctionSchema(),
                 {Value(item), Value(int64_t{1}), Value(price),
                  Value(static_cast<int64_t>(ts))},
                 ts);
  }

  Catalog catalog_;
  std::unique_ptr<DisseminationTree> tree_;
  std::unique_ptr<ContentBasedNetwork> network_;
};

TEST_F(ProcessorTest, SubmitInstallsRepresentativeAndDelivers) {
  auto proc = MakeProcessor();
  int hits = 0;
  ASSERT_TRUE(proc->SubmitQuery("q1",
                                "SELECT itemID FROM OpenAuction WHERE "
                                "start_price > 100",
                                /*user_node=*/2,
                                [&](const std::string&, const Tuple&) {
                                  ++hits;
                                })
                  .ok());
  EXPECT_EQ(proc->num_queries(), 1u);
  EXPECT_EQ(proc->num_installed_representatives(), 1u);
  network_->Publish(0, Datagram{"OpenAuction", Open(1, 150, 0)});
  network_->Publish(0, Datagram{"OpenAuction", Open(2, 50, 1)});
  EXPECT_EQ(hits, 1);
}

TEST_F(ProcessorTest, BadQueryRejectedAndStateClean) {
  auto proc = MakeProcessor();
  EXPECT_FALSE(proc->SubmitQuery("bad", "SELECT nothing FROM nowhere", 2,
                                 nullptr)
                   .ok());
  EXPECT_EQ(proc->num_queries(), 0u);
  EXPECT_EQ(proc->grouping().num_queries(), 0u);
}

TEST_F(ProcessorTest, DuplicateIdRejected) {
  auto proc = MakeProcessor();
  ASSERT_TRUE(
      proc->SubmitQuery("q", "SELECT itemID FROM OpenAuction", 2, nullptr)
          .ok());
  EXPECT_EQ(proc->SubmitQuery("q", "SELECT itemID FROM OpenAuction", 2,
                              nullptr)
                .code(),
            StatusCode::kAlreadyExists);
}

TEST_F(ProcessorTest, MergedQueriesShareOneRepresentative) {
  auto proc = MakeProcessor(/*merging=*/true);
  int hits2 = 0, hits3 = 0;
  ASSERT_TRUE(proc->SubmitQuery("q1",
                                "SELECT itemID, start_price FROM "
                                "OpenAuction WHERE "
                                "start_price >= 100 AND start_price <= 500",
                                2,
                                [&](const std::string&, const Tuple&) {
                                  ++hits2;
                                })
                  .ok());
  ASSERT_TRUE(proc->SubmitQuery("q2",
                                "SELECT itemID, start_price FROM "
                                "OpenAuction WHERE "
                                "start_price >= 300 AND start_price <= 800",
                                3,
                                [&](const std::string&, const Tuple&) {
                                  ++hits3;
                                })
                  .ok());
  EXPECT_EQ(proc->grouping().num_groups(), 1u);
  EXPECT_EQ(proc->num_installed_representatives(), 1u);

  network_->Publish(0, Datagram{"OpenAuction", Open(1, 200, 0)});  // q1 only
  network_->Publish(0, Datagram{"OpenAuction", Open(2, 400, 1)});  // both
  network_->Publish(0, Datagram{"OpenAuction", Open(3, 700, 2)});  // q2 only
  network_->Publish(0, Datagram{"OpenAuction", Open(4, 900, 3)});  // neither
  EXPECT_EQ(hits2, 2);
  EXPECT_EQ(hits3, 2);
}

TEST_F(ProcessorTest, UnmergedProcessorKeepsQueriesSeparate) {
  auto proc = MakeProcessor(/*merging=*/false);
  ASSERT_TRUE(proc->SubmitQuery("q1", "SELECT itemID FROM OpenAuction", 2,
                                nullptr)
                  .ok());
  ASSERT_TRUE(proc->SubmitQuery("q2", "SELECT itemID FROM OpenAuction", 3,
                                nullptr)
                  .ok());
  EXPECT_EQ(proc->grouping().num_groups(), 2u);
  EXPECT_EQ(proc->num_installed_representatives(), 2u);
}

TEST_F(ProcessorTest, LateJoinerStillGetsOnlyItsResults) {
  auto proc = MakeProcessor();
  int hits_q1 = 0, hits_q2 = 0;
  ASSERT_TRUE(proc->SubmitQuery("q1",
                                "SELECT itemID, start_price FROM "
                                "OpenAuction WHERE "
                                "start_price >= 100 AND start_price <= 200",
                                2,
                                [&](const std::string&, const Tuple&) {
                                  ++hits_q1;
                                })
                  .ok());
  network_->Publish(0, Datagram{"OpenAuction", Open(1, 150, 0)});
  EXPECT_EQ(hits_q1, 1);
  // Second query widens the group (version bump + resubscription of q1).
  ASSERT_TRUE(proc->SubmitQuery("q2",
                                "SELECT itemID, start_price FROM "
                                "OpenAuction WHERE "
                                "start_price >= 150 AND start_price <= 400",
                                3,
                                [&](const std::string&, const Tuple&) {
                                  ++hits_q2;
                                })
                  .ok());
  network_->Publish(0, Datagram{"OpenAuction", Open(2, 180, 1)});  // both
  network_->Publish(0, Datagram{"OpenAuction", Open(3, 300, 2)});  // q2 only
  EXPECT_EQ(hits_q1, 2);
  EXPECT_EQ(hits_q2, 2);
}

TEST_F(ProcessorTest, RetiredResultSchemaIsFreedOnceTheNetworkDrains) {
  // A version change retires the group's result stream and, with its SPE
  // query, the schema of its result tuples. Once the hops that carried
  // them have landed, nothing in the network may keep that schema alive:
  // projection plans live in the buckets and subscribers that use them,
  // and those go with the old stream's subscriptions.
  Simulator sim;
  ContentBasedNetwork net(*tree_, NetworkOptions{}, &sim);
  Processor proc(0, &catalog_, &net, ProcessorOptions{});
  int hits = 0;
  auto count = [&](const std::string&, const Tuple&) { ++hits; };
  ASSERT_TRUE(proc.SubmitQuery("q1",
                               "SELECT itemID, start_price FROM OpenAuction "
                               "WHERE start_price >= 100 AND "
                               "start_price <= 200",
                               2, count)
                  .ok());
  // An observer of the whole result stream sees the SPE's own schema.
  Profile whole;
  whole.AddStream(proc.grouping().GroupOf("q1")->ResultStreamName());
  std::weak_ptr<const Schema> retired;
  ProfileId observer =
      net.Subscribe(3, whole, [&](const std::string&, const Tuple& t) {
        retired = t.schema();
      });
  net.Publish(0, Datagram{"OpenAuction", Open(1, 150, 0)});
  sim.Run();
  ASSERT_FALSE(retired.expired());
  const uint64_t version = proc.grouping().GroupOf("q1")->version;

  // q2 widens the group: a new version on a new result stream.
  ASSERT_TRUE(proc.SubmitQuery("q2",
                               "SELECT itemID, start_price FROM OpenAuction "
                               "WHERE start_price >= 150 AND "
                               "start_price <= 400",
                               3, count)
                  .ok());
  ASSERT_GT(proc.grouping().GroupOf("q1")->version, version);
  ASSERT_TRUE(net.Unsubscribe(observer));
  net.Publish(0, Datagram{"OpenAuction", Open(2, 180, 1)});
  sim.Run();
  EXPECT_EQ(hits, 3);  // q1 twice, q2 once
  EXPECT_TRUE(retired.expired());
}

TEST_F(ProcessorTest, RemoveQueryStopsItsDeliveries) {
  auto proc = MakeProcessor();
  int hits1 = 0, hits2 = 0;
  ASSERT_TRUE(proc->SubmitQuery(
                      "q1", "SELECT itemID FROM OpenAuction", 2,
                      [&](const std::string&, const Tuple&) { ++hits1; })
                  .ok());
  ASSERT_TRUE(proc->SubmitQuery(
                      "q2", "SELECT itemID FROM OpenAuction", 3,
                      [&](const std::string&, const Tuple&) { ++hits2; })
                  .ok());
  ASSERT_TRUE(proc->RemoveQuery("q1").ok());
  EXPECT_EQ(proc->RemoveQuery("q1").code(), StatusCode::kNotFound);
  network_->Publish(0, Datagram{"OpenAuction", Open(1, 10, 0)});
  EXPECT_EQ(hits1, 0);
  EXPECT_EQ(hits2, 1);
}

TEST_F(ProcessorTest, RemovingLastQueryTearsDownEverything) {
  auto proc = MakeProcessor();
  ASSERT_TRUE(proc->SubmitQuery("q", "SELECT itemID FROM OpenAuction", 2,
                                nullptr)
                  .ok());
  ASSERT_TRUE(proc->RemoveQuery("q").ok());
  EXPECT_EQ(proc->num_installed_representatives(), 0u);
  // No dangling subscriptions: publishing moves no bytes.
  network_->ResetStats();
  network_->Publish(0, Datagram{"OpenAuction", Open(1, 10, 0)});
  EXPECT_EQ(network_->total_bytes(), 0u);
  EXPECT_EQ(network_->total_deliveries(), 0u);
}

TEST_F(ProcessorTest, SourceSubscriptionIsShared) {
  // Two singleton groups over the same stream: the processor holds one
  // merged source subscription, so each source tuple enters the SPE once.
  auto proc = MakeProcessor(/*merging=*/false);
  int hits1 = 0, hits2 = 0;
  ASSERT_TRUE(proc->SubmitQuery(
                      "q1", "SELECT itemID FROM OpenAuction", 2,
                      [&](const std::string&, const Tuple&) { ++hits1; })
                  .ok());
  ASSERT_TRUE(proc->SubmitQuery(
                      "q2", "SELECT itemID FROM OpenAuction", 3,
                      [&](const std::string&, const Tuple&) { ++hits2; })
                  .ok());
  network_->Publish(0, Datagram{"OpenAuction", Open(1, 10, 0)});
  EXPECT_EQ(hits1, 1);  // not 2: no duplicate source delivery
  EXPECT_EQ(hits2, 1);
}

// Submits a wide query q1 at node 2 and two disjoint narrow ones, q2 at
// node 3 and q3 at node 2, that merge into q1's group; hits[i] counts the
// results of query i+1.
void SubmitWideAndTwoNarrow(Processor& proc, std::vector<int>& hits) {
  const char* ranges[] = {"start_price >= 0 AND start_price <= 1000",
                          "start_price >= 100 AND start_price <= 200",
                          "start_price >= 300 AND start_price <= 400"};
  const NodeId users[] = {2, 3, 2};
  hits.assign(3, 0);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(proc.SubmitQuery(
                        StrFormat("q%d", i + 1),
                        std::string("SELECT itemID, start_price FROM "
                                    "OpenAuction WHERE ") +
                            ranges[i],
                        users[i],
                        [&hits, i](const std::string&, const Tuple&) {
                          ++hits[i];
                        })
                    .ok());
  }
  ASSERT_EQ(proc.grouping().num_groups(), 1u);
}

std::set<ProfileId> LocalProfileIds(const ContentBasedNetwork& net) {
  std::set<ProfileId> ids;
  for (NodeId n = 0; n < net.num_nodes(); ++n) {
    for (const auto& [id, profile] : net.router(n).local_profiles()) {
      ids.insert(id);
    }
  }
  return ids;
}

TEST_F(ProcessorTest, RemovalKeepingTheRepresentativeKeepsSubscriptions) {
  auto proc = MakeProcessor();
  std::vector<int> hits;
  SubmitWideAndTwoNarrow(*proc, hits);
  const QueryGroup* group = proc->grouping().GroupOf("q1");
  const uint64_t version = group->version;
  const std::string stream = group->ResultStreamName();
  std::set<ProfileId> before = LocalProfileIds(*network_);
  const uint64_t messages = network_->control_messages();

  // q1 alone still needs the whole representative.
  ASSERT_TRUE(proc->RemoveQuery("q2").ok());
  group = proc->grouping().GroupOf("q1");
  EXPECT_EQ(group->version, version);
  EXPECT_EQ(group->ResultStreamName(), stream);
  // Only q2's user profile left; nothing was pruned under it, so the
  // removal sends no control message.
  std::set<ProfileId> after = LocalProfileIds(*network_);
  EXPECT_EQ(after.size() + 1, before.size());
  EXPECT_TRUE(std::includes(before.begin(), before.end(), after.begin(),
                            after.end()));
  EXPECT_EQ(network_->control_messages(), messages);

  network_->Publish(0, Datagram{"OpenAuction", Open(1, 150, 0)});
  network_->Publish(0, Datagram{"OpenAuction", Open(2, 350, 1)});
  EXPECT_EQ(hits, (std::vector<int>{2, 0, 1}));
}

TEST_F(ProcessorTest, RemovalNarrowingTheRepresentativeBumpsTheVersion) {
  auto proc = MakeProcessor();
  std::vector<int> hits;
  SubmitWideAndTwoNarrow(*proc, hits);
  const uint64_t version = proc->grouping().GroupOf("q2")->version;
  std::set<ProfileId> before = LocalProfileIds(*network_);

  ASSERT_TRUE(proc->RemoveQuery("q1").ok());
  const QueryGroup* group = proc->grouping().GroupOf("q2");
  EXPECT_GT(group->version, version);
  // Both members moved to the new result stream with fresh profiles.
  std::set<ProfileId> after = LocalProfileIds(*network_);
  for (ProfileId id : after) EXPECT_EQ(before.count(id), 0u) << id;

  network_->ResetStats();
  network_->Publish(0, Datagram{"OpenAuction", Open(1, 150, 0)});
  network_->Publish(0, Datagram{"OpenAuction", Open(2, 350, 1)});
  network_->Publish(0, Datagram{"OpenAuction", Open(3, 600, 2)});
  EXPECT_EQ(hits, (std::vector<int>{0, 1, 1}));
  // One source delivery into the processor and one user delivery per
  // matching tuple: the narrowed representative drops the 600 tuple.
  EXPECT_EQ(network_->total_deliveries(), 4u);
}

}  // namespace
}  // namespace cosmos
