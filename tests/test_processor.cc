#include "core/processor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "cbn/covering.h"
#include "common/random.h"
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

// ---- Per-stream source subscriptions ----

// Four streams s0..s3 of one schema (id, a, b, c), published at nodes 2, 3,
// 4 and 3 of the tree 0 - 1 - 2, 1 - 3, 0 - 4; the processor sits at node 0
// and every user at node 0, so only source subscriptions install routes.
class SourceSubscriptionTest : public ::testing::Test {
 protected:
  static constexpr int kStreams = 4;
  static constexpr NodeId kPublisher[kStreams] = {2, 3, 4, 3};

  // Also called by a test to start over on a fresh network.
  void SetUp() override {
    catalog_ = Catalog();
    schemas_.clear();
    tree_ = std::make_unique<DisseminationTree>(
        DisseminationTree::FromEdges(5, {Edge{0, 1, 1.0}, Edge{1, 2, 1.0},
                                         Edge{1, 3, 1.0}, Edge{0, 4, 1.0}})
            .value());
    network_ = std::make_unique<ContentBasedNetwork>(*tree_);
    for (int s = 0; s < kStreams; ++s) {
      schemas_.push_back(std::make_shared<Schema>(
          StreamName(s),
          std::vector<AttributeDef>{{"id", ValueType::kInt64, 0, 3},
                                    {"a", ValueType::kDouble, 0, 100},
                                    {"b", ValueType::kDouble, 0, 100},
                                    {"c", ValueType::kDouble, 0, 100}}));
      ASSERT_TRUE(
          catalog_.RegisterStream(schemas_.back(), 1.0, kPublisher[s]).ok());
      network_->Advertise(kPublisher[s], StreamName(s));
    }
  }

  static std::string StreamName(int s) { return StrFormat("s%d", s); }

  Tuple Row(int s, int64_t id, double a, double b, double c,
            Timestamp ts = 0) const {
    return Tuple(schemas_[s], {Value(id), Value(a), Value(b), Value(c)}, ts);
  }

  // The processor's subscriptions at node 0, by the stream each requests.
  std::map<std::string, std::vector<const Profile*>> SourceProfiles() const {
    std::map<std::string, std::vector<const Profile*>> out;
    for (const auto& [id, profile] : network_->router(0).local_profiles()) {
      for (const std::string& stream : profile->streams()) {
        if (stream.rfind("p0_", 0) == 0) continue;  // a result stream
        out[stream].push_back(profile.get());
      }
    }
    return out;
  }

  ProfileId SubscriptionOf(const std::string& stream) const {
    for (const auto& [id, profile] : network_->router(0).local_profiles()) {
      if (profile->WantsStream(stream)) return id;
    }
    return 0;
  }

  Catalog catalog_;
  std::vector<std::shared_ptr<const Schema>> schemas_;
  std::unique_ptr<DisseminationTree> tree_;
  std::unique_ptr<ContentBasedNetwork> network_;
};

// The union of every group's source profile rebuilt from scratch, as one
// profile: the single merged subscription processors used to hold.
Profile FromScratchUnion(const Processor& proc) {
  bool any = false;
  Profile merged;
  for (const auto& [gid, group] : proc.grouping().groups()) {
    Profile p = ComposeSourceProfile(group.representative);
    merged = any ? MergeProfiles(merged, p) : std::move(p);
    any = true;
  }
  return merged;
}

std::vector<std::string> SortedRequired(const Profile& p,
                                        const std::string& stream) {
  std::vector<std::string> out = p.RequiredAttributes(stream);
  std::sort(out.begin(), out.end());
  return out;
}

// A random query over the four streams: select-project, windowed
// aggregate (some reading no attribute, so needing all of them) or a
// two-stream window join.
std::string RandomQuery(Rng& rng) {
  const auto stream = [&] {
    return StrFormat("s%d", static_cast<int>(rng.NextBounded(4)));
  };
  const auto range = [&](const char* attr) {
    const int64_t lo = 10 * rng.NextInt(0, 8);
    return StrFormat("%s >= %lld AND %s <= %lld", attr,
                     static_cast<long long>(lo), attr,
                     static_cast<long long>(lo + 10 * rng.NextInt(1, 4)));
  };
  // Draws happen in statement order, so a seed gives the same queries
  // whatever order a compiler evaluates call arguments in.
  const char* attrs[] = {"a", "b", "c"};
  const uint64_t kind = rng.NextBounded(6);
  const std::string from = stream();
  switch (kind) {
    case 0:
    case 1: {
      const char* projected = attrs[rng.NextBounded(3)];
      const std::string where = range(attrs[rng.NextBounded(2)]);
      return StrFormat("SELECT id, %s FROM %s WHERE %s", projected,
                       from.c_str(), where.c_str());
    }
    case 2:
      return StrFormat("SELECT * FROM %s WHERE %s", from.c_str(),
                       range("a").c_str());
    case 3:
      return StrFormat("SELECT COUNT(*) FROM %s [Range 5 Second]",
                       from.c_str());
    case 4:
      return StrFormat("SELECT id, MAX(c) FROM %s [Range 5 Second] WHERE %s "
                       "GROUP BY id",
                       from.c_str(), range("b").c_str());
    default: {
      const int left = static_cast<int>(rng.NextBounded(4));
      const int right = (left + 1 + static_cast<int>(rng.NextBounded(3))) % 4;
      return StrFormat("SELECT X.id, Y.b FROM s%d [Range 5 Second] X, "
                       "s%d [Range 5 Second] Y WHERE X.id = Y.id AND %s",
                       left, right, range("X.a").c_str());
    }
  }
}

TEST_F(SourceSubscriptionTest, PerStreamSubscriptionsEqualAFromScratchUnion) {
  // Random submits and removals, merging on and off. After every step each
  // source stream has exactly one subscription at the processor, and it
  // covers what the from-scratch union covers (checked on a grid of
  // tuples) and requires the same attributes. A tuple enters the SPE once
  // per stream whose union covers it.
  for (bool merging : {true, false}) {
    for (uint64_t seed : {1, 2, 3}) {
      SetUp();
      ProcessorOptions opts;
      opts.enable_merging = merging;
      Processor proc(0, &catalog_, network_.get(), opts);
      Rng rng(seed * 31 + (merging ? 1 : 0));
      std::vector<std::string> live;
      int next = 0;
      for (int step = 0; step < 80; ++step) {
        SCOPED_TRACE(StrFormat("merging %d seed %llu step %d", merging,
                               static_cast<unsigned long long>(seed), step));
        if (live.empty() || rng.NextBool(0.6)) {
          const std::string id = StrFormat("q%d", next++);
          const std::string cql = RandomQuery(rng);
          ASSERT_TRUE(proc.SubmitQuery(id, cql, 0, nullptr).ok()) << cql;
          live.push_back(id);
        } else {
          const size_t pick = rng.NextBounded(live.size());
          ASSERT_TRUE(proc.RemoveQuery(live[pick]).ok());
          live.erase(live.begin() + static_cast<long>(pick));
        }

        // Each step publishes 10 s after the last, so the queries' 5 s
        // windows hold only this step's tuples.
        const Timestamp now = step * 10 * kSecond;
        const Profile reference = FromScratchUnion(proc);
        const auto installed = SourceProfiles();
        ASSERT_EQ(installed.size(), reference.streams().size());
        uint64_t expected_entries = 0;
        const uint64_t pushed = proc.wrapper().engine().tuples_pushed();
        for (int s = 0; s < kStreams; ++s) {
          const std::string stream = StreamName(s);
          auto it = installed.find(stream);
          if (!reference.WantsStream(stream)) {
            EXPECT_TRUE(it == installed.end()) << stream;
            continue;
          }
          ASSERT_TRUE(it != installed.end()) << stream;
          ASSERT_EQ(it->second.size(), 1u) << stream;
          const Profile& sub = *it->second.front();
          EXPECT_EQ(sub.streams().size(), 1u) << stream;
          EXPECT_EQ(SortedRequired(sub, stream),
                    SortedRequired(reference, stream))
              << stream;
          for (double a = 0; a <= 100; a += 5) {
            for (double b = 0; b <= 100; b += 10) {
              Datagram d{stream, Row(s, 1, a, b, 50)};
              ASSERT_EQ(sub.Covers(d), reference.Covers(d))
                  << stream << " a=" << a << " b=" << b;
              if (b == 30 && static_cast<int>(a) % 20 == 5 &&
                  reference.Covers(d)) {
                ++expected_entries;
              }
            }
          }
          for (double a = 5; a <= 100; a += 20) {
            network_->Publish(kPublisher[s],
                              Datagram{stream, Row(s, 1, a, 30, 50, now)});
          }
        }
        EXPECT_EQ(proc.wrapper().engine().tuples_pushed() - pushed,
                  expected_entries);
      }
      for (const std::string& id : live) ASSERT_TRUE(proc.RemoveQuery(id).ok());
      EXPECT_TRUE(SourceProfiles().empty());
      EXPECT_EQ(network_->TotalTableEntries(), 0u);
    }
  }
}

TEST_F(SourceSubscriptionTest, GroupChangeOnOneStreamLeavesTheOthersAlone) {
  ProcessorOptions opts;
  opts.enable_merging = false;
  auto proc = std::make_unique<Processor>(0, &catalog_, network_.get(), opts);
  ASSERT_TRUE(
      proc->SubmitQuery("a1", "SELECT id, a FROM s0 WHERE a <= 20", 0, nullptr)
          .ok());
  ASSERT_TRUE(
      proc->SubmitQuery("b1", "SELECT id, a FROM s2 WHERE a <= 20", 0, nullptr)
          .ok());
  const ProfileId s2_sub = SubscriptionOf("s2");
  ASSERT_NE(s2_sub, 0u);
  const size_t s2_entries = network_->router(4).table().TotalEntries();
  ASSERT_EQ(s2_entries, 1u);  // 4 -> 0

  // A new group on s0 that its subscription does not cover: s0 is
  // resubscribed along 2 -> 1 -> 0 (two entries), and s2 is not touched.
  uint64_t messages = network_->control_messages();
  ASSERT_TRUE(
      proc->SubmitQuery("a2", "SELECT id, a FROM s0 WHERE a >= 60", 0, nullptr)
          .ok());
  EXPECT_EQ(network_->control_messages() - messages, 2u);
  EXPECT_EQ(SubscriptionOf("s2"), s2_sub);

  // One the subscription covers sends nothing at all.
  messages = network_->control_messages();
  ASSERT_TRUE(
      proc->SubmitQuery("a3", "SELECT id, a FROM s0 WHERE a <= 10", 0, nullptr)
          .ok());
  EXPECT_EQ(network_->control_messages(), messages);

  // Dissolving a group narrows s0's union only.
  messages = network_->control_messages();
  ASSERT_TRUE(proc->RemoveQuery("a2").ok());
  EXPECT_EQ(network_->control_messages() - messages, 2u);
  EXPECT_EQ(SubscriptionOf("s2"), s2_sub);
  EXPECT_EQ(network_->router(4).table().TotalEntries(), s2_entries);
}

}  // namespace
}  // namespace cosmos
