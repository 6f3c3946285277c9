#include <gtest/gtest.h>

#include <set>
#include <utility>

#include "common/random.h"
#include "sim/simulator.h"

namespace cosmos {
namespace {

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> fired;
  q.Push(30, [&] { fired.push_back(3); });
  q.Push(10, [&] { fired.push_back(1); });
  q.Push(20, [&] { fired.push_back(2); });
  while (!q.Empty()) {
    auto [t, cb] = q.Pop();
    cb();
  }
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue q;
  std::vector<int> fired;
  q.Push(5, [&] { fired.push_back(1); });
  q.Push(5, [&] { fired.push_back(2); });
  q.Push(5, [&] { fired.push_back(3); });
  while (!q.Empty()) q.Pop().second();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, MatchesAnOrderedSetUnderInterleavedPushAndPop) {
  // Reference model: the pending events as an ordered set of
  // (time, insertion index). Every Pop must yield its first element.
  EventQueue q;
  std::set<std::pair<Timestamp, int>> pending;
  std::pair<Timestamp, int> last_fired;
  auto pop_and_check = [&] {
    ASSERT_EQ(q.NextTime(), pending.begin()->first);
    auto [when, cb] = q.Pop();
    cb();
    EXPECT_EQ(last_fired, *pending.begin());
    EXPECT_EQ(when, last_fired.first);
    pending.erase(pending.begin());
  };
  Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    Timestamp when = static_cast<Timestamp>(rng.NextBounded(50));
    pending.emplace(when, i);
    q.Push(when, [&last_fired, when, i] { last_fired = {when, i}; });
    if (rng.NextBounded(3) == 0) pop_and_check();
    ASSERT_EQ(q.size(), pending.size());
  }
  while (!q.Empty()) pop_and_check();
  EXPECT_TRUE(pending.empty());
}

TEST(EventQueue, EmptyNextTimeIsInvalid) {
  EventQueue q;
  EXPECT_EQ(q.NextTime(), kInvalidTimestamp);
  EXPECT_TRUE(q.Empty());
}

TEST(Simulator, ClockAdvancesToEventTimes) {
  Simulator sim;
  std::vector<Timestamp> seen;
  sim.Schedule(100, [&] { seen.push_back(sim.now()); });
  sim.Schedule(50, [&] { seen.push_back(sim.now()); });
  size_t n = sim.Run();
  EXPECT_EQ(n, 2u);
  EXPECT_EQ(seen, (std::vector<Timestamp>{50, 100}));
  EXPECT_EQ(sim.now(), 100);
}

TEST(Simulator, NestedScheduling) {
  Simulator sim;
  std::vector<Timestamp> seen;
  sim.Schedule(10, [&] {
    seen.push_back(sim.now());
    sim.Schedule(5, [&] { seen.push_back(sim.now()); });
  });
  sim.Run();
  EXPECT_EQ(seen, (std::vector<Timestamp>{10, 15}));
}

TEST(Simulator, RunUntilStopsAtBoundary) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(10, [&] { ++fired; });
  sim.Schedule(20, [&] { ++fired; });
  sim.Schedule(30, [&] { ++fired; });
  size_t n = sim.RunUntil(20);
  EXPECT_EQ(n, 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), 20);
  EXPECT_TRUE(sim.HasPendingEvents());
}

TEST(Simulator, RunUntilAdvancesClockWithoutEvents) {
  Simulator sim;
  sim.RunUntil(500);
  EXPECT_EQ(sim.now(), 500);
}

TEST(Simulator, StopHaltsRun) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(1, [&] {
    ++fired;
    sim.Stop();
  });
  sim.Schedule(2, [&] { ++fired; });
  sim.Run();
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.HasPendingEvents());
  sim.Run();  // resumes
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, SchedulingInThePastDies) {
  Simulator sim;
  sim.Schedule(10, [] {});
  sim.Run();
  EXPECT_DEATH(sim.ScheduleAt(5, [] {}), "CHECK failed");
}

TEST(Simulator, StepProcessesOne) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(1, [&] { ++fired; });
  sim.Schedule(2, [&] { ++fired; });
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.Step());
  EXPECT_FALSE(sim.Step());
}

}  // namespace
}  // namespace cosmos
