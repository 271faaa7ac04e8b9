#include <gtest/gtest.h>

#include "sim/cluster.h"
#include "sim/cost_model.h"
#include "sim/event_queue.h"
#include "sim/resource.h"

namespace hail {
namespace sim {
namespace {

TEST(EventQueueTest, RunsInTimeOrder) {
  EventQueue eq;
  std::vector<int> order;
  eq.ScheduleAt(3.0, [&] { order.push_back(3); });
  eq.ScheduleAt(1.0, [&] { order.push_back(1); });
  eq.ScheduleAt(2.0, [&] { order.push_back(2); });
  EXPECT_DOUBLE_EQ(eq.RunUntilEmpty(), 3.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, FifoForEqualTimes) {
  EventQueue eq;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    eq.ScheduleAt(1.0, [&order, i] { order.push_back(i); });
  }
  eq.RunUntilEmpty();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueueTest, EventsCanScheduleEvents) {
  EventQueue eq;
  int fired = 0;
  eq.ScheduleAt(1.0, [&] {
    ++fired;
    eq.ScheduleAfter(1.0, [&] { ++fired; });
  });
  EXPECT_DOUBLE_EQ(eq.RunUntilEmpty(), 2.0);
  EXPECT_EQ(fired, 2);
}

TEST(EventQueueTest, PastSchedulingClampsToNow) {
  EventQueue eq;
  double ran_at = -1;
  eq.ScheduleAt(5.0, [&] {
    eq.ScheduleAt(1.0, [&] { ran_at = eq.Now(); });
  });
  eq.RunUntilEmpty();
  EXPECT_DOUBLE_EQ(ran_at, 5.0);
}

TEST(EventQueueTest, RunUntilLeavesLaterEvents) {
  EventQueue eq;
  int fired = 0;
  eq.ScheduleAt(1.0, [&] { ++fired; });
  eq.ScheduleAt(10.0, [&] { ++fired; });
  eq.RunUntil(5.0);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(eq.pending(), 1u);
}

// RunUntil's quantum-stepping contract: all events with time <= deadline
// run (boundary included), the clock lands exactly on the deadline even
// when no event fired, and it never rewinds — so back-to-back RunUntil
// calls tile time into clean scheduler quanta.
TEST(EventQueueTest, RunUntilClockLandsOnDeadline) {
  EventQueue eq;
  int fired = 0;
  eq.ScheduleAt(1.0, [&] { ++fired; });
  eq.ScheduleAt(10.0, [&] { ++fired; });
  EXPECT_DOUBLE_EQ(eq.RunUntil(5.0), 5.0);
  EXPECT_DOUBLE_EQ(eq.Now(), 5.0);  // not stuck at the last event (1.0)
  // Relative scheduling from the driver anchors at the quantum boundary.
  eq.ScheduleAfter(1.0, [&] { ++fired; });
  EXPECT_DOUBLE_EQ(eq.RunUntil(6.0), 6.0);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(eq.pending(), 1u);  // the event at 10.0 stays queued
}

TEST(EventQueueTest, RunUntilRunsBoundaryEventAndChainedEvents) {
  EventQueue eq;
  std::vector<double> fired_at;
  // An event exactly at the deadline runs; events it schedules within the
  // deadline run too (RunUntil executes through RunOne, so chained
  // same-quantum work is not stranded).
  eq.ScheduleAt(2.0, [&] {
    fired_at.push_back(eq.Now());
    eq.ScheduleAt(5.0, [&] { fired_at.push_back(eq.Now()); });
    eq.ScheduleAt(5.5, [&] { fired_at.push_back(eq.Now()); });
  });
  const uint64_t before = eq.executed();
  eq.RunUntil(5.0);
  EXPECT_EQ(fired_at, (std::vector<double>{2.0, 5.0}));
  EXPECT_EQ(eq.executed() - before, 2u);  // pops counted exactly once
  EXPECT_EQ(eq.pending(), 1u);
  EXPECT_DOUBLE_EQ(eq.Now(), 5.0);
}

TEST(EventQueueTest, RunUntilPastDeadlineNeverRewindsClock) {
  EventQueue eq;
  eq.ScheduleAt(4.0, [] {});
  eq.RunUntilEmpty();
  EXPECT_DOUBLE_EQ(eq.Now(), 4.0);
  int fired = 0;
  eq.ScheduleAt(9.0, [&] { ++fired; });
  EXPECT_DOUBLE_EQ(eq.RunUntil(2.0), 4.0);  // deadline in the past: no-op
  EXPECT_DOUBLE_EQ(eq.Now(), 4.0);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(eq.pending(), 1u);
}

TEST(ResourceTest, SerializesWork) {
  Resource disk("disk", 1);
  const Interval a = disk.Schedule(0.0, 2.0);
  const Interval b = disk.Schedule(0.0, 3.0);
  EXPECT_DOUBLE_EQ(a.start, 0.0);
  EXPECT_DOUBLE_EQ(a.end, 2.0);
  EXPECT_DOUBLE_EQ(b.start, 2.0);  // queued behind a
  EXPECT_DOUBLE_EQ(b.end, 5.0);
  EXPECT_DOUBLE_EQ(disk.busy_time(), 5.0);
}

TEST(ResourceTest, RespectsReadyTime) {
  Resource disk("disk", 1);
  const Interval a = disk.Schedule(10.0, 1.0);
  EXPECT_DOUBLE_EQ(a.start, 10.0);
  const Interval b = disk.Schedule(0.0, 1.0);
  EXPECT_DOUBLE_EQ(b.start, 11.0);
}

TEST(ResourceTest, MultiChannelRunsInParallel) {
  Resource cpu("cpu", 4);
  for (int i = 0; i < 4; ++i) {
    const Interval iv = cpu.Schedule(0.0, 1.0);
    EXPECT_DOUBLE_EQ(iv.start, 0.0);
  }
  // Fifth job waits for the earliest channel.
  const Interval fifth = cpu.Schedule(0.0, 1.0);
  EXPECT_DOUBLE_EQ(fifth.start, 1.0);
  EXPECT_DOUBLE_EQ(cpu.Utilization(2.0), 5.0 / 8.0);
}

TEST(ResourceTest, ResetClearsState) {
  Resource disk("disk", 1);
  disk.Schedule(0.0, 5.0);
  disk.Reset();
  EXPECT_DOUBLE_EQ(disk.NextFree(), 0.0);
  EXPECT_DOUBLE_EQ(disk.busy_time(), 0.0);
  EXPECT_EQ(disk.jobs(), 0u);
}

TEST(CostModelTest, DiskCostsScaleWithBytes) {
  CostModel cost(NodeProfile::Physical(), CostConstants{});
  const double one_mb = cost.DiskTransfer(1024 * 1024);
  const double ten_mb = cost.DiskTransfer(10 * 1024 * 1024);
  EXPECT_NEAR(ten_mb, 10.0 * one_mb, 1e-9);
  EXPECT_DOUBLE_EQ(cost.DiskSeek(), 0.005);  // §3.5's 5 ms seek
}

TEST(CostModelTest, SortIsSuperlinearInRecords) {
  CostModel cost(NodeProfile::Physical(), CostConstants{});
  const double small = cost.SortBlock(1000, 0, 0, false);
  const double big = cost.SortBlock(10000, 0, 0, false);
  EXPECT_GT(big, 10.0 * small);  // n log n
  EXPECT_DOUBLE_EQ(cost.SortBlock(1, 0, 0, false), 0.0);
}

TEST(CostModelTest, StringKeysAndVarlenPayloadCostMore) {
  CostModel cost(NodeProfile::Physical(), CostConstants{});
  EXPECT_GT(cost.SortBlock(100000, 0, 0, true),
            3.0 * cost.SortBlock(100000, 0, 0, false));
  EXPECT_GT(cost.SortBlock(1000, 0, 1 << 20, false),
            2.0 * cost.SortBlock(1000, 1 << 20, 0, false));
}

TEST(CostModelTest, SortOfPaperBlockIsSeconds) {
  // §3.5: "Whether you pay three or two seconds for sorting and indexing
  // per block" — a 64 MB UserVisits block holds ~433k records, mostly
  // varlen payload, sorted here by a string key (sourceIP).
  CostModel cost(NodeProfile::Physical(), CostConstants{});
  const uint64_t varlen = 57ull << 20;  // ~57 MB of strings
  const uint64_t fixed = 7ull << 20;
  const double sort_s =
      cost.SortBlock(433000, fixed, varlen, true) + cost.IndexBuild(433000);
  EXPECT_GT(sort_s, 1.0);
  EXPECT_LT(sort_s, 8.0);
}

TEST(CostModelTest, CpuFactorSpeedsUpCpuWork) {
  NodeProfile slow = NodeProfile::Physical();
  slow.cpu_factor = 0.5;
  CostModel fast_cost(NodeProfile::Physical(), CostConstants{});
  CostModel slow_cost(slow, CostConstants{});
  EXPECT_NEAR(slow_cost.SortBlock(100000, 1 << 20, 1 << 20, false),
              2.0 * fast_cost.SortBlock(100000, 1 << 20, 1 << 20, false),
              1e-9);
  // Disk speed is unaffected by CPU factor.
  EXPECT_DOUBLE_EQ(slow_cost.DiskTransfer(1 << 20),
                   fast_cost.DiskTransfer(1 << 20));
}

TEST(ClusterTest, BuildsNodesWithProfiles) {
  ClusterConfig cc;
  cc.num_nodes = 4;
  SimCluster cluster(cc);
  EXPECT_EQ(cluster.num_nodes(), 4);
  EXPECT_EQ(cluster.alive_count(), 4);
  EXPECT_EQ(cluster.node(2).name(), "node2");
  EXPECT_EQ(cluster.node(0).cpu().capacity(), cc.profile.cores);
}

TEST(ClusterTest, KillNode) {
  ClusterConfig cc;
  cc.num_nodes = 3;
  SimCluster cluster(cc);
  cluster.KillNode(1, 5.0);
  EXPECT_FALSE(cluster.node(1).alive());
  EXPECT_EQ(cluster.alive_count(), 2);
  EXPECT_DOUBLE_EQ(cluster.node(1).death_time(), 5.0);
}

TEST(ClusterTest, HardwareVarianceJittersProfiles) {
  ClusterConfig cc;
  cc.num_nodes = 8;
  cc.hardware_variance = 0.2;
  SimCluster cluster(cc);
  bool any_different = false;
  for (int i = 1; i < cluster.num_nodes(); ++i) {
    if (cluster.node(i).profile().disk_mbps !=
        cluster.node(0).profile().disk_mbps) {
      any_different = true;
    }
  }
  EXPECT_TRUE(any_different);
}

}  // namespace
}  // namespace sim
}  // namespace hail
