/// \file parallel_determinism_test.cc
/// \brief Pins the parallel execution engine's core guarantee: running the
/// functional reads on a worker pool changes *wall-clock* time only —
/// every simulated number (durations, per-task stats, JobResults) is
/// bit-identical to serial execution, including under failure injection
/// and HailSplitting. Also property-checks the locality-indexed pending
/// queue against the reference linear scan it replaced, and the
/// reserved-sequence event ordering primitive the engine relies on.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <numeric>
#include <string>
#include <vector>

#include "adaptive/adaptive_manager.h"
#include "mapreduce/job_runner.h"
#include "mapreduce/pending_index.h"
#include "sim/event_queue.h"
#include "util/crc32c.h"
#include "util/random.h"
#include "util/thread_pool.h"
#include "workload/testbed.h"

namespace hail {
namespace mapreduce {
namespace {

using workload::QueryDef;
using workload::Testbed;
using workload::TestbedConfig;

// Use several pool workers even on single-core CI machines so the
// parallel path really interleaves (set before the shared pool is built).
const bool kForcePoolSize = [] {
  setenv("HAIL_THREADS", "4", /*overwrite=*/0);
  return true;
}();

TestbedConfig SmallConfig(uint64_t seed = 99) {
  TestbedConfig config;
  config.num_nodes = 4;
  config.real_block_bytes = 8 * 1024;
  config.logical_block_bytes = 4 * 1024 * 1024;  // scale 512
  config.blocks_per_node = 6;
  config.seed = seed;
  return config;
}

/// Every field of the two results must match exactly — simulated doubles
/// included (no tolerance: the engines must produce the same bits).
void ExpectBitIdentical(const JobResult& serial, const JobResult& parallel) {
  EXPECT_EQ(serial.end_to_end_seconds, parallel.end_to_end_seconds);
  EXPECT_EQ(serial.avg_record_reader_seconds,
            parallel.avg_record_reader_seconds);
  EXPECT_EQ(serial.ideal_seconds, parallel.ideal_seconds);
  EXPECT_EQ(serial.overhead_seconds, parallel.overhead_seconds);
  EXPECT_EQ(serial.map_tasks, parallel.map_tasks);
  EXPECT_EQ(serial.rescheduled_tasks, parallel.rescheduled_tasks);
  EXPECT_EQ(serial.fallback_scans, parallel.fallback_scans);
  EXPECT_EQ(serial.records_seen, parallel.records_seen);
  EXPECT_EQ(serial.records_qualifying, parallel.records_qualifying);
  EXPECT_EQ(serial.output_count, parallel.output_count);
  EXPECT_EQ(serial.bad_records_seen, parallel.bad_records_seen);
  EXPECT_EQ(serial.index_scan_tasks, parallel.index_scan_tasks);
  EXPECT_EQ(serial.unclustered_scan_tasks, parallel.unclustered_scan_tasks);
  EXPECT_EQ(serial.maintenance_scheduled, parallel.maintenance_scheduled);
  EXPECT_EQ(serial.maintenance_completed, parallel.maintenance_completed);
  EXPECT_EQ(serial.maintenance_failed, parallel.maintenance_failed);
  // Output rows in emitted order, not sorted: task order and per-task map
  // call order must also be preserved.
  EXPECT_EQ(serial.output_rows, parallel.output_rows);
}

// Exact %.17g dump of every simulated number in a JobResult — two dumps
// compare equal iff the results are bit-identical. Shared with the
// scheduler tests and benches (workload/testbed.h) so the field list
// cannot drift between copies.
using workload::DumpResult;

RunOptions Mode(ExecutionMode mode, RunOptions base = {}) {
  base.execution = mode;
  return base;
}

TEST(ParallelDeterminismTest, HailQuerySerialEqualsParallel) {
  Testbed bed(SmallConfig());
  bed.LoadUserVisits();
  ASSERT_TRUE(bed.UploadHail("/d", {workload::kVisitDate,
                                    workload::kSourceIP,
                                    workload::kAdRevenue})
                  .ok());
  for (const QueryDef& q : workload::BobQueries()) {
    auto serial = bed.RunQuery(System::kHail, "/d", q, false,
                               Mode(ExecutionMode::kSerial), true);
    auto parallel = bed.RunQuery(System::kHail, "/d", q, false,
                                 Mode(ExecutionMode::kParallel), true);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    ExpectBitIdentical(*serial, *parallel);
  }
}

TEST(ParallelDeterminismTest, EncodedHailQuerySerialEqualsParallel) {
  // Format v3 (encoded minipages): the scan-on-compressed kernels and the
  // encode/decode cost terms must preserve serial == parallel bit-equality.
  TestbedConfig config = SmallConfig();
  config.encode_blocks = true;
  Testbed bed(config);
  bed.LoadUserVisits();
  ASSERT_TRUE(bed.UploadHail("/d", {workload::kVisitDate,
                                    workload::kSourceIP,
                                    workload::kAdRevenue})
                  .ok());
  for (const QueryDef& q : workload::BobQueries()) {
    auto serial = bed.RunQuery(System::kHail, "/d", q, false,
                               Mode(ExecutionMode::kSerial), true);
    auto parallel = bed.RunQuery(System::kHail, "/d", q, false,
                                 Mode(ExecutionMode::kParallel), true);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    ExpectBitIdentical(*serial, *parallel);
  }
}

TEST(ParallelDeterminismTest, EncodingChangesCostNotResults) {
  // Same data, same queries, encoding on vs off: every functional output
  // (rows seen, qualifying, emitted — in order) must match exactly; only
  // the simulated timings may differ.
  TestbedConfig plain_config = SmallConfig();
  TestbedConfig enc_config = SmallConfig();
  enc_config.encode_blocks = true;
  Testbed plain_bed(plain_config);
  Testbed enc_bed(enc_config);
  plain_bed.LoadUserVisits();
  enc_bed.LoadUserVisits();
  const std::vector<int> sort_cols = {workload::kVisitDate,
                                      workload::kSourceIP,
                                      workload::kAdRevenue};
  ASSERT_TRUE(plain_bed.UploadHail("/d", sort_cols).ok());
  ASSERT_TRUE(enc_bed.UploadHail("/d", sort_cols).ok());
  for (const QueryDef& q : workload::BobQueries()) {
    auto plain = plain_bed.RunQuery(System::kHail, "/d", q, false,
                                    Mode(ExecutionMode::kSerial), true);
    auto encoded = enc_bed.RunQuery(System::kHail, "/d", q, false,
                                    Mode(ExecutionMode::kSerial), true);
    ASSERT_TRUE(plain.ok()) << plain.status().ToString();
    ASSERT_TRUE(encoded.ok()) << encoded.status().ToString();
    EXPECT_EQ(plain->records_seen, encoded->records_seen);
    EXPECT_EQ(plain->records_qualifying, encoded->records_qualifying);
    EXPECT_EQ(plain->bad_records_seen, encoded->bad_records_seen);
    EXPECT_EQ(plain->output_count, encoded->output_count);
    EXPECT_EQ(plain->output_rows, encoded->output_rows);
  }
}

TEST(ParallelDeterminismTest, HadoopFullScanSerialEqualsParallel) {
  Testbed bed(SmallConfig());
  bed.LoadUserVisits();
  ASSERT_TRUE(bed.UploadHadoop("/d").ok());
  const QueryDef q = workload::BobQueries()[0];
  auto serial = bed.RunQuery(System::kHadoop, "/d", q, false,
                             Mode(ExecutionMode::kSerial), true);
  auto parallel = bed.RunQuery(System::kHadoop, "/d", q, false,
                               Mode(ExecutionMode::kParallel), true);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());
  ExpectBitIdentical(*serial, *parallel);
}

TEST(ParallelDeterminismTest, TrojanIndexScanSerialEqualsParallel) {
  Testbed bed(SmallConfig());
  bed.LoadUserVisits();
  ASSERT_TRUE(bed.UploadHadoopPP("/d", workload::kSourceIP).ok());
  const QueryDef q = workload::BobQueries()[1];  // sourceIP filter
  auto serial = bed.RunQuery(System::kHadoopPP, "/d", q, false,
                             Mode(ExecutionMode::kSerial), true);
  auto parallel = bed.RunQuery(System::kHadoopPP, "/d", q, false,
                               Mode(ExecutionMode::kParallel), true);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());
  ExpectBitIdentical(*serial, *parallel);
}

TEST(ParallelDeterminismTest, HailSplittingSerialEqualsParallel) {
  Testbed bed(SmallConfig());
  bed.LoadUserVisits();
  ASSERT_TRUE(bed.UploadHail("/d", {workload::kVisitDate}).ok());
  const QueryDef q = workload::BobQueries()[0];
  auto serial = bed.RunQuery(System::kHail, "/d", q, /*hail_splitting=*/true,
                             Mode(ExecutionMode::kSerial), true);
  auto parallel = bed.RunQuery(System::kHail, "/d", q,
                               /*hail_splitting=*/true,
                               Mode(ExecutionMode::kParallel), true);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());
  ExpectBitIdentical(*serial, *parallel);
}

TEST(ParallelDeterminismTest, FailureInjectionSerialEqualsParallel) {
  // The Fig. 8 path: mid-job kill, expiry-interval detection, task
  // re-execution. The parallel engine must drain in-flight reads before
  // mutating shared DFS state, and the detection event's tie-break rank
  // is reserved at the kill decision — so even this path is bit-identical.
  Testbed bed(SmallConfig(7));
  bed.LoadUserVisits();
  ASSERT_TRUE(bed.UploadHail("/d", {workload::kVisitDate,
                                    workload::kSourceIP,
                                    workload::kAdRevenue})
                  .ok());
  const QueryDef q = workload::BobQueries()[0];
  RunOptions failure;
  failure.fault_plan.kills.push_back(
      {.node = 2, .at_progress = 0.5, .progress_job = 0});
  auto serial = bed.RunQuery(System::kHail, "/d", q, false,
                             Mode(ExecutionMode::kSerial, failure), true);
  auto parallel = bed.RunQuery(System::kHail, "/d", q, false,
                               Mode(ExecutionMode::kParallel, failure), true);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  EXPECT_GT(serial->rescheduled_tasks, 0u);
  ExpectBitIdentical(*serial, *parallel);
  const std::string dump = DumpResult(*serial);
  EXPECT_EQ(crc32c::Extend(0, dump.data(), dump.size()), 0x5cdab333u);
}

// ---------------------------------------------------------------------------
// Mid-job background reorg (adaptive indexing)
// ---------------------------------------------------------------------------

/// Runs the whole adaptive shifting-workload scenario from scratch in one
/// execution mode: HAIL data indexed on visitDate only, then five runs of
/// an adRevenue query with the adaptive manager attached — the later runs
/// carry background replica rewrites that commit *mid-job* (mutating
/// datanode stores, generations, the block cache and Dir_rep while map
/// tasks are in flight), and run 2 additionally kills a node mid-reorg.
std::vector<std::string> RunAdaptiveScenario(ExecutionMode mode,
                                             uint64_t* maint_completed) {
  Testbed bed(SmallConfig(13));
  bed.LoadUserVisits();
  EXPECT_TRUE(bed.UploadHail("/d", {workload::kVisitDate}).ok());
  adaptive::AdaptiveConfig config;
  config.planner.regret_threshold = 0.2;
  config.planner.escalate_after_rounds = 1;
  adaptive::AdaptiveManager manager(&bed.dfs(), bed.schema(), "/d", config);
  const QueryDef shifted{"Shift-Q", "@4 between(1,10)", "{@1,@4}", 1.7e-2};

  std::vector<std::string> dumps;
  for (int run = 0; run < 5; ++run) {
    RunOptions options;
    options.execution = mode;
    options.adaptive = &manager;
    if (run == 2) {
      options.fault_plan.kills.push_back(
          {.node = 2, .at_progress = 0.4, .progress_job = 0});
    }
    auto r = bed.RunQuery(System::kHail, "/d", shifted, false, options,
                          /*collect_output=*/true);
    dumps.push_back(r.ok() ? DumpResult(*r) : r.status().ToString());
  }
  dumps.push_back("manager pending=" + std::to_string(manager.pending_tasks()) +
                  " planned=" + std::to_string(manager.planned_total()) +
                  " completed=" + std::to_string(manager.completed_total()) +
                  " failed=" + std::to_string(manager.failed_total()));
  *maint_completed = manager.completed_total();
  return dumps;
}

TEST(ParallelDeterminismTest, MidJobReorgSerialEqualsParallel) {
  uint64_t serial_completed = 0;
  uint64_t parallel_completed = 0;
  const std::vector<std::string> serial =
      RunAdaptiveScenario(ExecutionMode::kSerial, &serial_completed);
  const std::vector<std::string> parallel =
      RunAdaptiveScenario(ExecutionMode::kParallel, &parallel_completed);
  // The scenario must actually exercise mid-job reorg, not degenerate to
  // the static path.
  EXPECT_GT(serial_completed, 0u);
  ASSERT_EQ(serial.size(), parallel.size());
  std::string dump;
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i]) << "run " << i << " diverged";
    dump += serial[i] + '\n';
  }
  EXPECT_EQ(crc32c::Extend(0, dump.data(), dump.size()), 0x9d75f78au);
}

// ---------------------------------------------------------------------------
// PendingTaskIndex == the reference linear scan it replaced
// ---------------------------------------------------------------------------

/// The old O(pending) JobTracker pick: first pending task preferring the
/// node, else the oldest pending task.
class ReferencePendingQueue {
 public:
  void Push(size_t task, std::vector<int> prefs) {
    pending_.push_back(task);
    prefs_[task] = std::move(prefs);
  }
  std::optional<size_t> PopFor(int node) {
    if (pending_.empty()) return std::nullopt;
    size_t pick_pos = 0;
    for (size_t i = 0; i < pending_.size(); ++i) {
      const std::vector<int>& pref = prefs_[pending_[i]];
      if (std::find(pref.begin(), pref.end(), node) != pref.end()) {
        pick_pos = i;
        break;
      }
    }
    const size_t task = pending_[pick_pos];
    pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(pick_pos));
    return task;
  }
  size_t size() const { return pending_.size(); }

 private:
  std::deque<size_t> pending_;
  std::unordered_map<size_t, std::vector<int>> prefs_;
};

TEST(PendingTaskIndexTest, MatchesReferenceScanUnderRandomWorkload) {
  const int kNodes = 5;
  Random rng(1234);
  for (int round = 0; round < 20; ++round) {
    PendingTaskIndex indexed(kNodes);
    ReferencePendingQueue reference;
    std::vector<std::vector<int>> prefs;  // per task
    size_t next_task = 0;
    // Random interleaving of pushes, pops and re-pushes (failure requeue).
    std::vector<size_t> popped;
    for (int op = 0; op < 400; ++op) {
      const uint64_t kind = rng.Uniform(3);
      if (kind == 0 || reference.size() == 0) {
        // New task with 0..3 preferred nodes.
        std::vector<int> p;
        const uint64_t n = rng.Uniform(4);
        for (uint64_t i = 0; i < n; ++i) {
          p.push_back(static_cast<int>(rng.Uniform(kNodes)));
        }
        prefs.push_back(p);
        indexed.Push(next_task, p);
        reference.Push(next_task, p);
        ++next_task;
      } else if (kind == 1 && !popped.empty()) {
        // Re-queue a previously popped task (failure-detector path).
        const size_t task = popped.back();
        popped.pop_back();
        indexed.Push(task, prefs[task]);
        reference.Push(task, prefs[task]);
      } else {
        const int node = static_cast<int>(rng.Uniform(kNodes));
        const auto a = indexed.PopFor(node);
        const auto b = reference.PopFor(node);
        ASSERT_EQ(a.has_value(), b.has_value());
        if (a.has_value()) {
          ASSERT_EQ(*a, *b) << "pick diverged for node " << node;
          popped.push_back(*a);
        }
      }
      ASSERT_EQ(indexed.size(), reference.size());
    }
    // Drain completely; order must stay identical.
    int node = 0;
    while (reference.size() > 0) {
      const auto a = indexed.PopFor(node);
      const auto b = reference.PopFor(node);
      ASSERT_TRUE(a.has_value() && b.has_value());
      ASSERT_EQ(*a, *b);
      node = (node + 1) % kNodes;
    }
    EXPECT_TRUE(indexed.empty());
  }
}

// ---------------------------------------------------------------------------
// Reserved-sequence event ordering
// ---------------------------------------------------------------------------

TEST(EventQueueReservedSeqTest, ReservationFixesTieBreakRank) {
  sim::EventQueue q;
  std::vector<int> order;
  // Reserve a slot first, insert its event *after* a same-time event was
  // scheduled: the reserved event must still run first.
  const uint64_t seq = q.ReserveSeq();
  q.ScheduleAt(5.0, [&] { order.push_back(2); });
  q.ScheduleAtReserved(seq, 5.0, [&] { order.push_back(1); });
  q.ScheduleAt(5.0, [&] { order.push_back(3); });
  q.RunUntilEmpty();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.Now(), 5.0);
}

TEST(ThreadPoolTest, ExecutesAllSubmittedWork) {
  ThreadPool pool(4);
  std::vector<std::future<int>> futures;
  futures.reserve(200);
  for (int i = 0; i < 200; ++i) {
    futures.push_back(pool.Submit([i] { return i * i; }));
  }
  long long sum = 0;
  for (auto& f : futures) sum += f.get();
  long long expected = 0;
  for (int i = 0; i < 200; ++i) expected += static_cast<long long>(i) * i;
  EXPECT_EQ(sum, expected);
}

}  // namespace
}  // namespace mapreduce
}  // namespace hail
