/// \file adaptive_test.cc
/// \brief The adaptive indexing subsystem: observer decay/regret, planner
/// staging (unclustered first, escalate to re-sort), reorg execution
/// (generation bump + Dir_rep update + cache invalidation), the closed
/// observe -> plan -> reorg -> converge loop, and its kill/revive safety.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "adaptive/adaptive_manager.h"
#include "adaptive/reorg.h"
#include "adaptive/reorg_planner.h"
#include "adaptive/workload_observer.h"
#include "hail/hail_block.h"
#include "hdfs/packet.h"
#include "util/thread_pool.h"
#include "workload/testbed.h"
#include "workload/uservisits.h"

namespace hail {
namespace adaptive {
namespace {

using mapreduce::ExecutionMode;
using mapreduce::JobResult;
using mapreduce::RunOptions;
using mapreduce::System;
using workload::QueryDef;
using workload::Testbed;
using workload::TestbedConfig;

TestbedConfig SmallConfig(uint64_t seed = 99) {
  TestbedConfig config;
  config.num_nodes = 4;
  config.real_block_bytes = 8 * 1024;
  config.logical_block_bytes = 4 * 1024 * 1024;  // scale 512
  config.blocks_per_node = 6;
  config.seed = seed;
  return config;
}

/// The workload shift: Bob suddenly cares about adRevenue, which no
/// replica is sorted by (uploads below index visitDate only).
QueryDef ShiftedQuery() {
  return {"Shift-Q", "@4 between(1,10)", "{@1,@4}", 1.7e-2};
}

QueryAnnotation Annotate(const Schema& schema, const std::string& filter) {
  auto parsed = ParseAnnotation(schema, filter, "");
  EXPECT_TRUE(parsed.ok());
  return *parsed;
}

JobResult FakeResult(uint32_t tasks, uint32_t fallback, uint32_t uc,
                     uint32_t idx) {
  JobResult r;
  r.map_tasks = tasks;
  r.fallback_scans = fallback;
  r.unclustered_scan_tasks = uc;
  r.index_scan_tasks = idx;
  r.avg_record_reader_seconds = 1.0;
  return r;
}

std::vector<std::string> Sorted(std::vector<std::string> rows) {
  std::sort(rows.begin(), rows.end());
  return rows;
}

// ---------------------------------------------------------------------------
// WorkloadObserver
// ---------------------------------------------------------------------------

TEST(WorkloadObserverTest, DecaysAndBoundsTheLog) {
  const Schema schema = workload::UserVisitsSchema();
  WorkloadObserver::Options opt;
  opt.capacity = 3;
  opt.decay = 0.5;
  WorkloadObserver observer(opt);
  for (int i = 0; i < 5; ++i) {
    observer.Observe(Annotate(schema, "@4 >= 1"), FakeResult(10, 10, 0, 0));
  }
  EXPECT_EQ(observer.size(), 3u);
  EXPECT_EQ(observer.observed_total(), 5u);
  const auto workload = observer.ToWorkload();
  ASSERT_EQ(workload.size(), 3u);
  EXPECT_DOUBLE_EQ(workload[2].weight, 1.0);   // newest
  EXPECT_DOUBLE_EQ(workload[1].weight, 0.5);
  EXPECT_DOUBLE_EQ(workload[0].weight, 0.25);  // oldest survivor
}

TEST(WorkloadObserverTest, RegretIsWeightedFallbackShare) {
  const Schema schema = workload::UserVisitsSchema();
  WorkloadObserver::Options opt;
  opt.decay = 0.5;
  WorkloadObserver observer(opt);
  EXPECT_DOUBLE_EQ(observer.FullScanRegret(), 0.0);
  // All tasks fall back -> regret 1.
  observer.Observe(Annotate(schema, "@4 >= 1"), FakeResult(10, 10, 0, 0));
  EXPECT_DOUBLE_EQ(observer.FullScanRegret(), 1.0);
  // Then a fully index-served query: weights 0.5 (old) and 1.0 (new) ->
  // regret = 0.5 / 1.5.
  observer.Observe(Annotate(schema, "@3 = 2001-01-01"),
                   FakeResult(10, 0, 0, 10));
  EXPECT_DOUBLE_EQ(observer.FullScanRegret(), 0.5 / 1.5);
  EXPECT_DOUBLE_EQ(observer.UnclusteredShare(), 0.0);
  // Unclustered-served tasks count toward their own share, not regret.
  observer.Observe(Annotate(schema, "@4 >= 1"), FakeResult(10, 0, 5, 5));
  EXPECT_GT(observer.UnclusteredShare(), 0.0);
  EXPECT_LT(observer.FullScanRegret(), 0.5);
}

TEST(WorkloadObserverTest, UnfilteredJobsAreCountedButNotLogged) {
  WorkloadObserver observer;
  observer.Observe(QueryAnnotation{}, FakeResult(10, 10, 0, 0));
  EXPECT_TRUE(observer.empty());
  // ... but the observation still happened: it ages the log and counts.
  EXPECT_EQ(observer.observed_total(), 1u);
}

TEST(WorkloadObserverTest, ShiftToFullScansDecaysStaleWeight) {
  // Regression: Observe used to early-return on unfiltered queries
  // *before* decaying the log, so a workload that shifted to full scans
  // froze the stale per-column weight forever.
  const Schema schema = workload::UserVisitsSchema();
  WorkloadObserver::Options opt;
  opt.decay = 0.5;
  WorkloadObserver observer(opt);
  observer.Observe(Annotate(schema, "@4 >= 1"), FakeResult(10, 10, 0, 0));
  EXPECT_DOUBLE_EQ(observer.TotalWeight(), 1.0);
  for (int i = 0; i < 6; ++i) {
    observer.Observe(QueryAnnotation{}, FakeResult(10, 10, 0, 0));
  }
  EXPECT_EQ(observer.observed_total(), 7u);
  EXPECT_EQ(observer.size(), 1u);  // full scans never join the log...
  // ...but each one decays it: 0.5^6 = 1/64.
  EXPECT_DOUBLE_EQ(observer.TotalWeight(), 1.0 / 64.0);
}

TEST(ReorgPlannerTest, ShiftToFullScansStopsReorganization) {
  // End-to-end regression for the decay fix: the planner must go idle —
  // and stop reorganizing for columns nobody filters on — once sustained
  // unfiltered traffic has decayed the filtered log away. Regret is a
  // weight *ratio* (uniform decay cancels), so the planner gates on the
  // absolute decayed weight.
  Testbed bed(SmallConfig());
  bed.LoadUserVisits();
  ASSERT_TRUE(bed.UploadHail("/d", {workload::kVisitDate}).ok());
  WorkloadObserver::Options opt;
  opt.decay = 0.5;
  WorkloadObserver observer(opt);
  observer.Observe(Annotate(bed.schema(), "@4 between(1,10)"),
                   FakeResult(24, 24, 0, 0));  // pure full-scan regret
  ReorgPlanner planner;
  PlanSummary summary;
  EXPECT_FALSE(
      planner.Plan(bed.dfs(), bed.schema(), "/d", observer, &summary).empty());
  EXPECT_EQ(summary.hot_column, workload::kAdRevenue);
  // The workload shifts to unfiltered scans; @4's weight halves per query.
  for (int i = 0; i < 6; ++i) {
    observer.Observe(QueryAnnotation{}, FakeResult(24, 24, 0, 0));
  }
  // Regret (a ratio) is still 1.0 — only the absolute weight aged out.
  EXPECT_DOUBLE_EQ(observer.FullScanRegret(), 1.0);
  EXPECT_LT(observer.TotalWeight(), kMinWorkloadWeight);
  const auto tasks =
      planner.Plan(bed.dfs(), bed.schema(), "/d", observer, &summary);
  EXPECT_TRUE(tasks.empty());
  EXPECT_EQ(summary.hot_column, -1);
  // The streak reset with the idle round: a later heat-up restarts at the
  // cheap incremental stage.
  EXPECT_EQ(planner.hot_rounds(workload::kAdRevenue), 0);
}

TEST(WorkloadObserverTest, ZeroTaskQueriesCountInShareDenominator) {
  // Regression: WeightedTaskShare dropped map_tasks == 0 observations from
  // numerator *and* denominator, silently inflating the regret share of
  // the remaining log when pruned/empty-input queries occur.
  const Schema schema = workload::UserVisitsSchema();
  WorkloadObserver::Options opt;
  opt.decay = 0.5;
  WorkloadObserver observer(opt);
  observer.Observe(Annotate(schema, "@4 >= 1"), FakeResult(0, 0, 0, 0));
  // A zero-task query alone has no full-scan share.
  EXPECT_DOUBLE_EQ(observer.FullScanRegret(), 0.0);
  observer.Observe(Annotate(schema, "@3 = 2001-01-01"),
                   FakeResult(10, 10, 0, 0));
  // Weights: 0.5 (zero-task, zero hit) + 1.0 (all fallback) -> 1/1.5,
  // not the 1.0 the old denominator-drop reported.
  EXPECT_DOUBLE_EQ(observer.FullScanRegret(), 1.0 / 1.5);
  EXPECT_DOUBLE_EQ(observer.UnclusteredShare(), 0.0);
}

TEST(WorkloadObserverTest, RecordsAccessPathsAndBilledCost) {
  // The log is the loop's observability surface: every observation must
  // carry the per-task access-path mix and the billed simulated cost.
  const Schema schema = workload::UserVisitsSchema();
  WorkloadObserver observer;
  JobResult r = FakeResult(10, 2, 3, 5);
  r.avg_record_reader_seconds = 1.5;
  observer.Observe(Annotate(schema, "@4 >= 1"), r);
  ASSERT_EQ(observer.size(), 1u);
  const QueryObservation& obs = observer.log().back();
  EXPECT_EQ(obs.map_tasks, 10u);
  EXPECT_EQ(obs.fallback_tasks, 2u);
  EXPECT_EQ(obs.unclustered_tasks, 3u);
  EXPECT_EQ(obs.index_scan_tasks, 5u);
  EXPECT_DOUBLE_EQ(obs.billed_seconds, 15.0);
}

// ---------------------------------------------------------------------------
// ReorgPlanner staging
// ---------------------------------------------------------------------------

TEST(ReorgPlannerTest, IdleBelowRegretThreshold) {
  Testbed bed(SmallConfig());
  bed.LoadUserVisits();
  ASSERT_TRUE(bed.UploadHail("/d", {workload::kVisitDate}).ok());
  WorkloadObserver observer;
  // Served by the visitDate index: nothing to do.
  observer.Observe(Annotate(bed.schema(), "@3 = 2001-01-01"),
                   FakeResult(24, 0, 0, 24));
  ReorgPlanner planner;
  PlanSummary summary;
  const auto tasks =
      planner.Plan(bed.dfs(), bed.schema(), "/d", observer, &summary);
  EXPECT_TRUE(tasks.empty());
  EXPECT_DOUBLE_EQ(summary.full_scan_regret, 0.0);
  EXPECT_EQ(summary.hot_column, -1);
}

TEST(ReorgPlannerTest, InstallsUnclusteredFirstThenEscalates) {
  Testbed bed(SmallConfig());
  bed.LoadUserVisits();
  ASSERT_TRUE(bed.UploadHail("/d", {workload::kVisitDate}).ok());
  const auto blocks = bed.dfs().namenode().GetFileBlocks("/d");
  ASSERT_TRUE(blocks.ok());

  WorkloadObserver observer;
  observer.Observe(Annotate(bed.schema(), "@4 between(1,10)"),
                   FakeResult(24, 24, 0, 0));  // pure full-scan regret
  PlannerOptions opt;
  opt.escalate_after_rounds = 2;
  ReorgPlanner planner(opt);

  // Rounds 1 and 2: incremental (unclustered installs), one per block,
  // never sacrificing the visitDate replica.
  for (int round = 1; round <= 2; ++round) {
    PlanSummary summary;
    const auto tasks =
        planner.Plan(bed.dfs(), bed.schema(), "/d", observer, &summary);
    ASSERT_EQ(tasks.size(), blocks->size()) << "round " << round;
    EXPECT_EQ(summary.hot_column, workload::kAdRevenue);
    EXPECT_FALSE(summary.escalated);
    for (const MaintenanceTask& task : tasks) {
      EXPECT_EQ(task.kind, MaintenanceTask::Kind::kInstallUnclustered);
      EXPECT_EQ(task.column, workload::kAdRevenue);
      auto info = bed.dfs().namenode().GetReplicaInfo(task.block_id,
                                                      task.datanode);
      ASSERT_TRUE(info.ok());
      EXPECT_NE(info->sort_column, workload::kVisitDate)
          << "victim must not be the only clustered replica";
    }
    // Identical inputs -> identical plan (determinism).
    ReorgPlanner replay(opt);
    EXPECT_EQ(replay.Plan(bed.dfs(), bed.schema(), "/d", observer), tasks);
  }

  // Round 3: the column stayed hot -> full re-sorts.
  PlanSummary summary;
  const auto tasks =
      planner.Plan(bed.dfs(), bed.schema(), "/d", observer, &summary);
  ASSERT_EQ(tasks.size(), blocks->size());
  EXPECT_TRUE(summary.escalated);
  for (const MaintenanceTask& task : tasks) {
    EXPECT_EQ(task.kind, MaintenanceTask::Kind::kResortReplica);
  }
}

// ---------------------------------------------------------------------------
// Reorg execution primitives
// ---------------------------------------------------------------------------

TEST(ReorgExecutionTest, InstallUnclusteredBumpsGenerationAndRegisters) {
  Testbed bed(SmallConfig());
  bed.LoadUserVisits();
  ASSERT_TRUE(bed.UploadHail("/d", {workload::kVisitDate}).ok());
  const auto blocks = bed.dfs().namenode().GetFileBlocks("/d");
  ASSERT_TRUE(blocks.ok() && !blocks->empty());
  const hdfs::BlockLocation& loc = blocks->front();

  // Victim: a replica that is not the visitDate one.
  int victim = -1;
  for (int dn : loc.datanodes) {
    auto info = bed.dfs().namenode().GetReplicaInfo(loc.block_id, dn);
    ASSERT_TRUE(info.ok());
    if (!info->has_index()) victim = dn;
  }
  ASSERT_GE(victim, 0);

  MaintenanceTask task;
  task.block_id = loc.block_id;
  task.datanode = victim;
  task.column = workload::kAdRevenue;
  task.kind = MaintenanceTask::Kind::kInstallUnclustered;

  // Populate the read cache for this replica so the commit has an entry
  // to invalidate.
  ASSERT_TRUE(bed.dfs()
                  .datanode(victim)
                  .ReadBlockVerified(loc.block_id,
                                     bed.dfs().config().chunk_bytes)
                  .ok());
  ASSERT_GT(bed.dfs().block_cache().entry_count_for(victim), 0u);

  const uint64_t gen_before =
      bed.dfs().datanode(victim).block_generation(loc.block_id);
  auto prepared = PrepareReorg(bed.dfs(), task);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  EXPECT_GT(prepared->seconds, 0.0);
  // Nothing mutated yet.
  EXPECT_EQ(bed.dfs().datanode(victim).block_generation(loc.block_id),
            gen_before);

  ASSERT_TRUE(CommitReorg(&bed.dfs(), task, std::move(*prepared)).ok());
  EXPECT_GT(bed.dfs().datanode(victim).block_generation(loc.block_id),
            gen_before);
  EXPECT_GT(bed.dfs().block_cache().stats().invalidated_entries, 0u);

  auto info = bed.dfs().namenode().GetReplicaInfo(loc.block_id, victim);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->unclustered_column, workload::kAdRevenue);
  EXPECT_GT(info->unclustered_index_bytes, 0u);
  EXPECT_EQ(bed.dfs().namenode().GetHostsWithUnclusteredIndex(
                loc.block_id, workload::kAdRevenue),
            (std::vector<int>{victim}));

  // The stored replica round-trips as a version-2 HAIL block whose
  // unclustered index agrees with a scan of its own PAX payload.
  auto raw = bed.dfs().datanode(victim).ReadBlockRaw(loc.block_id);
  ASSERT_TRUE(raw.ok());
  auto view = HailBlockView::Open(*raw);
  ASSERT_TRUE(view.ok());
  EXPECT_TRUE(view->has_unclustered());
  EXPECT_EQ(view->unclustered_column(), workload::kAdRevenue);
  auto uc = view->ReadUnclusteredIndex();
  ASSERT_TRUE(uc.ok());
  auto pax = view->OpenPax();
  ASSERT_TRUE(pax.ok());
  EXPECT_EQ(uc->num_records(), pax->num_records());
}

TEST(ReorgExecutionTest, ResortRegistersClusteredAndDropsUnclustered) {
  Testbed bed(SmallConfig());
  bed.LoadUserVisits();
  ASSERT_TRUE(bed.UploadHail("/d", {workload::kVisitDate}).ok());
  const auto blocks = bed.dfs().namenode().GetFileBlocks("/d");
  ASSERT_TRUE(blocks.ok() && !blocks->empty());
  const hdfs::BlockLocation& loc = blocks->front();
  int victim = -1;
  for (int dn : loc.datanodes) {
    auto info = bed.dfs().namenode().GetReplicaInfo(loc.block_id, dn);
    if (info.ok() && !info->has_index()) victim = dn;
  }
  ASSERT_GE(victim, 0);

  MaintenanceTask install;
  install.block_id = loc.block_id;
  install.datanode = victim;
  install.column = workload::kAdRevenue;
  install.kind = MaintenanceTask::Kind::kInstallUnclustered;
  auto prepared = PrepareReorg(bed.dfs(), install);
  ASSERT_TRUE(prepared.ok());
  ASSERT_TRUE(CommitReorg(&bed.dfs(), install, std::move(*prepared)).ok());

  MaintenanceTask resort = install;
  resort.kind = MaintenanceTask::Kind::kResortReplica;
  auto prepared2 = PrepareReorg(bed.dfs(), resort);
  ASSERT_TRUE(prepared2.ok());
  // A full re-sort costs more simulated time than the lazy install.
  auto reinstall_cost = PrepareReorg(bed.dfs(), install);
  ASSERT_TRUE(reinstall_cost.ok());
  EXPECT_GT(prepared2->seconds, reinstall_cost->seconds);
  ASSERT_TRUE(CommitReorg(&bed.dfs(), resort, std::move(*prepared2)).ok());

  auto info = bed.dfs().namenode().GetReplicaInfo(loc.block_id, victim);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->sort_column, workload::kAdRevenue);
  EXPECT_EQ(info->index_kind, "clustered");
  EXPECT_FALSE(info->has_unclustered());
  const auto hosts = bed.dfs().namenode().GetHostsWithIndex(
      loc.block_id, workload::kAdRevenue);
  EXPECT_EQ(hosts, (std::vector<int>{victim}));
}

TEST(ReorgExecutionTest, CommitRefusesOnDeadNode) {
  Testbed bed(SmallConfig());
  bed.LoadUserVisits();
  ASSERT_TRUE(bed.UploadHail("/d", {workload::kVisitDate}).ok());
  const auto blocks = bed.dfs().namenode().GetFileBlocks("/d");
  ASSERT_TRUE(blocks.ok());
  const hdfs::BlockLocation& loc = blocks->front();
  const int victim = loc.datanodes.front();
  MaintenanceTask task;
  task.block_id = loc.block_id;
  task.datanode = victim;
  task.column = workload::kAdRevenue;
  auto prepared = PrepareReorg(bed.dfs(), task);
  ASSERT_TRUE(prepared.ok());
  bed.dfs().KillNode(victim, 0.0);
  EXPECT_FALSE(CommitReorg(&bed.dfs(), task, std::move(*prepared)).ok());
}

// ---------------------------------------------------------------------------
// Rewrite builds own their inputs
// ---------------------------------------------------------------------------

/// A testbed whose /d replicas are sorted on visitDate only, so the first
/// block has unindexed replicas to rewrite and a node that holds none.
void LoadReorgBed(Testbed* bed) {
  bed->LoadUserVisits();
  ASSERT_TRUE(bed->UploadHail("/d", {workload::kVisitDate}).ok());
}

hdfs::BlockLocation FirstBlock(Testbed& bed, const std::string& file) {
  auto blocks = bed.dfs().namenode().GetFileBlocks(file);
  if (!blocks.ok() || blocks->empty()) {
    ADD_FAILURE() << "no blocks in " << file;
    return {};
  }
  return blocks->front();
}

/// The task of `kind` the tests rewrite: the first block's unindexed
/// replica (installs, re-sorts, stats) or a copy onto the one node not
/// holding the block (replica adds).
MaintenanceTask TaskOf(MaintenanceTask::Kind kind, Testbed& bed) {
  const hdfs::BlockLocation loc = FirstBlock(bed, "/d");
  MaintenanceTask task;
  task.block_id = loc.block_id;
  task.kind = kind;
  task.column = workload::kAdRevenue;
  if (kind == MaintenanceTask::Kind::kBuildStats) task.column = -1;
  if (kind == MaintenanceTask::Kind::kAddReplica) {
    task.column = workload::kVisitDate;
    for (int dn = 0; dn < bed.dfs().num_datanodes(); ++dn) {
      if (!bed.dfs().namenode().GetReplicaInfo(loc.block_id, dn).ok()) {
        task.datanode = dn;
      }
    }
  } else {
    for (int dn : loc.datanodes) {
      auto info = bed.dfs().namenode().GetReplicaInfo(loc.block_id, dn);
      if (info.ok() && !info->has_index()) task.datanode = dn;
    }
  }
  EXPECT_GE(task.datanode, 0);
  return task;
}

TEST(ReorgExecutionTest, BuildOwnsItsInputsAcrossLaterReplicaWrites) {
  using Kind = MaintenanceTask::Kind;
  for (Kind kind : {Kind::kInstallUnclustered, Kind::kResortReplica,
                    Kind::kAddReplica, Kind::kBuildStats}) {
    for (bool on_pool : {true, false}) {
      SCOPED_TRACE(static_cast<int>(kind));
      SCOPED_TRACE(on_pool ? "build on the shared pool" : "build at commit");
      // The reference: prepare and commit back to back.
      Testbed twin(SmallConfig());
      LoadReorgBed(&twin);
      const MaintenanceTask task = TaskOf(kind, twin);
      auto reference = PrepareReorg(twin.dfs(), task);
      ASSERT_TRUE(reference.ok()) << reference.status().ToString();
      ASSERT_TRUE(CommitReorg(&twin.dfs(), task, std::move(*reference)).ok());

      Testbed bed(SmallConfig());
      LoadReorgBed(&bed);
      ASSERT_EQ(TaskOf(kind, bed), task);
      auto prepared = PrepareReorg(bed.dfs(), task);
      ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
      if (on_pool) prepared->StartBuild(SharedPool());
      // Overwrite every replica of the block (the rewritten one and any
      // copy source) before the commit: the build must not read them.
      const std::string junk(3000, '\x5a');
      const std::vector<uint32_t> junk_crcs = hdfs::ComputeChunkChecksums(
          junk, bed.dfs().config().chunk_bytes);
      for (int dn : FirstBlock(bed, "/d").datanodes) {
        bed.dfs().datanode(dn).StoreBlock(task.block_id, junk, junk_crcs);
      }
      ASSERT_TRUE(CommitReorg(&bed.dfs(), task, std::move(*prepared)).ok());

      const hdfs::Namenode& got_nn = bed.dfs().namenode();
      const hdfs::Namenode& want_nn = twin.dfs().namenode();
      if (kind == Kind::kBuildStats) {
        auto got = got_nn.GetBlockStats(task.block_id);
        auto want = want_nn.GetBlockStats(task.block_id);
        ASSERT_TRUE(got.ok() && want.ok());
        EXPECT_EQ(*got, *want);
        continue;
      }
      const hdfs::Datanode& got_dn = bed.dfs().datanode(task.datanode);
      const hdfs::Datanode& want_dn = twin.dfs().datanode(task.datanode);
      auto got_bytes = got_dn.ReadBlockRaw(task.block_id);
      auto want_bytes = want_dn.ReadBlockRaw(task.block_id);
      ASSERT_TRUE(got_bytes.ok() && want_bytes.ok());
      EXPECT_EQ(*got_bytes, *want_bytes);
      const std::string meta = hdfs::BlockMetaFileName(task.block_id);
      auto got_crcs = got_dn.store().Get(meta);
      auto want_crcs = want_dn.store().Get(meta);
      ASSERT_TRUE(got_crcs.ok() && want_crcs.ok());
      EXPECT_EQ(*got_crcs, *want_crcs);
      auto got = got_nn.GetReplicaInfo(task.block_id, task.datanode);
      auto want = want_nn.GetReplicaInfo(task.block_id, task.datanode);
      ASSERT_TRUE(got.ok() && want.ok());
      EXPECT_EQ(got->layout, want->layout);
      EXPECT_EQ(got->sort_column, want->sort_column);
      EXPECT_EQ(got->index_kind, want->index_kind);
      EXPECT_EQ(got->replica_bytes, want->replica_bytes);
      EXPECT_EQ(got->index_bytes, want->index_bytes);
      EXPECT_EQ(got->unclustered_column, want->unclustered_column);
      EXPECT_EQ(got->unclustered_index_bytes, want->unclustered_index_bytes);
      EXPECT_EQ(got->replica_bytes, got_bytes->size());
    }
  }
}

TEST(ReorgExecutionTest, MalformedTasksFailInPrepare) {
  using Kind = MaintenanceTask::Kind;
  Testbed bed(SmallConfig());
  LoadReorgBed(&bed);
  ASSERT_TRUE(bed.UploadHadoop("/t").ok());
  const int fields = bed.schema().num_fields();

  // Missing replica: the named node holds no copy of the block.
  const MaintenanceTask add = TaskOf(Kind::kAddReplica, bed);
  for (Kind kind :
       {Kind::kInstallUnclustered, Kind::kResortReplica, Kind::kBuildStats}) {
    MaintenanceTask missing = TaskOf(kind, bed);
    missing.datanode = add.datanode;
    EXPECT_FALSE(PrepareReorg(bed.dfs(), missing).ok());
  }
  // Non-PAX replica: a stock text upload.
  const hdfs::BlockLocation text = FirstBlock(bed, "/t");
  for (Kind kind :
       {Kind::kInstallUnclustered, Kind::kResortReplica, Kind::kBuildStats}) {
    MaintenanceTask task;
    task.block_id = text.block_id;
    task.datanode = text.datanodes.front();
    task.column = kind == Kind::kBuildStats ? -1 : workload::kAdRevenue;
    task.kind = kind;
    EXPECT_TRUE(PrepareReorg(bed.dfs(), task).status().IsInvalidArgument());
  }
  // Column out of range.
  for (Kind kind : {Kind::kInstallUnclustered, Kind::kResortReplica}) {
    for (int column : {-1, fields}) {
      MaintenanceTask task = TaskOf(kind, bed);
      task.column = column;
      EXPECT_TRUE(PrepareReorg(bed.dfs(), task).status().IsInvalidArgument());
    }
  }
  // The copy's target already holds a replica.
  MaintenanceTask onto_holder = add;
  onto_holder.datanode = FirstBlock(bed, "/d").datanodes.front();
  EXPECT_TRUE(PrepareReorg(bed.dfs(), onto_holder).status().IsAlreadyExists());
}

TEST(ReorgExecutionTest, ConvergenceReadsTheTargetsDirRepRecord) {
  using Kind = MaintenanceTask::Kind;
  Testbed bed(SmallConfig());
  LoadReorgBed(&bed);
  const hdfs::BlockLocation loc = FirstBlock(bed, "/d");
  int clustered = -1;  // the replica sorted on visitDate at upload
  int plain = -1;      // an unindexed one
  for (int dn : loc.datanodes) {
    auto info = bed.dfs().namenode().GetReplicaInfo(loc.block_id, dn);
    ASSERT_TRUE(info.ok());
    (info->has_index() ? clustered : plain) = dn;
  }
  ASSERT_GE(clustered, 0);
  ASSERT_GE(plain, 0);
  const auto task = [&](Kind kind, int datanode, int column) {
    MaintenanceTask t;
    t.block_id = loc.block_id;
    t.datanode = datanode;
    t.column = column;
    t.kind = kind;
    return t;
  };
  const auto converged = [&](Kind kind, int datanode, int column) {
    return IsConverged(bed.dfs(), task(kind, datanode, column));
  };

  // A re-sort converges only on a target clustered on its own column.
  EXPECT_TRUE(converged(Kind::kResortReplica, clustered, workload::kVisitDate));
  EXPECT_FALSE(converged(Kind::kResortReplica, clustered, workload::kAdRevenue));
  EXPECT_FALSE(converged(Kind::kResortReplica, plain, workload::kVisitDate));
  // An install converges on a target clustered on its column ...
  EXPECT_TRUE(
      converged(Kind::kInstallUnclustered, clustered, workload::kVisitDate));
  EXPECT_FALSE(
      converged(Kind::kInstallUnclustered, clustered, workload::kAdRevenue));
  EXPECT_FALSE(converged(Kind::kInstallUnclustered, plain, workload::kAdRevenue));
  // ... or carrying an unclustered index on it, which a re-sort does not
  // count as its own layout.
  const MaintenanceTask install =
      task(Kind::kInstallUnclustered, plain, workload::kAdRevenue);
  auto prepared = PrepareReorg(bed.dfs(), install);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  ASSERT_TRUE(CommitReorg(&bed.dfs(), install, std::move(*prepared)).ok());
  EXPECT_TRUE(converged(Kind::kInstallUnclustered, plain, workload::kAdRevenue));
  EXPECT_FALSE(converged(Kind::kInstallUnclustered, plain, workload::kSourceIP));
  EXPECT_FALSE(converged(Kind::kResortReplica, plain, workload::kAdRevenue));

  // Replica adds, evictions and stats backfills never converge, even on a
  // target that is clustered on the column.
  for (Kind kind : {Kind::kAddReplica, Kind::kEvictReplica, Kind::kBuildStats}) {
    EXPECT_FALSE(converged(kind, clustered, workload::kVisitDate))
        << static_cast<int>(kind);
  }

  // No record, no convergence: the task reaches PrepareReorg, which fails
  // it as before.
  const int absent = TaskOf(Kind::kAddReplica, bed).datanode;
  ASSERT_FALSE(bed.dfs().namenode().GetReplicaInfo(loc.block_id, absent).ok());
  for (Kind kind : {Kind::kInstallUnclustered, Kind::kResortReplica}) {
    for (int column : {workload::kVisitDate, workload::kAdRevenue}) {
      EXPECT_FALSE(converged(kind, absent, column));
      EXPECT_FALSE(PrepareReorg(bed.dfs(), task(kind, absent, column)).ok());
    }
  }
}

// ---------------------------------------------------------------------------
// The closed loop, end to end
// ---------------------------------------------------------------------------

/// Runs the shifted query until it converges to clustered index scans.
/// Returns every per-run JobResult.
std::vector<JobResult> RunUntilConverged(Testbed* bed,
                                         AdaptiveManager* manager,
                                         int max_runs,
                                         int kill_on_run = -1) {
  std::vector<JobResult> runs;
  for (int i = 0; i < max_runs; ++i) {
    RunOptions options;
    options.execution = ExecutionMode::kSerial;
    options.adaptive = manager;
    if (kill_on_run == i) {
      options.fault_plan.kills.push_back(
          {.node = 1, .at_progress = 0.3, .progress_job = 0});
    }
    auto r = bed->RunQuery(System::kHail, "/d", ShiftedQuery(), false,
                           options, /*collect_output=*/true);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (!r.ok()) break;
    runs.push_back(*r);
    if (r->index_scan_tasks == r->map_tasks) break;
  }
  return runs;
}

TEST(AdaptiveLoopTest, ConvergesFromFullScansToIndexScans) {
  Testbed bed(SmallConfig());
  bed.LoadUserVisits();
  ASSERT_TRUE(bed.UploadHail("/d", {workload::kVisitDate}).ok());

  // Reference: the same query without adaptation (pure full-scan path).
  auto reference = bed.RunQuery(System::kHail, "/d", ShiftedQuery(), false,
                                RunOptions{}, /*collect_output=*/true);
  ASSERT_TRUE(reference.ok());
  ASSERT_EQ(reference->fallback_scans, reference->map_tasks);

  AdaptiveConfig config;
  config.planner.regret_threshold = 0.2;
  config.planner.escalate_after_rounds = 1;
  AdaptiveManager manager(&bed.dfs(), bed.schema(), "/d", config);

  const std::vector<JobResult> runs =
      RunUntilConverged(&bed, &manager, /*max_runs=*/12);
  ASSERT_GE(runs.size(), 2u);

  // Run 1 carried no maintenance (the manager had observed nothing) and is
  // simulation-identical to the non-adaptive reference.
  EXPECT_EQ(runs[0].end_to_end_seconds, reference->end_to_end_seconds);
  EXPECT_EQ(runs[0].avg_record_reader_seconds,
            reference->avg_record_reader_seconds);
  EXPECT_EQ(runs[0].maintenance_scheduled, 0u);
  EXPECT_EQ(runs[0].fallback_scans, runs[0].map_tasks);
  EXPECT_GT(manager.planned_total(), 0u);

  // Final run: every task is a clustered index scan, and cheaper.
  const JobResult& last = runs.back();
  EXPECT_EQ(last.index_scan_tasks, last.map_tasks);
  EXPECT_EQ(last.fallback_scans, 0u);
  EXPECT_LT(last.avg_record_reader_seconds,
            runs[0].avg_record_reader_seconds);

  // Somewhere on the way the lazy unclustered path served tasks.
  bool saw_unclustered = false;
  for (const JobResult& run : runs) {
    saw_unclustered = saw_unclustered || run.unclustered_scan_tasks > 0;
  }
  EXPECT_TRUE(saw_unclustered);
  EXPECT_GT(manager.completed_total(), 0u);

  // Query answers never change while the layout shifts underneath.
  for (const JobResult& run : runs) {
    EXPECT_EQ(Sorted(run.output_rows), Sorted(reference->output_rows));
  }

  // Every block now has a clustered adRevenue replica, and the advisor's
  // desired assignment is in place.
  const auto blocks = bed.dfs().namenode().GetFileBlocks("/d");
  ASSERT_TRUE(blocks.ok());
  for (const hdfs::BlockLocation& loc : *blocks) {
    EXPECT_FALSE(bed.dfs()
                     .namenode()
                     .GetHostsWithIndex(loc.block_id, workload::kAdRevenue)
                     .empty());
  }
}

TEST(AdaptiveLoopTest, SurvivesNodeKillMidReorg) {
  Testbed bed(SmallConfig(7));
  bed.LoadUserVisits();
  ASSERT_TRUE(bed.UploadHail("/d", {workload::kVisitDate}).ok());
  AdaptiveConfig config;
  config.planner.regret_threshold = 0.2;
  config.planner.escalate_after_rounds = 1;
  AdaptiveManager manager(&bed.dfs(), bed.schema(), "/d", config);

  // Kill node 1 at 30% progress of the second run — right when the first
  // round of reorg tasks executes (JobRunner revives nodes at the start of
  // each subsequent run, so the reorganization resumes).
  const std::vector<JobResult> runs = RunUntilConverged(
      &bed, &manager, /*max_runs=*/14, /*kill_on_run=*/1);
  ASSERT_GE(runs.size(), 2u);
  EXPECT_GT(runs[1].rescheduled_tasks, 0u);  // the kill really happened

  const JobResult& last = runs.back();
  EXPECT_EQ(last.index_scan_tasks, last.map_tasks);
  EXPECT_EQ(last.fallback_scans, 0u);

  // The answer stayed correct throughout, including the kill run.
  auto reference = bed.RunQuery(System::kHail, "/d", ShiftedQuery(), false,
                                RunOptions{}, /*collect_output=*/true);
  ASSERT_TRUE(reference.ok());
  for (const JobResult& run : runs) {
    EXPECT_EQ(Sorted(run.output_rows), Sorted(reference->output_rows));
  }
}

TEST(AdaptiveLoopTest, UnclusteredProbeMatchesFullScanAnswer) {
  // Freeze the loop at the incremental stage: escalation disabled, so the
  // reader serves the shifted query through unclustered probes only. The
  // query is needle-selective — §3.5: unclustered indexes pay off *only*
  // for very selective queries (each hit is a random access), so this is
  // the case where the lazy stage must already beat the full scan.
  const QueryDef needle{"Shift-needle", "@1 = 172.101.11.46", "{@4}", 3.2e-8};
  Testbed bed(SmallConfig());
  bed.LoadUserVisits();
  ASSERT_TRUE(bed.UploadHail("/d", {workload::kVisitDate}).ok());
  auto reference = bed.RunQuery(System::kHail, "/d", needle, false,
                                RunOptions{}, /*collect_output=*/true);
  ASSERT_TRUE(reference.ok());

  AdaptiveConfig config;
  config.planner.regret_threshold = 0.2;
  config.planner.escalate_after_rounds = 1000;  // never re-sort
  AdaptiveManager manager(&bed.dfs(), bed.schema(), "/d", config);

  JobResult last;
  for (int i = 0; i < 12; ++i) {
    RunOptions options;
    options.execution = ExecutionMode::kSerial;
    options.adaptive = &manager;
    auto r = bed.RunQuery(System::kHail, "/d", needle, false,
                          options, /*collect_output=*/true);
    ASSERT_TRUE(r.ok());
    last = *r;
    EXPECT_EQ(Sorted(last.output_rows), Sorted(reference->output_rows));
    if (last.unclustered_scan_tasks == last.map_tasks) break;
  }
  EXPECT_EQ(last.unclustered_scan_tasks, last.map_tasks);
  EXPECT_EQ(last.index_scan_tasks, 0u);
  EXPECT_EQ(last.fallback_scans, 0u);
  // Cheaper than the full scan for this selective query (bytes touched:
  // dense index + a few partitions instead of the whole block).
  EXPECT_LT(last.avg_record_reader_seconds,
            reference->avg_record_reader_seconds);
}

TEST(AdaptiveLoopTest, CorruptUnclusteredIndexFailsOverToAnotherReplica) {
  // An unclustered index whose CRCs hold but whose rows do not match its
  // block (a row id past the block, or one row short) must not reach the
  // selection vector: the read fails over to another replica and the
  // answer stays exact.
  const QueryDef needle{"Shift-needle", "@1 = 172.101.11.46", "{@4}", 3.2e-8};
  for (const bool short_index : {false, true}) {
    SCOPED_TRACE(short_index ? "one row short" : "row id past the block");
    Testbed bed(SmallConfig());
    LoadReorgBed(&bed);
    auto reference = bed.RunQuery(System::kHail, "/d", needle, false,
                                  RunOptions{}, /*collect_output=*/true);
    ASSERT_TRUE(reference.ok());
    const auto blocks = bed.dfs().namenode().GetFileBlocks("/d");
    ASSERT_TRUE(blocks.ok());
    int victim = -1;
    for (const hdfs::BlockLocation& loc : *blocks) {
      MaintenanceTask task;
      task.block_id = loc.block_id;
      task.column = workload::kSourceIP;
      task.kind = MaintenanceTask::Kind::kInstallUnclustered;
      for (int dn : loc.datanodes) {
        auto info = bed.dfs().namenode().GetReplicaInfo(loc.block_id, dn);
        if (info.ok() && !info->has_index()) task.datanode = dn;
      }
      auto prepared = PrepareReorg(bed.dfs(), task);
      ASSERT_TRUE(prepared.ok());
      ASSERT_TRUE(CommitReorg(&bed.dfs(), task, std::move(*prepared)).ok());
      if (victim < 0) victim = task.datanode;
    }

    // Re-store the first block's unclustered replica with a doctored
    // index and fresh checksums; Dir_rep still routes the probe there.
    const uint64_t block = blocks->front().block_id;
    hdfs::Datanode& node = bed.dfs().datanode(victim);
    auto raw = node.ReadBlockRaw(block);
    ASSERT_TRUE(raw.ok());
    const std::string original(*raw);
    auto view = HailBlockView::Open(original);
    ASSERT_TRUE(view.ok() && view->has_unclustered());
    std::string uc_bytes(view->unclustered_section());
    if (short_index) {
      auto pax = PaxBlock::Deserialize(view->pax_section());
      ASSERT_TRUE(pax.ok());
      const ColumnVector& keys = pax->column(workload::kSourceIP);
      ColumnVector fewer(keys.type());
      for (size_t i = 0; i + 1 < keys.size(); ++i) {
        fewer.Append(keys.GetValue(i));
      }
      uc_bytes = UnclusteredIndex::Build(fewer).Serialize();
    } else {
      // The last u32 is a row id.
      for (size_t i = uc_bytes.size() - 4; i < uc_bytes.size(); ++i) {
        uc_bytes[i] = static_cast<char>(0xFF);
      }
    }
    const std::string doctored = BuildHailBlockParts(
        view->sort_column(), view->index_section(), view->pax_section(),
        view->unclustered_column(), uc_bytes);
    node.StoreBlock(block, doctored,
                    hdfs::ComputeChunkChecksums(
                        doctored, bed.dfs().config().chunk_bytes));

    auto after = bed.RunQuery(System::kHail, "/d", needle, false,
                              RunOptions{}, /*collect_output=*/true);
    ASSERT_TRUE(after.ok()) << after.status().ToString();
    EXPECT_EQ(Sorted(after->output_rows), Sorted(reference->output_rows));
    EXPECT_EQ(after->unclustered_scan_tasks, after->map_tasks - 1);
    EXPECT_EQ(after->fallback_scans, 1u);
    EXPECT_GT(after->cost.bucket(obs::CostBucket::kFailoverReread), 0u);
    // The replica is reported like one that fails its CRC.
    EXPECT_FALSE(bed.dfs().namenode().GetReplicaInfo(block, victim).ok());
  }
}

TEST(AdaptiveLoopTest, UnselectiveProbeAbandonsToFullScan) {
  // §3.5: unclustered indexes only pay off for very selective queries.
  // A wide range on an unclustered-indexed column must abandon the probe
  // (billed as index read + scan, reported as fallback) — never pay the
  // per-hit random I/O — and still return the exact answer.
  Testbed bed(SmallConfig());
  bed.LoadUserVisits();
  ASSERT_TRUE(bed.UploadHail("/d", {workload::kVisitDate}).ok());
  const QueryDef wide{"Wide-Q", "@4 between(1,500)", "{@4}", 0.96};
  auto reference = bed.RunQuery(System::kHail, "/d", wide, false,
                                RunOptions{}, /*collect_output=*/true);
  ASSERT_TRUE(reference.ok());

  // Install an unclustered adRevenue index on one replica of each block.
  const auto blocks = bed.dfs().namenode().GetFileBlocks("/d");
  ASSERT_TRUE(blocks.ok());
  for (const hdfs::BlockLocation& loc : *blocks) {
    int victim = -1;
    for (int dn : loc.datanodes) {
      auto info = bed.dfs().namenode().GetReplicaInfo(loc.block_id, dn);
      if (info.ok() && !info->has_index()) victim = dn;
    }
    ASSERT_GE(victim, 0);
    MaintenanceTask task;
    task.block_id = loc.block_id;
    task.datanode = victim;
    task.column = workload::kAdRevenue;
    task.kind = MaintenanceTask::Kind::kInstallUnclustered;
    auto prepared = PrepareReorg(bed.dfs(), task);
    ASSERT_TRUE(prepared.ok());
    ASSERT_TRUE(CommitReorg(&bed.dfs(), task, std::move(*prepared)).ok());
  }

  auto after = bed.RunQuery(System::kHail, "/d", wide, false, RunOptions{},
                            /*collect_output=*/true);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->unclustered_scan_tasks, 0u);
  EXPECT_EQ(after->fallback_scans, after->map_tasks);
  EXPECT_EQ(Sorted(after->output_rows), Sorted(reference->output_rows));
  // The abandoned probe bills the dense-index read on top of the scan.
  EXPECT_GT(after->avg_record_reader_seconds,
            reference->avg_record_reader_seconds);
}

// ---------------------------------------------------------------------------
// Aggressive replication (extra hot-block replicas under a storage budget)
// ---------------------------------------------------------------------------

TEST(ReorgPlannerTest, AggressiveReplicationStaysWithinBudget) {
  Testbed bed(SmallConfig());
  bed.LoadUserVisits();
  ASSERT_TRUE(bed.UploadHail("/d", {workload::kVisitDate}).ok());
  const auto blocks = bed.dfs().namenode().GetFileBlocks("/d");
  ASSERT_TRUE(blocks.ok());

  WorkloadObserver observer;
  observer.Observe(Annotate(bed.schema(), "@4 between(1,10)"),
                   FakeResult(24, 24, 0, 0));  // adRevenue is hot
  PlannerOptions opt;
  opt.aggressive_replication = true;
  const uint64_t block_bytes = bed.dfs().config().block_size;
  opt.replication_budget_bytes = 3 * block_bytes;  // room for 3 extras
  ReorgPlanner planner(opt);
  PlanSummary summary;
  const auto tasks =
      planner.Plan(bed.dfs(), bed.schema(), "/d", observer, &summary);
  // With replication 3 on 4 nodes every block has exactly one non-holder;
  // the budget admits extras for the first 3 blocks only.
  size_t adds = 0;
  for (const MaintenanceTask& t : tasks) {
    if (t.kind != MaintenanceTask::Kind::kAddReplica) continue;
    ++adds;
    EXPECT_EQ(t.column, workload::kAdRevenue);
    EXPECT_FALSE(
        bed.dfs().namenode().GetReplicaInfo(t.block_id, t.datanode).ok())
        << "add must target a node not yet holding the block";
  }
  EXPECT_EQ(adds, 3u);
  EXPECT_EQ(summary.replicas_planned, 3u);
  EXPECT_EQ(summary.evictions_planned, 0u);
  EXPECT_LE(summary.budget_used_bytes, opt.replication_budget_bytes);
  // Identical inputs -> identical plan (determinism).
  ReorgPlanner replay(opt);
  EXPECT_EQ(replay.Plan(bed.dfs(), bed.schema(), "/d", observer), tasks);

  // The next round plans no further adds: the budget is fully committed
  // to the extras already queued (optimistic accounting).
  PlanSummary again;
  planner.Plan(bed.dfs(), bed.schema(), "/d", observer, &again);
  EXPECT_EQ(again.replicas_planned, 0u);
}

TEST(ReorgExecutionTest, AddReplicaRegistersExtraAndEvictionDropsIt) {
  Testbed bed(SmallConfig());
  bed.LoadUserVisits();
  ASSERT_TRUE(bed.UploadHail("/d", {workload::kVisitDate}).ok());
  const auto blocks = bed.dfs().namenode().GetFileBlocks("/d");
  ASSERT_TRUE(blocks.ok() && !blocks->empty());
  const hdfs::BlockLocation& loc = blocks->front();

  // The one node not holding the block.
  int target = -1;
  for (int dn = 0; dn < bed.dfs().num_datanodes(); ++dn) {
    if (!bed.dfs().namenode().GetReplicaInfo(loc.block_id, dn).ok()) {
      target = dn;
    }
  }
  ASSERT_GE(target, 0);

  MaintenanceTask add;
  add.block_id = loc.block_id;
  add.datanode = target;
  add.column = workload::kVisitDate;
  add.kind = MaintenanceTask::Kind::kAddReplica;
  auto prepared = PrepareReorg(bed.dfs(), add);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  EXPECT_GT(prepared->seconds, 0.0);
  ASSERT_TRUE(CommitReorg(&bed.dfs(), add, std::move(*prepared)).ok());

  // The extra copy is live: registered beyond the replication factor,
  // bytes on disk, and routed to for its indexed column.
  auto holders = bed.dfs().namenode().GetBlockDatanodes(loc.block_id);
  ASSERT_TRUE(holders.ok());
  EXPECT_EQ(holders->size(),
            static_cast<size_t>(bed.dfs().config().replication) + 1);
  EXPECT_TRUE(bed.dfs().datanode(target).HasBlock(loc.block_id));
  auto info = bed.dfs().namenode().GetReplicaInfo(loc.block_id, target);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->sort_column, workload::kVisitDate);
  // Adding again is refused: the target already holds a replica.
  EXPECT_FALSE(PrepareReorg(bed.dfs(), add).ok());

  // Evicting the extra brings the block back to the replication factor.
  MaintenanceTask evict = add;
  evict.kind = MaintenanceTask::Kind::kEvictReplica;
  auto prepared_evict = PrepareReorg(bed.dfs(), evict);
  ASSERT_TRUE(prepared_evict.ok());
  ASSERT_TRUE(CommitReorg(&bed.dfs(), evict, std::move(*prepared_evict)).ok());
  EXPECT_FALSE(
      bed.dfs().namenode().GetReplicaInfo(loc.block_id, target).ok());
  EXPECT_FALSE(bed.dfs().datanode(target).HasBlock(loc.block_id));

  // One more eviction would cut into the baseline copies: refused.
  MaintenanceTask below = evict;
  below.datanode = loc.datanodes.front();
  auto prepared_below = PrepareReorg(bed.dfs(), below);
  ASSERT_TRUE(prepared_below.ok());
  EXPECT_TRUE(CommitReorg(&bed.dfs(), below, std::move(*prepared_below))
                  .IsFailedPrecondition());
}

TEST(ReorgPlannerTest, EvictsExtrasWhoseColumnWentCold) {
  Testbed bed(SmallConfig());
  bed.LoadUserVisits();
  ASSERT_TRUE(bed.UploadHail("/d", {workload::kVisitDate}).ok());

  WorkloadObserver::Options oopt;
  oopt.decay = 0.5;
  WorkloadObserver observer(oopt);
  observer.Observe(Annotate(bed.schema(), "@4 between(1,10)"),
                   FakeResult(24, 24, 0, 0));
  PlannerOptions opt;
  opt.aggressive_replication = true;
  opt.replication_budget_bytes = 2 * bed.dfs().config().block_size;
  ReorgPlanner planner(opt);
  const auto round1 =
      planner.Plan(bed.dfs(), bed.schema(), "/d", observer, nullptr);
  // Commit the planned adds so the extras are registered.
  size_t committed = 0;
  for (const MaintenanceTask& t : round1) {
    if (t.kind != MaintenanceTask::Kind::kAddReplica) continue;
    auto prepared = PrepareReorg(bed.dfs(), t);
    ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
    ASSERT_TRUE(CommitReorg(&bed.dfs(), t, std::move(*prepared)).ok());
    ++committed;
  }
  ASSERT_EQ(committed, 2u);

  // The workload shifts to sourceIP; adRevenue's weight decays away.
  for (int i = 0; i < 8; ++i) {
    observer.Observe(Annotate(bed.schema(), "@1 = 172.101.11.46"),
                     FakeResult(24, 24, 0, 0));
  }
  PlanSummary summary;
  const auto round2 =
      planner.Plan(bed.dfs(), bed.schema(), "/d", observer, &summary);
  EXPECT_EQ(summary.hot_column, workload::kSourceIP);
  size_t evictions = 0;
  for (const MaintenanceTask& t : round2) {
    if (t.kind != MaintenanceTask::Kind::kEvictReplica) continue;
    ++evictions;
    EXPECT_EQ(t.column, workload::kAdRevenue);
  }
  EXPECT_EQ(evictions, 2u);
  EXPECT_EQ(summary.evictions_planned, 2u);
  // The freed budget immediately funds extras for the new hot column.
  EXPECT_EQ(summary.replicas_planned, 2u);
}

}  // namespace
}  // namespace adaptive
}  // namespace hail
