// Cost-based access-path planner: stats property tests, zone-map skip
// correctness, plan-cache hits/invalidation, stats backfill through the
// maintenance queue, admission-control wiring, and the planner-off /
// serial==parallel bit-identity guarantees.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "adaptive/adaptive_manager.h"
#include "adaptive/reorg.h"
#include "adaptive/reorg_planner.h"
#include "hail/hail_block.h"
#include "mapreduce/input_format.h"
#include "planner/block_stats.h"
#include "planner/plan_cache.h"
#include "workload/queries.h"
#include "workload/testbed.h"
#include "workload/uservisits.h"

namespace hail {
namespace {

using mapreduce::AdmissionControl;
using mapreduce::ClusterSession;
using mapreduce::ExecutionMode;
using mapreduce::JobSpec;
using mapreduce::RunOptions;
using mapreduce::SessionOptions;
using mapreduce::System;
using workload::QueryDef;
using workload::Testbed;
using workload::TestbedConfig;

const bool kForcePoolSize = [] {
  setenv("HAIL_THREADS", "4", /*overwrite=*/0);
  return true;
}();

TestbedConfig SmallConfig(uint64_t seed = 99) {
  TestbedConfig config;
  config.num_nodes = 4;
  config.real_block_bytes = 8 * 1024;
  config.logical_block_bytes = 4 * 1024 * 1024;
  config.blocks_per_node = 6;
  config.seed = seed;
  config.build_stats = true;
  config.time_ordered_uservisits = true;
  return config;
}

JobSpec QueryJob(const Testbed& bed, const std::string& path,
                 const QueryDef& query, bool use_planner,
                 bool collect = true) {
  auto spec = workload::MakeQueryJob(bed.schema(), path, System::kHail, query,
                                     /*hail_splitting=*/false, collect);
  EXPECT_TRUE(spec.ok()) << spec.status().ToString();
  spec->use_planner = use_planner;
  return *spec;
}

std::vector<hdfs::BlockLocation> AllBlocks(Testbed& bed,
                                           const std::string& path) {
  std::vector<hdfs::BlockLocation> out;
  for (int i = 0; i < bed.config().num_nodes; ++i) {
    char part[32];
    std::snprintf(part, sizeof(part), "/part-%05d", i);
    auto blocks = bed.dfs().namenode().GetFileBlocks(path + part);
    EXPECT_TRUE(blocks.ok()) << blocks.status().ToString();
    out.insert(out.end(), blocks->begin(), blocks->end());
  }
  return out;
}

std::vector<std::string> Sorted(std::vector<std::string> rows) {
  std::sort(rows.begin(), rows.end());
  return rows;
}

// ---------------------------------------------------------------------------
// Stats layer: upload-time sidecars == stats rebuilt from the stored blocks
// ---------------------------------------------------------------------------

void CheckUploadStatsMatchRebuild(bool encode_blocks) {
  TestbedConfig config = SmallConfig();
  config.encode_blocks = encode_blocks;
  Testbed bed(config);
  bed.LoadUserVisits();
  ASSERT_TRUE(bed.UploadHail("/uv", {workload::kVisitDate}).ok());

  int checked = 0;
  for (const hdfs::BlockLocation& loc : AllBlocks(bed, "/uv")) {
    auto sidecar = bed.dfs().namenode().GetBlockStats(loc.block_id);
    ASSERT_TRUE(sidecar.ok()) << sidecar.status().ToString();
    EXPECT_TRUE(bed.dfs().namenode().BlockStatsFresh(loc.block_id));

    // Rebuild from scratch off a stored replica. Replicas are row
    // permutations of the upload-time base, and BlockStats::Build is
    // order-independent, so the serialized sidecars must match exactly.
    ASSERT_FALSE(loc.datanodes.empty());
    auto raw = bed.dfs().datanode(loc.datanodes[0]).ReadBlockRaw(loc.block_id);
    ASSERT_TRUE(raw.ok()) << raw.status().ToString();
    auto view = HailBlockView::Open(*raw);
    ASSERT_TRUE(view.ok()) << view.status().ToString();
    auto pax = PaxBlock::Deserialize(view->pax_section());
    ASSERT_TRUE(pax.ok()) << pax.status().ToString();
    EXPECT_EQ(planner::BlockStats::Build(*pax).Serialize(),
              std::string(*sidecar));

    // And the sidecar round-trips through the versioned codec.
    auto parsed = planner::BlockStats::Deserialize(*sidecar);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(parsed->num_records, pax->num_records());
    EXPECT_EQ(parsed->columns.size(),
              static_cast<size_t>(pax->schema().num_fields()));
    ++checked;
  }
  EXPECT_GT(checked, 0);
}

TEST(BlockStatsTest, UploadStatsMatchRebuildPlain) {
  CheckUploadStatsMatchRebuild(/*encode_blocks=*/false);
}

TEST(BlockStatsTest, UploadStatsMatchRebuildEncodedV3) {
  CheckUploadStatsMatchRebuild(/*encode_blocks=*/true);
}

// ---------------------------------------------------------------------------
// Planning layer: zone-map skips prune blocks without changing the answer
// ---------------------------------------------------------------------------

TEST(AccessPlannerTest, ZoneSkipsPruneWithoutChangingOutput) {
  Testbed bed(SmallConfig());
  bed.LoadUserVisits();
  ASSERT_TRUE(bed.UploadHail("/uv", {workload::kVisitDate}).ok());
  const QueryDef q1 = workload::BobQueries()[0];  // one-year visitDate range

  mapreduce::JobRunner runner(&bed.dfs());
  auto plain = runner.Run(QueryJob(bed, "/uv", q1, /*use_planner=*/false));
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  auto planned = runner.Run(QueryJob(bed, "/uv", q1, /*use_planner=*/true));
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();

  EXPECT_FALSE(plain->planned);
  EXPECT_EQ(plain->zone_skipped_blocks, 0u);
  EXPECT_TRUE(planned->planned);
  EXPECT_GT(planned->predicted_cost_seconds, 0.0);

  // Time-ordered visitDate + a one-year window: most blocks' zone maps are
  // disjoint from the predicate and must be skipped (the ISSUE gate pins
  // >= 30% at bench scale; the toy cluster prunes heavily too).
  const size_t total_blocks = AllBlocks(bed, "/uv").size();
  EXPECT_GT(planned->zone_skipped_blocks, 0u);
  EXPECT_GE(static_cast<double>(planned->zone_skipped_blocks),
            0.3 * static_cast<double>(total_blocks));

  // Binding skips may not change the answer: identical qualifying rows.
  EXPECT_EQ(plain->records_qualifying, planned->records_qualifying);
  EXPECT_EQ(plain->output_count, planned->output_count);
  EXPECT_EQ(Sorted(plain->output_rows), Sorted(planned->output_rows));
  // And the planned run reads strictly less.
  EXPECT_LT(planned->billed_cost_seconds, plain->billed_cost_seconds);
}

TEST(AccessPlannerTest, PlannedRunsBitIdenticalSerialVsParallel) {
  std::string serial_dump;
  std::string serial_plan;
  for (ExecutionMode mode :
       {ExecutionMode::kSerial, ExecutionMode::kParallel}) {
    Testbed bed(SmallConfig());
    bed.LoadUserVisits();
    ASSERT_TRUE(bed.UploadHail("/uv", {workload::kVisitDate}).ok());
    const JobSpec spec =
        QueryJob(bed, "/uv", workload::BobQueries()[0], /*use_planner=*/true);
    auto plan = mapreduce::ComputeJobPlan(&bed.dfs(), spec);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    RunOptions opt;
    opt.execution = mode;
    mapreduce::JobRunner runner(&bed.dfs());
    auto result = runner.Run(spec, opt);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    if (mode == ExecutionMode::kSerial) {
      serial_dump = workload::DumpResult(*result);
      serial_plan = workload::DumpPlan(*plan);
      EXPECT_TRUE(plan->planned);
      EXPECT_GT(plan->planner_blocks_skipped, 0u);
    } else {
      EXPECT_EQ(serial_dump, workload::DumpResult(*result));
      EXPECT_EQ(serial_plan, workload::DumpPlan(*plan));
    }
  }
}

TEST(AccessPlannerTest, PlannerOffLeavesPlanAndResultUnmarked) {
  Testbed bed(SmallConfig());
  bed.LoadUserVisits();
  ASSERT_TRUE(bed.UploadHail("/uv", {workload::kVisitDate}).ok());
  const JobSpec spec =
      QueryJob(bed, "/uv", workload::BobQueries()[0], /*use_planner=*/false);
  auto plan = mapreduce::ComputeJobPlan(&bed.dfs(), spec);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  // Default-off: no decisions, no planning CPU — the unplanned job is the
  // pre-planner job, bit for bit.
  EXPECT_FALSE(plan->planned);
  EXPECT_TRUE(plan->decisions.empty());
  EXPECT_EQ(plan->planner_seconds, 0.0);
  EXPECT_EQ(plan->predicted_cost_seconds, 0.0);
}

// ---------------------------------------------------------------------------
// Session layer: plan cache, generation invalidation, stale stats
// ---------------------------------------------------------------------------

TEST(PlanCacheTest, RepeatSubmissionsHitUntilTheDirectoryMutates) {
  Testbed bed(SmallConfig());
  bed.LoadUserVisits();
  ASSERT_TRUE(bed.UploadHail("/uv", {workload::kVisitDate}).ok());
  const QueryDef q1 = workload::BobQueries()[0];
  planner::PlanCache cache;

  SessionOptions opt;
  opt.plan_cache = &cache;
  {
    ClusterSession session(&bed.dfs(), opt);
    session.Submit(QueryJob(bed, "/uv", q1, /*use_planner=*/true));
    session.Submit(QueryJob(bed, "/uv", q1, /*use_planner=*/true));
    auto sr = session.Run();
    ASSERT_TRUE(sr.ok()) << sr.status().ToString();
    ASSERT_TRUE(sr->jobs[0].ok());
    ASSERT_TRUE(sr->jobs[1].ok());
    EXPECT_EQ(sr->plan_cache_misses, 1u);
    EXPECT_EQ(sr->plan_cache_hits, 1u);
    EXPECT_EQ(sr->plan_cache_invalidations, 0u);
    EXPECT_EQ(sr->jobs_planned, 2u);
    // The cache hit re-uses the plan verbatim: identical read costs,
    // predictions and output (end-to-end differs only by queueing — job 1
    // waits for job 0's slots).
    EXPECT_DOUBLE_EQ(sr->jobs[0]->avg_record_reader_seconds,
                     sr->jobs[1]->avg_record_reader_seconds);
    EXPECT_DOUBLE_EQ(sr->jobs[0]->predicted_cost_seconds,
                     sr->jobs[1]->predicted_cost_seconds);
    EXPECT_EQ(sr->jobs[0]->zone_skipped_blocks,
              sr->jobs[1]->zone_skipped_blocks);
    EXPECT_EQ(sr->jobs[0]->output_rows, sr->jobs[1]->output_rows);
  }

  // A committed reorg bumps the directory generation and stales the
  // block's stats sidecar: the cached plan must not be served again.
  const std::vector<hdfs::BlockLocation> blocks = AllBlocks(bed, "/uv");
  ASSERT_FALSE(blocks.empty());
  adaptive::MaintenanceTask t;
  t.block_id = blocks[0].block_id;
  t.datanode = blocks[0].datanodes[0];
  t.column = workload::kDuration;
  t.kind = adaptive::MaintenanceTask::Kind::kInstallUnclustered;
  auto prepared = adaptive::PrepareReorg(bed.dfs(), t);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  ASSERT_TRUE(adaptive::CommitReorg(&bed.dfs(), t, std::move(*prepared)).ok());
  EXPECT_FALSE(bed.dfs().namenode().BlockStatsFresh(t.block_id));

  {
    ClusterSession session(&bed.dfs(), opt);
    session.Submit(QueryJob(bed, "/uv", q1, /*use_planner=*/true));
    auto sr = session.Run();
    ASSERT_TRUE(sr.ok()) << sr.status().ToString();
    ASSERT_TRUE(sr->jobs[0].ok());
    EXPECT_EQ(sr->plan_cache_invalidations, 1u);
    EXPECT_EQ(sr->plan_cache_misses, 1u);
    EXPECT_EQ(sr->plan_cache_hits, 0u);
    // The re-planned job must not zone-skip off the stale sidecar: the
    // reorged block is planned from worst-case assumptions instead.
    auto plan = mapreduce::ComputeJobPlan(
        &bed.dfs(), QueryJob(bed, "/uv", q1, /*use_planner=*/true));
    ASSERT_TRUE(plan.ok());
    EXPECT_EQ(plan->planner_fresh_stats_blocks, blocks.size() - 1);
  }
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().invalidations, 1u);
}

/// A HAIL job on /uv with \p filter parsed against \p schema.
JobSpec FilterJob(const Schema& schema, const std::string& filter) {
  JobSpec spec;
  spec.input_file = "/uv";
  spec.schema = schema;
  spec.system = System::kHail;
  auto annotation = ParseAnnotation(schema, filter, "");
  EXPECT_TRUE(annotation.ok()) << annotation.status().ToString();
  spec.annotation = *annotation;
  return spec;
}

TEST(PlanCacheTest, KeyNamesTheDeclaredColumnTypes) {
  // The plan's filter is compiled against the declared types, so the
  // same file and filter text under another type is another plan.
  const Schema narrow = workload::UserVisitsSchema();
  std::vector<Field> fields = narrow.fields();
  fields[workload::kDuration].type = FieldType::kInt64;
  const Schema wide(std::move(fields), narrow.delimiter());
  const JobSpec a = FilterJob(narrow, "@9 > 50");
  const JobSpec b = FilterJob(wide, "@9 > 50");
  EXPECT_EQ(a.annotation->filter.ToString(a.schema),
            b.annotation->filter.ToString(b.schema));
  EXPECT_NE(planner::PlanCache::KeyFor(a), planner::PlanCache::KeyFor(b));
}

TEST(PlanCacheTest, KeyNamesDoubleLiteralsExactly) {
  // Both literals render as "1" to six digits, but compile apart.
  const Schema schema = workload::UserVisitsSchema();
  const JobSpec a = FilterJob(schema, "@4 > 1");
  const JobSpec b = FilterJob(schema, "@4 > 1.0000001");
  EXPECT_EQ(a.annotation->filter.ToString(schema),
            b.annotation->filter.ToString(schema));
  EXPECT_NE(planner::PlanCache::KeyFor(a), planner::PlanCache::KeyFor(b));
  EXPECT_EQ(planner::PlanCache::KeyFor(a),
            planner::PlanCache::KeyFor(FilterJob(schema, "@4 > 1.0")));
}

TEST(PlanCacheTest, StatsBackfillRidesTheMaintenanceQueue) {
  TestbedConfig config = SmallConfig();
  config.build_stats = false;  // upload predates the planner
  Testbed bed(config);
  bed.LoadUserVisits();
  ASSERT_TRUE(bed.UploadHail("/uv", {workload::kVisitDate}).ok());

  const std::vector<hdfs::BlockLocation> blocks = AllBlocks(bed, "/uv");
  for (const hdfs::BlockLocation& loc : blocks) {
    EXPECT_FALSE(bed.dfs().namenode().BlockStatsFresh(loc.block_id));
  }

  adaptive::AdaptiveManager manager(&bed.dfs(), bed.schema(), "/uv");
  EXPECT_EQ(manager.RequestStatsBackfill(), blocks.size());
  // Re-requesting queues nothing new (duplicates are dropped).
  EXPECT_EQ(manager.RequestStatsBackfill(), 0u);

  // The backfill executes on idle map slots of an ordinary foreground job.
  RunOptions opt;
  opt.adaptive = &manager;
  mapreduce::JobRunner runner(&bed.dfs());
  auto result = runner.Run(
      QueryJob(bed, "/uv", workload::BobQueries()[0], /*use_planner=*/false),
      opt);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GE(result->maintenance_completed, blocks.size());

  for (const hdfs::BlockLocation& loc : blocks) {
    EXPECT_TRUE(bed.dfs().namenode().BlockStatsFresh(loc.block_id));
  }
  // With the backfilled sidecars in place, planning skips blocks again.
  auto plan = mapreduce::ComputeJobPlan(
      &bed.dfs(),
      QueryJob(bed, "/uv", workload::BobQueries()[0], /*use_planner=*/true));
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->planner_fresh_stats_blocks, blocks.size());
  EXPECT_GT(plan->planner_blocks_skipped, 0u);
}

// ---------------------------------------------------------------------------
// Admission control: a plan cache does not change unplanned sessions
// ---------------------------------------------------------------------------

TEST(AdmissionTest, PlanCachePresenceDoesNotChangeUnplannedSessions) {
  std::string dumps[2];
  for (int pass = 0; pass < 2; ++pass) {
    Testbed bed(SmallConfig());
    bed.LoadUserVisits();
    ASSERT_TRUE(bed.UploadHail("/uv", {workload::kVisitDate}).ok());
    const QueryDef scan{"Scan", "@4 between(1,10)", "{@1,@4}", 1.7e-2};

    SessionOptions opt;
    AdmissionControl ac;
    ac.shed_wait_s = 0.5;
    opt.queue_admission = {{"q", ac}};
    planner::PlanCache cache;
    if (pass == 1) opt.plan_cache = &cache;  // cache on, planner still off
    ClusterSession session(&bed.dfs(), opt);
    session.Submit(QueryJob(bed, "/uv", scan, /*use_planner=*/false), "q");
    session.Submit(QueryJob(bed, "/uv", scan, /*use_planner=*/false), "q");
    session.Submit(QueryJob(bed, "/uv", scan, /*use_planner=*/false), "q",
                   20.0);
    auto sr = session.Run();
    ASSERT_TRUE(sr.ok()) << sr.status().ToString();
    EXPECT_EQ(sr->jobs_shed, 1u);
    dumps[pass] = workload::DumpSession(*sr);
  }
  // Unplanned plans carry no planning CPU, so caching them is invisible:
  // every simulated number of the session must be bit-identical.
  EXPECT_EQ(dumps[0], dumps[1]);
}

}  // namespace
}  // namespace hail
