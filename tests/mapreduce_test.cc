#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>

#include "mapreduce/job_runner.h"
#include "planner/plan_cache.h"
#include "schema/row_parser.h"
#include "workload/testbed.h"

namespace hail {
namespace mapreduce {
namespace {

using workload::QueryDef;
using workload::Testbed;
using workload::TestbedConfig;

/// Small-but-not-trivial testbed: 4 nodes, ~24 blocks of UserVisits.
TestbedConfig SmallConfig() {
  TestbedConfig config;
  config.num_nodes = 4;
  config.real_block_bytes = 8 * 1024;
  config.logical_block_bytes = 4 * 1024 * 1024;  // scale 512
  config.blocks_per_node = 6;
  config.seed = 99;
  return config;
}

std::vector<std::string> Sorted(std::vector<std::string> rows) {
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// Runs one query on all three systems (each with its own freshly loaded
/// testbed) and returns the three sorted output row sets.
struct TriResult {
  JobResult hadoop, hpp, hail;
};

TriResult RunOnAllSystems(const QueryDef& query, bool synthetic = false,
                          bool hail_splitting = false) {
  TriResult out;
  // Hadoop.
  {
    Testbed bed(SmallConfig());
    if (synthetic) bed.LoadSynthetic(); else bed.LoadUserVisits();
    EXPECT_TRUE(bed.UploadHadoop("/data").ok());
    auto r = bed.RunQuery(System::kHadoop, "/data", query, false, {}, true);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    out.hadoop = *r;
  }
  // Hadoop++ (index on the query's filter column when serviceable).
  {
    Testbed bed(SmallConfig());
    if (synthetic) bed.LoadSynthetic(); else bed.LoadUserVisits();
    auto ann = ParseAnnotation(bed.schema(), query.filter, query.projection);
    EXPECT_TRUE(ann.ok());
    EXPECT_TRUE(
        bed.UploadHadoopPP("/data", ann->preferred_index_column()).ok());
    auto r = bed.RunQuery(System::kHadoopPP, "/data", query, false, {}, true);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    out.hpp = *r;
  }
  // HAIL (three divergent replicas).
  {
    Testbed bed(SmallConfig());
    if (synthetic) bed.LoadSynthetic(); else bed.LoadUserVisits();
    std::vector<int> sort_columns =
        synthetic ? std::vector<int>{0, 1, 2}
                  : std::vector<int>{workload::kVisitDate,
                                     workload::kSourceIP,
                                     workload::kAdRevenue};
    EXPECT_TRUE(bed.UploadHail("/data", sort_columns).ok());
    auto r = bed.RunQuery(System::kHail, "/data", query, hail_splitting, {},
                          true);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    out.hail = *r;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Result equivalence: the paper's core functional claim — HAIL changes
// *how* data is read, never *what* a job computes.
// ---------------------------------------------------------------------------

class EquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(EquivalenceTest, BobQueriesAgreeAcrossSystems) {
  const QueryDef query = workload::BobQueries()[static_cast<size_t>(
      GetParam())];
  TriResult r = RunOnAllSystems(query);
  ASSERT_GT(r.hadoop.output_count, 0u) << "query selects nothing; weak test";
  EXPECT_EQ(Sorted(r.hpp.output_rows), Sorted(r.hadoop.output_rows))
      << query.name << ": Hadoop++ diverges from Hadoop";
  EXPECT_EQ(Sorted(r.hail.output_rows), Sorted(r.hadoop.output_rows))
      << query.name << ": HAIL diverges from Hadoop";
}

INSTANTIATE_TEST_SUITE_P(AllBobQueries, EquivalenceTest,
                         ::testing::Values(0, 1, 2, 3, 4));

class SyntheticEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(SyntheticEquivalenceTest, SyntheticQueriesAgreeAcrossSystems) {
  const QueryDef query = workload::SyntheticQueries()[static_cast<size_t>(
      GetParam())];
  TriResult r = RunOnAllSystems(query, /*synthetic=*/true);
  ASSERT_GT(r.hadoop.output_count, 0u);
  EXPECT_EQ(Sorted(r.hpp.output_rows), Sorted(r.hadoop.output_rows));
  EXPECT_EQ(Sorted(r.hail.output_rows), Sorted(r.hadoop.output_rows));
}

INSTANTIATE_TEST_SUITE_P(AllSyntheticQueries, SyntheticEquivalenceTest,
                         ::testing::Values(0, 1, 2, 3, 4, 5));

TEST(EquivalenceTest, HailSplittingDoesNotChangeResults) {
  const QueryDef query = workload::BobQueries()[0];
  Testbed bed(SmallConfig());
  bed.LoadUserVisits();
  ASSERT_TRUE(bed.UploadHail("/data", {workload::kVisitDate,
                                       workload::kSourceIP,
                                       workload::kAdRevenue})
                  .ok());
  auto without = bed.RunQuery(System::kHail, "/data", query, false, {}, true);
  auto with = bed.RunQuery(System::kHail, "/data", query, true, {}, true);
  ASSERT_TRUE(without.ok());
  ASSERT_TRUE(with.ok());
  EXPECT_EQ(Sorted(with->output_rows), Sorted(without->output_rows));
  EXPECT_LT(with->map_tasks, without->map_tasks);
}

// ---------------------------------------------------------------------------
// Boundary handling: byte-cut text blocks lose and duplicate nothing.
// ---------------------------------------------------------------------------

TEST(TextBoundaryTest, NoRowLostOrDuplicatedAcrossBlockCuts) {
  // A no-filter job must emit exactly every generated row.
  Testbed bed(SmallConfig());
  bed.LoadUserVisits();
  ASSERT_TRUE(bed.UploadHadoop("/data").ok());
  QueryDef all{"all", "", "", 1.0};
  auto r = bed.RunQuery(System::kHadoop, "/data", all, false, {}, true);
  ASSERT_TRUE(r.ok());
  // Each node uploaded the same shared text => row multiset = 4 copies.
  workload::UserVisitsConfig uv;
  uv.rows = 0;  // recompute below
  // Count rows in the shared text by re-generating it.
  TestbedConfig cfg = SmallConfig();
  const uint64_t rows_per_node = static_cast<uint64_t>(
      cfg.blocks_per_node * cfg.real_block_bytes /
      workload::UserVisitsAvgRowBytes());
  EXPECT_EQ(r->output_count, rows_per_node * 4);
  EXPECT_EQ(r->records_seen, rows_per_node * 4);
}

TEST(TextBoundaryTest, HailAndHadoopSeeSameRecordTotals) {
  QueryDef all{"all", "", "", 1.0};
  TriResult r = RunOnAllSystems(all);
  EXPECT_EQ(r.hadoop.records_seen, r.hail.records_seen);
  EXPECT_EQ(r.hadoop.records_seen, r.hpp.records_seen);
  EXPECT_EQ(Sorted(r.hail.output_rows), Sorted(r.hadoop.output_rows));
}

// ---------------------------------------------------------------------------
// Splitting policy
// ---------------------------------------------------------------------------

TEST(HailSplittingTest, CollapsesTasksToSlotsTimesNodes) {
  Testbed bed(SmallConfig());
  bed.LoadUserVisits();
  ASSERT_TRUE(bed.UploadHail("/data", {workload::kVisitDate}).ok());
  const QueryDef q = workload::BobQueries()[0];  // filter on visitDate
  auto with = bed.RunQuery(System::kHail, "/data", q, true);
  ASSERT_TRUE(with.ok());
  // "HailSplitting creates as many input splits as map slots each
  // TaskTracker has": <= nodes * slots (some nodes may hold no indexed
  // replica home).
  const uint32_t max_splits = static_cast<uint32_t>(
      bed.cluster().num_nodes() *
      bed.cluster().node(0).profile().map_slots);
  EXPECT_LE(with->map_tasks, max_splits);
  EXPECT_GE(with->map_tasks, 1u);

  // Full-scan jobs keep default splitting even with HailSplitting on:
  // one map task per block.
  QueryDef full{"all", "", "", 1.0};
  auto fs = bed.RunQuery(System::kHail, "/data", full, true);
  ASSERT_TRUE(fs.ok());
  auto blocks = bed.dfs().namenode().GetFileBlocks("/data");
  ASSERT_TRUE(blocks.ok());
  EXPECT_EQ(fs->map_tasks, blocks->size());
}

TEST(HailSplittingTest, ReducesEndToEndTime) {
  Testbed bed(SmallConfig());
  bed.LoadUserVisits();
  ASSERT_TRUE(bed.UploadHail("/data", {workload::kVisitDate,
                                       workload::kSourceIP,
                                       workload::kAdRevenue})
                  .ok());
  const QueryDef q = workload::BobQueries()[0];
  auto without = bed.RunQuery(System::kHail, "/data", q, false);
  auto with = bed.RunQuery(System::kHail, "/data", q, true);
  ASSERT_TRUE(without.ok());
  ASSERT_TRUE(with.ok());
  EXPECT_LT(with->end_to_end_seconds, without->end_to_end_seconds);
}

// ---------------------------------------------------------------------------
// Scheduling shape (§6.4): per-task overhead dominates full-block jobs.
// ---------------------------------------------------------------------------

TEST(SchedulingTest, OverheadDominatesManyTaskJobs) {
  Testbed bed(SmallConfig());
  bed.LoadUserVisits();
  ASSERT_TRUE(bed.UploadHail("/data", {workload::kVisitDate}).ok());
  const QueryDef q = workload::BobQueries()[0];
  auto r = bed.RunQuery(System::kHail, "/data", q, false);
  ASSERT_TRUE(r.ok());
  // Fig 6(c): T_overhead = T_end-to-end - T_ideal dominates.
  EXPECT_GT(r->overhead_seconds, r->ideal_seconds);
  EXPECT_GT(r->overhead_seconds, 0.5 * r->end_to_end_seconds);
}

TEST(SchedulingTest, IndexScanBeatsFullScanRecordReader) {
  Testbed bed(SmallConfig());
  bed.LoadUserVisits();
  ASSERT_TRUE(bed.UploadHail("/data", {workload::kVisitDate}).ok());
  const QueryDef q = workload::BobQueries()[0];
  auto indexed = bed.RunQuery(System::kHail, "/data", q, false);
  ASSERT_TRUE(indexed.ok());
  QueryDef unindexed_q = q;
  unindexed_q.filter = "@9 >= 0";  // duration: no replica indexes it
  auto scanned = bed.RunQuery(System::kHail, "/data", unindexed_q, false);
  ASSERT_TRUE(scanned.ok());
  // At this toy scale (4 MB logical blocks) per-task reader setup
  // compresses the gap; at paper scale it is ~40x (see bench_fig6_bob).
  EXPECT_LT(indexed->avg_record_reader_seconds,
            scanned->avg_record_reader_seconds / 2.0);
  EXPECT_EQ(scanned->fallback_scans, scanned->map_tasks);
}

// ---------------------------------------------------------------------------
// Fault tolerance (§6.4.3)
// ---------------------------------------------------------------------------

TEST(FaultToleranceTest, JobSurvivesNodeFailureWithSameResults) {
  const QueryDef q = workload::BobQueries()[0];
  Testbed bed(SmallConfig());
  bed.LoadUserVisits();
  ASSERT_TRUE(bed.UploadHail("/data", {workload::kVisitDate,
                                       workload::kSourceIP,
                                       workload::kAdRevenue})
                  .ok());
  auto clean = bed.RunQuery(System::kHail, "/data", q, false, {}, true);
  ASSERT_TRUE(clean.ok());

  RunOptions failure;
  failure.fault_plan.kills.push_back(
      {.node = 2, .at_progress = 0.5, .progress_job = 0});
  auto failed = bed.RunQuery(System::kHail, "/data", q, false, failure, true);
  ASSERT_TRUE(failed.ok()) << failed.status().ToString();
  // Same answer despite losing a node mid-job.
  EXPECT_EQ(Sorted(failed->output_rows), Sorted(clean->output_rows));
  // The failure must actually have caused re-execution and a slowdown.
  EXPECT_GT(failed->rescheduled_tasks, 0u);
  EXPECT_GT(failed->end_to_end_seconds, clean->end_to_end_seconds);
}

TEST(FaultToleranceTest, HadoopAlsoSurvives) {
  const QueryDef q = workload::BobQueries()[3];
  Testbed bed(SmallConfig());
  bed.LoadUserVisits();
  ASSERT_TRUE(bed.UploadHadoop("/data").ok());
  auto clean = bed.RunQuery(System::kHadoop, "/data", q, false, {}, true);
  ASSERT_TRUE(clean.ok());
  RunOptions failure;
  failure.fault_plan.kills.push_back(
      {.node = 1, .at_progress = 0.5, .progress_job = 0});
  auto failed = bed.RunQuery(System::kHadoop, "/data", q, false, failure,
                             true);
  ASSERT_TRUE(failed.ok());
  EXPECT_EQ(Sorted(failed->output_rows), Sorted(clean->output_rows));
}

TEST(FaultToleranceTest, SingleIndexConfigKeepsIndexScansAfterFailure) {
  // HAIL-1Idx (§6.4.3): same index on all replicas -> rescheduled tasks
  // still index-scan; divergent indexes -> some fall back to scanning.
  const QueryDef q = workload::BobQueries()[0];

  Testbed bed1(SmallConfig());
  bed1.LoadUserVisits();
  ASSERT_TRUE(bed1.UploadHail("/data", {workload::kVisitDate,
                                        workload::kVisitDate,
                                        workload::kVisitDate})
                  .ok());
  RunOptions failure;
  failure.fault_plan.kills.push_back(
      {.node = 0, .at_progress = 0.5, .progress_job = 0});
  auto one_idx = bed1.RunQuery(System::kHail, "/data", q, false, failure);
  ASSERT_TRUE(one_idx.ok());
  EXPECT_EQ(one_idx->fallback_scans, 0u);  // every replica has the index

  Testbed bed3(SmallConfig());
  bed3.LoadUserVisits();
  ASSERT_TRUE(bed3.UploadHail("/data", {workload::kVisitDate,
                                        workload::kSourceIP,
                                        workload::kAdRevenue})
                  .ok());
  auto three_idx = bed3.RunQuery(System::kHail, "/data", q, false, failure);
  ASSERT_TRUE(three_idx.ok());
  EXPECT_GT(three_idx->fallback_scans, 0u);  // lost visitDate replicas
}

// ---------------------------------------------------------------------------
// Custom map functions (the paper's §4.1 programming model)
// ---------------------------------------------------------------------------

TEST(MapFunctionTest, UserMapSeesProjectedAttributes) {
  Testbed bed(SmallConfig());
  bed.LoadUserVisits();
  ASSERT_TRUE(bed.UploadHail("/data", {workload::kVisitDate}).ok());
  auto ann = ParseAnnotation(bed.schema(),
                             "@3 between(1999-01-01,2000-01-01)", "{@1}");
  ASSERT_TRUE(ann.ok());

  JobSpec spec;
  spec.name = "bob-map";
  spec.input_file = "/data";
  spec.schema = bed.schema();
  spec.system = System::kHail;
  spec.annotation = *ann;
  spec.collect_output = true;
  // The paper's map function: output(v.getInt(1), null) — here the string
  // sourceIP at position 1.
  spec.map = [](const HailRecord& rec, MapOutput* out) {
    if (rec.bad()) return;
    out->Emit(rec.GetString(1));
  };
  mapreduce::JobRunner runner(&bed.dfs());
  auto r = runner.Run(spec);
  ASSERT_TRUE(r.ok());
  ASSERT_GT(r->output_count, 0u);
  for (const std::string& row : r->output_rows) {
    // Every emitted value is an IPv4-looking string.
    EXPECT_NE(row.find('.'), std::string::npos);
  }
}

TEST(MapFunctionTest, BadRecordsReachMapWithFlag) {
  TestbedConfig cfg = SmallConfig();
  cfg.blocks_per_node = 2;
  Testbed bed(cfg);
  bed.LoadUserVisits();
  // Inject bad rows by uploading a hand-built file.
  std::string text = "garbage-row-one\n";
  workload::UserVisitsConfig uv;
  uv.rows = 50;
  uv.scale_factor = bed.scale_factor();
  text += workload::GenerateUserVisitsText(uv);
  text += "garbage,row,two\n";
  HailUploadConfig hc;
  hc.schema = bed.schema();
  hc.sort_columns = {workload::kVisitDate};
  ASSERT_TRUE(
      HailUploadTextFile(&bed.dfs(), hc, 0, "/bad", text).ok());

  JobSpec spec;
  spec.name = "bad-records";
  spec.input_file = "/bad";
  spec.schema = bed.schema();
  spec.system = System::kHail;
  spec.collect_output = true;
  spec.map = [](const HailRecord& rec, MapOutput* out) {
    if (rec.bad()) out->Emit("BAD:" + rec.raw());
  };
  mapreduce::JobRunner runner(&bed.dfs());
  auto r = runner.Run(spec);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->bad_records_seen, 2u);
  ASSERT_EQ(r->output_rows.size(), 2u);
  EXPECT_EQ(Sorted(r->output_rows)[0], "BAD:garbage,row,two");
  EXPECT_EQ(Sorted(r->output_rows)[1], "BAD:garbage-row-one");
}

// ---------------------------------------------------------------------------
// Query resolution: hand-built filters the annotation parser never yields
// ---------------------------------------------------------------------------

constexpr System kAllSystems[] = {System::kHail, System::kHadoop,
                                  System::kHadoopPP};

/// 3 nodes x 2 blocks of UserVisits (1143 rows).
TestbedConfig TinyConfig() {
  TestbedConfig config;
  config.num_nodes = 3;
  config.blocks_per_node = 2;
  return config;
}

/// A fresh TinyConfig testbed with UserVisits uploaded to /data for
/// \p system: HAIL replicas sorted on visitDate, sourceIP and adRevenue,
/// Hadoop++ indexed on adRevenue.
std::unique_ptr<Testbed> LoadedBed(System system) {
  auto bed = std::make_unique<Testbed>(TinyConfig());
  bed->LoadUserVisits();
  Status uploaded;
  switch (system) {
    case System::kHadoop:
      uploaded = bed->UploadHadoop("/data").status();
      break;
    case System::kHadoopPP:
      uploaded = bed->UploadHadoopPP("/data", workload::kAdRevenue).status();
      break;
    case System::kHail:
      uploaded = bed->UploadHail("/data", {workload::kVisitDate,
                                           workload::kSourceIP,
                                           workload::kAdRevenue})
                     .status();
      break;
  }
  EXPECT_TRUE(uploaded.ok()) << uploaded.ToString();
  return bed;
}

JobSpec HandBuiltJob(System system, Schema schema,
                     std::optional<QueryAnnotation> annotation) {
  JobSpec spec;
  spec.name = "hand-built";
  spec.input_file = "/data";
  spec.schema = std::move(schema);
  spec.system = system;
  spec.annotation = std::move(annotation);
  spec.collect_output = true;
  return spec;
}

Result<JobResult> RunOnFreshBed(const JobSpec& spec,
                                const RunOptions& options = {}) {
  std::unique_ptr<Testbed> bed = LoadedBed(spec.system);
  JobRunner runner(&bed->dfs());
  return runner.Run(spec, options);
}

/// A filter of one hand-built term.
QueryAnnotation OneTermFilter(int column, CompareOp op, Value literal) {
  PredicateTerm term;
  term.column = column;
  term.op = op;
  term.literal = std::move(literal);
  QueryAnnotation annotation;
  annotation.filter = Predicate({std::move(term)});
  return annotation;
}

/// Rows of every node's UserVisits text that \p filter matches, parsed and
/// evaluated row at a time (RowParser + Predicate::Matches).
uint64_t ReferenceCount(const Predicate& filter) {
  const TestbedConfig cfg = TinyConfig();
  workload::UserVisitsConfig uv;
  uv.rows = static_cast<uint64_t>(
      static_cast<double>(cfg.blocks_per_node) *
      static_cast<double>(cfg.real_block_bytes) /
      workload::UserVisitsAvgRowBytes());
  uv.seed = cfg.seed;
  uv.scale_factor = static_cast<double>(cfg.logical_block_bytes) /
                    static_cast<double>(cfg.real_block_bytes);
  const std::string text = workload::GenerateUserVisitsText(uv);
  const RowParser parser(workload::UserVisitsSchema());
  uint64_t matches = 0;
  for (std::string_view row : SplitRows(text)) {
    const ParsedRow parsed = parser.Parse(row);
    if (parsed.ok && filter.Matches(parsed.values)) ++matches;
  }
  return matches * static_cast<uint64_t>(cfg.num_nodes);
}

TEST(QueryResolutionTest, FilterOutsideTheSchemaIsInvalidArgument) {
  // @13 of the 9-field schema: the parser rejects it, a hand-built
  // annotation does not.
  const QueryAnnotation annotation =
      OneTermFilter(12, CompareOp::kGt, Value(int32_t{1}));
  for (System system : kAllSystems) {
    auto r = RunOnFreshBed(
        HandBuiltJob(system, workload::UserVisitsSchema(), annotation));
    EXPECT_TRUE(r.status().IsInvalidArgument())
        << SystemName(system) << ": " << r.status().ToString();
  }
}

TEST(QueryResolutionTest, WidenedLiteralMatchesTheRowReference) {
  // An int32 literal on the double adRevenue column: the compiled filter
  // widens it, as Predicate::Matches does.
  const QueryAnnotation annotation =
      OneTermFilter(workload::kAdRevenue, CompareOp::kGt, Value(int32_t{500}));
  const uint64_t want = ReferenceCount(annotation.filter);
  ASSERT_GT(want, 0u);
  for (System system : kAllSystems) {
    auto r = RunOnFreshBed(
        HandBuiltJob(system, workload::UserVisitsSchema(), annotation));
    ASSERT_TRUE(r.ok()) << SystemName(system) << ": " << r.status().ToString();
    EXPECT_EQ(r->output_count, want) << SystemName(system);
    EXPECT_EQ(r->records_qualifying, want) << SystemName(system);
  }
}

TEST(QueryResolutionTest, PlanCacheSessionFailsOnlyTheFilterOutsideTheSchema) {
  // The plan-cache key renders the filter before the plan is computed.
  const QueryAnnotation outside =
      OneTermFilter(12, CompareOp::kGt, Value(int32_t{1}));
  EXPECT_EQ(outside.filter.ToString(workload::UserVisitsSchema()),
            "@13 > 1");
  for (System system : kAllSystems) {
    std::unique_ptr<Testbed> bed = LoadedBed(system);
    auto valid =
        workload::MakeQueryJob(bed->schema(), "/data", system,
                               workload::BobQueries()[0],
                               /*hail_splitting=*/false, /*collect=*/true);
    ASSERT_TRUE(valid.ok()) << valid.status().ToString();
    planner::PlanCache cache;
    SessionOptions options;
    options.plan_cache = &cache;
    ClusterSession session(&bed->dfs(), options);
    session.Submit(
        HandBuiltJob(system, workload::UserVisitsSchema(), outside));
    session.Submit(*valid);
    auto sr = session.Run();
    ASSERT_TRUE(sr.ok()) << sr.status().ToString();
    EXPECT_TRUE(sr->jobs[0].status().IsInvalidArgument())
        << SystemName(system) << ": " << sr->jobs[0].status().ToString();
    ASSERT_TRUE(sr->jobs[1].ok())
        << SystemName(system) << ": " << sr->jobs[1].status().ToString();
    EXPECT_GT(sr->jobs[1]->output_count, 0u) << SystemName(system);
  }
}

TEST(QueryResolutionTest, ProfileRendersAWidenedLiteral) {
  const QueryAnnotation annotation =
      OneTermFilter(workload::kAdRevenue, CompareOp::kGt, Value(int32_t{500}));
  const uint64_t want = ReferenceCount(annotation.filter);
  RunOptions options;
  options.profile = true;
  for (System system : kAllSystems) {
    auto r = RunOnFreshBed(
        HandBuiltJob(system, workload::UserVisitsSchema(), annotation),
        options);
    ASSERT_TRUE(r.ok()) << SystemName(system) << ": " << r.status().ToString();
    EXPECT_EQ(r->output_count, want) << SystemName(system);
    ASSERT_TRUE(r->profile.has_value());
    EXPECT_EQ(r->profile->annotation, "@4 > 500") << SystemName(system);
  }
}

/// UserVisits with duration declared INT64; every upload stores INT32.
Schema WideDurationSchema() {
  const Schema stored = workload::UserVisitsSchema();
  std::vector<Field> fields = stored.fields();
  fields[workload::kDuration].type = FieldType::kInt64;
  return Schema(std::move(fields), stored.delimiter());
}

TEST(QueryResolutionTest, UnannotatedJobOverAWiderDeclaredColumnAgrees) {
  // The default map renders each value as what it holds: HAIL and
  // Hadoop++ hand it the stored INT32, Hadoop parses the declared INT64.
  std::vector<std::string> rows[3];
  for (size_t i = 0; i < 3; ++i) {
    auto r = RunOnFreshBed(
        HandBuiltJob(kAllSystems[i], WideDurationSchema(), std::nullopt));
    ASSERT_TRUE(r.ok()) << SystemName(kAllSystems[i]) << ": "
                        << r.status().ToString();
    rows[i] = Sorted(r->output_rows);
  }
  EXPECT_EQ(rows[1].size(), ReferenceCount(Predicate()));
  EXPECT_EQ(rows[0], rows[1]) << "HAIL diverges from Hadoop";
  EXPECT_EQ(rows[2], rows[1]) << "Hadoop++ diverges from Hadoop";
}

TEST(QueryResolutionTest, FilterOnAWiderDeclaredColumnFailsOnHail) {
  // The plan compiles @9 for the declared INT64; a HAIL block storing it
  // as INT32 fails the filter's storage check. Hadoop parses the text
  // with the declared types and Hadoop++ compares decoded row values, so
  // both still answer.
  auto annotation = ParseAnnotation(WideDurationSchema(), "@9 > 50", "{@1}");
  ASSERT_TRUE(annotation.ok()) << annotation.status().ToString();
  auto hail = RunOnFreshBed(
      HandBuiltJob(System::kHail, WideDurationSchema(), *annotation));
  EXPECT_TRUE(hail.status().IsInvalidArgument()) << hail.status().ToString();
  auto hadoop = RunOnFreshBed(
      HandBuiltJob(System::kHadoop, WideDurationSchema(), *annotation));
  auto hpp = RunOnFreshBed(
      HandBuiltJob(System::kHadoopPP, WideDurationSchema(), *annotation));
  ASSERT_TRUE(hadoop.ok()) << hadoop.status().ToString();
  ASSERT_TRUE(hpp.ok()) << hpp.status().ToString();
  EXPECT_GT(hadoop->output_count, 0u);
  EXPECT_EQ(Sorted(hpp->output_rows), Sorted(hadoop->output_rows));
}

}  // namespace
}  // namespace mapreduce
}  // namespace hail
