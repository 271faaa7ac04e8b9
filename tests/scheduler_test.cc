/// \file scheduler_test.cc
/// \brief Shared-cluster multi-job scheduling (mapreduce/scheduler.h):
/// SlotScheduler policy ordering (FIFO vs weighted fair), ClusterSession
/// multi-tenant execution on one simulated clock, strict low-priority
/// maintenance under sustained foreground load, node kill mid-multi-job,
/// upload tenants contending for map slots, and the serial == parallel
/// bit-identity guarantee extended across >= 3 interleaved jobs.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "adaptive/adaptive_manager.h"
#include "mapreduce/job_runner.h"
#include "mapreduce/scheduler.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "planner/plan_cache.h"
#include "sim/fault_plan.h"
#include "util/crc32c.h"
#include "util/random.h"
#include "workload/testbed.h"
#include "workload/uservisits.h"

namespace hail {
namespace mapreduce {
namespace {

using workload::QueryDef;
using workload::Testbed;
using workload::TestbedConfig;

// Several pool workers even on single-core CI machines so the parallel
// path really interleaves (set before the shared pool is built).
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

JobSpec QueryJob(const Testbed& bed, const std::string& path,
                 const QueryDef& query, System system = System::kHail,
                 bool collect = true) {
  auto spec = workload::MakeQueryJob(bed.schema(), path, system, query,
                                     /*hail_splitting=*/false, collect);
  EXPECT_TRUE(spec.ok()) << spec.status().ToString();
  return *spec;
}

// The %.17g bit-identity dump harness is shared with the other
// determinism tests and benches (single source of truth for the field
// list): workload::DumpResult / workload::DumpSession.
using workload::DumpResult;
using workload::DumpSession;

// ---------------------------------------------------------------------------
// SlotScheduler policy ordering
// ---------------------------------------------------------------------------

TEST(SlotSchedulerTest, FifoPicksEarliestSubmittedJobWithPendingWork) {
  SlotScheduler sched(SchedulerPolicy::kFifo);
  const int a = sched.RegisterJob("q");
  const int b = sched.RegisterJob("q");
  const int c = sched.RegisterJob("other");
  EXPECT_EQ(sched.PickNextJob(), -1);
  sched.SetPending(b, 5);
  sched.SetPending(c, 5);
  EXPECT_EQ(sched.PickNextJob(), b);  // earliest job with work, any queue
  sched.SetPending(a, 1);
  EXPECT_EQ(sched.PickNextJob(), a);
  sched.SetPending(a, 0);
  sched.SetPending(b, 0);
  EXPECT_EQ(sched.PickNextJob(), c);
  EXPECT_FALSE(sched.Contended());  // one queue with work
  sched.SetPending(b, 1);
  EXPECT_TRUE(sched.Contended());  // two queues with work
}

TEST(SlotSchedulerTest, FairPicksSmallestRunningOverWeightDeficit) {
  SlotScheduler sched(SchedulerPolicy::kFair, {{"heavy", 2.0}, {"light", 1.0}});
  const int h = sched.RegisterJob("heavy");
  const int l = sched.RegisterJob("light");
  sched.SetPending(h, 100);
  sched.SetPending(l, 100);
  // Deficit-driven sequence with both queues saturated and no finishes:
  // ties break toward the first-registered queue, long-run ratio 2:1.
  std::vector<int> picks;
  for (int i = 0; i < 8; ++i) {
    const int j = sched.PickNextJob();
    picks.push_back(j);
    sched.OnTaskStarted(j);
  }
  EXPECT_EQ(picks, (std::vector<int>{h, l, h, h, l, h, h, l}));
  // Work-conserving: an empty queue never blocks the other.
  sched.SetPending(h, 0);
  EXPECT_EQ(sched.PickNextJob(), l);
  // A finished task lowers the queue's deficit again.
  sched.SetPending(h, 1);
  for (int i = 0; i < 4; ++i) sched.OnTaskFinished(h);
  EXPECT_EQ(sched.PickNextJob(), h);
}

TEST(SlotSchedulerTest, FairPrefersEarliestJobInsideWinningQueue) {
  SlotScheduler sched(SchedulerPolicy::kFair);
  const int a = sched.RegisterJob("q");
  const int b = sched.RegisterJob("q");
  sched.SetPending(b, 3);
  EXPECT_EQ(sched.PickNextJob(), b);
  sched.SetPending(a, 3);
  EXPECT_EQ(sched.PickNextJob(), a);
}

// ---------------------------------------------------------------------------
// ClusterSession
// ---------------------------------------------------------------------------

TEST(ClusterSessionTest, SingleJobSessionMatchesJobRunner) {
  Testbed bed(SmallConfig());
  bed.LoadUserVisits();
  ASSERT_TRUE(bed.UploadHail("/d", {workload::kVisitDate}).ok());
  const QueryDef q = workload::BobQueries()[0];

  auto reference = bed.RunQuery(System::kHail, "/d", q, false,
                                RunOptions{}, /*collect_output=*/true);
  ASSERT_TRUE(reference.ok());

  ClusterSession session(&bed.dfs());
  session.Submit(QueryJob(bed, "/d", q));
  auto sr = session.Run();
  ASSERT_TRUE(sr.ok()) << sr.status().ToString();
  ASSERT_EQ(sr->jobs.size(), 1u);
  ASSERT_TRUE(sr->jobs[0].ok());
  EXPECT_EQ(DumpResult(*reference), DumpResult(*sr->jobs[0]));
  EXPECT_EQ(sr->maintenance_while_foreground_pending, 0u);

  // RunOptions reach the session unchanged: the same non-default options
  // give the same job on both paths (fresh, identical clusters — the
  // faults mutate the DFS).
  RunOptions options;
  options.policy = SchedulerPolicy::kFair;
  options.fault_plan = sim::FaultPlan::FromSeed(11, SmallConfig().num_nodes);
  options.self_heal = true;
  options.speculative_execution = true;
  Testbed runner_bed(SmallConfig());
  runner_bed.LoadUserVisits();
  ASSERT_TRUE(runner_bed.UploadHail("/d", {workload::kVisitDate}).ok());
  auto via_runner = runner_bed.RunQuery(System::kHail, "/d", q, false,
                                        options, /*collect_output=*/true);
  ASSERT_TRUE(via_runner.ok()) << via_runner.status().ToString();
  Testbed session_bed(SmallConfig());
  session_bed.LoadUserVisits();
  ASSERT_TRUE(session_bed.UploadHail("/d", {workload::kVisitDate}).ok());
  ClusterSession faulted(&session_bed.dfs(), options);
  faulted.Submit(QueryJob(session_bed, "/d", q));
  auto via_session = faulted.Run();
  ASSERT_TRUE(via_session.ok()) << via_session.status().ToString();
  ASSERT_TRUE(via_session->jobs[0].ok());
  const JobResult& job = *via_session->jobs[0];
  EXPECT_EQ(DumpResult(*via_runner), DumpResult(job));
  EXPECT_EQ(workload::DumpCost(via_runner->cost),
            workload::DumpCost(job.cost));
  // And the options really applied: the faults changed the job.
  EXPECT_NE(DumpResult(*reference), DumpResult(job));
}

TEST(ClusterSessionTest, FifoHeadJobRunsAsIfAlone) {
  // Strict FIFO: the head job owns every slot while it has pending work,
  // so its latency must be *exactly* the latency it gets on an otherwise
  // idle cluster; the second tenant queues behind it.
  Testbed bed(SmallConfig());
  bed.LoadUserVisits();
  ASSERT_TRUE(bed.UploadHail("/d", {workload::kVisitDate}).ok());
  const QueryDef q0 = workload::BobQueries()[0];
  const QueryDef q1 = workload::BobQueries()[3];

  auto solo = bed.RunQuery(System::kHail, "/d", q0, false, RunOptions{}, true);
  ASSERT_TRUE(solo.ok());

  SessionOptions opt;
  opt.policy = SchedulerPolicy::kFifo;
  ClusterSession session(&bed.dfs(), opt);
  session.Submit(QueryJob(bed, "/d", q0));
  session.Submit(QueryJob(bed, "/d", q1));
  auto sr = session.Run();
  ASSERT_TRUE(sr.ok()) << sr.status().ToString();
  ASSERT_TRUE(sr->jobs[0].ok() && sr->jobs[1].ok());
  EXPECT_EQ(DumpResult(*solo), DumpResult(*sr->jobs[0]));
  // The tenant behind it pays the queueing delay on the shared clock.
  EXPECT_GT(sr->jobs[1]->end_to_end_seconds,
            sr->jobs[0]->end_to_end_seconds);
}

TEST(ClusterSessionTest, FairShareTracksQueueWeightsUnderContention) {
  Testbed bed(SmallConfig());
  bed.LoadUserVisits();
  ASSERT_TRUE(bed.UploadHail("/d", {workload::kVisitDate}).ok());
  const QueryDef q = workload::BobQueries()[0];

  SessionOptions opt;
  opt.policy = SchedulerPolicy::kFair;
  opt.queue_weights = {{"heavy", 3.0}, {"light", 1.0}};
  ClusterSession session(&bed.dfs(), opt);
  for (int i = 0; i < 2; ++i) {
    session.Submit(QueryJob(bed, "/d", q), "heavy");
    session.Submit(QueryJob(bed, "/d", q), "light");
  }
  auto sr = session.Run();
  ASSERT_TRUE(sr.ok()) << sr.status().ToString();
  for (const auto& job : sr->jobs) ASSERT_TRUE(job.ok());
  ASSERT_EQ(sr->queues.size(), 2u);
  const QueueUsage& heavy = sr->queues[0];
  const QueueUsage& light = sr->queues[1];
  EXPECT_EQ(heavy.queue, "heavy");
  ASSERT_GT(heavy.contended_slot_seconds + light.contended_slot_seconds, 0.0);
  const double share =
      heavy.contended_slot_seconds /
      (heavy.contended_slot_seconds + light.contended_slot_seconds);
  // Entitlement 3/(3+1) = 0.75 while both queues have pending work.
  EXPECT_NEAR(share, 0.75, 0.12);
  // And fairness visibly changes the outcome: with equal submission times
  // the light queue still finishes its first job long before FIFO would
  // let it (its latency is far below the sum of the heavy jobs ahead).
  EXPECT_LT(sr->jobs[1]->end_to_end_seconds, sr->session_seconds);
}

TEST(ClusterSessionTest, PerJobFailureDoesNotKillTheSession) {
  Testbed bed(SmallConfig());
  bed.LoadUserVisits();
  ASSERT_TRUE(bed.UploadHail("/d", {workload::kVisitDate}).ok());
  ClusterSession session(&bed.dfs());
  session.Submit(QueryJob(bed, "/missing", workload::BobQueries()[0]));
  session.Submit(QueryJob(bed, "/d", workload::BobQueries()[0]));
  auto sr = session.Run();
  ASSERT_TRUE(sr.ok()) << sr.status().ToString();
  EXPECT_FALSE(sr->jobs[0].ok());
  ASSERT_TRUE(sr->jobs[1].ok());
  EXPECT_GT(sr->jobs[1]->output_count, 0u);
}

TEST(ClusterSessionTest, RejectsForwardDependencies) {
  Testbed bed(SmallConfig());
  bed.LoadUserVisits();
  ASSERT_TRUE(bed.UploadHail("/d", {workload::kVisitDate}).ok());
  ClusterSession session(&bed.dfs());
  session.Submit(QueryJob(bed, "/d", workload::BobQueries()[0]), "default",
                 0.0, /*depends_on=*/0);  // depends on itself
  session.Submit(QueryJob(bed, "/d", workload::BobQueries()[0]));
  auto sr = session.Run();
  ASSERT_TRUE(sr.ok());
  EXPECT_FALSE(sr->jobs[0].ok());
  EXPECT_TRUE(sr->jobs[1].ok());
}

// ---------------------------------------------------------------------------
// Maintenance under sustained foreground load
// ---------------------------------------------------------------------------

TEST(ClusterSessionTest, MaintenanceNeverStarvesForeground) {
  Testbed bed(SmallConfig(13));
  bed.LoadUserVisits();
  ASSERT_TRUE(bed.UploadHail("/d", {workload::kVisitDate}).ok());
  adaptive::AdaptiveConfig config;
  config.planner.regret_threshold = 0.2;
  config.planner.escalate_after_rounds = 1;
  adaptive::AdaptiveManager manager(&bed.dfs(), bed.schema(), "/d", config);
  const QueryDef shifted{"Shift-Q", "@4 between(1,10)", "{@1,@4}", 1.7e-2};

  // Seed the maintenance queue: one observed full-scan round makes the
  // planner enqueue per-block rewrites.
  {
    RunOptions opt;
    opt.adaptive = &manager;
    ASSERT_TRUE(bed.RunQuery(System::kHail, "/d", shifted, false, opt).ok());
  }
  ASSERT_GT(manager.pending_tasks(), 0u);

  // Sustained query stream: staggered submissions keep foreground tasks
  // pending for most of the session while the maintenance queue drains
  // into the gaps.
  SessionOptions opt;
  opt.adaptive = &manager;
  ClusterSession session(&bed.dfs(), opt);
  session.Submit(QueryJob(bed, "/d", shifted), "default", 0.0);
  session.Submit(QueryJob(bed, "/d", shifted), "default", 10.0);
  session.Submit(QueryJob(bed, "/d", shifted), "default", 20.0);
  auto sr = session.Run();
  ASSERT_TRUE(sr.ok()) << sr.status().ToString();
  for (const auto& job : sr->jobs) ASSERT_TRUE(job.ok());
  // The strict low-priority invariant is measured, not assumed.
  EXPECT_EQ(sr->maintenance_while_foreground_pending, 0u);
  // And maintenance still made progress on the idle gaps.
  EXPECT_GT(sr->maintenance_completed, 0u);
}

// ---------------------------------------------------------------------------
// Converged maintenance
// ---------------------------------------------------------------------------

const QueryDef kShiftedQuery{"Shift-Q", "@4 between(1,10)", "{@1,@4}", 1.7e-2};

/// Every traced rewrite's (start, end), by (block, node, column), in
/// start order.
std::map<std::tuple<std::string, std::string, std::string>,
         std::vector<std::pair<double, double>>>
ReorgSpans(const obs::Tracer& tracer) {
  std::map<std::tuple<std::string, std::string, std::string>,
           std::vector<std::pair<double, double>>>
      out;
  for (const obs::TraceSpan& span : tracer.spans()) {
    if (span.name != "reorg") continue;
    std::map<std::string, std::string> attrs(span.attrs.begin(),
                                             span.attrs.end());
    out[{attrs["block"], attrs["node"], attrs["column"]}].emplace_back(
        span.start, span.start + span.duration);
  }
  for (auto& [key, runs] : out) std::sort(runs.begin(), runs.end());
  return out;
}

struct ConvergenceRun {
  SessionResult result;
  std::string dump;
  std::vector<std::vector<std::string>> answers;  // sorted, per job
  std::string metrics;  // the cluster's registry, "name value" lines
  obs::Tracer tracer;
};

/// Eight staggered shifted queries over a file sorted on visitDate only,
/// adapting online with re-sorts straight away (no unclustered stage, so
/// every traced rewrite is a re-sort). Each finished job's planning round
/// re-emits every re-sort that has not committed yet, so most queue
/// entries target a replica that is clustered on adRevenue by the time
/// they are assigned.
ConvergenceRun RunConvergenceSession(ExecutionMode mode, bool adapt) {
  Testbed bed(SmallConfig(21));
  bed.LoadUserVisits();
  EXPECT_TRUE(bed.UploadHail("/d", {workload::kVisitDate}).ok());
  adaptive::AdaptiveConfig config;
  config.planner.regret_threshold = 0.2;
  config.planner.escalate_after_rounds = 0;
  adaptive::AdaptiveManager manager(&bed.dfs(), bed.schema(), "/d", config);
  ConvergenceRun run;
  SessionOptions opt;
  opt.execution = mode;
  opt.tracer = &run.tracer;
  if (adapt) {
    opt.adaptive = &manager;
    opt.online_adaptation = true;
  }
  ClusterSession session(&bed.dfs(), opt);
  for (int i = 0; i < 8; ++i) {
    session.Submit(QueryJob(bed, "/d", kShiftedQuery), "default", 15.0 * i);
  }
  auto sr = session.Run();
  EXPECT_TRUE(sr.ok()) << sr.status().ToString();
  if (!sr.ok()) return run;
  run.result = *sr;
  run.dump = DumpSession(*sr);
  for (const auto& job : sr->jobs) {
    EXPECT_TRUE(job.ok()) << job.status().ToString();
    if (!job.ok()) continue;
    std::vector<std::string> rows = job->output_rows;
    std::sort(rows.begin(), rows.end());
    run.answers.push_back(std::move(rows));
  }
  run.metrics = bed.dfs().metrics().TakeSnapshot().ToText();
  return run;
}

TEST(ClusterSessionTest, ConvergedRewritesAreSkippedNotRebuilt) {
  const ConvergenceRun serial =
      RunConvergenceSession(ExecutionMode::kSerial, /*adapt=*/true);
  const SessionResult& r = serial.result;
  // Planning rounds re-emitted queued re-sorts, and the copies that found
  // their target already clustered were skipped ...
  EXPECT_GT(r.maintenance_converged, 0u);
  EXPECT_GT(r.maintenance_completed, 0u);
  EXPECT_EQ(r.maintenance_while_foreground_pending, 0u);
  // ... neither failed nor left behind once the queue drained.
  EXPECT_EQ(r.maintenance_scheduled, r.maintenance_completed +
                                         r.maintenance_failed +
                                         r.maintenance_converged);
  // No replica is re-sorted to a column after a re-sort to that column
  // committed on it. (A copy assigned while its twin still runs is built
  // too: Dir_rep records a rewrite only at its commit.)
  size_t built = 0;
  for (const auto& [key, runs] : ReorgSpans(serial.tracer)) {
    built += runs.size();
    for (size_t i = 1; i < runs.size(); ++i) {
      EXPECT_LT(runs[i].first, runs.front().second)
          << "block " << std::get<0>(key) << " node " << std::get<1>(key)
          << " column " << std::get<2>(key) << " rebuilt after its commit";
    }
  }
  EXPECT_EQ(built, r.maintenance_completed);

  // The layout shifts underneath, the answers do not.
  const ConvergenceRun fixed =
      RunConvergenceSession(ExecutionMode::kSerial, /*adapt=*/false);
  EXPECT_EQ(fixed.result.maintenance_scheduled, 0u);
  EXPECT_EQ(serial.answers, fixed.answers);
  EXPECT_EQ(serial.answers.size(), 8u);

  // The registry carries the count only once it is nonzero.
  EXPECT_NE(serial.metrics.find("maintenance.converged " +
                                std::to_string(r.maintenance_converged) +
                                "\n"),
            std::string::npos);
  EXPECT_EQ(fixed.metrics.find("maintenance.converged"), std::string::npos);

  const ConvergenceRun parallel =
      RunConvergenceSession(ExecutionMode::kParallel, /*adapt=*/true);
  EXPECT_EQ(serial.dump, parallel.dump);
  EXPECT_EQ(serial.tracer.ToChromeJson(), parallel.tracer.ToChromeJson());
  EXPECT_EQ(parallel.result.maintenance_converged, r.maintenance_converged);
}

struct SeededQueueRun {
  SessionResult result;
  double real_start = -1.0;  // when the real re-sort started
  double job_seconds = 0.0;
};

/// One query on a file sorted on visitDate, with node 1's maintenance
/// queue seeded with `converged` re-sorts of its visitDate replicas
/// (already clustered on that column) ahead of one real re-sort of an
/// unindexed replica on the same node.
SeededQueueRun RunSeededQueue(size_t converged) {
  Testbed bed(SmallConfig(13));
  bed.LoadUserVisits();
  EXPECT_TRUE(bed.UploadHail("/d", {workload::kVisitDate}).ok());
  const int node = 1;
  std::vector<adaptive::MaintenanceTask> seeded;
  adaptive::MaintenanceTask real;
  auto blocks = bed.dfs().namenode().GetFileBlocks("/d");
  EXPECT_TRUE(blocks.ok());
  for (const hdfs::BlockLocation& loc : *blocks) {
    auto info = bed.dfs().namenode().GetReplicaInfo(loc.block_id, node);
    if (!info.ok()) continue;
    adaptive::MaintenanceTask task;
    task.block_id = loc.block_id;
    task.datanode = node;
    task.kind = adaptive::MaintenanceTask::Kind::kResortReplica;
    if (info->has_index() && seeded.size() < converged) {
      task.column = workload::kVisitDate;
      seeded.push_back(task);
    } else if (!info->has_index() && real.datanode < 0) {
      task.column = workload::kAdRevenue;
      real = task;
    }
  }
  EXPECT_EQ(seeded.size(), converged);
  EXPECT_GE(real.datanode, 0);
  seeded.push_back(real);
  adaptive::AdaptiveManager manager(&bed.dfs(), bed.schema(), "/d");
  manager.ReturnUnfinished(seeded);

  SessionOptions opt;
  opt.adaptive = &manager;
  obs::Tracer tracer;
  opt.tracer = &tracer;
  ClusterSession session(&bed.dfs(), opt);
  session.Submit(QueryJob(bed, "/d", kShiftedQuery), "default", 0.0);
  auto sr = session.Run();
  EXPECT_TRUE(sr.ok()) << sr.status().ToString();
  SeededQueueRun run;
  if (!sr.ok() || !sr->jobs[0].ok()) return run;
  run.result = *sr;
  run.job_seconds = sr->jobs[0]->end_to_end_seconds;
  const auto spans = ReorgSpans(tracer);
  EXPECT_EQ(spans.size(), 1u);
  if (!spans.empty()) run.real_start = spans.begin()->second.front().first;
  return run;
}

TEST(ClusterSessionTest, ConvergedQueueEntriesTakeNoSlotAndNoQuota) {
  // More converged entries than a heartbeat's quota (1) or a node's map
  // slots (2) sit ahead of the real rewrite.
  const SeededQueueRun alone = RunSeededQueue(0);
  const SeededQueueRun behind = RunSeededQueue(3);
  EXPECT_EQ(alone.result.maintenance_converged, 0u);
  EXPECT_EQ(behind.result.maintenance_converged, 3u);
  EXPECT_EQ(behind.result.maintenance_completed, 1u);
  EXPECT_EQ(behind.result.maintenance_failed, 0u);
  // The real rewrite starts while the job still runs, where the
  // per-heartbeat quota holds ...
  ASSERT_GE(alone.real_start, 0.0);
  EXPECT_LT(alone.real_start, alone.job_seconds);
  // ... and at the same heartbeat whether or not converged entries were
  // in front of it.
  EXPECT_EQ(behind.real_start, alone.real_start);
  EXPECT_EQ(behind.job_seconds, alone.job_seconds);
}

// ---------------------------------------------------------------------------
// Failure injection across jobs
// ---------------------------------------------------------------------------

std::string RunKillScenario(ExecutionMode mode) {
  Testbed bed(SmallConfig(7));
  bed.LoadUserVisits();
  EXPECT_TRUE(bed.UploadHail("/d", {workload::kVisitDate,
                                    workload::kSourceIP,
                                    workload::kAdRevenue})
                  .ok());
  SessionOptions opt;
  opt.policy = SchedulerPolicy::kFair;
  opt.queue_weights = {{"a", 2.0}, {"b", 1.0}};
  opt.execution = mode;
  opt.fault_plan.kills.push_back(
      {.node = 2, .at_progress = 0.5, .progress_job = 0});
  ClusterSession session(&bed.dfs(), opt);
  session.Submit(QueryJob(bed, "/d", workload::BobQueries()[0]), "a");
  session.Submit(QueryJob(bed, "/d", workload::BobQueries()[1]), "b");
  session.Submit(QueryJob(bed, "/d", workload::BobQueries()[3]), "a");
  auto sr = session.Run();
  EXPECT_TRUE(sr.ok()) << sr.status().ToString();
  if (!sr.ok()) return sr.status().ToString();
  uint32_t rescheduled = 0;
  for (const auto& job : sr->jobs) {
    EXPECT_TRUE(job.ok()) << job.status().ToString();
    if (job.ok()) rescheduled += job->rescheduled_tasks;
  }
  EXPECT_GT(rescheduled, 0u) << "kill must actually cost re-executions";
  return DumpSession(*sr);
}

TEST(ClusterSessionTest, NodeKillMidMultiJobSerialEqualsParallel) {
  const std::string serial = RunKillScenario(ExecutionMode::kSerial);
  const std::string parallel = RunKillScenario(ExecutionMode::kParallel);
  EXPECT_EQ(serial, parallel);
  EXPECT_EQ(crc32c::Extend(0, serial.data(), serial.size()), 0xd48a165bu);
}

// ---------------------------------------------------------------------------
// Uploads as tenants
// ---------------------------------------------------------------------------

std::string MakeUploadText(uint64_t seed) {
  workload::UserVisitsConfig uv;
  uv.rows = 600;
  uv.seed = seed;
  uv.scale_factor = 512.0;
  return workload::GenerateUserVisitsText(uv);
}

UploadJobSpec MakeHailUpload(const Testbed& bed, const std::string& path,
                             int nodes) {
  UploadJobSpec up;
  up.name = "ingest:" + path;
  up.system = System::kHail;
  up.hail.schema = bed.schema();
  up.hail.sort_columns = {workload::kVisitDate};
  for (int i = 0; i < nodes; ++i) {
    UploadJobSpec::File f;
    f.client_node = i;
    char part[32];
    std::snprintf(part, sizeof(part), "/part-%05d", i);
    f.dfs_path = path + part;
    f.text = MakeUploadText(1234 + static_cast<uint64_t>(i));
    up.files.push_back(std::move(f));
  }
  return up;
}

std::string RunUploadScenario(ExecutionMode mode, uint64_t* dependent_out) {
  Testbed bed(SmallConfig(21));
  bed.LoadUserVisits();
  EXPECT_TRUE(bed.UploadHail("/d", {workload::kVisitDate}).ok());
  const QueryDef q = workload::BobQueries()[0];

  SessionOptions opt;
  opt.policy = SchedulerPolicy::kFair;
  opt.execution = mode;
  ClusterSession session(&bed.dfs(), opt);
  // Tenant 1: queries over the pre-loaded data. Tenant 2: a HAIL ingest
  // contending for the same map slots. Tenant 3: a query over the
  // freshly-ingested file, admitted only once the upload committed.
  session.Submit(QueryJob(bed, "/d", q), "queries");
  const int up = session.SubmitUpload(MakeHailUpload(bed, "/u", 2), "ingest");
  session.Submit(QueryJob(bed, "/u", q), "queries", 0.0, /*depends_on=*/up);
  auto sr = session.Run();
  EXPECT_TRUE(sr.ok()) << sr.status().ToString();
  if (!sr.ok()) return sr.status().ToString();
  for (const auto& job : sr->jobs) {
    EXPECT_TRUE(job.ok()) << job.status().ToString();
  }
  if (sr->jobs[2].ok() && dependent_out != nullptr) {
    *dependent_out = sr->jobs[2]->output_count;
  }
  // The upload job occupied slots for its simulated duration.
  EXPECT_TRUE(sr->jobs[1].ok());
  if (sr->jobs[1].ok()) {
    EXPECT_EQ(sr->jobs[1]->map_tasks, 2u);
    EXPECT_GT(sr->jobs[1]->end_to_end_seconds, 0.0);
  }
  return DumpSession(*sr);
}

TEST(ClusterSessionTest, UploadExecutionFailureFailsOnlyThatTenant) {
  // The failure fires at *execution* time (sort_columns exceeds the
  // replication factor), on whatever slot the scheduler granted — in the
  // commit window after the assigning event — and must take down only the
  // ingest tenant, dropping its remaining files.
  for (ExecutionMode mode :
       {ExecutionMode::kSerial, ExecutionMode::kParallel}) {
    Testbed bed(SmallConfig());
    bed.LoadUserVisits();
    ASSERT_TRUE(bed.UploadHail("/d", {workload::kVisitDate}).ok());
    UploadJobSpec bad = MakeHailUpload(bed, "/broken", 2);
    bad.hail.sort_columns = {0, 1, 2, 3};  // > replication (3)
    SessionOptions opt;
    opt.execution = mode;
    ClusterSession session(&bed.dfs(), opt);
    session.Submit(QueryJob(bed, "/d", workload::BobQueries()[0]));
    session.SubmitUpload(std::move(bad), "ingest");
    auto sr = session.Run();
    ASSERT_TRUE(sr.ok()) << sr.status().ToString();
    ASSERT_TRUE(sr->jobs[0].ok()) << sr->jobs[0].status().ToString();
    EXPECT_GT(sr->jobs[0]->output_count, 0u);
    EXPECT_FALSE(sr->jobs[1].ok());
  }
}

TEST(ClusterSessionTest, RejectsUploadSystemsWithoutASlotTaskModel) {
  Testbed bed(SmallConfig());
  bed.LoadUserVisits();
  ASSERT_TRUE(bed.UploadHail("/d", {workload::kVisitDate}).ok());
  UploadJobSpec up = MakeHailUpload(bed, "/nope", 1);
  up.system = System::kHadoopPP;  // its ingest is an MR job chain
  ClusterSession session(&bed.dfs());
  session.Submit(QueryJob(bed, "/d", workload::BobQueries()[0]));
  session.SubmitUpload(std::move(up));
  auto sr = session.Run();
  ASSERT_TRUE(sr.ok());
  EXPECT_TRUE(sr->jobs[0].ok());
  EXPECT_FALSE(sr->jobs[1].ok());
}

TEST(ClusterSessionTest, UploadTenantsContendAndDependentsSeeTheFile) {
  uint64_t dependent_serial = 0;
  const std::string serial =
      RunUploadScenario(ExecutionMode::kSerial, &dependent_serial);
  const std::string parallel =
      RunUploadScenario(ExecutionMode::kParallel, nullptr);
  EXPECT_EQ(serial, parallel);
  EXPECT_EQ(crc32c::Extend(0, serial.data(), serial.size()), 0xd8872ee5u);

  // Reference: the same bytes ingested outside any session produce the
  // same answer for the dependent query.
  Testbed bed(SmallConfig(21));
  bed.LoadUserVisits();
  ASSERT_TRUE(bed.UploadHail("/d", {workload::kVisitDate}).ok());
  HailUploadConfig cfg;
  cfg.schema = bed.schema();
  cfg.sort_columns = {workload::kVisitDate};
  for (int i = 0; i < 2; ++i) {
    char part[32];
    std::snprintf(part, sizeof(part), "/part-%05d", i);
    const std::string text = MakeUploadText(1234 + static_cast<uint64_t>(i));
    ASSERT_TRUE(HailUploadTextFile(&bed.dfs(), cfg, i,
                                   std::string("/u") + part, text)
                    .ok());
  }
  auto reference = bed.RunQuery(System::kHail, "/u", workload::BobQueries()[0],
                                false, RunOptions{}, false);
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(dependent_serial, reference->output_count);
}

// ---------------------------------------------------------------------------
// Serial == parallel across >= 3 concurrent jobs (+ maintenance + kill)
// ---------------------------------------------------------------------------

std::string RunBigScenario(ExecutionMode mode, uint64_t* maint_completed) {
  Testbed bed(SmallConfig(13));
  bed.LoadUserVisits();
  EXPECT_TRUE(bed.UploadHail("/d", {workload::kVisitDate}).ok());
  adaptive::AdaptiveConfig config;
  config.planner.regret_threshold = 0.2;
  config.planner.escalate_after_rounds = 1;
  adaptive::AdaptiveManager manager(&bed.dfs(), bed.schema(), "/d", config);
  const QueryDef shifted{"Shift-Q", "@4 between(1,10)", "{@1,@4}", 1.7e-2};

  std::string dumps;
  for (int round = 0; round < 3; ++round) {
    SessionOptions opt;
    opt.policy = SchedulerPolicy::kFair;
    opt.queue_weights = {{"a", 2.0}, {"b", 1.0}};
    opt.execution = mode;
    opt.adaptive = &manager;
    if (round == 1) {
      opt.fault_plan.kills.push_back(
          {.node = 2, .at_progress = 0.4, .progress_job = 1});
    }
    ClusterSession session(&bed.dfs(), opt);
    session.Submit(QueryJob(bed, "/d", shifted), "a");
    session.Submit(QueryJob(bed, "/d", workload::BobQueries()[0]), "b");
    session.Submit(QueryJob(bed, "/d", shifted), "a", 15.0);
    session.Submit(QueryJob(bed, "/d", workload::BobQueries()[3]), "b", 30.0);
    auto sr = session.Run();
    EXPECT_TRUE(sr.ok()) << sr.status().ToString();
    dumps += "== round " + std::to_string(round) + " ==\n";
    dumps += sr.ok() ? DumpSession(*sr) : sr.status().ToString();
    dumps += '\n';
  }
  dumps += "manager pending=" + std::to_string(manager.pending_tasks()) +
           " planned=" + std::to_string(manager.planned_total()) +
           " completed=" + std::to_string(manager.completed_total()) +
           " failed=" + std::to_string(manager.failed_total());
  *maint_completed = manager.completed_total();
  return dumps;
}

TEST(ClusterSessionTest, SerialEqualsParallelAcrossInterleavedJobs) {
  uint64_t serial_completed = 0;
  uint64_t parallel_completed = 0;
  const std::string serial =
      RunBigScenario(ExecutionMode::kSerial, &serial_completed);
  const std::string parallel =
      RunBigScenario(ExecutionMode::kParallel, &parallel_completed);
  // The scenario must actually exercise mid-session reorg under
  // contention, not degenerate to the static path.
  EXPECT_GT(serial_completed, 0u);
  EXPECT_EQ(serial, parallel);
  EXPECT_EQ(crc32c::Extend(0, serial.data(), serial.size()), 0xd915e145u);
}

// ---------------------------------------------------------------------------
// EDF above fair share (per-queue latency SLOs)
// ---------------------------------------------------------------------------

TEST(SlotSchedulerTest, EdfEscalatesPastDeadlineJobsAboveFairShares) {
  SlotScheduler sched(SchedulerPolicy::kFair, {{"a", 4.0}, {"b", 1.0}});
  const int a = sched.RegisterJob("a");
  const int b = sched.RegisterJob("b");
  sched.SetPending(a, 10);
  sched.SetPending(b, 10);
  sched.SetJobDeadline(b, 50.0);
  // Before the deadline the weights rule: queue a (weight 4) dominates.
  EXPECT_EQ(sched.PickNextJob(0.0), a);
  // Past it, job b jumps every fair-share consideration.
  EXPECT_EQ(sched.PickNextJob(50.0), b);
  // Earliest deadline wins among several overdue jobs; ties lowest id.
  const int c = sched.RegisterJob("a");
  sched.SetPending(c, 10);
  sched.SetJobDeadline(c, 20.0);
  EXPECT_EQ(sched.PickNextJob(60.0), c);
  // An overdue job with no pending work never blocks the others.
  sched.SetPending(c, 0);
  EXPECT_EQ(sched.PickNextJob(60.0), b);
}

// ---------------------------------------------------------------------------
// SlotScheduler's pending-job indexes against the O(jobs) scans they
// replaced
// ---------------------------------------------------------------------------

/// The SlotScheduler picks as they were before pending jobs were indexed:
/// every PickNextJob and Contended call scans all jobs. Kept verbatim as
/// the reference the indexed version must agree with.
class ScanningSlotScheduler {
 public:
  ScanningSlotScheduler(SchedulerPolicy policy,
                        std::map<std::string, double> weights)
      : policy_(policy), weights_(std::move(weights)) {}

  int RegisterJob(const std::string& queue) {
    int q = -1;
    for (size_t i = 0; i < queues_.size(); ++i) {
      if (queues_[i].name == queue) q = static_cast<int>(i);
    }
    if (q < 0) {
      SlotScheduler::QueueState state;
      state.name = queue;
      auto it = weights_.find(queue);
      state.weight =
          it != weights_.end() && it->second > 0.0 ? it->second : 1.0;
      queues_.push_back(state);
      q = static_cast<int>(queues_.size()) - 1;
    }
    jobs_.push_back(JobEntry{q, 0, 0.0, false});
    return static_cast<int>(jobs_.size()) - 1;
  }
  void SetPending(int job, size_t pending) {
    jobs_[static_cast<size_t>(job)].pending = pending;
  }
  void SetJobDeadline(int job, sim::SimTime deadline) {
    jobs_[static_cast<size_t>(job)].deadline = deadline;
    jobs_[static_cast<size_t>(job)].has_deadline = true;
  }
  void OnTaskStarted(int job) {
    queues_[static_cast<size_t>(jobs_[static_cast<size_t>(job)].queue)]
        .running += 1;
  }
  void OnTaskFinished(int job) {
    uint32_t& running =
        queues_[static_cast<size_t>(jobs_[static_cast<size_t>(job)].queue)]
            .running;
    if (running > 0) running -= 1;
  }

  int PickNextJob(sim::SimTime now) const {
    if (policy_ == SchedulerPolicy::kFifo) {
      for (size_t j = 0; j < jobs_.size(); ++j) {
        if (jobs_[j].pending > 0) return static_cast<int>(j);
      }
      return -1;
    }
    int edf = -1;
    for (size_t j = 0; j < jobs_.size(); ++j) {
      const JobEntry& job = jobs_[j];
      if (job.pending == 0 || !job.has_deadline || job.deadline > now) {
        continue;
      }
      if (edf < 0 || job.deadline < jobs_[static_cast<size_t>(edf)].deadline) {
        edf = static_cast<int>(j);
      }
    }
    if (edf >= 0) return edf;
    int best_queue = -1;
    double best_deficit = 0.0;
    for (size_t q = 0; q < queues_.size(); ++q) {
      bool has_pending = false;
      for (const JobEntry& job : jobs_) {
        if (job.queue == static_cast<int>(q) && job.pending > 0) {
          has_pending = true;
          break;
        }
      }
      if (!has_pending) continue;
      const double deficit =
          static_cast<double>(queues_[q].running) / queues_[q].weight;
      if (best_queue < 0 || deficit < best_deficit) {
        best_queue = static_cast<int>(q);
        best_deficit = deficit;
      }
    }
    if (best_queue < 0) return -1;
    for (size_t j = 0; j < jobs_.size(); ++j) {
      if (jobs_[j].queue == best_queue && jobs_[j].pending > 0) {
        return static_cast<int>(j);
      }
    }
    return -1;
  }

  bool Contended() const {
    int queues_with_work = 0;
    for (size_t q = 0; q < queues_.size(); ++q) {
      for (const JobEntry& job : jobs_) {
        if (job.queue == static_cast<int>(q) && job.pending > 0) {
          ++queues_with_work;
          break;
        }
      }
    }
    return queues_with_work >= 2;
  }

  size_t job_count() const { return jobs_.size(); }

 private:
  struct JobEntry {
    int queue = 0;
    size_t pending = 0;
    sim::SimTime deadline = 0.0;
    bool has_deadline = false;
  };
  SchedulerPolicy policy_;
  std::map<std::string, double> weights_;
  std::vector<SlotScheduler::QueueState> queues_;
  std::vector<JobEntry> jobs_;
};

TEST(SlotSchedulerTest, IndexedPicksMatchTheScanningReference) {
  // Deadlines and `now` come from one small grid, so equal deadlines and
  // `now` exactly at a deadline are common; queue names come from a pool
  // larger than the initial registrations, so queues first appear
  // mid-sequence; weights include a tie, a non-positive weight (treated
  // as 1.0) and an unlisted queue.
  const std::map<std::string, double> weights = {
      {"a", 2.0}, {"b", 1.0}, {"c", 0.5}, {"d", 0.0}};
  const std::vector<std::string> names = {"a", "b", "c", "d", "e"};
  const std::vector<sim::SimTime> grid = {0.0, 1.0, 2.0, 2.5, 4.0, 7.0};
  for (SchedulerPolicy policy :
       {SchedulerPolicy::kFifo, SchedulerPolicy::kFair}) {
    for (uint64_t seed = 1; seed <= 40; ++seed) {
      Random rng(seed);
      SlotScheduler indexed(policy, weights);
      ScanningSlotScheduler reference(policy, weights);
      for (int i = 0; i < 2; ++i) {
        const std::string& q = names[rng.Uniform(2)];
        ASSERT_EQ(indexed.RegisterJob(q), reference.RegisterJob(q));
      }
      for (int op = 0; op < 300; ++op) {
        const int job = static_cast<int>(rng.Uniform(reference.job_count()));
        switch (rng.Uniform(6)) {
          case 0: {
            const std::string& q = names[rng.Uniform(names.size())];
            ASSERT_EQ(indexed.RegisterJob(q), reference.RegisterJob(q));
            break;
          }
          case 1:
          case 2: {
            const size_t pending = rng.Uniform(2) == 0 ? 0 : rng.Uniform(4);
            indexed.SetPending(job, pending);
            reference.SetPending(job, pending);
            break;
          }
          case 3: {
            const sim::SimTime deadline = grid[rng.Uniform(grid.size())];
            indexed.SetJobDeadline(job, deadline);
            reference.SetJobDeadline(job, deadline);
            break;
          }
          case 4:
            indexed.OnTaskStarted(job);
            reference.OnTaskStarted(job);
            break;
          default:
            indexed.OnTaskFinished(job);
            reference.OnTaskFinished(job);
            break;
        }
        ASSERT_EQ(indexed.Contended(), reference.Contended())
            << "seed " << seed << " op " << op;
        for (sim::SimTime now : grid) {
          ASSERT_EQ(indexed.PickNextJob(now), reference.PickNextJob(now))
              << "seed " << seed << " op " << op << " now " << now;
        }
      }
    }
  }
}

TEST(ClusterSessionTest, QueueSloAccountingAndViolations) {
  Testbed bed(SmallConfig());
  bed.LoadUserVisits();
  ASSERT_TRUE(bed.UploadHail("/d", {workload::kVisitDate}).ok());
  const QueryDef q = workload::BobQueries()[0];

  SessionOptions opt;
  opt.policy = SchedulerPolicy::kFair;
  // An impossible target on one queue, a generous one on the other: the
  // accounting must see exactly the first queue violate.
  opt.queue_slo_s = {{"tight", 0.001}, {"loose", 1e9}};
  ClusterSession session(&bed.dfs(), opt);
  session.Submit(QueryJob(bed, "/d", q), "tight");
  session.Submit(QueryJob(bed, "/d", q), "loose");
  auto sr = session.Run();
  ASSERT_TRUE(sr.ok()) << sr.status().ToString();
  ASSERT_TRUE(sr->jobs[0].ok() && sr->jobs[1].ok());
  ASSERT_EQ(sr->queues.size(), 2u);
  const QueueUsage& tight = sr->queues[0];
  const QueueUsage& loose = sr->queues[1];
  EXPECT_EQ(tight.queue, "tight");
  EXPECT_DOUBLE_EQ(tight.slo_target_s, 0.001);
  EXPECT_EQ(tight.jobs_completed, 1u);
  EXPECT_EQ(tight.slo_violations, 1u);
  EXPECT_EQ(loose.slo_violations, 0u);
  EXPECT_EQ(sr->slo_violations_total, 1u);
  // Percentiles of a single completed job all equal its latency.
  EXPECT_GT(tight.latency_p50_s, 0.0);
  EXPECT_DOUBLE_EQ(tight.latency_p50_s, tight.latency_p99_s);
  EXPECT_DOUBLE_EQ(tight.latency_p50_s,
                   sr->jobs[0]->end_to_end_seconds);
}

// ---------------------------------------------------------------------------
// Admission control + load shedding
// ---------------------------------------------------------------------------

TEST(ClusterSessionTest, BacklogBoundShedsDeterministically) {
  for (ExecutionMode mode :
       {ExecutionMode::kSerial, ExecutionMode::kParallel}) {
    Testbed bed(SmallConfig());
    bed.LoadUserVisits();
    ASSERT_TRUE(bed.UploadHail("/d", {workload::kVisitDate}).ok());
    const QueryDef q = workload::BobQueries()[0];

    SessionOptions opt;
    opt.execution = mode;
    AdmissionControl ac;
    ac.max_backlog_jobs = 1;
    opt.queue_admission = {{"q", ac}};
    ClusterSession session(&bed.dfs(), opt);
    session.Submit(QueryJob(bed, "/d", q), "q");
    session.Submit(QueryJob(bed, "/d", q), "q");
    session.Submit(QueryJob(bed, "/d", q), "q");
    session.Submit(QueryJob(bed, "/d", q), "other");  // unbounded queue
    auto sr = session.Run();
    ASSERT_TRUE(sr.ok()) << sr.status().ToString();
    // Job 0 admits (no backlog); jobs 1 and 2 each see the one admitted
    // job already at the bound and shed. Shed jobs never count towards
    // the backlog, so the decision is identical in both engines.
    ASSERT_TRUE(sr->jobs[0].ok());
    EXPECT_TRUE(sr->jobs[1].status().IsOverloaded())
        << sr->jobs[1].status().ToString();
    EXPECT_TRUE(sr->jobs[2].status().IsOverloaded());
    ASSERT_TRUE(sr->jobs[3].ok());
    EXPECT_EQ(sr->jobs_shed, 2u);
    EXPECT_EQ(sr->queues[0].jobs_shed, 2u);
    EXPECT_EQ(sr->queues[1].jobs_shed, 0u);
  }
}

TEST(ClusterSessionTest, ProjectedWaitShedsOnceAQueueHasHistory) {
  Testbed bed(SmallConfig());
  bed.LoadUserVisits();
  ASSERT_TRUE(bed.UploadHail("/d", {workload::kVisitDate}).ok());
  const QueryDef scan{"Scan", "@4 between(1,10)", "{@1,@4}", 1.7e-2};

  SessionOptions opt;
  AdmissionControl ac;
  ac.shed_wait_s = 0.5;  // almost any backlog exceeds this
  opt.queue_admission = {{"q", ac}};
  ClusterSession session(&bed.dfs(), opt);
  // The time-0 jobs admit unconditionally (no completed task to estimate
  // from yet) and build the queue's mean-task history; the late arrival
  // projects a wait from the still-pending backlog and sheds.
  session.Submit(QueryJob(bed, "/d", scan), "q");
  session.Submit(QueryJob(bed, "/d", scan), "q");
  session.Submit(QueryJob(bed, "/d", scan), "q", 20.0);
  auto sr = session.Run();
  ASSERT_TRUE(sr.ok()) << sr.status().ToString();
  ASSERT_TRUE(sr->jobs[0].ok()) << sr->jobs[0].status().ToString();
  ASSERT_TRUE(sr->jobs[1].ok()) << sr->jobs[1].status().ToString();
  EXPECT_TRUE(sr->jobs[2].status().IsOverloaded())
      << sr->jobs[2].status().ToString();
  EXPECT_EQ(sr->jobs_shed, 1u);
}

TEST(ClusterSessionTest, DependentsOfFailedOrShedJobsFailFast) {
  Testbed bed(SmallConfig());
  bed.LoadUserVisits();
  ASSERT_TRUE(bed.UploadHail("/d", {workload::kVisitDate}).ok());
  const QueryDef q = workload::BobQueries()[0];

  SessionOptions opt;
  AdmissionControl ac;
  ac.max_backlog_jobs = 1;
  opt.queue_admission = {{"bounded", ac}};
  ClusterSession session(&bed.dfs(), opt);
  const int bad = session.Submit(QueryJob(bed, "/missing", q));  // fails
  session.Submit(QueryJob(bed, "/d", q), "default", 0.0, /*depends_on=*/bad);
  session.Submit(QueryJob(bed, "/d", q), "bounded");
  const int shed = session.Submit(QueryJob(bed, "/d", q), "bounded");
  session.Submit(QueryJob(bed, "/d", q), "default", 0.0, /*depends_on=*/shed);
  auto sr = session.Run();
  ASSERT_TRUE(sr.ok()) << sr.status().ToString();
  // A dependent of a failed job fails fast with the generic dependency
  // status; a dependent of a *shed* job carries the overload signal so
  // callers can tell "retry later" from "fix your job".
  EXPECT_FALSE(sr->jobs[0].ok());
  EXPECT_TRUE(sr->jobs[1].status().IsFailedPrecondition())
      << sr->jobs[1].status().ToString();
  EXPECT_TRUE(sr->jobs[3].status().IsOverloaded());
  EXPECT_TRUE(sr->jobs[4].status().IsOverloaded())
      << sr->jobs[4].status().ToString();
  // The healthy tenant (and the session) is untouched.
  EXPECT_TRUE(sr->jobs[2].ok());
}

// ---------------------------------------------------------------------------
// Preemption with a catch-up timeout
// ---------------------------------------------------------------------------

// Paper-scale logical blocks: one full-scan map task occupies its slot
// for tens of simulated seconds, so an all-slots-busy storm really does
// outlast a preemption catch-up deadline.
TestbedConfig StormConfig(uint64_t seed) {
  TestbedConfig config = SmallConfig(seed);
  config.logical_block_bytes = 1024ull * 1024 * 1024;  // ~50s scan tasks
  return config;
}

std::string RunPreemptionScenario(ExecutionMode mode, bool preemption,
                                  SessionResult* out) {
  Testbed bed(StormConfig(31));
  bed.LoadUserVisits();
  EXPECT_TRUE(bed.UploadHail("/d", {workload::kVisitDate}).ok());
  // Heavy tenant: unindexed full scans that hold every slot for a long
  // time. Short tenant: a selective indexed query arriving mid-storm.
  const QueryDef heavy{"Heavy", "@4 between(1,10)", "{@1,@4}", 1.7e-2};
  const QueryDef light = workload::BobQueries()[0];

  SessionOptions opt;
  opt.policy = SchedulerPolicy::kFair;
  opt.execution = mode;
  opt.preemption = preemption;
  opt.preemption_catchup_s = 15.0;
  ClusterSession session(&bed.dfs(), opt);
  session.Submit(QueryJob(bed, "/d", heavy), "heavy");
  session.Submit(QueryJob(bed, "/d", light), "short", 10.0);
  auto sr = session.Run();
  EXPECT_TRUE(sr.ok()) << sr.status().ToString();
  if (!sr.ok()) return sr.status().ToString();
  for (const auto& job : sr->jobs) {
    EXPECT_TRUE(job.ok()) << job.status().ToString();
  }
  if (out != nullptr) *out = *sr;
  return DumpSession(*sr);
}

TEST(ClusterSessionTest, PreemptionBoundsAStarvedTenantsWait) {
  SessionResult without;
  SessionResult with;
  RunPreemptionScenario(ExecutionMode::kSerial, false, &without);
  RunPreemptionScenario(ExecutionMode::kSerial, true, &with);
  ASSERT_TRUE(without.jobs[1].ok() && with.jobs[1].ok());
  // The over-share queue really was preempted, the wasted slot-seconds
  // are billed to it, and the starved tenant's latency improved.
  EXPECT_GT(with.preemptions, 0u);
  EXPECT_GT(with.preempted_slot_seconds, 0.0);
  ASSERT_EQ(with.queues.size(), 2u);
  EXPECT_EQ(with.queues[0].queue, "heavy");
  EXPECT_EQ(with.queues[0].preemptions, with.preemptions);
  EXPECT_EQ(without.preemptions, 0u);
  EXPECT_LT(with.jobs[1]->end_to_end_seconds,
            without.jobs[1]->end_to_end_seconds);
  // Preemption re-runs work but never changes answers.
  EXPECT_EQ(with.jobs[1]->output_count, without.jobs[1]->output_count);
}

TEST(ClusterSessionTest, PreemptionSerialEqualsParallel) {
  const std::string serial =
      RunPreemptionScenario(ExecutionMode::kSerial, true, nullptr);
  const std::string parallel =
      RunPreemptionScenario(ExecutionMode::kParallel, true, nullptr);
  EXPECT_EQ(serial, parallel);
  EXPECT_EQ(crc32c::Extend(0, serial.data(), serial.size()), 0xd266f92bu);
}

// ---------------------------------------------------------------------------
// Fair-share accounting across speculation and a node death
// ---------------------------------------------------------------------------

/// Node 1 runs 8x slow, so its tasks get speculative twins, and dies at
/// t = 20 s. Queue a runs Bob-Q4 alone first; at t = 80 s queues a and b
/// (equal weights) each submit it again and share the three surviving
/// nodes. Every attempt that ends must leave its queue's running count —
/// also a speculation loser whose node died — or kFair picks and
/// preemption keep reading a as busier than it is.
SessionResult RunSpeculationDeathSession(ExecutionMode mode) {
  TestbedConfig config = SmallConfig(3);
  config.logical_block_bytes = 64ull * 1024 * 1024;  // scale 8192
  config.blocks_per_node = 4;
  Testbed bed(config);
  bed.LoadUserVisits();
  EXPECT_TRUE(bed.UploadHail("/d", {}).ok());
  SessionOptions opt;
  opt.execution = mode;
  opt.policy = SchedulerPolicy::kFair;
  opt.speculative_execution = true;
  opt.fault_plan.slow_nodes.push_back({.node = 1, .factor = 8.0});
  opt.fault_plan.kills.push_back({.node = 1, .at_time = 20.0});
  const QueryDef q4 = workload::BobQueries()[3];
  ClusterSession session(&bed.dfs(), opt);
  session.Submit(QueryJob(bed, "/d", q4), "a");
  session.Submit(QueryJob(bed, "/d", q4), "a", 80.0);
  session.Submit(QueryJob(bed, "/d", q4), "b", 80.0);
  auto sr = session.Run();
  EXPECT_TRUE(sr.ok()) << sr.status().ToString();
  if (!sr.ok()) return SessionResult();
  for (const auto& job : sr->jobs) {
    EXPECT_TRUE(job.ok()) << job.status().ToString();
  }
  return *sr;
}

TEST(ClusterSessionTest, SpeculationLosersOnADeadNodeReleaseTheirShare) {
  const SessionResult serial =
      RunSpeculationDeathSession(ExecutionMode::kSerial);
  const SessionResult parallel =
      RunSpeculationDeathSession(ExecutionMode::kParallel);
  EXPECT_EQ(DumpSession(serial), DumpSession(parallel));
  EXPECT_GT(serial.speculative_attempts, 0u);
  ASSERT_EQ(serial.queues.size(), 2u);
  const QueueUsage& a = serial.queues[0];
  const QueueUsage& b = serial.queues[1];
  ASSERT_EQ(a.queue, "a");
  ASSERT_EQ(b.queue, "b");
  ASSERT_GT(a.contended_slot_seconds, 0.0);
  ASSERT_GT(b.contended_slot_seconds, 0.0);
  // Equal weights: the contended window splits about evenly. A leaked
  // running count on a gives b about twice a's slot-seconds.
  const double ratio =
      std::max(a.contended_slot_seconds, b.contended_slot_seconds) /
      std::min(a.contended_slot_seconds, b.contended_slot_seconds);
  EXPECT_LE(ratio, 1.25) << "a " << a.contended_tasks << " tasks / "
                         << a.contended_slot_seconds << " s, b "
                         << b.contended_tasks << " tasks / "
                         << b.contended_slot_seconds << " s";
}

// ---------------------------------------------------------------------------
// Attempt paths: duplicates, race losers, node deaths and failed reads
// ---------------------------------------------------------------------------

struct AttemptRun {
  SessionResult result;
  std::string dump;
  std::string trace;
};

/// Five nodes; node 1 runs `slow`x slow, so its tasks get speculative
/// duplicates. Under kFair with speculation on, queue a runs Bob-Q4 at
/// t = 0 and queue b at t = 10 s; `faults` adds kills or corruptions. Each
/// recipe below steers a task's attempts into one combination of a win, a
/// loss, a death and a failed read.
AttemptRun RunAttemptSession(ExecutionMode mode, double slow,
                             sim::FaultPlan faults,
                             uint64_t logical_block_bytes) {
  TestbedConfig config = SmallConfig(3);
  config.num_nodes = 5;
  config.logical_block_bytes = logical_block_bytes;
  config.blocks_per_node = 4;
  Testbed bed(config);
  bed.LoadUserVisits();
  EXPECT_TRUE(bed.UploadHail("/d", {}).ok());
  obs::Tracer tracer;
  SessionOptions opt;
  opt.execution = mode;
  opt.policy = SchedulerPolicy::kFair;
  opt.speculative_execution = true;
  opt.tracer = &tracer;
  opt.fault_plan = std::move(faults);
  opt.fault_plan.slow_nodes.push_back({.node = 1, .factor = slow});
  const QueryDef q4 = workload::BobQueries()[3];
  ClusterSession session(&bed.dfs(), opt);
  session.Submit(QueryJob(bed, "/d", q4), "a");
  session.Submit(QueryJob(bed, "/d", q4), "b", 10.0);
  auto sr = session.Run();
  EXPECT_TRUE(sr.ok()) << sr.status().ToString();
  AttemptRun run;
  if (!sr.ok()) return run;
  run.result = *sr;
  run.dump = DumpSession(*sr);
  run.trace = tracer.ToChromeJson();
  return run;
}

/// Runs a recipe serially and in parallel; both runs must reproduce the
/// pinned session dump and Chrome trace. Returns the serial result.
SessionResult ExpectAttemptSessionPinned(double slow,
                                         const sim::FaultPlan& faults,
                                         uint64_t logical_block_bytes,
                                         uint32_t dump_crc,
                                         uint32_t trace_crc) {
  const AttemptRun serial = RunAttemptSession(ExecutionMode::kSerial, slow,
                                              faults, logical_block_bytes);
  const AttemptRun parallel = RunAttemptSession(
      ExecutionMode::kParallel, slow, faults, logical_block_bytes);
  EXPECT_EQ(serial.dump, parallel.dump);
  EXPECT_EQ(serial.trace, parallel.trace);
  for (const AttemptRun* run : {&serial, &parallel}) {
    EXPECT_EQ(crc32c::Extend(0, run->dump.data(), run->dump.size()),
              dump_crc);
    EXPECT_EQ(crc32c::Extend(0, run->trace.data(), run->trace.size()),
              trace_crc);
  }
  return serial.result;
}

constexpr uint64_t kAttemptBlockBytes = 64ull * 1024 * 1024;

/// The corruptions of the failed-read recipes: block 9 (mod holdings) of
/// nodes 0, 1 and 4.
sim::FaultPlan CorruptNinthBlocks(sim::SimTime at) {
  sim::FaultPlan faults;
  for (int node : {0, 1, 4}) {
    faults.corruptions.push_back({.node = node, .nth_block = 9, .at_time = at});
  }
  return faults;
}

void ExpectJobsOk(const SessionResult& r) {
  ASSERT_EQ(r.jobs.size(), 2u);
  for (const auto& job : r.jobs) {
    EXPECT_TRUE(job.ok()) << job.status().ToString();
  }
}

TEST(AttemptPathTest, DuplicateLosesToItsPrimary) {
  const SessionResult r = ExpectAttemptSessionPinned(
      2.0, {}, kAttemptBlockBytes, 0xcd3539fbu, 0xc28d68c8u);
  EXPECT_GT(r.speculative_attempts, 0u);
  EXPECT_EQ(r.speculative_wins, 0u);
  ExpectJobsOk(r);
}

/// Node 3 dies at t = 20 s while it runs a race loser and a primary whose
/// duplicate lives on elsewhere.
TEST(AttemptPathTest, LoserAndDuplicateOutliveADeadNode) {
  sim::FaultPlan faults;
  faults.kills.push_back({.node = 3, .at_time = 20.0});
  const SessionResult r = ExpectAttemptSessionPinned(
      8.0, faults, kAttemptBlockBytes, 0x6c87ab3bu, 0x762d6046u);
  EXPECT_GT(r.speculative_wins, 0u);
  EXPECT_EQ(r.task_retries, 0u);
  ExpectJobsOk(r);
}

TEST(AttemptPathTest, DuplicateDiesWhileItsPrimaryRuns) {
  sim::FaultPlan faults;
  faults.kills.push_back({.node = 0, .at_time = 43.0});
  const SessionResult r = ExpectAttemptSessionPinned(
      30.0, faults, kAttemptBlockBytes, 0x89549d63u, 0xbe44d542u);
  EXPECT_GT(r.speculative_attempts, r.speculative_wins);
  ExpectJobsOk(r);
}

/// The duplicate reads a block corrupted on every holder after its primary
/// read it: the failed duplicate ends, and the primary finishes unretried.
TEST(AttemptPathTest, DuplicateReadFailsWhileItsPrimaryRuns) {
  const SessionResult r = ExpectAttemptSessionPinned(
      30.0, CorruptNinthBlocks(30.0), kAttemptBlockBytes, 0x6d49eff3u,
      0x34fec30au);
  EXPECT_GT(r.speculative_attempts, r.speculative_wins);
  EXPECT_EQ(r.task_retries, 0u);
  ExpectJobsOk(r);
}

/// Both jobs read the corrupted block until the retry cap fails them,
/// while their sibling tasks and a duplicate still run.
TEST(AttemptPathTest, JobsFailAtTheRetryCapWithAttemptsInFlight) {
  for (const auto& [slow, dump_crc, trace_crc] :
       {std::tuple<double, uint32_t, uint32_t>{4.0, 0xb7d1bb1eu, 0x098f857du},
        std::tuple<double, uint32_t, uint32_t>{2.0, 0x2c722a9bu,
                                               0x91885775u}}) {
    const SessionResult r = ExpectAttemptSessionPinned(
        slow, CorruptNinthBlocks(1.0), 1024ull * 1024 * 1024, dump_crc,
        trace_crc);
    EXPECT_GT(r.task_retries, 0u);
    EXPECT_GT(r.speculative_attempts, r.speculative_wins);
    ASSERT_EQ(r.jobs.size(), 2u);
    for (const auto& job : r.jobs) {
      EXPECT_TRUE(job.status().IsUnavailable()) << job.status().ToString();
    }
  }
}

// ---------------------------------------------------------------------------
// Background paths: builds on nodes that die, stalled repairs, no target
// ---------------------------------------------------------------------------

struct BackgroundRun {
  SessionResult result;
  std::string dump;
  std::string trace;
  size_t manager_pending = 0;
};

/// Four self-healing nodes (seed 7) and `faults`. Without `adapt`, Bob-Q1
/// runs at t = 0 over a file whose three replicas are sorted on visitDate,
/// sourceIP and adRevenue. With `adapt`, the file is sorted on visitDate
/// only and four shifted queries at 0, 15, 30 and 45 s drive online
/// re-sorts straight away.
BackgroundRun RunBackgroundSession(ExecutionMode mode, bool adapt,
                                   sim::FaultPlan faults) {
  Testbed bed(SmallConfig(7));
  bed.LoadUserVisits();
  const std::vector<int> sorted =
      adapt ? std::vector<int>{workload::kVisitDate}
            : std::vector<int>{workload::kVisitDate, workload::kSourceIP,
                               workload::kAdRevenue};
  EXPECT_TRUE(bed.UploadHail("/d", sorted).ok());
  adaptive::AdaptiveConfig config;
  config.planner.regret_threshold = 0.2;
  config.planner.escalate_after_rounds = 0;
  adaptive::AdaptiveManager manager(&bed.dfs(), bed.schema(), "/d", config);
  obs::Tracer tracer;
  SessionOptions opt;
  opt.execution = mode;
  opt.self_heal = true;
  opt.tracer = &tracer;
  opt.fault_plan = std::move(faults);
  if (adapt) {
    opt.adaptive = &manager;
    opt.online_adaptation = true;
  }
  ClusterSession session(&bed.dfs(), opt);
  if (adapt) {
    for (int i = 0; i < 4; ++i) {
      session.Submit(QueryJob(bed, "/d", kShiftedQuery), "default", 15.0 * i);
    }
  } else {
    session.Submit(QueryJob(bed, "/d", workload::BobQueries()[0]));
  }
  auto sr = session.Run();
  EXPECT_TRUE(sr.ok()) << sr.status().ToString();
  BackgroundRun run;
  if (!sr.ok()) return run;
  run.result = *sr;
  run.dump = DumpSession(*sr);
  run.trace = tracer.ToChromeJson();
  run.manager_pending = manager.pending_tasks();
  for (const auto& job : sr->jobs) {
    EXPECT_TRUE(job.ok()) << job.status().ToString();
  }
  return run;
}

/// Runs a recipe serially and in parallel; both runs must reproduce the
/// pinned session dump and Chrome trace. Returns the serial run.
BackgroundRun ExpectBackgroundSessionPinned(bool adapt,
                                            const sim::FaultPlan& faults,
                                            uint32_t dump_crc,
                                            uint32_t trace_crc) {
  const BackgroundRun serial =
      RunBackgroundSession(ExecutionMode::kSerial, adapt, faults);
  const BackgroundRun parallel =
      RunBackgroundSession(ExecutionMode::kParallel, adapt, faults);
  EXPECT_EQ(serial.dump, parallel.dump);
  EXPECT_EQ(serial.trace, parallel.trace);
  EXPECT_EQ(serial.manager_pending, parallel.manager_pending);
  for (const BackgroundRun* run : {&serial, &parallel}) {
    EXPECT_EQ(crc32c::Extend(0, run->dump.data(), run->dump.size()),
              dump_crc);
    EXPECT_EQ(crc32c::Extend(0, run->trace.data(), run->trace.size()),
              trace_crc);
  }
  return serial;
}

/// Node 0 dies at 1 s and node 2 at 33.2 s, both for good. Node 2 dies
/// while it re-creates two of node 0's replicas, and with two nodes left
/// that already hold every block, no node can take them again.
sim::FaultPlan RepairTargetDiesPlan() {
  sim::FaultPlan faults;
  faults.kills.push_back({.node = 0, .at_time = 1.0});
  faults.kills.push_back({.node = 2, .at_time = 33.2});
  return faults;
}

TEST(BackgroundPathTest, RepairTargetDiesMidBuildAndFindsNoNewHome) {
  const BackgroundRun r = ExpectBackgroundSessionPinned(
      /*adapt=*/false, RepairTargetDiesPlan(), 0xe2c2ced5u, 0x34f07e77u);
  EXPECT_GT(r.result.repairs_scheduled, 0u);
  EXPECT_GT(r.result.under_replicated_remaining, 0u);
}

/// As above, and node 1 dies too at 33.25 s, then revives 60 s later:
/// repairs whose every source is dead stall until the revive, some are no
/// longer needed once node 1 is back, and the revive places the repairs
/// left without a target.
TEST(BackgroundPathTest, RepairsStallUntilARevivePlacesThem) {
  sim::FaultPlan faults = RepairTargetDiesPlan();
  faults.kills.push_back({.node = 1, .at_time = 33.25, .revive_after = 60.0});
  const BackgroundRun r = ExpectBackgroundSessionPinned(
      /*adapt=*/false, faults, 0x08866178u, 0x95798568u);
  EXPECT_GT(r.result.repairs_abandoned, 0u);
  EXPECT_GT(r.result.under_replicated_remaining, 0u);
}

/// Node 2 dies at 34.3 s in the middle of an online re-sort; the rewrite
/// goes back to the adaptive manager at session end.
TEST(BackgroundPathTest, RewriteNodeDiesMidBuild) {
  sim::FaultPlan faults;
  faults.kills.push_back({.node = 2, .at_time = 34.3});
  const BackgroundRun r = ExpectBackgroundSessionPinned(
      /*adapt=*/true, faults, 0x5b65673cu, 0xa4ee75d7u);
  EXPECT_GT(r.result.maintenance_completed, 0u);
  EXPECT_GT(r.manager_pending, 0u);
}

// ---------------------------------------------------------------------------
// Retry/backoff policy: 4 attempts, 10 s doubling to 60 s
// ---------------------------------------------------------------------------

TEST(ClusterSessionTest, RetryBackoffDefaultsArePinned) {
  // The fixed retry policy under a fault plan that actually exercises
  // retries; the simulated outputs of every existing scenario depend on it.
  Testbed bed(SmallConfig(7));
  bed.LoadUserVisits();
  ASSERT_TRUE(bed.UploadHail("/d", {workload::kVisitDate, workload::kSourceIP,
                                    workload::kAdRevenue})
                  .ok());
  SessionOptions opt;
  opt.fault_plan.kills.push_back(
      {.node = 2, .at_progress = 0.5, .progress_job = 0});
  ClusterSession session(&bed.dfs(), opt);
  session.Submit(QueryJob(bed, "/d", workload::BobQueries()[0]));
  auto sr = session.Run();
  ASSERT_TRUE(sr.ok()) << sr.status().ToString();
  const std::string dump = DumpSession(*sr);
  EXPECT_EQ(crc32c::Extend(0, dump.data(), dump.size()), 0xede1bdd3u);
}

// ---------------------------------------------------------------------------
// Every engine feature in one session, pinned byte for byte
// ---------------------------------------------------------------------------

struct ComposedRun {
  SessionResult result;
  /// DumpSession, each job's cost ledger and the planner counters
  /// DumpSession leaves out.
  std::string dump;
  /// The cluster's metrics snapshot after the session.
  std::string metrics;
};

/// Fair queues with an SLO and a bounded heavy queue, preemption, online
/// aggressive replication, a plan cache, a seeded fault plan plus a
/// progress kill on job 1, self-healing, speculation and a HAIL upload
/// tenant whose dependent query is planned.
ComposedRun RunComposedSession(ExecutionMode mode) {
  TestbedConfig config = StormConfig(3);
  config.build_stats = true;
  Testbed bed(config);
  bed.LoadUserVisits();
  EXPECT_TRUE(bed.UploadHail("/d", {workload::kVisitDate}).ok());
  adaptive::AdaptiveConfig acfg;
  acfg.planner.aggressive_replication = true;
  acfg.planner.replication_budget_bytes = 8 * config.real_block_bytes;
  adaptive::AdaptiveManager manager(&bed.dfs(), bed.schema(), "/d", acfg);
  planner::PlanCache cache;

  SessionOptions opt;
  opt.execution = mode;
  opt.policy = SchedulerPolicy::kFair;
  opt.queue_weights = {{"short", 4.0}, {"heavy", 1.0}, {"ingest", 1.0}};
  opt.queue_slo_s = {{"short", 120.0}};
  opt.queue_admission["heavy"].max_backlog_jobs = 1;
  opt.preemption = true;
  opt.preemption_catchup_s = 15.0;
  opt.adaptive = &manager;
  opt.online_adaptation = true;
  opt.plan_cache = &cache;
  opt.fault_plan = sim::FaultPlan::FromSeed(3, config.num_nodes);
  const int victim = (opt.fault_plan.kills[0].node + 2) % config.num_nodes;
  opt.fault_plan.kills.push_back(
      {.node = victim, .at_progress = 0.5, .progress_job = 1});
  opt.self_heal = true;
  opt.speculative_execution = true;

  JobSpec short_q = QueryJob(bed, "/d", workload::BobQueries()[0]);
  short_q.use_planner = true;
  const QueryDef heavy{"Heavy", "@4 between(1,10)", "{@1,@4}", 1.7e-2};
  ClusterSession session(&bed.dfs(), opt);
  session.Submit(short_q, "short");
  for (int i = 0; i < 3; ++i) {
    session.Submit(QueryJob(bed, "/d", heavy), "heavy");  // two are shed
  }
  session.Submit(short_q, "short");
  UploadJobSpec up = MakeHailUpload(bed, "/u", 2);
  up.hail.build_stats = true;
  const int upload = session.SubmitUpload(std::move(up), "ingest", 5.0);
  JobSpec fresh = QueryJob(bed, "/u", workload::BobQueries()[1]);
  fresh.use_planner = true;
  session.Submit(fresh, "short", 5.0, /*depends_on=*/upload);
  for (int i = 1; i <= 4; ++i) {
    session.Submit(short_q, "short", 20.0 * i);
  }
  auto sr = session.Run();
  EXPECT_TRUE(sr.ok()) << sr.status().ToString();
  ComposedRun run;
  if (!sr.ok()) return run;
  run.result = *sr;
  run.dump = DumpSession(*sr);
  for (const auto& job : sr->jobs) {
    if (job.ok()) run.dump += "\ncost " + workload::DumpCost(job->cost);
  }
  run.dump += "\nplanned=" + std::to_string(sr->jobs_planned) +
              " hits=" + std::to_string(sr->plan_cache_hits) +
              " misses=" + std::to_string(sr->plan_cache_misses) +
              " inval=" + std::to_string(sr->plan_cache_invalidations) +
              " backfilled=" + std::to_string(sr->stats_backfilled);
  run.metrics = bed.dfs().metrics().TakeSnapshot().ToJson();
  return run;
}

TEST(ClusterSessionTest, ComposedSessionIsPinned) {
  const ComposedRun serial = RunComposedSession(ExecutionMode::kSerial);
  const ComposedRun parallel = RunComposedSession(ExecutionMode::kParallel);
  // The session must exercise every feature it composes.
  const SessionResult& r = serial.result;
  EXPECT_EQ(r.jobs_shed, 2u);
  EXPECT_GT(r.preemptions, 0u);
  EXPECT_GT(r.repairs_completed, 0u);
  EXPECT_GT(r.maintenance_completed, 0u);
  EXPECT_GT(r.plan_cache_hits, 0u);
  EXPECT_EQ(r.maintenance_while_foreground_pending, 0u);
  EXPECT_EQ(serial.dump, parallel.dump);
  EXPECT_EQ(serial.metrics, parallel.metrics);
  for (const ComposedRun* run : {&serial, &parallel}) {
    EXPECT_EQ(crc32c::Extend(0, run->dump.data(), run->dump.size()),
              0x0cb9c980u);
    EXPECT_EQ(crc32c::Extend(0, run->metrics.data(), run->metrics.size()),
              0x904eba1fu);
  }
}

}  // namespace
}  // namespace mapreduce
}  // namespace hail
