/// \file fault_recovery_test.cc
/// \brief Self-healing storage under a deterministic FaultPlan:
/// corrupt-replica failover (CRC -> Corruption -> next replica -> report),
/// background re-replication riding the maintenance queue, task retry with
/// capped backoff, speculative execution, and the serial == parallel
/// bit-identity guarantee under kills + corruption + slow nodes.
///
/// Error-model unit tests (dead node -> Unavailable, CRC mismatch ->
/// Corruption) and the revive regression (a revived node must never serve
/// a replica whose replica set changed while it was dead) live here too.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "hail/hail_block.h"
#include "hail/re_replication.h"
#include "hdfs/dfs_client.h"
#include "hdfs/packet.h"
#include "mapreduce/job_runner.h"
#include "mapreduce/scheduler.h"
#include "sim/fault_plan.h"
#include "util/crc32c.h"
#include "workload/testbed.h"
#include "workload/uservisits.h"

namespace hail {
namespace mapreduce {
namespace {

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
  config.logical_block_bytes = 4 * 1024 * 1024;  // scale 512
  config.blocks_per_node = 6;
  config.seed = seed;
  return config;
}

JobSpec QueryJob(const Testbed& bed, const std::string& path,
                 const QueryDef& query) {
  auto spec = workload::MakeQueryJob(bed.schema(), path, System::kHail,
                                     query, /*hail_splitting=*/false,
                                     /*collect_output=*/true);
  EXPECT_TRUE(spec.ok()) << spec.status().ToString();
  return *spec;
}

std::vector<std::string> Sorted(std::vector<std::string> rows) {
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// All three replicas indexed (on different columns), so index scans
/// survive any single replica loss.
void UploadAllIndexed(Testbed* bed, const std::string& path) {
  ASSERT_TRUE(bed->UploadHail(path, {workload::kVisitDate,
                                     workload::kSourceIP,
                                     workload::kAdRevenue})
                  .ok());
}

// ---------------------------------------------------------------------------
// Error model: dead node vs corrupt replica (unit level)
// ---------------------------------------------------------------------------

TEST(FaultModelTest, DeadNodeReadsAreUnavailable) {
  sim::ClusterConfig cc;
  cc.num_nodes = 2;
  sim::SimCluster cluster(cc);
  hdfs::MiniDfs dfs(&cluster, hdfs::DfsConfig{});
  hdfs::Datanode& dn = dfs.datanode(0);
  const std::string bytes(2048, 'x');
  dn.StoreBlock(5, bytes, hdfs::ComputeChunkChecksums(bytes, 512));
  ASSERT_TRUE(dn.ReadBlockVerified(5, 512).ok());

  dfs.KillNode(0, /*when=*/1.0);
  EXPECT_TRUE(dn.ReadBlockVerified(5, 512).status().IsUnavailable());
  EXPECT_TRUE(dn.ReadBlockRaw(5).status().IsUnavailable());
  // Unavailable is the retry signal, distinct from data corruption.
  EXPECT_FALSE(dn.ReadBlockVerified(5, 512).status().IsCorruption());

  dfs.ReviveNode(0);
  EXPECT_TRUE(dn.ReadBlockVerified(5, 512).ok());
}

TEST(FaultModelTest, CorruptReplicaReadsAreCorruption) {
  sim::ClusterConfig cc;
  cc.num_nodes = 2;
  sim::SimCluster cluster(cc);
  hdfs::MiniDfs dfs(&cluster, hdfs::DfsConfig{});
  hdfs::Datanode& dn = dfs.datanode(0);
  const std::string bytes(2048, 'x');
  dn.StoreBlock(5, bytes, hdfs::ComputeChunkChecksums(bytes, 512));
  ASSERT_TRUE(dn.ReadBlockVerified(5, 512).ok());

  ASSERT_TRUE(dfs.InjectCorruption(0, 5).ok());
  const Status st = dn.ReadBlockVerified(5, 512).status();
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  EXPECT_FALSE(st.IsUnavailable());
  // The corruption is in the data, not the metadata: the raw (unverified)
  // read still succeeds — only CRC verification may detect the flip.
  EXPECT_TRUE(dn.ReadBlockRaw(5).ok());
  // Injecting against a node without the block is NotFound, not a crash.
  EXPECT_FALSE(dfs.InjectCorruption(1, 5).ok());
}

// ---------------------------------------------------------------------------
// Revive regression: replaced replicas never come back
// ---------------------------------------------------------------------------

TEST(FaultModelTest, ReviveDoesNotResurrectReplacedReplicas) {
  sim::ClusterConfig cc;
  cc.num_nodes = 4;
  sim::SimCluster cluster(cc);
  hdfs::MiniDfs dfs(&cluster, hdfs::DfsConfig{});
  hdfs::Namenode& nn = dfs.namenode();

  // One block, replicas on nodes 0/1/2.
  auto alloc = nn.AllocateBlock("/f", 0, 3);
  ASSERT_TRUE(alloc.ok());
  const uint64_t b = alloc->block_id;
  const std::string bytes(1024, 'r');
  for (int node : alloc->datanodes) {
    dfs.datanode(node).StoreBlock(b, bytes,
                                  hdfs::ComputeChunkChecksums(bytes, 512));
    ASSERT_TRUE(nn.RegisterReplica(b, node, {}).ok());
  }

  // Node 1 dies; its replica is re-replicated onto node 3 while it is
  // down, which revokes node 1's (now stale) copy.
  dfs.KillNode(1, 1.0);
  nn.EnqueueLostNodeReplicas(1);
  auto entries = nn.TakeUnderReplicated();
  ASSERT_EQ(entries.size(), 1u);
  auto prepared = PrepareRepair(dfs, entries[0], /*target=*/3);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  ASSERT_TRUE(CommitRepair(&dfs, entries[0], 3, std::move(*prepared)).ok());

  // The revive must delete the stale copy, not resurrect it.
  ASSERT_TRUE(dfs.datanode(1).HasBlock(b));  // still on disk while dead
  dfs.ReviveNode(1);
  EXPECT_FALSE(dfs.datanode(1).HasBlock(b));
  auto holders = nn.GetBlockDatanodes(b);
  ASSERT_TRUE(holders.ok());
  EXPECT_EQ(std::count(holders->begin(), holders->end(), 1), 0);
  EXPECT_EQ(std::count(holders->begin(), holders->end(), 3), 1);
  EXPECT_EQ(holders->size(), 3u);

  // A second revive (or one with no revocations) is a no-op.
  dfs.KillNode(2, 2.0);
  dfs.ReviveNode(2);
  EXPECT_TRUE(dfs.datanode(2).HasBlock(b));
}

// ---------------------------------------------------------------------------
// Acceptance: kill + corruption + slow node, byte-identical answers,
// under-replicated queue drained by maintenance-priority repairs
// ---------------------------------------------------------------------------

TEST(FaultRecoveryTest, QueriesSurviveKillCorruptionAndSlowNodes) {
  Testbed bed(SmallConfig(7));
  bed.LoadUserVisits();
  UploadAllIndexed(&bed, "/d");
  const QueryDef q1 = workload::BobQueries()[0];
  const QueryDef q4 = workload::BobQueries()[3];

  // Fault-free baseline FIRST: corruption injection persists in the DFS.
  std::vector<std::string> clean_rows[2];
  uint64_t clean_counts[2] = {0, 0};
  {
    ClusterSession session(&bed.dfs());
    session.Submit(QueryJob(bed, "/d", q1));
    session.Submit(QueryJob(bed, "/d", q4));
    auto sr = session.Run();
    ASSERT_TRUE(sr.ok()) << sr.status().ToString();
    for (int j = 0; j < 2; ++j) {
      ASSERT_TRUE(sr->jobs[j].ok()) << sr->jobs[j].status().ToString();
      clean_rows[j] = Sorted(sr->jobs[j]->output_rows);
      clean_counts[j] = sr->jobs[j]->records_qualifying;
    }
  }

  SessionOptions opt;
  opt.self_heal = true;
  sim::FaultPlan& plan = opt.fault_plan;
  plan.corruptions.push_back({/*node=*/1, /*nth_block=*/0, /*at_time=*/0.0});
  plan.corruptions.push_back({/*node=*/1, /*nth_block=*/3, /*at_time=*/0.0});
  plan.corruptions.push_back({/*node=*/3, /*nth_block=*/1, /*at_time=*/10.0});
  sim::FaultPlan::Kill kill;
  kill.node = 2;
  kill.at_progress = 0.4;
  kill.progress_job = 0;
  kill.revive_after = 60.0;
  plan.kills.push_back(kill);
  plan.slow_nodes.push_back({/*node=*/0, /*factor=*/1.5});

  ClusterSession session(&bed.dfs(), opt);
  session.Submit(QueryJob(bed, "/d", q1));
  session.Submit(QueryJob(bed, "/d", q4));
  auto sr = session.Run();
  ASSERT_TRUE(sr.ok()) << sr.status().ToString();
  for (int j = 0; j < 2; ++j) {
    ASSERT_TRUE(sr->jobs[j].ok()) << sr->jobs[j].status().ToString();
    // Physical faults never change query answers.
    EXPECT_EQ(Sorted(sr->jobs[j]->output_rows), clean_rows[j]);
    EXPECT_EQ(sr->jobs[j]->records_qualifying, clean_counts[j]);
  }

  // The kill queued every replica of node 2 for repair; the session does
  // not end until the under-replicated queue fully drained (repaired or
  // abandoned after the revive restored the data intact).
  EXPECT_GT(sr->repairs_scheduled, 0u);
  EXPECT_EQ(sr->under_replicated_remaining, 0u);
  EXPECT_EQ(sr->repairs_completed + sr->repairs_abandoned,
            sr->repairs_scheduled);
  // Repairs ride the maintenance queue strictly below foreground work.
  EXPECT_EQ(sr->maintenance_while_foreground_pending, 0u);
  // The kill actually cost re-executions.
  uint32_t rescheduled = 0;
  for (const auto& job : sr->jobs) rescheduled += job->rescheduled_tasks;
  EXPECT_GT(rescheduled, 0u);
}

// ---------------------------------------------------------------------------
// Acceptance: corrupt-replica failover detects, reports and re-replicates;
// the repaired replica serves clustered index scans again
// ---------------------------------------------------------------------------

TEST(FaultRecoveryTest, RepairedReplicaServesClusteredIndexScans) {
  Testbed bed(SmallConfig(11));
  bed.LoadUserVisits();
  // Only replica 0 of each block carries the visitDate index: losing a
  // node really costs index scans until its replicas are re-created
  // with the same replica-specific layout.
  ASSERT_TRUE(bed.UploadHail("/d", {workload::kVisitDate}).ok());
  const QueryDef q1 = workload::BobQueries()[0];  // filters on visitDate

  auto clean = bed.RunQuery(System::kHail, "/d", q1, false, {}, true);
  ASSERT_TRUE(clean.ok());
  ASSERT_GT(clean->index_scan_tasks, 0u);
  EXPECT_EQ(clean->fallback_scans, 0u);

  const int victim = 2;
  const std::vector<uint64_t> lost_blocks =
      bed.dfs().namenode().BlocksOnDatanode(victim);
  ASSERT_FALSE(lost_blocks.empty());

  // Kill node 2 for good mid-query; self-healing re-creates each of its
  // replicas (with its recorded sort order + index) on the only
  // non-holder before the session may end.
  RunOptions failure;
  failure.self_heal = true;
  sim::FaultPlan::Kill kill;
  kill.node = victim;
  kill.at_progress = 0.3;
  failure.fault_plan.kills.push_back(kill);
  auto failed = bed.RunQuery(System::kHail, "/d", q1, false, failure, true);
  ASSERT_TRUE(failed.ok()) << failed.status().ToString();
  EXPECT_EQ(Sorted(failed->output_rows), Sorted(clean->output_rows));
  EXPECT_EQ(bed.dfs().namenode().under_replicated_count(), 0u);

  // Post-recovery: the next session revives node 2, deleting its revoked
  // stale copies; every block again has a visitDate-indexed replica, so
  // the query plans pure index scans with zero fallbacks.
  auto healed = bed.RunQuery(System::kHail, "/d", q1, false, {}, true);
  ASSERT_TRUE(healed.ok());
  EXPECT_EQ(healed->index_scan_tasks, clean->index_scan_tasks);
  EXPECT_EQ(healed->fallback_scans, 0u);
  EXPECT_EQ(Sorted(healed->output_rows), Sorted(clean->output_rows));
  for (uint64_t b : lost_blocks) {
    EXPECT_FALSE(bed.dfs().datanode(victim).HasBlock(b));
    auto holders = bed.dfs().namenode().GetBlockDatanodes(b);
    ASSERT_TRUE(holders.ok());
    EXPECT_EQ(std::count(holders->begin(), holders->end(), victim), 0);
    EXPECT_EQ(holders->size(), 3u);
  }
}

// ---------------------------------------------------------------------------
// Task retry with capped backoff: every replica corrupt -> clean failure
// ---------------------------------------------------------------------------

TEST(FaultRecoveryTest, RetriesAreCappedWhenNoReplicaIsReadable) {
  Testbed bed(SmallConfig(5));
  bed.LoadUserVisits();
  UploadAllIndexed(&bed, "/d");

  // Corrupt EVERY replica of one block: failover has nowhere to go, the
  // task fails with a retryable status, retries with backoff, and the job
  // fails cleanly at the attempt cap instead of looping forever.
  auto blocks = bed.dfs().namenode().GetFileBlocks("/d");
  ASSERT_TRUE(blocks.ok());
  ASSERT_FALSE(blocks->empty());
  const hdfs::BlockLocation& target = blocks->front();
  for (int node : target.datanodes) {
    ASSERT_TRUE(bed.dfs().InjectCorruption(node, target.block_id).ok());
  }

  ClusterSession session(&bed.dfs());
  session.Submit(QueryJob(bed, "/d", workload::BobQueries()[0]));
  auto sr = session.Run();
  ASSERT_TRUE(sr.ok()) << sr.status().ToString();
  EXPECT_FALSE(sr->jobs[0].ok());
  EXPECT_EQ(sr->task_retries, 3u);  // 1 initial + 3 retries = 4 attempts
  // Each corrupt read was reported: the replicas are revoked and queued.
  EXPECT_GE(bed.dfs().namenode().under_replicated_count(), 3u);
}

// ---------------------------------------------------------------------------
// A malformed clustered index with valid CRCs is failed over
// ---------------------------------------------------------------------------

TEST(FaultRecoveryTest, CorruptClusteredIndexFailsOverToAnotherReplica) {
  // A clustered index whose CRCs hold but whose key-type byte names no
  // type (a writer bug, not a disk fault) must not decode: every Lookup
  // would return the empty range, and the index scan of that replica would
  // silently return no rows. The read fails over to another replica
  // instead, billed and reported exactly like a replica that fails its
  // CRC.
  enum class Fault { kNone, kMalformedIndex, kCrc };
  const auto run = [](Fault fault) {
    Testbed bed(SmallConfig(5));
    bed.LoadUserVisits();
    // Only the first replica is indexed, so it is the sole clustered
    // candidate and every read of its block tries it first.
    EXPECT_TRUE(bed.UploadHail("/d", {workload::kVisitDate}).ok());
    const auto blocks = bed.dfs().namenode().GetFileBlocks("/d");
    EXPECT_TRUE(blocks.ok() && !blocks->empty());
    const uint64_t block = blocks->front().block_id;
    int victim = -1;
    for (int dn : blocks->front().datanodes) {
      auto info = bed.dfs().namenode().GetReplicaInfo(block, dn);
      if (info.ok() && info->has_index()) victim = dn;
    }
    EXPECT_GE(victim, 0);
    hdfs::Datanode& node = bed.dfs().datanode(victim);
    if (fault == Fault::kMalformedIndex) {
      auto raw = node.ReadBlockRaw(block);
      EXPECT_TRUE(raw.ok());
      std::string doctored(*raw);
      auto view = HailBlockView::Open(doctored);
      EXPECT_TRUE(view.ok() && view->has_index());
      // Byte 4 of the index section is its key type.
      doctored[static_cast<size_t>(view->index_section().data() -
                                   doctored.data()) +
               4] = 0x7F;
      node.StoreBlock(block, doctored,
                      hdfs::ComputeChunkChecksums(
                          doctored, bed.dfs().config().chunk_bytes));
    } else if (fault == Fault::kCrc) {
      EXPECT_TRUE(bed.dfs().InjectCorruption(victim, block).ok());
    }
    // Every row qualifies, so the doctored block contributes rows.
    const QueryDef all_dates{"All-dates",
                             "@3 between(1900-01-01,2100-01-01)", "{@1}",
                             1.0};
    auto r = bed.RunQuery(System::kHail, "/d", all_dates, false,
                          RunOptions{}, /*collect_output=*/true);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    // The replica is reported and dropped.
    EXPECT_EQ(bed.dfs().namenode().GetReplicaInfo(block, victim).ok(),
              fault == Fault::kNone);
    return r.ok() ? *r : JobResult{};
  };
  const JobResult reference = run(Fault::kNone);
  const JobResult malformed = run(Fault::kMalformedIndex);
  EXPECT_EQ(reference.index_scan_tasks, reference.map_tasks);
  EXPECT_EQ(Sorted(malformed.output_rows), Sorted(reference.output_rows));
  EXPECT_EQ(malformed.index_scan_tasks, malformed.map_tasks - 1);
  EXPECT_EQ(malformed.fallback_scans, 1u);
  EXPECT_EQ(reference.cost.bucket(obs::CostBucket::kFailoverReread), 0u);
  EXPECT_GT(malformed.cost.bucket(obs::CostBucket::kFailoverReread), 0u);
  // One wasted read, billed like the CRC failure of the same replica.
  const JobResult crc = run(Fault::kCrc);
  EXPECT_EQ(workload::DumpResult(malformed), workload::DumpResult(crc));
  EXPECT_EQ(workload::DumpCost(malformed.cost), workload::DumpCost(crc.cost));
}

// ---------------------------------------------------------------------------
// Speculative execution: deterministic first-completion-wins
// ---------------------------------------------------------------------------

/// Paper-scale blocks + unindexed replicas: full scans whose read time
/// dominates the fixed task overheads, so a 4x-slow node produces real
/// stragglers (index scans at toy scale finish too fast to ever lag).
TestbedConfig SpeculationConfig() {
  TestbedConfig config = SmallConfig(3);
  config.logical_block_bytes = 64ull * 1024 * 1024;  // scale 8192
  config.blocks_per_node = 4;
  return config;
}

std::string RunSpeculationScenario(ExecutionMode mode, SessionResult* out) {
  Testbed bed(SpeculationConfig());
  bed.LoadUserVisits();
  EXPECT_TRUE(bed.UploadHail("/d", {}).ok());
  SessionOptions opt;
  opt.execution = mode;
  opt.speculative_execution = true;
  opt.fault_plan.slow_nodes.push_back({/*node=*/1, /*factor=*/8.0});
  ClusterSession session(&bed.dfs(), opt);
  session.Submit(QueryJob(bed, "/d", workload::BobQueries()[0]));
  session.Submit(QueryJob(bed, "/d", workload::BobQueries()[3]));
  auto sr = session.Run();
  EXPECT_TRUE(sr.ok()) << sr.status().ToString();
  if (!sr.ok()) return sr.status().ToString();
  for (const auto& job : sr->jobs) {
    EXPECT_TRUE(job.ok()) << job.status().ToString();
  }
  if (out != nullptr) *out = *sr;
  return workload::DumpSession(*sr);
}

TEST(FaultRecoveryTest, SpeculationBeatsStragglersDeterministically) {
  SessionResult spec;
  const std::string serial =
      RunSpeculationScenario(ExecutionMode::kSerial, &spec);
  const std::string parallel =
      RunSpeculationScenario(ExecutionMode::kParallel, nullptr);
  EXPECT_EQ(serial, parallel);
  EXPECT_EQ(crc32c::Extend(0, serial.data(), serial.size()), 0x769a4e46u);
  // The 4x-slow node's tasks were speculated, and duplicates on full-speed
  // nodes won at least once.
  EXPECT_GT(spec.speculative_attempts, 0u);
  EXPECT_GT(spec.speculative_wins, 0u);

  // Same data, no speculation: answers are identical — speculation only
  // moves time around.
  Testbed bed(SpeculationConfig());
  bed.LoadUserVisits();
  ASSERT_TRUE(bed.UploadHail("/d", {}).ok());
  SessionOptions opt;
  opt.fault_plan.slow_nodes.push_back({/*node=*/1, /*factor=*/8.0});
  ClusterSession session(&bed.dfs(), opt);
  session.Submit(QueryJob(bed, "/d", workload::BobQueries()[0]));
  session.Submit(QueryJob(bed, "/d", workload::BobQueries()[3]));
  auto sr = session.Run();
  ASSERT_TRUE(sr.ok()) << sr.status().ToString();
  ASSERT_TRUE(spec.jobs[0].ok() && sr->jobs[0].ok());
  EXPECT_EQ(Sorted(spec.jobs[0]->output_rows),
            Sorted(sr->jobs[0]->output_rows));
  EXPECT_EQ(sr->speculative_attempts, 0u);
  // And the slow node really was slow: speculation improved the makespan.
  EXPECT_LT(spec.session_seconds, sr->session_seconds);
}

// ---------------------------------------------------------------------------
// Acceptance: serial == parallel %.17g dumps under a full fault plan
// ---------------------------------------------------------------------------

std::string RunFullFaultScenario(ExecutionMode mode, uint32_t* repairs) {
  Testbed bed(SmallConfig(17));
  bed.LoadUserVisits();
  EXPECT_TRUE(bed.UploadHail("/d", {workload::kVisitDate,
                                    workload::kSourceIP,
                                    workload::kAdRevenue})
                  .ok());
  SessionOptions opt;
  opt.policy = SchedulerPolicy::kFair;
  opt.queue_weights = {{"a", 2.0}, {"b", 1.0}};
  opt.execution = mode;
  opt.self_heal = true;
  opt.speculative_execution = true;
  sim::FaultPlan& plan = opt.fault_plan;
  plan.corruptions.push_back({/*node=*/0, /*nth_block=*/2, /*at_time=*/0.0});
  plan.corruptions.push_back({/*node=*/3, /*nth_block=*/4, /*at_time=*/12.0});
  sim::FaultPlan::Kill kill;
  kill.node = 1;
  kill.at_progress = 0.4;
  kill.progress_job = 0;
  kill.revive_after = 50.0;
  plan.kills.push_back(kill);
  plan.slow_nodes.push_back({/*node=*/2, /*factor=*/2.0});
  ClusterSession session(&bed.dfs(), opt);
  session.Submit(QueryJob(bed, "/d", workload::BobQueries()[0]), "a");
  session.Submit(QueryJob(bed, "/d", workload::BobQueries()[3]), "b");
  session.Submit(QueryJob(bed, "/d", workload::BobQueries()[4]), "a", 20.0);
  auto sr = session.Run();
  EXPECT_TRUE(sr.ok()) << sr.status().ToString();
  if (!sr.ok()) return sr.status().ToString();
  for (const auto& job : sr->jobs) {
    EXPECT_TRUE(job.ok()) << job.status().ToString();
  }
  EXPECT_EQ(sr->under_replicated_remaining, 0u);
  EXPECT_EQ(sr->maintenance_while_foreground_pending, 0u);
  if (repairs != nullptr) *repairs = sr->repairs_scheduled;
  return workload::DumpSession(*sr);
}

TEST(FaultRecoveryTest, SerialEqualsParallelUnderFullFaultPlan) {
  uint32_t repairs = 0;
  const std::string serial =
      RunFullFaultScenario(ExecutionMode::kSerial, &repairs);
  const std::string parallel =
      RunFullFaultScenario(ExecutionMode::kParallel, nullptr);
  EXPECT_GT(repairs, 0u);  // the scenario must actually exercise repairs
  EXPECT_EQ(serial, parallel);
  EXPECT_EQ(crc32c::Extend(0, serial.data(), serial.size()), 0xca89a054u);
}

// ---------------------------------------------------------------------------
// Seeded plans: FromSeed is deterministic and survivable
// ---------------------------------------------------------------------------

TEST(FaultPlanTest, FromSeedIsDeterministic) {
  const sim::FaultPlan a = sim::FaultPlan::FromSeed(123, 4);
  const sim::FaultPlan b = sim::FaultPlan::FromSeed(123, 4);
  ASSERT_EQ(a.kills.size(), b.kills.size());
  ASSERT_EQ(a.corruptions.size(), b.corruptions.size());
  ASSERT_EQ(a.slow_nodes.size(), b.slow_nodes.size());
  EXPECT_FALSE(a.empty());
  for (size_t i = 0; i < a.kills.size(); ++i) {
    EXPECT_EQ(a.kills[i].node, b.kills[i].node);
    EXPECT_EQ(a.kills[i].at_time, b.kills[i].at_time);
    EXPECT_EQ(a.kills[i].revive_after, b.kills[i].revive_after);
  }
  for (const auto& s : a.slow_nodes) EXPECT_GE(s.factor, 1.0);
  // Different seeds give different mixes (not a constant plan).
  const sim::FaultPlan c = sim::FaultPlan::FromSeed(124, 4);
  EXPECT_TRUE(a.kills.size() != c.kills.size() ||
              a.corruptions.size() != c.corruptions.size() ||
              a.slow_nodes.size() != c.slow_nodes.size() ||
              (!a.kills.empty() && !c.kills.empty() &&
               (a.kills[0].node != c.kills[0].node ||
                a.kills[0].at_time != c.kills[0].at_time)));
}

TEST(FaultPlanTest, RejectsPlansThatCanNeverFire) {
  using Kill = sim::FaultPlan::Kill;
  const auto kill = [](Kill k) {
    sim::FaultPlan plan;
    plan.kills.push_back(k);
    return plan;
  };
  const auto corrupt = [](sim::FaultPlan::Corrupt c) {
    sim::FaultPlan plan;
    plan.corruptions.push_back(c);
    return plan;
  };
  const auto slow = [](sim::FaultPlan::Slow s) {
    sim::FaultPlan plan;
    plan.slow_nodes.push_back(s);
    return plan;
  };
  const struct {
    const char* name;
    sim::FaultPlan plan;
  } cases[] = {
      {"kill with no trigger", kill({.node = 2})},
      {"kill with both triggers",
       kill({.node = 2, .at_time = 10.0, .at_progress = 0.5})},
      {"kill of node 99 on 4 nodes", kill({.node = 99, .at_progress = 0.5})},
      {"kill of node -1", kill({.node = -1, .at_time = 5.0})},
      {"kill at progress 1.5", kill({.node = 2, .at_progress = 1.5})},
      {"kill following job 3 of one",
       kill({.node = 2, .at_progress = 0.5, .progress_job = 3})},
      {"kill following job -1",
       kill({.node = 2, .at_progress = 0.5, .progress_job = -1})},
      {"corruption on node 17", corrupt({.node = 17, .nth_block = 0})},
      {"corruption of block -1", corrupt({.node = 0, .nth_block = -1})},
      {"slow node 4 on 4 nodes", slow({.node = 4, .factor = 2.0})},
      {"slow factor 0.5", slow({.node = 0, .factor = 0.5})},
  };
  Testbed bed(SmallConfig());
  bed.LoadUserVisits();
  ASSERT_TRUE(bed.UploadHail("/d", {workload::kVisitDate}).ok());
  // A dead node the session boundary would revive: a rejected plan must
  // leave it dead, like every other piece of cluster state.
  bed.dfs().KillNode(1, 0.0);
  const uint64_t generation = bed.dfs().namenode().directory_generation();
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    SessionOptions opt;
    opt.fault_plan = c.plan;
    ClusterSession session(&bed.dfs(), opt);
    session.Submit(QueryJob(bed, "/d", workload::BobQueries()[0]));
    auto sr = session.Run();
    EXPECT_TRUE(sr.status().IsInvalidArgument()) << sr.status().ToString();
    EXPECT_EQ(bed.dfs().namenode().directory_generation(), generation);
    for (int n = 0; n < bed.cluster().num_nodes(); ++n) {
      EXPECT_EQ(bed.cluster().node(n).alive(), n != 1) << "node " << n;
    }
  }

  // The edges are valid and fire: a kill of the last node once every task
  // of the job completed, on a node slowed by exactly 1.
  SessionOptions edge;
  edge.fault_plan = kill({.node = 3, .at_progress = 1.0, .progress_job = 0});
  edge.fault_plan.slow_nodes.push_back({.node = 3, .factor = 1.0});
  ClusterSession session(&bed.dfs(), edge);
  session.Submit(QueryJob(bed, "/d", workload::BobQueries()[0]));
  auto sr = session.Run();
  ASSERT_TRUE(sr.ok()) << sr.status().ToString();
  EXPECT_TRUE(sr->jobs[0].ok()) << sr->jobs[0].status().ToString();
  EXPECT_FALSE(bed.cluster().node(3).alive());

  // Seeded plans are valid on every cluster size they are drawn for.
  for (int nodes : {1, 2, 4, 10}) {
    for (uint64_t seed = 0; seed < 32; ++seed) {
      EXPECT_TRUE(sim::FaultPlan::FromSeed(seed, nodes).Validate(nodes, 1).ok())
          << "seed " << seed << " nodes " << nodes;
    }
  }
}

// ---------------------------------------------------------------------------
// Repairs sourced from slow nodes racing a query backlog
// ---------------------------------------------------------------------------

TEST(FaultRecoveryTest, RepairsFromSlowSurvivorsRaceAQueryBacklog) {
  // Worst-case re-replication: both permanent kills leave every surviving
  // replica on a *slow* node, so each repair read is stretched by the
  // degradation factor exactly while a backlog of foreground queries
  // competes for the same slots. The repairs must still complete, and the
  // strict maintenance priority must never assign background work while
  // foreground tasks are pending.
  Testbed bed(SmallConfig(17));
  bed.LoadUserVisits();
  UploadAllIndexed(&bed, "/d");
  const QueryDef q1 = workload::BobQueries()[0];
  const QueryDef q4 = workload::BobQueries()[3];

  std::vector<std::string> clean_rows[2];
  {
    ClusterSession session(&bed.dfs());
    session.Submit(QueryJob(bed, "/d", q1));
    session.Submit(QueryJob(bed, "/d", q4));
    auto sr = session.Run();
    ASSERT_TRUE(sr.ok()) << sr.status().ToString();
    for (int j = 0; j < 2; ++j) {
      ASSERT_TRUE(sr->jobs[j].ok());
      clean_rows[j] = Sorted(sr->jobs[j]->output_rows);
    }
  }

  // Blocks already held by both survivors have no alive target: their
  // deficit (3 replicas wanted, 2 alive nodes) is structural and must be
  // *reported*, not silently dropped or spun on forever.
  const auto pre = bed.dfs().namenode().GetFileBlocks("/d");
  ASSERT_TRUE(pre.ok());
  size_t stuck = 0;
  for (const hdfs::BlockLocation& loc : *pre) {
    const bool on0 =
        std::count(loc.datanodes.begin(), loc.datanodes.end(), 0) > 0;
    const bool on1 =
        std::count(loc.datanodes.begin(), loc.datanodes.end(), 1) > 0;
    if (on0 && on1) ++stuck;
  }
  ASSERT_GT(stuck, 0u);
  ASSERT_LT(stuck, pre->size());  // some blocks really need a repair

  SessionOptions opt;
  opt.self_heal = true;
  sim::FaultPlan& plan = opt.fault_plan;
  for (int node : {2, 3}) {
    sim::FaultPlan::Kill kill;
    kill.node = node;
    kill.at_time = 5.0 + node;  // staggered, permanent (no revive)
    plan.kills.push_back(kill);
  }
  plan.slow_nodes.push_back({/*node=*/0, /*factor=*/4.0});
  plan.slow_nodes.push_back({/*node=*/1, /*factor=*/4.0});

  ClusterSession session(&bed.dfs(), opt);
  // A staggered backlog keeps foreground work pending across the whole
  // repair window.
  session.Submit(QueryJob(bed, "/d", q1), "default", 0.0);
  session.Submit(QueryJob(bed, "/d", q4), "default", 20.0);
  session.Submit(QueryJob(bed, "/d", q1), "default", 40.0);
  session.Submit(QueryJob(bed, "/d", q4), "default", 60.0);
  auto sr = session.Run();
  ASSERT_TRUE(sr.ok()) << sr.status().ToString();
  for (int j = 0; j < 4; ++j) {
    ASSERT_TRUE(sr->jobs[j].ok()) << sr->jobs[j].status().ToString();
    EXPECT_EQ(Sorted(sr->jobs[j]->output_rows), clean_rows[j % 2]);
  }

  // Blocks with a single surviving replica were copied (from a slow
  // source) onto the other survivor; the structurally unrepairable rest
  // is reported as the remaining deficit, and the session still ends.
  EXPECT_GE(sr->repairs_completed, pre->size() - stuck);
  EXPECT_EQ(sr->under_replicated_remaining, stuck);
  EXPECT_EQ(sr->maintenance_while_foreground_pending, 0u);
  // Every block is readable from both survivors afterwards.
  const auto blocks = bed.dfs().namenode().GetFileBlocks("/d");
  ASSERT_TRUE(blocks.ok());
  for (const hdfs::BlockLocation& loc : *blocks) {
    auto holders = bed.dfs().namenode().GetBlockDatanodes(loc.block_id);
    ASSERT_TRUE(holders.ok());
    for (int survivor : {0, 1}) {
      EXPECT_EQ(std::count(holders->begin(), holders->end(), survivor), 1)
          << "block " << loc.block_id << " missing from node " << survivor;
    }
  }
}

}  // namespace
}  // namespace mapreduce
}  // namespace hail
