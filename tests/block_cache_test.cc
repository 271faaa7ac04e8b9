/// \file block_cache_test.cc
/// \brief The cross-query block cache: exactly-once verification/decode
/// per block version, invalidation on mutation and node kill/revive, and
/// the failover x cache interaction (Fig. 8 path).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>

#include "hdfs/block_cache.h"
#include "hdfs/dfs_client.h"
#include "mapreduce/job_runner.h"
#include "workload/testbed.h"

namespace hail {
namespace mapreduce {
namespace {

using hdfs::BlockCacheStats;
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
  return config;
}

std::vector<std::string> Sorted(std::vector<std::string> rows) {
  std::sort(rows.begin(), rows.end());
  return rows;
}

// ---------------------------------------------------------------------------
// Exactly-once work per block version, across tasks AND queries
// ---------------------------------------------------------------------------

TEST(BlockCacheQueryTest, CrcAndIndexDecodeOncePerBlockVersion) {
  Testbed bed(SmallConfig());
  bed.LoadUserVisits();
  ASSERT_TRUE(bed.UploadHail("/d", {workload::kVisitDate,
                                    workload::kSourceIP,
                                    workload::kAdRevenue})
                  .ok());
  hdfs::BlockCache& cache = bed.dfs().block_cache();
  const QueryDef q = workload::BobQueries()[0];

  const BlockCacheStats before = cache.stats();
  auto first = bed.RunQuery(System::kHail, "/d", q);
  ASSERT_TRUE(first.ok());
  const BlockCacheStats after_one = cache.stats();
  // Cold run: every replica read was verified and decoded exactly once.
  const uint64_t cold_misses = after_one.verify_misses - before.verify_misses;
  const uint64_t cold_decodes =
      after_one.index_decodes - before.index_decodes;
  EXPECT_GT(cold_misses, 0u);
  EXPECT_GT(cold_decodes, 0u);
  // One task per block in non-splitting mode: the per-version bound is
  // #map_tasks even though replicas exist on several nodes.
  EXPECT_LE(cold_misses, first->map_tasks);
  EXPECT_LE(cold_decodes, first->map_tasks);

  // Hot runs of the same query: zero new CRC work, zero new decodes —
  // this is the "once per block version, not once per task" proof.
  for (int round = 0; round < 3; ++round) {
    auto again = bed.RunQuery(System::kHail, "/d", q);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again->end_to_end_seconds, first->end_to_end_seconds);
  }
  const BlockCacheStats after_hot = cache.stats();
  EXPECT_EQ(after_hot.verify_misses, after_one.verify_misses);
  EXPECT_EQ(after_hot.bytes_verified, after_one.bytes_verified);
  EXPECT_EQ(after_hot.index_decodes, after_one.index_decodes);
  EXPECT_GT(after_hot.verify_hits, after_one.verify_hits);
  EXPECT_GT(after_hot.artifact_hits, after_one.artifact_hits);
}

TEST(BlockCacheQueryTest, CachedResultsAreIdenticalToCold) {
  // Functional outputs and every simulated number must not depend on the
  // cache's temperature.
  Testbed bed(SmallConfig());
  bed.LoadUserVisits();
  ASSERT_TRUE(bed.UploadHail("/d", {workload::kVisitDate}).ok());
  const QueryDef q = workload::BobQueries()[0];
  auto cold = bed.RunQuery(System::kHail, "/d", q, false, {}, true);
  auto hot = bed.RunQuery(System::kHail, "/d", q, false, {}, true);
  ASSERT_TRUE(cold.ok());
  ASSERT_TRUE(hot.ok());
  EXPECT_EQ(cold->end_to_end_seconds, hot->end_to_end_seconds);
  EXPECT_EQ(cold->avg_record_reader_seconds, hot->avg_record_reader_seconds);
  EXPECT_EQ(cold->records_qualifying, hot->records_qualifying);
  EXPECT_EQ(cold->output_rows, hot->output_rows);
}

// ---------------------------------------------------------------------------
// Invalidation on replica mutation
// ---------------------------------------------------------------------------

TEST(BlockCacheTest, MutationBumpsGenerationAndReverifies) {
  sim::ClusterConfig cc;
  cc.num_nodes = 2;
  sim::SimCluster cluster(cc);
  hdfs::DfsConfig cfg;
  cfg.scale_factor = 1.0;
  hdfs::MiniDfs dfs(&cluster, cfg);
  hdfs::Datanode& dn = dfs.datanode(0);

  const std::string v1(2048, 'a');
  dn.StoreBlock(7, v1, hdfs::ComputeChunkChecksums(v1, 512));
  const uint64_t gen1 = dn.block_generation(7);
  ASSERT_TRUE(dn.ReadBlockVerified(7, 512).ok());
  ASSERT_TRUE(dn.ReadBlockVerified(7, 512).ok());
  hdfs::BlockCacheStats s = dfs.block_cache().stats();
  EXPECT_EQ(s.verify_misses, 1u);
  EXPECT_EQ(s.verify_hits, 1u);
  EXPECT_EQ(s.bytes_verified, 2048u);

  // Rewriting the replica invalidates and re-verifies under a new
  // generation.
  const std::string v2(4096, 'b');
  dn.StoreBlock(7, v2, hdfs::ComputeChunkChecksums(v2, 512));
  EXPECT_GT(dn.block_generation(7), gen1);
  ASSERT_TRUE(dn.ReadBlockVerified(7, 512).ok());
  s = dfs.block_cache().stats();
  EXPECT_EQ(s.verify_misses, 2u);
  EXPECT_EQ(s.bytes_verified, 2048u + 4096u);
  EXPECT_GT(s.invalidated_entries, 0u);

  // Deleting drops the entry too.
  ASSERT_TRUE(dn.DeleteBlock(7).ok());
  EXPECT_EQ(dfs.block_cache().entry_count_for(0), 0u);
}

// ---------------------------------------------------------------------------
// Failover x cache (Fig. 8 path)
// ---------------------------------------------------------------------------

TEST(BlockCacheFailoverTest, KillInvalidatesAndNeverServesDeadReplicas) {
  const QueryDef q = workload::BobQueries()[0];
  Testbed bed(SmallConfig(7));
  bed.LoadUserVisits();
  ASSERT_TRUE(bed.UploadHail("/d", {workload::kVisitDate,
                                    workload::kSourceIP,
                                    workload::kAdRevenue})
                  .ok());
  hdfs::BlockCache& cache = bed.dfs().block_cache();

  auto clean = bed.RunQuery(System::kHail, "/d", q, false, {}, true);
  ASSERT_TRUE(clean.ok());

  const int victim = 2;
  RunOptions failure;
  failure.fault_plan.kills.push_back(
      {.node = victim, .at_progress = 0.5, .progress_job = 0});
  const BlockCacheStats before = cache.stats();
  ASSERT_GT(cache.entry_count_for(victim), 0u);  // warmed by the clean run
  auto failed = bed.RunQuery(System::kHail, "/d", q, false, failure, true);
  ASSERT_TRUE(failed.ok()) << failed.status().ToString();
  const BlockCacheStats after = cache.stats();

  // The kill dropped every cached entry of the victim, and nothing was
  // re-cached for it afterwards: a dead node's replicas are never served.
  EXPECT_EQ(cache.entry_count_for(victim), 0u);
  EXPECT_GT(after.invalidated_entries, before.invalidated_entries);

  // Re-executed tasks read surviving replicas and reproduce the exact
  // same query answer.
  EXPECT_GT(failed->rescheduled_tasks, 0u);
  EXPECT_EQ(Sorted(failed->output_rows), Sorted(clean->output_rows));

  // Re-reads after the kill are misses (the failing tasks' blocks must be
  // re-verified on the surviving replicas).
  EXPECT_GT(after.verify_misses, before.verify_misses);

  // A follow-up clean run revives the victim with a cold cache and again
  // produces identical output.
  auto revived = bed.RunQuery(System::kHail, "/d", q, false, {}, true);
  ASSERT_TRUE(revived.ok());
  EXPECT_EQ(Sorted(revived->output_rows), Sorted(clean->output_rows));
  EXPECT_EQ(revived->end_to_end_seconds, clean->end_to_end_seconds);
}

// ---------------------------------------------------------------------------
// LocalStore transparent lookup
// ---------------------------------------------------------------------------

TEST(LocalStoreTest, TransparentLookupAndSingleProbeGet) {
  hdfs::LocalStore store;
  store.Put("blk_1", "hello");
  store.Append("blk_1", " world");
  const std::string_view name = "blk_1";  // probe with a view, no copy
  EXPECT_TRUE(store.Exists(name));
  auto got = store.Get(name);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "hello world");
  const std::string* direct = store.GetOrNull(name);
  ASSERT_NE(direct, nullptr);
  EXPECT_EQ(*direct, "hello world");
  EXPECT_EQ(store.GetOrNull("blk_2"), nullptr);
  EXPECT_TRUE(store.Get("blk_2").status().IsNotFound());
  EXPECT_EQ(store.total_bytes(), 11u);
  ASSERT_TRUE(store.Delete(name).ok());
  EXPECT_EQ(store.total_bytes(), 0u);
  EXPECT_FALSE(store.Exists(name));
}

}  // namespace
}  // namespace mapreduce
}  // namespace hail
