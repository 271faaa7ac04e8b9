/// \file upload_golden_test.cc
/// \brief Golden regression for the Fig. 4 upload simulation.
///
/// A miniature Figure 4(a) — all three engines over the UserVisits
/// workload, 4 nodes x 8 blocks at scale 2048 — captured from the seed
/// per-engine upload paths *before* the unified streaming pipeline
/// landed. The refactor's contract is byte-identical output: simulated
/// durations match to the last bit (doubles compared exactly) and a
/// CRC32C digest over every stored replica (data file, meta file, Dir_rep
/// record) matches the seed's physical state. If one of these moves, the
/// write path's cost model or storage format changed — that must be a
/// deliberate, documented decision, never a refactor side effect.

#include <gtest/gtest.h>

#include <string>

#include "hdfs/local_store.h"
#include "util/crc32c.h"
#include "workload/testbed.h"
#include "workload/uservisits.h"

namespace hail {
namespace {

using workload::Testbed;
using workload::TestbedConfig;

TestbedConfig MiniFig4Config() {
  TestbedConfig config;
  config.num_nodes = 4;
  config.real_block_bytes = 32 * 1024;  // scale 2048 -> 64 MB logical
  config.blocks_per_node = 8;
  config.seed = 42;
  return config;
}

/// CRC32C over every replica of \p path: data bytes, checksum side-car,
/// and the namenode's Dir_rep record, in block/datanode order.
uint32_t DigestFile(hdfs::MiniDfs& dfs, const std::string& path) {
  uint32_t crc = 0;
  auto blocks = dfs.namenode().GetFileBlocks(path);
  EXPECT_TRUE(blocks.ok()) << blocks.status().ToString();
  if (!blocks.ok()) return 0;
  for (const auto& loc : *blocks) {
    for (int dn : loc.datanodes) {
      auto data =
          dfs.datanode(dn).store().Get(hdfs::BlockFileName(loc.block_id));
      auto meta =
          dfs.datanode(dn).store().Get(hdfs::BlockMetaFileName(loc.block_id));
      if (data.ok()) crc = crc32c::Extend(crc, data->data(), data->size());
      if (meta.ok()) crc = crc32c::Extend(crc, meta->data(), meta->size());
      auto info = dfs.namenode().GetReplicaInfo(loc.block_id, dn);
      if (info.ok()) {
        const std::string s = std::to_string(static_cast<int>(info->layout)) +
                              "|" + std::to_string(info->sort_column) + "|" +
                              info->index_kind + "|" +
                              std::to_string(info->replica_bytes) + "|" +
                              std::to_string(info->index_bytes);
        crc = crc32c::Extend(crc, s.data(), s.size());
      }
    }
  }
  return crc;
}

TEST(UploadGoldenTest, HadoopTextUploadMatchesSeed) {
  Testbed bed(MiniFig4Config());
  bed.LoadUserVisits();
  auto r = bed.UploadHadoop("/data");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->duration(), 36.963399864693059);
  EXPECT_EQ(DigestFile(bed.dfs(), "/data"), 1919299321u);
}

TEST(UploadGoldenTest, HadoopPPUploadMatchesSeed) {
  const double expected_duration[2] = {195.24723940120992, 304.71318919053573};
  const uint32_t expected_digest[2] = {32120688u, 3261630919u};
  for (int k = 0; k <= 1; ++k) {
    Testbed bed(MiniFig4Config());
    bed.LoadUserVisits();
    auto r = bed.UploadHadoopPP("/data", k == 0 ? -1 : workload::kSourceIP);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->duration(), expected_duration[k]) << k << " indexes";
    EXPECT_EQ(DigestFile(bed.dfs(), "/data"), expected_digest[k])
        << k << " indexes";
  }
}

TEST(UploadGoldenTest, HailUploadMatchesSeed) {
  const double expected_duration[4] = {37.632632254337842, 40.070143365837311,
                                       43.14276458978236, 43.143556160895855};
  const uint32_t expected_digest[4] = {483943220u, 2897408136u, 2402997477u,
                                       3049536264u};
  const uint64_t expected_replica_bytes[4] = {3936192, 3961120, 4066816,
                                              4116128};
  for (int k = 0; k <= 3; ++k) {
    Testbed bed(MiniFig4Config());
    bed.LoadUserVisits();
    std::vector<int> all = {workload::kVisitDate, workload::kSourceIP,
                            workload::kAdRevenue};
    std::vector<int> columns(all.begin(), all.begin() + k);
    auto r = bed.UploadHail("/data", columns);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->duration(), expected_duration[k]) << k << " indexes";
    EXPECT_EQ(r->pax_real_bytes, 1311008u) << k << " indexes";
    EXPECT_EQ(r->replica_real_bytes, expected_replica_bytes[k])
        << k << " indexes";
    EXPECT_EQ(DigestFile(bed.dfs(), "/data"), expected_digest[k])
        << k << " indexes";
  }
}

/// CRC32C over the HSTA stats sidecar of every block of \p path, in block
/// order; a missing sidecar fails the test.
uint32_t DigestStats(hdfs::MiniDfs& dfs, const std::string& path) {
  uint32_t crc = 0;
  auto blocks = dfs.namenode().GetFileBlocks(path);
  EXPECT_TRUE(blocks.ok()) << blocks.status().ToString();
  if (!blocks.ok()) return 0;
  for (const auto& loc : *blocks) {
    auto stats = dfs.namenode().GetBlockStats(loc.block_id);
    EXPECT_TRUE(stats.ok()) << stats.status().ToString();
    if (stats.ok()) crc = crc32c::Extend(crc, stats->data(), stats->size());
  }
  return crc;
}

/// The same mini Fig. 4 HAIL uploads with format v3 minipages and the
/// planner's stats sidecar on, so the v3 encoder's choices and the HSTA
/// bytes are pinned alongside the plain v1 goldens above.
TEST(UploadGoldenTest, HailEncodedUploadMatchesSeed) {
  const double expected_duration[4] = {21.749410925493329, 24.642486933242804,
                                       34.076620825007083, 43.489882264584011};
  const uint32_t expected_digest[4] = {4088242489u, 2017655135u, 4288300780u,
                                       68451789u};
  const uint64_t expected_replica_bytes[4] = {1620576, 1645504, 1751200,
                                              1800512};
  for (int k = 0; k <= 3; ++k) {
    TestbedConfig config = MiniFig4Config();
    config.encode_blocks = true;
    config.build_stats = true;
    Testbed bed(config);
    bed.LoadUserVisits();
    std::vector<int> all = {workload::kVisitDate, workload::kSourceIP,
                            workload::kAdRevenue};
    std::vector<int> columns(all.begin(), all.begin() + k);
    auto r = bed.UploadHail("/data", columns);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->duration(), expected_duration[k]) << k << " indexes";
    EXPECT_EQ(r->pax_real_bytes, 539136u) << k << " indexes";
    EXPECT_EQ(r->replica_real_bytes, expected_replica_bytes[k])
        << k << " indexes";
    EXPECT_EQ(DigestFile(bed.dfs(), "/data"), expected_digest[k])
        << k << " indexes";
    // Stats describe the logical block, so every k shares one sidecar set.
    EXPECT_EQ(DigestStats(bed.dfs(), "/data"), 513786826u) << k << " indexes";
  }
}

}  // namespace
}  // namespace hail
