#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <future>
#include <map>
#include <memory>
#include <thread>

#include "hail/hail_block.h"
#include "hail/hail_client.h"
#include "hdfs/dfs_client.h"
#include "schema/row_parser.h"
#include "util/thread_pool.h"
#include "workload/uservisits.h"

namespace hail {
namespace {

struct Env {
  std::unique_ptr<sim::SimCluster> cluster;
  std::unique_ptr<hdfs::MiniDfs> dfs;
  Schema schema = workload::UserVisitsSchema();
};

Env MakeEnv(int nodes = 4, uint64_t block_size = 8192) {
  sim::ClusterConfig cc;
  cc.num_nodes = nodes;
  Env env;
  env.cluster = std::make_unique<sim::SimCluster>(cc);
  hdfs::DfsConfig cfg;
  cfg.block_size = block_size;
  cfg.replication = 3;
  cfg.scale_factor = 512.0;
  cfg.packet_bytes = 2048;
  cfg.format.varlen_partition_size = 8;
  env.dfs = std::make_unique<hdfs::MiniDfs>(env.cluster.get(), cfg);
  return env;
}

std::string UVText(uint64_t rows, uint64_t seed = 1) {
  workload::UserVisitsConfig cfg;
  cfg.rows = rows;
  cfg.seed = seed;
  cfg.scale_factor = 512.0;
  return workload::GenerateUserVisitsText(cfg);
}

/// Canonical text rendering of every record in a PAX block, sorted, for
/// multiset comparison across replicas.
std::vector<std::string> SortedRowSet(const Schema& schema,
                                      std::string_view hail_bytes) {
  auto view = HailBlockView::Open(hail_bytes);
  EXPECT_TRUE(view.ok());
  auto pax_view = view->OpenPax();
  EXPECT_TRUE(pax_view.ok());
  auto pax = PaxBlock::Deserialize(
      hail_bytes.substr(hail_bytes.size() - pax_view->total_bytes()));
  EXPECT_TRUE(pax.ok());
  RowParser parser(schema);
  std::vector<std::string> rows;
  for (uint32_t r = 0; r < pax->num_records(); ++r) {
    rows.push_back(parser.Render(pax->GetRow(r)));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

TEST(CutRowAlignedBlocksTest, NeverSplitsRows) {
  std::string text;
  for (int i = 0; i < 100; ++i) {
    text += "row-" + std::to_string(i) + "-" + std::string(20, 'x') + "\n";
  }
  const auto blocks = CutRowAlignedBlocks(text, 256);
  ASSERT_GT(blocks.size(), 1u);
  std::string joined;
  for (const auto& b : blocks) {
    EXPECT_LE(b.size(), 256u);
    EXPECT_EQ(b.back(), '\n');  // each block ends at a row boundary
    joined += std::string(b);
  }
  EXPECT_EQ(joined, text);  // lossless
}

TEST(CutRowAlignedBlocksTest, OverlongRowGetsOwnBlock) {
  std::string text = std::string(600, 'a') + "\nshort\n";
  const auto blocks = CutRowAlignedBlocks(text, 256);
  ASSERT_EQ(blocks.size(), 2u);
  EXPECT_EQ(blocks[0].size(), 601u);
  EXPECT_EQ(blocks[1], "short\n");
}

TEST(CutRowAlignedBlocksTest, MissingTrailingNewline) {
  const auto blocks = CutRowAlignedBlocks("a\nb\nc", 4);
  std::string joined;
  for (const auto& b : blocks) joined += std::string(b);
  EXPECT_EQ(joined, "a\nb\nc");
}

// The defined behaviour for over-long rows (see hail_client.h): every
// block either fits in block_size or is exactly one row, and an oversized
// row is never merged with its neighbours.
TEST(CutRowAlignedBlocksTest, OversizedRowIsIsolatedFromNeighbours) {
  const std::string before = "tiny\n";
  const std::string big = std::string(600, 'b') + "\n";
  const std::string after = "also-tiny\n";
  const std::string text = before + big + after;
  const auto blocks = CutRowAlignedBlocks(text, 256);
  ASSERT_EQ(blocks.size(), 3u);
  EXPECT_EQ(blocks[0], before);
  EXPECT_EQ(blocks[1], big);  // alone in its oversized block
  EXPECT_EQ(blocks[2], after);
  for (const auto& b : blocks) {
    const bool fits = b.size() <= 256;
    const bool single_row =
        std::count(b.begin(), b.end(), '\n') <= 1;
    EXPECT_TRUE(fits || single_row) << "oversized multi-row block";
  }
}

TEST(CutRowAlignedBlocksTest, ConsecutiveOversizedRowsStaySeparate) {
  const std::string a = std::string(300, 'a') + "\n";
  const std::string b = std::string(400, 'b') + "\n";
  const std::string text = a + b;
  const auto blocks = CutRowAlignedBlocks(text, 256);
  ASSERT_EQ(blocks.size(), 2u);
  EXPECT_EQ(blocks[0], a);
  EXPECT_EQ(blocks[1], b);
}

TEST(CutRowAlignedBlocksTest, OversizedFinalRowWithoutNewline) {
  const std::string text = "x\n" + std::string(500, 'z');  // no trailing \n
  const auto blocks = CutRowAlignedBlocks(text, 64);
  ASSERT_EQ(blocks.size(), 2u);
  EXPECT_EQ(blocks[0], "x\n");
  EXPECT_EQ(blocks[1], std::string(500, 'z'));
}

TEST(CutRowAlignedBlocksTest, ExactFitBlockBoundary) {
  // Four 64-byte rows pack exactly into 128-byte blocks: the cut lands
  // precisely on the row boundary, with no premature or late close.
  std::string row(63, 'r');
  row += "\n";
  ASSERT_EQ(row.size(), 64u);
  const std::string text = row + row + row + row;
  const auto blocks = CutRowAlignedBlocks(text, 128);
  ASSERT_EQ(blocks.size(), 2u);
  EXPECT_EQ(blocks[0].size(), 128u);
  EXPECT_EQ(blocks[1].size(), 128u);
  // A single row of exactly block_size also fits without isolation.
  const auto exact = CutRowAlignedBlocks(row, 64);
  ASSERT_EQ(exact.size(), 1u);
  EXPECT_EQ(exact[0].size(), 64u);
}

TEST(HailUploadTest, CreatesDivergentReplicasWithSameRecords) {
  Env env = MakeEnv();
  const std::string text = UVText(200);
  HailUploadConfig config;
  config.schema = env.schema;
  config.sort_columns = {workload::kVisitDate, workload::kSourceIP,
                         workload::kAdRevenue};
  auto report = HailUploadTextFile(env.dfs.get(), config, 0, "/uv", text);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report->blocks, 1u);
  EXPECT_EQ(report->bad_records, 0u);

  auto blocks = env.dfs->namenode().GetFileBlocks("/uv");
  ASSERT_TRUE(blocks.ok());
  for (const auto& loc : *blocks) {
    ASSERT_EQ(loc.datanodes.size(), 3u);
    std::map<int, std::string> replica_bytes;
    std::vector<std::vector<std::string>> row_sets;
    for (int dn : loc.datanodes) {
      // Every replica passes its own checksum verification...
      auto bytes = env.dfs->datanode(dn).ReadBlockVerified(loc.block_id, 512);
      ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
      replica_bytes[dn] = std::string(*bytes);
      row_sets.push_back(SortedRowSet(env.schema, *bytes));
    }
    // ...replicas are physically different (different sort orders) ...
    auto it = replica_bytes.begin();
    const std::string& first = it->second;
    bool any_different = false;
    for (++it; it != replica_bytes.end(); ++it) {
      if (it->second != first) any_different = true;
    }
    EXPECT_TRUE(any_different) << "replicas should diverge physically";
    // ... yet hold the same logical record multiset (failover intact).
    for (size_t i = 1; i < row_sets.size(); ++i) {
      EXPECT_EQ(row_sets[i], row_sets[0]);
    }
  }
}

TEST(HailUploadTest, ReplicasAreSortedByTheirColumn) {
  Env env = MakeEnv();
  const std::string text = UVText(300, 2);
  HailUploadConfig config;
  config.schema = env.schema;
  config.sort_columns = {workload::kVisitDate, workload::kDuration};
  ASSERT_TRUE(
      HailUploadTextFile(env.dfs.get(), config, 0, "/uv", text).ok());

  auto blocks = env.dfs->namenode().GetFileBlocks("/uv");
  ASSERT_TRUE(blocks.ok());
  for (const auto& loc : *blocks) {
    for (size_t i = 0; i < loc.datanodes.size(); ++i) {
      const int dn = loc.datanodes[i];
      auto info = env.dfs->namenode().GetReplicaInfo(loc.block_id, dn);
      ASSERT_TRUE(info.ok());
      auto bytes = env.dfs->datanode(dn).ReadBlockRaw(loc.block_id);
      ASSERT_TRUE(bytes.ok());
      auto view = HailBlockView::Open(*bytes);
      ASSERT_TRUE(view.ok());
      EXPECT_EQ(view->sort_column(), info->sort_column);
      if (info->sort_column < 0) continue;
      // Verify physical order matches the registered sort column.
      auto pax_view = view->OpenPax();
      ASSERT_TRUE(pax_view.ok());
      Value prev;
      bool have_prev = false;
      for (uint32_t r = 0; r < pax_view->num_records(); ++r) {
        auto v = pax_view->GetAnyValue(info->sort_column, r);
        ASSERT_TRUE(v.ok());
        if (have_prev) {
          EXPECT_FALSE(*v < prev) << "row " << r << " out of order";
        }
        prev = *v;
        have_prev = true;
      }
    }
  }
}

TEST(HailUploadTest, DirRepKnowsEveryReplica) {
  Env env = MakeEnv();
  const std::string text = UVText(150, 3);
  HailUploadConfig config;
  config.schema = env.schema;
  config.sort_columns = {workload::kVisitDate, workload::kSourceIP,
                         workload::kAdRevenue};
  ASSERT_TRUE(HailUploadTextFile(env.dfs.get(), config, 1, "/uv", text).ok());
  auto blocks = env.dfs->namenode().GetFileBlocks("/uv");
  ASSERT_TRUE(blocks.ok());
  for (const auto& loc : *blocks) {
    // getHostsWithIndex finds exactly one replica per indexed column.
    for (int column : {workload::kVisitDate, workload::kSourceIP,
                       workload::kAdRevenue}) {
      EXPECT_EQ(
          env.dfs->namenode().GetHostsWithIndex(loc.block_id, column).size(),
          1u)
          << "column " << column;
    }
    EXPECT_TRUE(env.dfs->namenode()
                    .GetHostsWithIndex(loc.block_id, workload::kDestURL)
                    .empty());
  }
}

TEST(HailUploadTest, BadRecordsArePreservedNotDropped) {
  Env env = MakeEnv();
  std::string text = UVText(50, 4);
  text += "this,is,not,a,valid,user,visit\n";
  text += "neither-is-this\n";
  text += UVText(50, 5);
  HailUploadConfig config;
  config.schema = env.schema;
  config.sort_columns = {workload::kVisitDate};
  auto report = HailUploadTextFile(env.dfs.get(), config, 0, "/uv", text);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->bad_records, 2u);  // counted once per block (not replica)

  // Bad records are stored in the block's bad section on every replica.
  auto blocks = env.dfs->namenode().GetFileBlocks("/uv");
  ASSERT_TRUE(blocks.ok());
  uint64_t bad_seen = 0;
  for (const auto& loc : *blocks) {
    auto bytes = env.dfs->datanode(loc.datanodes[0]).ReadBlockRaw(loc.block_id);
    ASSERT_TRUE(bytes.ok());
    auto view = HailBlockView::Open(*bytes);
    ASSERT_TRUE(view.ok());
    auto pax = view->OpenPax();
    ASSERT_TRUE(pax.ok());
    bad_seen += pax->num_bad_records();
  }
  EXPECT_EQ(bad_seen, 2u);
}

TEST(HailUploadTest, MoreSortColumnsThanReplicasRejected) {
  Env env = MakeEnv();
  const std::string text = UVText(10, 6);
  HailUploadConfig config;
  config.schema = env.schema;
  config.sort_columns = {0, 1, 2, 3};  // replication is 3
  EXPECT_TRUE(HailUploadTextFile(env.dfs.get(), config, 0, "/uv", text)
                  .status()
                  .IsInvalidArgument());
}

TEST(HailUploadTest, ZeroIndexesStillConvertsToPax) {
  Env env = MakeEnv();
  const std::string text = UVText(80, 7);
  HailUploadConfig config;
  config.schema = env.schema;
  config.sort_columns = {};  // HAIL with 0 indexes (Fig. 4 leftmost bars)
  auto report = HailUploadTextFile(env.dfs.get(), config, 0, "/uv", text);
  ASSERT_TRUE(report.ok());
  auto blocks = env.dfs->namenode().GetFileBlocks("/uv");
  ASSERT_TRUE(blocks.ok());
  for (const auto& loc : *blocks) {
    for (int dn : loc.datanodes) {
      auto info = env.dfs->namenode().GetReplicaInfo(loc.block_id, dn);
      ASSERT_TRUE(info.ok());
      EXPECT_EQ(info->layout, hdfs::ReplicaLayout::kPax);
      EXPECT_FALSE(info->has_index());
    }
  }
}

TEST(HailUploadTest, OversizedRowsAreSurfacedInReport) {
  Env env = MakeEnv(4, /*block_size=*/512);
  // One row much longer than the block size amid normal-looking rows.
  std::string text = "1.2.3.4,url,1990-01-01,1.0,agent,DE,de,word,10\n";
  text += "5.6.7.8," + std::string(2000, 'u') +
          ",1991-02-02,2.0,agent,US,en,word,20\n";
  text += "9.9.9.9,url2,1992-03-03,3.0,agent,FR,fr,word,30\n";
  HailUploadConfig config;
  config.schema = env.schema;
  config.sort_columns = {workload::kVisitDate};
  auto report = HailUploadTextFile(env.dfs.get(), config, 0, "/uv", text);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->oversized_blocks, 1u);
  EXPECT_EQ(report->bad_records, 0u);  // the long row still parses
}

TEST(HailUploadTest, DecodesReassembledBlockExactlyOncePerBlock) {
  // The multi-replica build must not deserialize the block once per
  // replica: one decode per block, shared across all three sort orders.
  Env env = MakeEnv();
  const std::string text = UVText(300, 11);
  HailUploadConfig config;
  config.schema = env.schema;
  config.sort_columns = {workload::kVisitDate, workload::kSourceIP,
                         workload::kAdRevenue};
  const uint64_t before = PaxBlock::deserialize_count();
  auto report = HailUploadTextFile(env.dfs.get(), config, 0, "/uv", text);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const uint64_t decodes = PaxBlock::deserialize_count() - before;
  EXPECT_GT(report->blocks, 1u);
  EXPECT_EQ(decodes, report->blocks)
      << "expected exactly one decode per uploaded block (replication 3)";
}

void ExpectSameReplica(const hdfs::ReplicaBlock& got,
                       const hdfs::ReplicaBlock& want, size_t index) {
  EXPECT_EQ(got.bytes, want.bytes) << "replica " << index;
  EXPECT_EQ(got.chunk_crcs, want.chunk_crcs) << "replica " << index;
  EXPECT_EQ(got.cpu_seconds, want.cpu_seconds) << "replica " << index;
  EXPECT_EQ(got.logical_bytes, want.logical_bytes) << "replica " << index;
  EXPECT_EQ(got.info.sort_column, want.info.sort_column) << "replica " << index;
  EXPECT_EQ(got.info.index_kind, want.info.index_kind) << "replica " << index;
  EXPECT_EQ(got.info.index_bytes, want.info.index_bytes) << "replica " << index;
  EXPECT_EQ(got.info.replica_bytes, want.info.replica_bytes)
      << "replica " << index;
}

TEST(HailUploadTest, TransformerFreesColumnsOnlyAfterPreparing) {
  // PrepareReplicas frees the decoded columns on the thread that built
  // them, so afterwards BuildReplica serves exactly what was prepared and
  // bills from facts noted at BeginBlock. Direct callers that skip
  // PrepareReplicas (the benchmark replay) still build lazily.
  Env env = MakeEnv();
  BlockFormatOptions format = env.dfs->config().format;
  format.enable_encoding = true;
  const PaxBlock pax = BuildPaxBlockFromText(env.schema, UVText(120, 31), format);
  const std::string block = pax.Serialize();
  HailTransformParams params;
  // Replica 2 keeps arrival order: PrepareReplicas below does not see it.
  params.sort_columns = {workload::kVisitDate, workload::kSourceIP};
  params.build_stats = true;
  params.chunk_bytes = env.dfs->config().chunk_bytes;
  params.varlen_partition_size = format.varlen_partition_size;
  params.logical_records = pax.num_records() * 512ull;
  params.logical_pax_bytes = block.size() * 512ull;
  hdfs::ReplicaWorkContext ctx;
  ctx.cost = &env.cluster->node(0).cost();

  HailReplicaTransformer prepared(params);
  EXPECT_TRUE(prepared.PrepareReplicas().IsFailedPrecondition());
  EXPECT_TRUE(prepared.BuildReplica(0, ctx).status().IsFailedPrecondition());

  const uint64_t before = PaxBlock::deserialize_count();
  HailReplicaTransformer lazy(params);
  ASSERT_TRUE(lazy.BeginBlock(block).ok());
  std::vector<hdfs::ReplicaBlock> want;
  for (size_t i = 0; i < 3; ++i) {
    ctx.is_tail = i == 2;
    auto replica = lazy.BuildReplica(i, ctx);
    ASSERT_TRUE(replica.ok()) << replica.status().ToString();
    want.push_back(std::move(*replica));
  }
  EXPECT_EQ(PaxBlock::deserialize_count() - before, 1u);

  ASSERT_TRUE(prepared.BeginBlock(block).ok());
  ASSERT_TRUE(prepared.PrepareReplicas().ok());
  EXPECT_EQ(prepared.stats_bytes(), lazy.stats_bytes());
  ctx.is_tail = false;
  for (size_t i = 0; i < 2; ++i) {
    auto replica = prepared.BuildReplica(i, ctx);
    ASSERT_TRUE(replica.ok()) << replica.status().ToString();
    ExpectSameReplica(*replica, want[i], i);
  }
  ctx.is_tail = true;
  EXPECT_TRUE(prepared.BuildReplica(2, ctx).status().IsFailedPrecondition());
  // Preparing again finds every replica it prepares already built.
  EXPECT_TRUE(prepared.PrepareReplicas().ok());
  EXPECT_EQ(PaxBlock::deserialize_count() - before, 2u);

  // The next BeginBlock decodes again, and replica 2 builds lazily.
  ASSERT_TRUE(prepared.BeginBlock(block).ok());
  auto arrival = prepared.BuildReplica(2, ctx);
  ASSERT_TRUE(arrival.ok()) << arrival.status().ToString();
  ExpectSameReplica(*arrival, want[2], 2);
  EXPECT_EQ(PaxBlock::deserialize_count() - before, 3u);
}

TEST(HailUploadTest, UploadThroughDeadDatanodeFails) {
  // Regression: the seed HAIL path never validated pipeline targets the
  // way the text path did; the unified pipeline rejects dead or bogus
  // targets for every engine.
  Env env = MakeEnv();
  const std::string text = UVText(40, 12);
  PaxBlock pax = BuildPaxBlockFromText(env.schema, text, {});
  const std::string block = pax.Serialize();

  HailTransformParams params;
  params.sort_columns = {workload::kVisitDate};
  params.chunk_bytes = env.dfs->config().chunk_bytes;
  params.varlen_partition_size = env.dfs->config().format.varlen_partition_size;
  params.logical_records = pax.num_records();

  env.dfs->KillNode(2, 0.0);
  {
    HailReplicaTransformer transformer(params);
    ASSERT_TRUE(transformer.BeginBlock(block).ok());
    auto result = env.dfs->pipeline().WriteBlock(0, 0.0, 77, block, block.size(),
                                                 {0, 1, 2}, &transformer);
    EXPECT_TRUE(result.status().IsFailedPrecondition())
        << result.status().ToString();
  }
  {
    HailReplicaTransformer transformer(params);
    ASSERT_TRUE(transformer.BeginBlock(block).ok());
    auto result = env.dfs->pipeline().WriteBlock(0, 0.0, 78, block, block.size(),
                                                 {0, 99}, &transformer);
    EXPECT_TRUE(result.status().IsInvalidArgument())
        << result.status().ToString();
  }
  // A chain of live, valid targets still succeeds after the failures.
  HailReplicaTransformer transformer(params);
  ASSERT_TRUE(transformer.BeginBlock(block).ok());
  auto ok = env.dfs->pipeline().WriteBlock(0, 0.0, 79, block, block.size(),
                                           {0, 1}, &transformer);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
}

/// Returns once every worker of the shared pool has been busy with this
/// call at the same instant: everything submitted earlier has finished.
void QuiesceSharedPool() {
  ThreadPool* pool = SharedPool();
  const size_t workers = pool->num_threads();
  std::atomic<size_t> arrived{0};
  std::vector<std::future<void>> parked;
  for (size_t i = 0; i < workers; ++i) {
    parked.push_back(pool->Submit([&arrived, workers] {
      arrived.fetch_add(1);
      while (arrived.load() < workers) std::this_thread::yield();
    }));
  }
  for (std::future<void>& f : parked) f.get();
}

TEST(HailUploadTest, FailedUploadRegistersNothingAndJoinsPreparedBlocks) {
  // Two of four datanodes are dead, below the replication factor of 3:
  // the first block's allocation fails while later blocks are still
  // preparing on the shared pool. The upload fails cleanly, registers no
  // block, and returns only after its prepares are joined — none may
  // touch the config or texts it borrowed once it has returned. /a is one
  // small block, committed first; /b's large blocks take far longer to
  // prepare, so they are in flight when /a's allocation fails.
  Env env = MakeEnv(4, /*block_size=*/256 * 1024);
  env.dfs->KillNode(1, 0.0);
  env.dfs->KillNode(2, 0.0);
  auto config = std::make_unique<HailUploadConfig>();
  config->schema = env.schema;
  config->sort_columns = {workload::kVisitDate, workload::kSourceIP,
                          workload::kAdRevenue};
  std::vector<std::string> texts = {UVText(20, 21), UVText(12000, 22)};
  ASSERT_GT(CutRowAlignedBlocks(texts[1], env.dfs->config().block_size).size(),
            4u);

  const uint64_t before = PaxBlock::deserialize_count();
  auto report = HailParallelUpload(env.dfs.get(), *config,
                                   {{0, "/a", texts[0]}, {3, "/b", texts[1]}});
  const uint64_t decodes_at_return = PaxBlock::deserialize_count();
  config.reset();
  texts.clear();
  texts.shrink_to_fit();

  EXPECT_TRUE(report.status().IsFailedPrecondition())
      << report.status().ToString();
  EXPECT_FALSE(env.dfs->namenode().FileExists("/a"));
  EXPECT_FALSE(env.dfs->namenode().FileExists("/b"));
  EXPECT_GT(decodes_at_return, before) << "nothing prepared before the failure";
  QuiesceSharedPool();
  EXPECT_EQ(PaxBlock::deserialize_count(), decodes_at_return)
      << "a prepare outlived the failed upload";
}

TEST(HailUploadTest, UploadTimeGrowsMildlyWithIndexCount) {
  // §6.3.1: indexes are almost free — CPU work hides behind the
  // I/O-bound pipeline. Sorting 3 replicas must cost well under 2x of
  // sorting none.
  double durations[2];
  for (int variant = 0; variant < 2; ++variant) {
    Env env = MakeEnv();
    const std::string text = UVText(400, 8);
    HailUploadConfig config;
    config.schema = env.schema;
    if (variant == 1) {
      config.sort_columns = {workload::kVisitDate, workload::kSourceIP,
                             workload::kAdRevenue};
    }
    auto report = HailUploadTextFile(env.dfs.get(), config, 0, "/uv", text);
    ASSERT_TRUE(report.ok());
    durations[variant] = report->duration();
  }
  EXPECT_GT(durations[1], durations[0]);          // not free
  EXPECT_LT(durations[1], durations[0] * 1.5);    // but nearly
}

}  // namespace
}  // namespace hail
