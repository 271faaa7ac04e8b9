/// \file corruption_property_test.cc
/// \brief Corrupted bytes never crash and never silently succeed.
///
/// Serialised PaxBlock / HAIL block / HSTA stats sidecar bytes are
/// truncated at every length (covering every section boundary +- 1) and
/// bit-flipped: the deserialisers must surface a clean
/// error — under ASan/UBSan this also proves no out-of-bounds read hides
/// behind any malformed input.
/// A structural parse MAY survive a payload bit flip (the bytes are still
/// a well-formed block); the end-to-end guarantee that NO flip is ever
/// silently served comes from the datanode CRC path, asserted for every
/// flip offset against stored checksums.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "hail/hail_block.h"
#include "hdfs/dfs_client.h"
#include "hdfs/packet.h"
#include "index/clustered_index.h"
#include "layout/pax_block.h"
#include "planner/block_stats.h"
#include "util/random.h"
#include "workload/uservisits.h"

namespace hail {
namespace {

/// A small mixed-type block with bad records, so every section of the
/// serialised layout (header, fixed/varlen minipages, bad-record tail)
/// is present and non-trivial. With \p encoded the same shape serialises
/// as format v3 with every encoding present: ip draws from a 4-entry pool
/// (dictionary), date from a narrow range (frame-of-reference), revenue
/// changes only every ~9 rows (RLE), duration spans the full int32 range
/// (stays plain).
PaxBlock MakeBlock(uint64_t seed, bool encoded) {
  Schema schema({Field{"ip", FieldType::kString},
                 Field{"date", FieldType::kDate},
                 Field{"revenue", FieldType::kDouble},
                 Field{"duration", FieldType::kInt32}});
  BlockFormatOptions options;
  options.varlen_partition_size = 8;
  options.enable_encoding = encoded;
  PaxBlock block(schema, options);
  Random rng(seed);
  static const char* kIps[] = {"10.0.0.1", "10.0.0.2", "172.16.9.8",
                               "192.168.1.77"};
  const int rows = 40 + static_cast<int>(rng.Uniform(60));
  double run_rev = 0.0;
  for (int r = 0; r < rows; ++r) {
    if (r % 9 == 0) run_rev = rng.NextDouble() * 100.0;
    block.AppendRow(
        {Value(std::string(kIps[rng.Uniform(4)])),
         Value(static_cast<int32_t>(rng.UniformRange(15000, 15400))),
         Value(run_rev),
         Value(static_cast<int32_t>(
             rng.UniformRange(-1000000000, 1000000000)))});
    if (rng.Uniform(16) == 0) block.AppendBadRecord("not|a|row");
  }
  return block;
}

std::string SerializeHail(const PaxBlock& unsorted, int sort_column) {
  PaxBlock sorted = unsorted;
  sorted.SortByColumn(sort_column);
  const ClusteredIndex index =
      ClusteredIndex::Build(sorted.column(sort_column), 8);
  return BuildHailBlock(sorted, &index, sort_column);
}

/// Opens a HAIL block and touches every section, as the readers do.
Status OpenHailDeep(std::string_view bytes) {
  HAIL_ASSIGN_OR_RETURN(HailBlockView view, HailBlockView::Open(bytes));
  if (view.has_index()) {
    HAIL_RETURN_NOT_OK(view.ReadIndex().status());
  }
  if (view.has_unclustered()) {
    HAIL_RETURN_NOT_OK(view.ReadUnclusteredIndex().status());
  }
  HAIL_ASSIGN_OR_RETURN(PaxBlockView pax, view.OpenPax());
  // Decode one row end-to-end so minipage directories are actually used.
  if (pax.num_records() > 0) {
    HAIL_RETURN_NOT_OK(pax.GetRow(pax.num_records() - 1).status());
  }
  return Status::OK();
}

class CorruptionPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CorruptionPropertyTest, TruncatedPaxBlockAlwaysErrors) {
  for (const bool encoded : {false, true}) {
    const std::string bytes = MakeBlock(GetParam(), encoded).Serialize();
    auto view = PaxBlockView::Open(bytes);
    ASSERT_TRUE(view.ok());
    ASSERT_EQ(view->encoded_format(), encoded);
    if (encoded) {
      // The v3 variant must genuinely exercise encoded minipages.
      ASSERT_GE(view->num_encoded_columns(), 3);
    }
    ASSERT_TRUE(PaxBlock::Deserialize(bytes).ok());
    for (size_t len = 0; len < bytes.size(); ++len) {
      auto r = PaxBlock::Deserialize(std::string_view(bytes).substr(0, len));
      EXPECT_FALSE(r.ok()) << "silent success at truncation length " << len
                           << " of " << bytes.size()
                           << " encoded=" << encoded;
    }
  }
}

TEST_P(CorruptionPropertyTest, TruncatedHailBlockAlwaysErrors) {
  for (const bool encoded : {false, true}) {
    const PaxBlock block = MakeBlock(GetParam(), encoded);
    const std::string bytes = SerializeHail(block, /*sort_column=*/1);
    ASSERT_TRUE(OpenHailDeep(bytes).ok());
    // Every length covers every section boundary (header/index/pax) +- 1.
    for (size_t len = 0; len < bytes.size(); ++len) {
      const Status st = OpenHailDeep(std::string_view(bytes).substr(0, len));
      EXPECT_FALSE(st.ok()) << "silent success at truncation length " << len
                            << " of " << bytes.size()
                            << " encoded=" << encoded;
    }
  }
}

TEST_P(CorruptionPropertyTest, BitFlippedBlocksNeverCrash) {
  for (const bool encoded : {false, true}) {
    const PaxBlock block = MakeBlock(GetParam(), encoded);
    const std::string pax_bytes = block.Serialize();
    const std::string hail_bytes = SerializeHail(block, /*sort_column=*/3);
    // A flipped structural field must surface an error; a flipped payload
    // byte may still parse (the CRC layer owns that case, below). Either
    // way: no crash, no out-of-bounds access — which ASan/UBSan verify
    // across every offset here, including v3's encoding tags, code
    // widths, run directories, and dictionary offsets.
    for (size_t i = 0; i < pax_bytes.size(); ++i) {
      std::string mutated = pax_bytes;
      mutated[i] = static_cast<char>(mutated[i] ^ 0x40);
      (void)PaxBlock::Deserialize(mutated);
    }
    for (size_t i = 0; i < hail_bytes.size(); ++i) {
      std::string mutated = hail_bytes;
      mutated[i] = static_cast<char>(mutated[i] ^ 0x40);
      (void)OpenHailDeep(mutated);
    }
  }
}

TEST_P(CorruptionPropertyTest, EveryStoredBitFlipFailsCrcVerification) {
  // End-to-end "no silent success": any at-rest flip of a stored replica
  // is caught by chunk checksum verification before a reader ever sees
  // the bytes, whatever the offset.
  sim::ClusterConfig cc;
  cc.num_nodes = 1;
  sim::SimCluster cluster(cc);
  hdfs::MiniDfs dfs(&cluster, hdfs::DfsConfig{});
  hdfs::Datanode& dn = dfs.datanode(0);
  uint64_t next_id = 1;
  for (const bool encoded : {false, true}) {
    const std::string bytes =
        SerializeHail(MakeBlock(GetParam(), encoded), 1);
    const uint32_t chunk = 512;
    const std::vector<uint32_t> crcs =
        hdfs::ComputeChunkChecksums(bytes, chunk);

    const uint64_t clean_id = next_id++;
    dn.StoreBlock(clean_id, bytes, crcs);
    ASSERT_TRUE(dn.ReadBlockVerified(clean_id, chunk).ok());

    for (size_t i = 0; i < bytes.size(); i += 13) {
      std::string mutated = bytes;
      mutated[i] = static_cast<char>(mutated[i] ^ 0x01);
      const uint64_t id = next_id++;
      dn.StoreBlock(id, mutated, crcs);
      const Status st = dn.ReadBlockVerified(id, chunk).status();
      EXPECT_TRUE(st.IsCorruption())
          << "flip at offset " << i << " not caught: " << st.ToString();
    }

    // Truncated-at-rest replicas fail verification (chunk count drift).
    for (size_t len : {bytes.size() - 1, bytes.size() / 2, size_t{1}}) {
      const uint64_t id = next_id++;
      dn.StoreBlock(id, bytes.substr(0, len), crcs);
      EXPECT_TRUE(dn.ReadBlockVerified(id, chunk).status().IsCorruption())
          << "truncation to " << len << " not caught";
    }
  }
}

TEST_P(CorruptionPropertyTest, TruncatedStatsSidecarAlwaysErrors) {
  // The sidecar of MakeBlock carries every stats value type: int32/date,
  // double and length-prefixed string bounds.
  const std::string bytes =
      planner::BlockStats::Build(MakeBlock(GetParam(), false)).Serialize();
  ASSERT_TRUE(planner::BlockStats::Deserialize(bytes).ok());
  for (size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(planner::BlockStats::Deserialize(
                     std::string_view(bytes).substr(0, len))
                     .ok())
        << "silent success at truncation length " << len << " of "
        << bytes.size();
  }
}

TEST_P(CorruptionPropertyTest, BitFlippedStatsSidecarNeverCrashes) {
  // Every offset under several masks, so each byte of the column and
  // bucket counts (and of every string length) also takes large values:
  // the decoder must return a status, never throw or over-allocate.
  const std::string bytes =
      planner::BlockStats::Build(MakeBlock(GetParam(), false)).Serialize();
  for (size_t i = 0; i < bytes.size(); ++i) {
    for (const int mask : {0x01, 0x10, 0x80}) {
      std::string mutated = bytes;
      mutated[i] = static_cast<char>(mutated[i] ^ mask);
      (void)planner::BlockStats::Deserialize(mutated);
    }
  }
}

TEST(StatsSidecarCorruptionTest, HugeCountsAreRejectedBeforeAllocating) {
  workload::UserVisitsConfig uv;
  uv.rows = 64;
  uv.seed = 5;
  const PaxBlock block = BuildPaxBlockFromText(
      workload::UserVisitsSchema(), workload::GenerateUserVisitsText(uv));
  const std::string bytes = planner::BlockStats::Build(block).Serialize();
  ASSERT_TRUE(planner::BlockStats::Deserialize(bytes).ok());
  // Bytes 13..16 hold the u32 column count (9). Raising its top byte
  // asked for 2^28 columns (std::bad_alloc); raising byte 15 for about a
  // million of them before the data ran out.
  for (const size_t offset : {size_t{15}, size_t{16}}) {
    std::string mutated = bytes;
    mutated[offset] = 0x10;
    EXPECT_TRUE(
        planner::BlockStats::Deserialize(mutated).status().IsCorruption())
        << "offset " << offset;
  }
  // The first column's bucket count sits after its fixed fields and its
  // length-prefixed min and max strings.
  auto stats = planner::BlockStats::Deserialize(bytes);
  ASSERT_TRUE(stats.ok());
  const planner::ColumnStats& first = stats->columns[0];
  const size_t buckets_at = 17 + 2 + 3 * 8 + 4 +
                            first.min_value.as_string().size() + 4 +
                            first.max_value.as_string().size();
  uint32_t buckets = 0;
  std::memcpy(&buckets, bytes.data() + buckets_at, 4);
  ASSERT_EQ(buckets, planner::kDefaultHistogramBuckets);
  std::string mutated = bytes;
  mutated[buckets_at + 3] = static_cast<char>(0xFF);
  EXPECT_TRUE(planner::BlockStats::Deserialize(mutated).status().IsCorruption());
}

INSTANTIATE_TEST_SUITE_P(Seeds, CorruptionPropertyTest,
                         ::testing::Values(1u, 2u, 3u));

}  // namespace
}  // namespace hail
