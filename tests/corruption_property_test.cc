/// \file corruption_property_test.cc
/// \brief Corrupted bytes never crash and never silently succeed.
///
/// Serialised PaxBlock / HAIL block / HSTA stats sidecar / clustered,
/// unclustered and trojan index bytes are truncated at every length
/// (covering every section boundary +- 1) and bit-flipped: the
/// deserialisers must surface a clean
/// error — under ASan/UBSan this also proves no out-of-bounds read hides
/// behind any malformed input.
/// A structural parse MAY survive a payload bit flip (the bytes are still
/// a well-formed block); the end-to-end guarantee that NO flip is ever
/// silently served comes from the datanode CRC path, asserted for every
/// flip offset against stored checksums, and for every bit of an upload
/// packet's payload and chunk CRCs against the tail's packet check.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "hadooppp/trojan_block.h"
#include "hail/hail_block.h"
#include "hdfs/dfs_client.h"
#include "hdfs/packet.h"
#include "index/clustered_index.h"
#include "index/trojan_index.h"
#include "index/unclustered_index.h"
#include "layout/pax_block.h"
#include "layout/row_binary.h"
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

/// The version-2 block an adaptive install leaves behind: the sorted
/// replica of SerializeHail with a dense unclustered index on
/// \p uc_column spliced in after its PAX payload.
std::string SerializeHailWithUnclustered(const PaxBlock& unsorted,
                                         int sort_column, int uc_column) {
  const std::string v1 = SerializeHail(unsorted, sort_column);
  auto view = HailBlockView::Open(v1);
  EXPECT_TRUE(view.ok());
  auto sorted = PaxBlock::Deserialize(view->pax_section());
  EXPECT_TRUE(sorted.ok());
  const UnclusteredIndex uc = UnclusteredIndex::Build(sorted->column(uc_column));
  return BuildHailBlockParts(sort_column, view->index_section(),
                             view->pax_section(), uc_column, uc.Serialize());
}

/// Opens a HAIL block and touches every section, as the readers do: a
/// clustered or unclustered index must also cover exactly the block's
/// rows, since its row range or row ids select what a read touches.
Status OpenHailDeep(std::string_view bytes) {
  HAIL_ASSIGN_OR_RETURN(HailBlockView view, HailBlockView::Open(bytes));
  HAIL_ASSIGN_OR_RETURN(PaxBlockView pax, view.OpenPax());
  if (view.has_index()) {
    HAIL_ASSIGN_OR_RETURN(ClusteredIndex index, view.ReadIndex());
    HAIL_RETURN_NOT_OK(index.CheckRowsOf(pax.num_records()));
    // A decoded index re-serialises to exactly the bytes it came from.
    EXPECT_EQ(index.Serialize(), view.index_section());
    EXPECT_LE(index.Lookup(KeyRange{}).end, pax.num_records());
  }
  if (view.has_unclustered()) {
    HAIL_ASSIGN_OR_RETURN(UnclusteredIndex uc, view.ReadUnclusteredIndex());
    HAIL_RETURN_NOT_OK(uc.CheckRowsOf(pax.num_records()));
    // A decoded index re-serialises to exactly the bytes it came from.
    EXPECT_EQ(uc.Serialize(), view.unclustered_section());
    for (uint32_t row : uc.Lookup(KeyRange{})) {
      EXPECT_LT(row, pax.num_records());
    }
  }
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

TEST_P(CorruptionPropertyTest, EveryPacketBitFlipFailsVerification) {
  // In flight, the tail datanode verifies every packet before it stores
  // anything (upload_pipeline.cc): every single-bit flip of a payload
  // byte or of a chunk CRC must fail VerifyPacket. Every packet but the
  // last holds two chunks and a partial one, so a short last CRC is
  // covered too.
  const std::string block = SerializeHail(MakeBlock(GetParam(), true), 1);
  for (const uint32_t chunk : {64u, 512u}) {
    std::vector<hdfs::Packet> packets =
        hdfs::MakePackets(7, block, chunk, 2 * chunk + 37);
    ASSERT_GT(packets.size(), 1u);
    for (hdfs::Packet& packet : packets) {
      ASSERT_TRUE(packet.last_in_block || packet.data.size() % chunk != 0);
      ASSERT_TRUE(hdfs::VerifyPacket(packet, chunk));
      for (size_t i = 0; i < packet.data.size(); ++i) {
        for (int bit = 0; bit < 8; ++bit) {
          packet.data[i] = static_cast<char>(packet.data[i] ^ (1 << bit));
          EXPECT_FALSE(hdfs::VerifyPacket(packet, chunk))
              << "payload flip at byte " << i << " bit " << bit
              << " of packet " << packet.seq << " not caught";
          packet.data[i] = static_cast<char>(packet.data[i] ^ (1 << bit));
        }
      }
      for (uint32_t& crc : packet.chunk_crcs) {
        for (int bit = 0; bit < 32; ++bit) {
          crc ^= 1u << bit;
          EXPECT_FALSE(hdfs::VerifyPacket(packet, chunk))
              << "CRC flip at bit " << bit << " of packet " << packet.seq
              << " not caught";
          crc ^= 1u << bit;
        }
      }
      ASSERT_TRUE(hdfs::VerifyPacket(packet, chunk));
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

/// One serialised unclustered index per MakeBlock column: string, date,
/// double and int32 keys.
std::vector<std::string> UnclusteredIndexBytes(uint64_t seed) {
  const PaxBlock block = MakeBlock(seed, false);
  std::vector<std::string> out;
  for (int c = 0; c < block.schema().num_fields(); ++c) {
    out.push_back(UnclusteredIndex::Build(block.column(c)).Serialize());
  }
  return out;
}

TEST_P(CorruptionPropertyTest, TruncatedUnclusteredIndexAlwaysErrors) {
  for (const std::string& bytes : UnclusteredIndexBytes(GetParam())) {
    ASSERT_TRUE(UnclusteredIndex::Deserialize(bytes).ok());
    for (size_t len = 0; len < bytes.size(); ++len) {
      EXPECT_FALSE(UnclusteredIndex::Deserialize(
                       std::string_view(bytes).substr(0, len))
                       .ok())
          << "silent success at truncation length " << len << " of "
          << bytes.size();
    }
  }
  for (const int uc_column : {0, 3}) {
    const std::string bytes = SerializeHailWithUnclustered(
        MakeBlock(GetParam(), false), /*sort_column=*/1, uc_column);
    ASSERT_TRUE(HailBlockView::Open(bytes)->has_unclustered());
    ASSERT_TRUE(OpenHailDeep(bytes).ok());
    for (size_t len = 0; len < bytes.size(); ++len) {
      EXPECT_FALSE(OpenHailDeep(std::string_view(bytes).substr(0, len)).ok())
          << "silent success at truncation length " << len << " of "
          << bytes.size() << " uc_column=" << uc_column;
    }
  }
}

TEST_P(CorruptionPropertyTest, BitFlippedUnclusteredIndexNeverCrashes) {
  // Every offset under several masks, so the key-type byte and each byte
  // of the record count also take large values. A flip that still decodes
  // (a key or a row id) must re-serialise to the flipped bytes: nothing
  // of the input is ignored.
  for (const std::string& bytes : UnclusteredIndexBytes(GetParam())) {
    for (size_t i = 0; i < bytes.size(); ++i) {
      for (const int mask : {0x01, 0x10, 0x80}) {
        std::string mutated = bytes;
        mutated[i] = static_cast<char>(mutated[i] ^ mask);
        auto decoded = UnclusteredIndex::Deserialize(mutated);
        if (!decoded.ok()) continue;
        EXPECT_EQ(decoded->Serialize(), mutated)
            << "offset " << i << " mask " << mask;
        (void)decoded->Lookup(KeyRange{});
      }
    }
  }
  for (const int uc_column : {0, 3}) {
    const std::string bytes = SerializeHailWithUnclustered(
        MakeBlock(GetParam(), false), /*sort_column=*/1, uc_column);
    for (size_t i = 0; i < bytes.size(); ++i) {
      for (const int mask : {0x01, 0x10, 0x80}) {
        std::string mutated = bytes;
        mutated[i] = static_cast<char>(mutated[i] ^ mask);
        (void)OpenHailDeep(mutated);
      }
    }
  }
}

TEST(UnclusteredIndexCorruptionTest, UnknownTypeAndHugeCountAreRejected) {
  ColumnVector keys(FieldType::kInt32);
  for (int32_t v : {5, 3, 8, 1, 9, 2, 7, 4}) keys.Append(Value(v));
  const std::string bytes = UnclusteredIndex::Build(keys).Serialize();
  ASSERT_TRUE(UnclusteredIndex::Deserialize(bytes).ok());
  // Byte 4 is the key type: 0x7F names none. It used to decode with no
  // keys, and every Lookup then returned nothing.
  std::string mutated = bytes;
  mutated[4] = 0x7F;
  EXPECT_TRUE(UnclusteredIndex::Deserialize(mutated).status().IsCorruption());
  // Bytes 5..8 are the record count: 0xFFFFFFFF used to reserve 16 GB of
  // row ids before the data ran out.
  mutated = bytes;
  for (size_t i = 5; i < 9; ++i) mutated[i] = static_cast<char>(0xFF);
  EXPECT_TRUE(UnclusteredIndex::Deserialize(mutated).status().IsCorruption());
  // Trailing bytes are not silently dropped.
  EXPECT_TRUE(
      UnclusteredIndex::Deserialize(bytes + '\0').status().IsCorruption());
}

TEST(UnclusteredIndexCorruptionTest, RowsMustCoverExactlyTheBlock) {
  ColumnVector keys(FieldType::kInt32);
  for (int32_t v : {5, 3, 8, 1}) keys.Append(Value(v));
  const UnclusteredIndex index = UnclusteredIndex::Build(keys);
  EXPECT_TRUE(index.CheckRowsOf(4).ok());
  EXPECT_TRUE(index.CheckRowsOf(3).IsCorruption());
  EXPECT_TRUE(index.CheckRowsOf(5).IsCorruption());
  // The last serialised u32 is a row id: pointing it past the block is
  // still a well-formed index, but not one of this block.
  std::string bytes = index.Serialize();
  bytes[bytes.size() - 4] = 4;
  auto decoded = UnclusteredIndex::Deserialize(bytes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->CheckRowsOf(4).IsCorruption());
}

/// One serialised clustered index per MakeBlock column (string, date,
/// double and int32 keys), each over the block sorted on that column.
std::vector<std::string> ClusteredIndexBytes(uint64_t seed) {
  const PaxBlock block = MakeBlock(seed, false);
  std::vector<std::string> out;
  for (int c = 0; c < block.schema().num_fields(); ++c) {
    PaxBlock sorted = block;
    sorted.SortByColumn(c);
    out.push_back(ClusteredIndex::Build(sorted.column(c), 8).Serialize());
  }
  return out;
}

TEST_P(CorruptionPropertyTest, TruncatedClusteredIndexAlwaysErrors) {
  for (const std::string& bytes : ClusteredIndexBytes(GetParam())) {
    ASSERT_TRUE(ClusteredIndex::Deserialize(bytes).ok());
    for (size_t len = 0; len < bytes.size(); ++len) {
      EXPECT_FALSE(
          ClusteredIndex::Deserialize(std::string_view(bytes).substr(0, len))
              .ok())
          << "silent success at truncation length " << len << " of "
          << bytes.size();
    }
  }
  // Version-1 HAIL blocks indexed on each key type.
  for (int sort_column = 0; sort_column < 4; ++sort_column) {
    const std::string bytes =
        SerializeHail(MakeBlock(GetParam(), false), sort_column);
    ASSERT_TRUE(OpenHailDeep(bytes).ok());
    for (size_t len = 0; len < bytes.size(); ++len) {
      EXPECT_FALSE(OpenHailDeep(std::string_view(bytes).substr(0, len)).ok())
          << "silent success at truncation length " << len << " of "
          << bytes.size() << " sort_column=" << sort_column;
    }
  }
}

TEST_P(CorruptionPropertyTest, BitFlippedClusteredIndexNeverCrashes) {
  // Every offset under several masks, so the key-type byte, the partition
  // size and each byte of both counts also take large values. A flip that
  // still decodes (a key, or a record count that keeps the partition
  // count) must re-serialise to the flipped bytes: nothing of the input
  // is ignored.
  for (const std::string& bytes : ClusteredIndexBytes(GetParam())) {
    for (size_t i = 0; i < bytes.size(); ++i) {
      for (const int mask : {0x01, 0x10, 0x80}) {
        std::string mutated = bytes;
        mutated[i] = static_cast<char>(mutated[i] ^ mask);
        auto decoded = ClusteredIndex::Deserialize(mutated);
        if (!decoded.ok()) continue;
        EXPECT_EQ(decoded->Serialize(), mutated)
            << "offset " << i << " mask " << mask;
        (void)decoded->Lookup(KeyRange{});
      }
    }
  }
  for (int sort_column = 0; sort_column < 4; ++sort_column) {
    const std::string bytes =
        SerializeHail(MakeBlock(GetParam(), false), sort_column);
    for (size_t i = 0; i < bytes.size(); ++i) {
      for (const int mask : {0x01, 0x10, 0x80}) {
        std::string mutated = bytes;
        mutated[i] = static_cast<char>(mutated[i] ^ mask);
        (void)OpenHailDeep(mutated);
      }
    }
  }
}

TEST(ClusteredIndexCorruptionTest, UnknownTypeBadCountsAndTrailingBytes) {
  ColumnVector keys(FieldType::kInt32);
  for (int32_t v = 0; v < 64; ++v) keys.Append(Value(v));
  // 64 records in partitions of 8: 8 first keys. The header is the magic
  // (bytes 0..3), the key type (4), the partition size (5..8), the record
  // count (9..12) and the partition count (13..16).
  const std::string bytes = ClusteredIndex::Build(keys, 8).Serialize();
  ASSERT_TRUE(ClusteredIndex::Deserialize(bytes).ok());
  const auto rejected = [](const std::string& mutated) {
    return ClusteredIndex::Deserialize(mutated).status().IsCorruption();
  };
  // 0x7F names no key type. Decoded, every Lookup would return the empty
  // range [0,0), and an index scan would read no rows.
  std::string mutated = bytes;
  mutated[4] = 0x7F;
  EXPECT_TRUE(rejected(mutated));
  // A partition count the remaining bytes cannot hold.
  mutated = bytes;
  for (size_t i = 13; i < 17; ++i) mutated[i] = static_cast<char>(0xFF);
  EXPECT_TRUE(rejected(mutated));
  // 7 first keys for 64 records (the eighth would be left unread) ...
  mutated = bytes;
  mutated[13] = 7;
  EXPECT_TRUE(rejected(mutated));
  // ... and 72 records, which need 9 partitions, over 8 first keys.
  mutated = bytes;
  mutated[9] = 72;
  EXPECT_TRUE(rejected(mutated));
  // Trailing bytes are not silently dropped.
  EXPECT_TRUE(rejected(bytes + '\0'));
}

TEST(ClusteredIndexCorruptionTest, RecordsMustMatchTheBlock) {
  ColumnVector keys(FieldType::kInt32);
  for (int32_t v = 0; v < 20; ++v) keys.Append(Value(v));
  const ClusteredIndex index = ClusteredIndex::Build(keys, 8);
  EXPECT_TRUE(index.CheckRowsOf(20).ok());
  EXPECT_TRUE(index.CheckRowsOf(19).IsCorruption());
  EXPECT_TRUE(index.CheckRowsOf(21).IsCorruption());
}

/// A Hadoop++ trojan block over MakeBlock's rows sorted on \p sort_column:
/// binary rows plus a trojan directory of 8 rows per entry.
std::string SerializeTrojan(uint64_t seed, int sort_column) {
  PaxBlock sorted = MakeBlock(seed, false);
  sorted.SortByColumn(sort_column);
  std::vector<ColumnVector> columns;
  for (int c = 0; c < sorted.num_columns(); ++c) {
    columns.push_back(sorted.column(c));
  }
  RowBinaryBlockBuilder rows(sorted.schema());
  for (uint32_t r = 0; r < sorted.num_records(); ++r) {
    rows.AddRowFromColumns(columns, r);
  }
  const TrojanIndex index = TrojanIndex::Build(
      sorted.column(sort_column), rows.row_offsets(), rows.data_bytes(), 8);
  return hadooppp::BuildTrojanBlock(rows.Finish(), &index, sort_column);
}

/// Opens a trojan block and decodes its index, as the trojan reader does
/// before an index scan (the row section is not decoded).
Status OpenTrojanIndex(std::string_view bytes) {
  HAIL_ASSIGN_OR_RETURN(hadooppp::TrojanBlockView view,
                        hadooppp::TrojanBlockView::Open(bytes));
  HAIL_ASSIGN_OR_RETURN(TrojanIndex index, view.ReadIndex());
  // A decoded index re-serialises to exactly the bytes it came from.
  EXPECT_EQ(index.Serialize(), view.index_section());
  (void)index.Lookup(KeyRange{});
  return Status::OK();
}

/// The trojan index of each MakeBlock column (string, date, double and
/// int32 keys), each over the rows sorted on that column.
std::vector<std::string> TrojanIndexBytes(uint64_t seed) {
  std::vector<std::string> out;
  for (int c = 0; c < 4; ++c) {
    const std::string block = SerializeTrojan(seed, c);
    out.emplace_back(hadooppp::TrojanBlockView::Open(block)->index_section());
  }
  return out;
}

TEST_P(CorruptionPropertyTest, TruncatedTrojanIndexAlwaysErrors) {
  for (const std::string& bytes : TrojanIndexBytes(GetParam())) {
    ASSERT_TRUE(TrojanIndex::Deserialize(bytes).ok());
    for (size_t len = 0; len < bytes.size(); ++len) {
      EXPECT_FALSE(
          TrojanIndex::Deserialize(std::string_view(bytes).substr(0, len))
              .ok())
          << "silent success at truncation length " << len << " of "
          << bytes.size();
    }
  }
  // Trojan blocks indexed on each key type: every cut through the header
  // or the index section is an error (the index precedes the rows).
  for (int sort_column = 0; sort_column < 4; ++sort_column) {
    const std::string bytes = SerializeTrojan(GetParam(), sort_column);
    ASSERT_TRUE(OpenTrojanIndex(bytes).ok());
    const size_t rows_offset =
        hadooppp::TrojanBlockView::Open(bytes)->rows_offset();
    for (size_t len = 0; len < rows_offset; ++len) {
      EXPECT_FALSE(OpenTrojanIndex(std::string_view(bytes).substr(0, len)).ok())
          << "silent success at truncation length " << len << " of "
          << rows_offset << " sort_column=" << sort_column;
    }
  }
}

TEST_P(CorruptionPropertyTest, BitFlippedTrojanIndexNeverCrashes) {
  // Every offset under several masks, so the key-type byte, the rows per
  // entry and each byte of both counts also take large values. A flip
  // that still decodes (a key, an offset, or counts that keep the entry
  // count) must re-serialise to the flipped bytes: nothing of the input
  // is ignored.
  for (const std::string& bytes : TrojanIndexBytes(GetParam())) {
    for (size_t i = 0; i < bytes.size(); ++i) {
      for (const int mask : {0x01, 0x10, 0x80}) {
        std::string mutated = bytes;
        mutated[i] = static_cast<char>(mutated[i] ^ mask);
        auto decoded = TrojanIndex::Deserialize(mutated);
        if (!decoded.ok()) continue;
        EXPECT_EQ(decoded->Serialize(), mutated)
            << "offset " << i << " mask " << mask;
        (void)decoded->Lookup(KeyRange{});
      }
    }
  }
  for (int sort_column = 0; sort_column < 4; ++sort_column) {
    const std::string bytes = SerializeTrojan(GetParam(), sort_column);
    for (size_t i = 0; i < bytes.size(); ++i) {
      for (const int mask : {0x01, 0x10, 0x80}) {
        std::string mutated = bytes;
        mutated[i] = static_cast<char>(mutated[i] ^ mask);
        (void)OpenTrojanIndex(mutated);
      }
    }
  }
}

TEST(TrojanIndexCorruptionTest, UnknownTypeBadCountsAndTrailingBytes) {
  ColumnVector keys(FieldType::kInt32);
  std::vector<uint64_t> offsets;
  for (int32_t v = 0; v < 64; ++v) {
    keys.Append(Value(v));
    offsets.push_back(8u * static_cast<uint64_t>(v));
  }
  // 64 records at 8 rows per entry: 8 entries. The header is the magic
  // (bytes 0..3), the key type (4), the rows per entry (5..8), the record
  // count (9..12), the data bytes (13..20) and the entry count (21..24).
  const std::string bytes =
      TrojanIndex::Build(keys, offsets, 512, 8).Serialize();
  ASSERT_TRUE(TrojanIndex::Deserialize(bytes).ok());
  const auto rejected = [](const std::string& mutated) {
    return TrojanIndex::Deserialize(mutated).status().IsCorruption();
  };
  // 0x7F names no key type. It used to decode with 0 entries, and every
  // Lookup then returned rows [0,0).
  std::string mutated = bytes;
  mutated[4] = 0x7F;
  EXPECT_TRUE(rejected(mutated));
  // An entry count the remaining bytes cannot hold: 0xFFFFFFF0 used to
  // reserve 32 GB of offsets before the data ran out.
  mutated = bytes;
  mutated[21] = static_cast<char>(0xF0);
  for (size_t i = 22; i < 25; ++i) mutated[i] = static_cast<char>(0xFF);
  EXPECT_TRUE(rejected(mutated));
  // 7 entries for 64 records ...
  mutated = bytes;
  mutated[21] = 7;
  EXPECT_TRUE(rejected(mutated));
  // ... and 72 records, which need 9 entries, over 8 entries.
  mutated = bytes;
  mutated[9] = 72;
  EXPECT_TRUE(rejected(mutated));
  // Trailing bytes are not silently dropped.
  EXPECT_TRUE(rejected(bytes + '\0'));
}

INSTANTIATE_TEST_SUITE_P(Seeds, CorruptionPropertyTest,
                         ::testing::Values(1u, 2u, 3u));

}  // namespace
}  // namespace hail
