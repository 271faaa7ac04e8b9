#include <gtest/gtest.h>

#include "hail/hail_block.h"
#include "hadooppp/trojan_block.h"
#include "layout/row_binary.h"
#include "planner/block_stats.h"
#include "schema/row_parser.h"
#include "util/crc32c.h"
#include "util/random.h"
#include "workload/uservisits.h"

namespace hail {
namespace {

PaxBlock MakeSortedBlock(int rows, int sort_column, uint64_t seed = 3) {
  workload::UserVisitsConfig cfg;
  cfg.rows = static_cast<uint64_t>(rows);
  cfg.seed = seed;
  PaxBlock block = BuildPaxBlockFromText(
      workload::UserVisitsSchema(), workload::GenerateUserVisitsText(cfg),
      BlockFormatOptions{16});
  block.SortByColumn(sort_column);
  return block;
}

TEST(HailBlockTest, RoundTripWithIndex) {
  PaxBlock block = MakeSortedBlock(300, workload::kVisitDate);
  const ClusteredIndex index =
      ClusteredIndex::Build(block.column(workload::kVisitDate), 16);
  const std::string bytes =
      BuildHailBlock(block, &index, workload::kVisitDate);

  auto view = HailBlockView::Open(bytes);
  ASSERT_TRUE(view.ok());
  EXPECT_TRUE(view->has_index());
  EXPECT_EQ(view->sort_column(), workload::kVisitDate);
  EXPECT_GT(view->index_bytes(), 0u);
  EXPECT_EQ(view->total_bytes(), bytes.size());

  auto back_index = view->ReadIndex();
  ASSERT_TRUE(back_index.ok());
  EXPECT_EQ(back_index->num_records(), 300u);
  EXPECT_EQ(back_index->partition_size(), 16u);

  auto pax = view->OpenPax();
  ASSERT_TRUE(pax.ok());
  EXPECT_EQ(pax->num_records(), 300u);
  // Spot-check row equivalence through the view.
  for (uint32_t r : {0u, 150u, 299u}) {
    auto row = pax->GetRow(r);
    ASSERT_TRUE(row.ok());
    EXPECT_EQ(*row, block.GetRow(r));
  }
}

TEST(HailBlockTest, UnindexedBlock) {
  PaxBlock block = MakeSortedBlock(50, workload::kSourceIP);
  const std::string bytes = BuildHailBlock(block, nullptr, -1);
  auto view = HailBlockView::Open(bytes);
  ASSERT_TRUE(view.ok());
  EXPECT_FALSE(view->has_index());
  EXPECT_EQ(view->sort_column(), -1);
  EXPECT_TRUE(view->ReadIndex().status().IsFailedPrecondition());
  auto pax = view->OpenPax();
  ASSERT_TRUE(pax.ok());
  EXPECT_EQ(pax->num_records(), 50u);
}

TEST(HailBlockTest, IndexLookupFindsSortedRows) {
  PaxBlock block = MakeSortedBlock(500, workload::kVisitDate);
  const ClusteredIndex index =
      ClusteredIndex::Build(block.column(workload::kVisitDate), 16);
  const std::string bytes =
      BuildHailBlock(block, &index, workload::kVisitDate);
  auto view = HailBlockView::Open(bytes);
  ASSERT_TRUE(view.ok());
  auto idx = view->ReadIndex();
  ASSERT_TRUE(idx.ok());
  auto pax = view->OpenPax();
  ASSERT_TRUE(pax.ok());

  const int32_t lo = *ParseDateToDays("1995-01-01");
  const int32_t hi = *ParseDateToDays("1997-01-01");
  const RowRange range = idx->Lookup(KeyRange::Between(Value(lo), Value(hi)));
  // Every qualifying row must be inside the returned range.
  for (uint32_t r = 0; r < pax->num_records(); ++r) {
    const int32_t day = pax->GetFixedValue(workload::kVisitDate, r)->as_int32();
    if (day >= lo && day <= hi) {
      EXPECT_GE(r, range.begin);
      EXPECT_LT(r, range.end);
    }
  }
}

TEST(HailBlockTest, CorruptionDetected) {
  PaxBlock block = MakeSortedBlock(20, workload::kVisitDate);
  const ClusteredIndex index =
      ClusteredIndex::Build(block.column(workload::kVisitDate), 16);
  std::string bytes = BuildHailBlock(block, &index, workload::kVisitDate);
  EXPECT_TRUE(HailBlockView::Open(bytes.substr(0, 8)).status().IsCorruption());
  std::string bad_magic = bytes;
  bad_magic[0] ^= 0xff;
  EXPECT_TRUE(HailBlockView::Open(bad_magic).status().IsCorruption());
  // Truncating the PAX payload breaks the embedded open.
  auto view = HailBlockView::Open(
      std::string_view(bytes).substr(0, bytes.size() - 16));
  if (view.ok()) {
    EXPECT_FALSE(view->OpenPax().ok());
  }
}

// ---------------------------------------------------------------------------
// Sorted replicas and stats sidecars of shapes the upload goldens miss
// ---------------------------------------------------------------------------

/// A block whose columns take every minipage path of both formats:
/// an int key drawn wide (FOR or plain), an int of ten values that v3
/// stores as FOR in arrival order and as RLE once sorted by itself,
/// all-distinct URLs (plain above partition 1 in v3, dictionary at 1), a
/// small string pool with empty strings mixed in, an all-empty string
/// column, a double in runs of eight, an int64 and a date; one row in
/// eleven is also a bad record.
PaxBlock MakePinBlock(uint32_t rows, BlockFormatOptions options) {
  const Schema schema({{"k", FieldType::kInt32},
                       {"flip", FieldType::kInt32},
                       {"url", FieldType::kString},
                       {"cat", FieldType::kString},
                       {"blank", FieldType::kString},
                       {"rev", FieldType::kDouble},
                       {"big", FieldType::kInt64},
                       {"day", FieldType::kDate}});
  PaxBlock block(schema, options);
  Random rng(rows * 31 + 7);
  static const char* kCats[] = {"", "alpha", "beta", "gamma-long-value", ""};
  double rev = 0.0;
  for (uint32_t r = 0; r < rows; ++r) {
    if (r % 8 == 0) rev = static_cast<double>(rng.Uniform(1000)) / 8.0;
    block.AppendRow(
        {Value(static_cast<int32_t>(rng.UniformRange(-100000, 100000))),
         Value(static_cast<int32_t>(rng.Uniform(10))),
         Value("http://www.example-shop.com/item?id=" + std::to_string(r) +
               "-" + rng.NextString(rng.Uniform(6))),
         Value(std::string(kCats[rng.Uniform(5)])), Value(std::string()),
         Value(rev), Value(static_cast<int64_t>(rng.NextU64() >> 20)),
         Value(static_cast<int32_t>(rng.UniformRange(9000, 9400)))});
    if (r % 11 == 5) block.AppendBadRecord("bad|row|" + std::to_string(r));
  }
  return block;
}

/// CRC32C over the sorted replica of every column and of -1 (bytes and
/// index_bytes), then the stats sidecar.
uint32_t ReplicaAndStatsDigest(const PaxBlock& block, uint32_t part) {
  uint32_t crc = 0;
  for (int c = -1; c < block.num_columns(); ++c) {
    const SortedReplica replica = BuildSortedReplica(block, c, part);
    crc = crc32c::Extend(crc, replica.bytes.data(), replica.bytes.size());
    crc = crc32c::Extend(crc, &replica.index_bytes, sizeof(uint64_t));
  }
  const std::string stats = planner::BlockStats::Build(block).Serialize();
  return crc32c::Extend(crc, stats.data(), stats.size());
}

TEST(SortedReplicaPinTest, ShapesOutsideTheGoldens) {
  // The v3 shapes the digests below cover: "flip" is FOR in arrival
  // order and RLE sorted by itself, and the URLs are a dictionary at
  // partition 1 but fall back to plain at 64.
  const auto encoding = [](uint32_t part, int sort_column, int column) {
    BlockFormatOptions options;
    options.varlen_partition_size = part;
    options.enable_encoding = true;
    const SortedReplica replica =
        BuildSortedReplica(MakePinBlock(300, options), sort_column, part);
    auto view = HailBlockView::Open(replica.bytes);
    EXPECT_TRUE(view.ok());
    auto pax = view->OpenPax();
    EXPECT_TRUE(pax.ok());
    if (!pax.ok()) return MiniPageEncoding::kPlain;
    auto reader = pax->OpenColumn(column);
    EXPECT_TRUE(reader.ok());
    return reader.ok() ? reader->encoding() : MiniPageEncoding::kPlain;
  };
  EXPECT_EQ(encoding(64, -1, 1), MiniPageEncoding::kFor);
  EXPECT_EQ(encoding(64, 1, 1), MiniPageEncoding::kRle);
  EXPECT_EQ(encoding(1, -1, 2), MiniPageEncoding::kDict);
  EXPECT_EQ(encoding(64, -1, 2), MiniPageEncoding::kPlain);
  EXPECT_EQ(encoding(64, 0, 2), MiniPageEncoding::kPlain);
  EXPECT_EQ(encoding(64, -1, 3), MiniPageEncoding::kDict);

  struct Case {
    uint32_t rows;
    bool only_bad;  // no good rows, bad records only
  };
  // 300 rows, one row, an empty block, a block of bad records only.
  const Case cases[] = {{300, false}, {1, false}, {0, false}, {3, true}};
  // One digest per case, format (v1, v3) and partition (1, 3, 64).
  const uint32_t kPinned[4][2][3] = {
      {{0xd33ed830u, 0xa2502900u, 0x00cde2b2u}, {0x6bbba619u, 0xde68e30bu, 0xe0628096u}},
      {{0xc0d54b3bu, 0x4380d1abu, 0xb50bbb63u}, {0x34fd3ee7u, 0x52cc3cc8u, 0x7be1ad24u}},
      {{0x1047b7ecu, 0x925b9c25u, 0xcefd8f40u}, {0x1bb7433au, 0x246633c5u, 0x65029f0au}},
      {{0xd570616bu, 0x357f2884u, 0x407dc058u}, {0xf1c14b08u, 0x442b2d9fu, 0xd620c8edu}},
  };
  for (size_t i = 0; i < std::size(cases); ++i) {
    for (const bool encoded : {false, true}) {
      const uint32_t parts[] = {1, 3, 64};
      for (size_t p = 0; p < std::size(parts); ++p) {
        BlockFormatOptions options;
        options.varlen_partition_size = parts[p];
        options.enable_encoding = encoded;
        PaxBlock block = MakePinBlock(cases[i].only_bad ? 0 : cases[i].rows,
                                      options);
        if (cases[i].only_bad) {
          for (uint32_t b = 0; b < cases[i].rows; ++b) {
            block.AppendBadRecord(b == 1 ? "" : "only|bad");
          }
        }
        EXPECT_EQ(ReplicaAndStatsDigest(block, parts[p]),
                  kPinned[i][encoded][p])
            << "case " << i << " encoded " << encoded << " partition "
            << parts[p];
      }
    }
  }
}

TEST(SortedReplicaPinTest, SharedDictionariesChangeNoByte) {
  // The upload runs each string column's dictionary pass once per block
  // and hands it to every replica and to the stats sidecar: replicas
  // must equal the ones built without it. A v3 block's sidecar, with the
  // pass handed in or run by Build, summarises its dictionary columns
  // from the dictionaries; it must equal the sidecar of the same rows in
  // a v1 block, where every column is sorted, for every histogram size,
  // including more buckets than rows.
  for (const uint32_t rows : {300u, 1u, 0u}) {
    for (const uint32_t part : {1u, 3u, 64u}) {
      BlockFormatOptions options;
      options.varlen_partition_size = part;
      options.enable_encoding = true;
      const PaxBlock block = MakePinBlock(rows, options);
      const BlockDictionaries dictionaries = block.BuildDictionaries();
      for (int c = -1; c < block.num_columns(); ++c) {
        EXPECT_EQ(BuildSortedReplica(block, c, part, &dictionaries).bytes,
                  BuildSortedReplica(block, c, part).bytes)
            << rows << " rows, partition " << part << ", column " << c;
      }
      options.enable_encoding = false;
      const PaxBlock plain = MakePinBlock(rows, options);
      for (const uint32_t buckets : {1u, 7u, 16u, 1000u}) {
        const std::string sorted =
            planner::BlockStats::Build(plain, nullptr, buckets).Serialize();
        EXPECT_EQ(planner::BlockStats::Build(block, &dictionaries, buckets)
                      .Serialize(),
                  sorted)
            << rows << " rows, partition " << part << ", " << buckets
            << " buckets";
        EXPECT_EQ(
            planner::BlockStats::Build(block, nullptr, buckets).Serialize(),
            sorted)
            << rows << " rows, partition " << part << ", " << buckets
            << " buckets";
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Dictionaries a decoded v3 block received, and replicas sorted by code
// ---------------------------------------------------------------------------

/// \p got and \p want give the same columns a dictionary, with the same
/// entries, value bytes and codes.
void ExpectSameDictionaries(const BlockDictionaries& got,
                            const BlockDictionaries& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t c = 0; c < want.size(); ++c) {
    ASSERT_EQ(got[c].has_value(), want[c].has_value()) << "column " << c;
    if (!want[c].has_value()) continue;
    EXPECT_EQ(got[c]->values, want[c]->values) << "column " << c;
    EXPECT_EQ(got[c]->value_bytes, want[c]->value_bytes) << "column " << c;
    EXPECT_EQ(got[c]->codes, want[c]->codes) << "column " << c;
  }
}

/// k: narrow range, tag: four values (a dictionary), run: long runs,
/// rev: random doubles.
PaxBlock EncodableBlock(int rows, uint64_t seed, uint32_t part) {
  const Schema schema({{"k", FieldType::kInt32},
                       {"tag", FieldType::kString},
                       {"run", FieldType::kInt32},
                       {"rev", FieldType::kDouble}});
  Random rng(seed);
  static const char* kTags[] = {"de", "fr", "jp", "us"};
  std::string text;
  for (int i = 0; i < rows; ++i) {
    text += std::to_string(rng.UniformRange(100, 300)) + "," +
            kTags[rng.Uniform(4)] + "," + std::to_string(i / 50) + "," +
            std::to_string(static_cast<double>(rng.Uniform(100000)) / 100.0) +
            "\n";
  }
  BlockFormatOptions options;
  options.varlen_partition_size = part;
  options.enable_encoding = true;
  return BuildPaxBlockFromText(schema, text, options);
}

PaxBlock UserVisitsBlock(int rows, uint64_t seed, uint32_t part) {
  workload::UserVisitsConfig cfg;
  cfg.rows = static_cast<uint64_t>(rows);
  cfg.seed = seed;
  BlockFormatOptions options;
  options.varlen_partition_size = part;
  options.enable_encoding = true;
  return BuildPaxBlockFromText(workload::UserVisitsSchema(),
                               workload::GenerateUserVisitsText(cfg), options);
}

/// The values of string column \p c, in row order.
std::vector<std::string> StringValues(const PaxBlock& block, int c) {
  std::vector<std::string> out;
  for (uint32_t r = 0; r < block.num_records(); ++r) {
    out.push_back(block.column(c).GetValue(r).as_string());
  }
  return out;
}

/// A v3 dictionary with entries \p entries (sorted, distinct, viewing
/// strings that outlive it) and each row of \p values coded by its entry.
StringDictionary DictionaryOver(const std::vector<std::string>& entries,
                                const std::vector<std::string>& values) {
  StringDictionary dict;
  for (const std::string& e : entries) {
    dict.values.push_back(e);
    dict.value_bytes += e.size() + 1;
  }
  for (const std::string& v : values) {
    dict.codes.push_back(static_cast<uint32_t>(
        std::lower_bound(entries.begin(), entries.end(), v) -
        entries.begin()));
  }
  return dict;
}

/// Every sorted replica (and the arrival-order one) of \p decoded, built
/// from its BuildDictionaries as the upload does, equals the replica of
/// \p canonical, which holds the same rows.
void ExpectSameReplicas(const PaxBlock& decoded, const PaxBlock& canonical,
                        uint32_t part) {
  const BlockDictionaries got = decoded.BuildDictionaries();
  const BlockDictionaries want = canonical.BuildDictionaries();
  for (int c = -1; c < decoded.num_columns(); ++c) {
    EXPECT_EQ(BuildSortedReplica(decoded, c, part, &got).bytes,
              BuildSortedReplica(canonical, c, part, &want).bytes)
        << "sort column " << c;
  }
}

TEST(ReceivedDictionaryTest, RoundTripGivesThePassesDictionaries) {
  for (const uint32_t part : {1u, 64u}) {
    for (const uint64_t seed : {1u, 2u, 3u}) {
      for (const PaxBlock& block :
           {UserVisitsBlock(300, seed, part), EncodableBlock(400, seed, part),
            UserVisitsBlock(1, seed, part)}) {
        auto decoded = PaxBlock::Deserialize(block.Serialize());
        ASSERT_TRUE(decoded.ok());
        SCOPED_TRACE(testing::Message() << "partition " << part << " seed "
                                        << seed << " rows "
                                        << block.num_records());
        ExpectSameDictionaries(decoded->BuildDictionaries(),
                               block.BuildDictionaries());
      }
    }
  }
}

TEST(ReceivedDictionaryTest, UnusedEntryRunsThePass) {
  for (const uint32_t part : {1u, 64u}) {
    const PaxBlock block = UserVisitsBlock(300, 5, part);
    const BlockDictionaries canonical = block.BuildDictionaries();
    // countryCode is a dictionary of ten values at every partition size;
    // the doctored one has an eleventh, sorted in, that no row uses.
    const int c = workload::kCountryCode;
    ASSERT_TRUE(canonical[c].has_value());
    std::vector<std::string> entries(canonical[c]->values.begin(),
                                     canonical[c]->values.end());
    ASSERT_FALSE(std::binary_search(entries.begin(), entries.end(), "NLD"));
    entries.insert(std::lower_bound(entries.begin(), entries.end(), "NLD"),
                   "NLD");
    BlockDictionaries doctored = canonical;
    doctored[c] = DictionaryOver(entries, StringValues(block, c));
    const std::string bytes = block.Serialize(nullptr, &doctored);
    ASSERT_NE(bytes, block.Serialize());

    auto decoded = PaxBlock::Deserialize(bytes);
    ASSERT_TRUE(decoded.ok());
    SCOPED_TRACE(testing::Message() << "partition " << part);
    ExpectSameDictionaries(decoded->BuildDictionaries(), canonical);
    ExpectSameReplicas(*decoded, block, part);
  }
}

TEST(ReceivedDictionaryTest, DictionaryLargerThanPlainIsNotKept) {
  // destURL is all distinct, so the pass gives up and stores it plain;
  // the doctored block stores it as a dictionary of every value anyway.
  const uint32_t part = 64;
  const PaxBlock block = UserVisitsBlock(300, 6, part);
  const BlockDictionaries canonical = block.BuildDictionaries();
  const int c = workload::kDestURL;
  ASSERT_FALSE(canonical[c].has_value());
  const std::vector<std::string> values = StringValues(block, c);
  std::vector<std::string> entries = values;
  std::sort(entries.begin(), entries.end());
  entries.erase(std::unique(entries.begin(), entries.end()), entries.end());
  BlockDictionaries doctored = canonical;
  doctored[c] = DictionaryOver(entries, values);
  const std::string bytes = block.Serialize(nullptr, &doctored);
  auto stored = PaxBlockView::Open(bytes);
  ASSERT_TRUE(stored.ok());
  ASSERT_EQ(stored->OpenColumn(c)->encoding(), MiniPageEncoding::kDict);

  auto decoded = PaxBlock::Deserialize(bytes);
  ASSERT_TRUE(decoded.ok());
  const BlockDictionaries got = decoded->BuildDictionaries();
  EXPECT_FALSE(got[c].has_value());
  ExpectSameDictionaries(got, canonical);
  ExpectSameReplicas(*decoded, block, part);
  const SortedReplica replica =
      BuildSortedReplica(*decoded, workload::kVisitDate, part, &got);
  auto view = HailBlockView::Open(replica.bytes);
  ASSERT_TRUE(view.ok());
  auto pax = view->OpenPax();
  ASSERT_TRUE(pax.ok());
  EXPECT_EQ(pax->OpenColumn(c)->encoding(), MiniPageEncoding::kPlain);
}

TEST(ReceivedDictionaryTest, ReorderedOrAppendedRowsGetTheirOwnCodes) {
  for (const uint32_t part : {1u, 64u}) {
    SCOPED_TRACE(testing::Message() << "partition " << part);
    const PaxBlock block = UserVisitsBlock(300, 7, part);
    const std::string bytes = block.Serialize();

    auto sorted = PaxBlock::Deserialize(bytes);
    ASSERT_TRUE(sorted.ok());
    sorted->SortByColumn(workload::kAdRevenue);
    PaxBlock want_sorted = block;
    want_sorted.SortByColumn(workload::kAdRevenue);
    ExpectSameDictionaries(sorted->BuildDictionaries(),
                           want_sorted.BuildDictionaries());

    auto appended = PaxBlock::Deserialize(bytes);
    ASSERT_TRUE(appended.ok());
    PaxBlock want_appended = block;
    for (const uint32_t r : {17u, 0u}) {
      appended->AppendRow(block.GetRow(r));
      want_appended.AppendRow(block.GetRow(r));
    }
    ExpectSameDictionaries(appended->BuildDictionaries(),
                           want_appended.BuildDictionaries());

    // Reversing every column through mutable_columns() reorders rows too.
    auto reversed = PaxBlock::Deserialize(bytes);
    ASSERT_TRUE(reversed.ok());
    std::vector<uint32_t> reverse(block.num_records());
    for (uint32_t r = 0; r < block.num_records(); ++r) {
      reverse[r] = block.num_records() - 1 - r;
    }
    for (ColumnVector& col : reversed->mutable_columns()) {
      col.ApplyPermutation(reverse);
    }
    PaxBlock want_reversed = block;
    for (ColumnVector& col : want_reversed.mutable_columns()) {
      col.ApplyPermutation(reverse);
    }
    ExpectSameDictionaries(reversed->BuildDictionaries(),
                           want_reversed.BuildDictionaries());
  }
}

TEST(SortedReplicaTest, StringKeysSortLikeArgSortColumn) {
  // Keys from a small alphabet with a byte >= 0x80 and empty strings, so
  // keys repeat and sort as unsigned bytes; "id" tells rows with equal
  // keys apart, so the sort must be stable.
  const Schema schema({{"key", FieldType::kString},
                       {"id", FieldType::kInt32},
                       {"other", FieldType::kString}});
  static const char kAlphabet[] = {'a', 'b', 'Z', '\x7f', '\x80', '\xe9',
                                   '\xff'};
  Random rng(424242);
  for (int trial = 0; trial < 60; ++trial) {
    std::vector<std::string> pool(1 + rng.Uniform(trial < 30 ? 12 : 400));
    for (std::string& s : pool) {
      for (uint64_t i = rng.Uniform(5); i > 0; --i) {
        s += kAlphabet[rng.Uniform(std::size(kAlphabet))];
      }
    }
    const uint32_t rows = static_cast<uint32_t>(rng.Uniform(300));
    for (const bool encoded : {false, true}) {
      for (const uint32_t part : {1u, 64u}) {
        PaxBlock block(schema, BlockFormatOptions{part, encoded});
        for (uint32_t r = 0; r < rows; ++r) {
          block.AppendRow({Value(pool[rng.Uniform(pool.size())]),
                           Value(static_cast<int32_t>(r)),
                           Value(pool[rng.Uniform(pool.size())])});
        }
        const BlockDictionaries dictionaries = block.BuildDictionaries();
        for (const int key : {0, 2}) {
          const SortedReplica replica =
              BuildSortedReplica(block, key, part, &dictionaries);
          auto view = HailBlockView::Open(replica.bytes);
          ASSERT_TRUE(view.ok());
          PaxBlock sorted = block;
          sorted.SortByColumn(key);
          EXPECT_EQ(view->pax_section(), sorted.Serialize())
              << "trial " << trial << " encoded " << encoded << " partition "
              << part << " key " << key;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Trojan block (Hadoop++ physical format)
// ---------------------------------------------------------------------------

TEST(TrojanBlockTest, RoundTripWithIndex) {
  const Schema schema = workload::UserVisitsSchema();
  workload::UserVisitsConfig cfg;
  cfg.rows = 200;
  RowParser parser(schema);
  const std::string text = workload::GenerateUserVisitsText(cfg);
  std::vector<std::vector<Value>> rows;
  for (std::string_view row : SplitRows(text)) {
    if (row.empty()) continue;
    rows.push_back(parser.Parse(row).values);
  }
  const int col = workload::kDuration;
  std::stable_sort(rows.begin(), rows.end(),
                   [col](const auto& a, const auto& b) {
                     return a[col] < b[col];
                   });
  RowBinaryBlockBuilder builder(schema);
  ColumnVector keys(FieldType::kInt32);
  for (const auto& row : rows) {
    keys.Append(row[col]);
    builder.AddRow(row);
  }
  const auto offsets = builder.row_offsets();
  const uint64_t data_bytes = builder.data_bytes();
  const TrojanIndex index = TrojanIndex::Build(keys, offsets, data_bytes, 8);
  const std::string bytes =
      hadooppp::BuildTrojanBlock(builder.Finish(), &index, col);

  auto view = hadooppp::TrojanBlockView::Open(bytes);
  ASSERT_TRUE(view.ok());
  EXPECT_TRUE(view->has_index());
  EXPECT_EQ(view->sort_column(), col);
  auto rows_view = view->OpenRows();
  ASSERT_TRUE(rows_view.ok());
  EXPECT_EQ(rows_view->num_records(), 200u);

  // Index scan through the view returns exactly the qualifying rows.
  auto idx = view->ReadIndex();
  ASSERT_TRUE(idx.ok());
  const auto hit =
      idx->Lookup(KeyRange::Between(Value(int32_t{1000}), Value(int32_t{5000})));
  uint64_t pos = rows_view->data_start() + hit.bytes.begin;
  uint32_t found = 0;
  for (uint32_t r = hit.first_row; r < hit.end_row; ++r) {
    auto row = rows_view->DecodeRowAt(&pos);
    ASSERT_TRUE(row.ok());
    const int32_t v = (*row)[col].as_int32();
    if (v >= 1000 && v <= 5000) ++found;
  }
  uint32_t expected = 0;
  for (const auto& row : rows) {
    const int32_t v = row[col].as_int32();
    if (v >= 1000 && v <= 5000) ++expected;
  }
  EXPECT_EQ(found, expected);
  EXPECT_GT(found, 0u);
}

TEST(TrojanBlockTest, CorruptionDetected) {
  RowBinaryBlockBuilder builder(workload::UserVisitsSchema());
  std::string bytes = hadooppp::BuildTrojanBlock(builder.Finish(), nullptr, -1);
  bytes[1] ^= 0x80;
  EXPECT_TRUE(hadooppp::TrojanBlockView::Open(bytes).status().IsCorruption());
}

}  // namespace
}  // namespace hail
