#include <gtest/gtest.h>

#include <set>

#include "index/clustered_index.h"
#include "index/key_search.h"
#include "index/trojan_index.h"
#include "index/unclustered_index.h"
#include "util/crc32c.h"
#include "util/random.h"

namespace hail {
namespace {

ColumnVector SortedInts(int n, uint64_t seed, int32_t max_value = 10000) {
  Random rng(seed);
  std::vector<int32_t> v;
  v.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    v.push_back(static_cast<int32_t>(rng.Uniform(
        static_cast<uint64_t>(max_value))));
  }
  std::sort(v.begin(), v.end());
  ColumnVector col(FieldType::kInt32);
  for (int32_t x : v) col.Append(Value(x));
  return col;
}

/// Reference: exact row range of keys in [lo, hi] on the sorted column.
std::pair<uint32_t, uint32_t> NaiveRange(const ColumnVector& col,
                                         const KeyRange& range) {
  uint32_t begin = 0;
  uint32_t end = static_cast<uint32_t>(col.size());
  const auto& v = col.i32();
  if (range.lo.has_value()) {
    begin = static_cast<uint32_t>(
        std::lower_bound(v.begin(), v.end(), range.lo->as_int32()) -
        v.begin());
  }
  if (range.hi.has_value()) {
    end = static_cast<uint32_t>(
        std::upper_bound(v.begin(), v.end(), range.hi->as_int32()) -
        v.begin());
  }
  if (begin > end) begin = end;
  return {begin, end};
}

TEST(ClusteredIndexTest, RootDirectoryGeometry) {
  const ColumnVector col = SortedInts(1000, 1);
  const ClusteredIndex index = ClusteredIndex::Build(col, 64);
  EXPECT_EQ(index.num_records(), 1000u);
  EXPECT_EQ(index.num_partitions(), 16u);  // ceil(1000/64)
  EXPECT_EQ(index.partition_size(), 64u);
}

TEST(ClusteredIndexTest, LookupCoversNaiveRange) {
  const ColumnVector col = SortedInts(5000, 2);
  const ClusteredIndex index = ClusteredIndex::Build(col, 128);
  Random rng(3);
  for (int trial = 0; trial < 300; ++trial) {
    int32_t a = static_cast<int32_t>(rng.Uniform(10000));
    int32_t b = static_cast<int32_t>(rng.Uniform(10000));
    if (a > b) std::swap(a, b);
    const KeyRange kr = KeyRange::Between(Value(a), Value(b));
    const RowRange got = index.Lookup(kr);
    const auto [nb, ne] = NaiveRange(col, kr);
    if (nb == ne) continue;  // empty true range: any conservative answer ok
    // Every qualifying row is inside the returned partition-aligned range.
    EXPECT_LE(got.begin, nb) << "lo=" << a << " hi=" << b;
    EXPECT_GE(got.end, ne) << "lo=" << a << " hi=" << b;
    // Conservatism is bounded by one partition on each side.
    EXPECT_LE(nb - got.begin, 2u * index.partition_size());
    EXPECT_LE(got.end - ne, 2u * index.partition_size());
  }
}

TEST(ClusteredIndexTest, EqualityOnDuplicateKeys) {
  // Keys with heavy duplication across partition boundaries.
  ColumnVector col(FieldType::kInt32);
  for (int i = 0; i < 300; ++i) col.Append(Value(int32_t{i / 100}));
  const ClusteredIndex index = ClusteredIndex::Build(col, 64);
  const RowRange r = index.Lookup(KeyRange::Equal(Value(int32_t{1})));
  // Rows 100..199 hold value 1; all must be covered.
  EXPECT_LE(r.begin, 100u);
  EXPECT_GE(r.end, 200u);
}

TEST(ClusteredIndexTest, OpenEndedRanges) {
  const ColumnVector col = SortedInts(1000, 4);
  const ClusteredIndex index = ClusteredIndex::Build(col, 32);
  const RowRange all = index.Lookup(KeyRange::All());
  EXPECT_EQ(all.begin, 0u);
  EXPECT_EQ(all.end, 1000u);
  const RowRange below = index.Lookup(KeyRange::AtMost(Value(int32_t{-1})));
  EXPECT_TRUE(below.empty());
  const RowRange above = index.Lookup(KeyRange::AtLeast(Value(int32_t{999999})));
  // Conservative: at most the final partition.
  EXPECT_LE(all.end - above.begin, 2u * 32u);
}

TEST(ClusteredIndexTest, EmptyIndex) {
  ColumnVector col(FieldType::kInt32);
  const ClusteredIndex index = ClusteredIndex::Build(col, 16);
  EXPECT_TRUE(index.Lookup(KeyRange::All()).empty());
}

TEST(ClusteredIndexTest, SerializeRoundTrip) {
  const ColumnVector col = SortedInts(777, 5);
  const ClusteredIndex index = ClusteredIndex::Build(col, 50);
  const std::string bytes = index.Serialize();
  EXPECT_EQ(bytes.size(), index.SerializedBytes());
  auto back = ClusteredIndex::Deserialize(bytes);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->num_partitions(), index.num_partitions());
  EXPECT_EQ(back->partition_size(), index.partition_size());
  // Lookups agree.
  const KeyRange kr = KeyRange::Between(Value(int32_t{100}), Value(int32_t{5000}));
  EXPECT_EQ(back->Lookup(kr).begin, index.Lookup(kr).begin);
  EXPECT_EQ(back->Lookup(kr).end, index.Lookup(kr).end);
}

TEST(ClusteredIndexTest, StringKeys) {
  ColumnVector col(FieldType::kString);
  std::vector<std::string> keys;
  Random rng(6);
  for (int i = 0; i < 500; ++i) keys.push_back(rng.NextString(8));
  std::sort(keys.begin(), keys.end());
  for (const auto& k : keys) col.Append(Value(k));
  const ClusteredIndex index = ClusteredIndex::Build(col, 32);
  // Probe with existing keys: the owning partition must be covered.
  for (int probe : {0, 123, 250, 499}) {
    const RowRange r = index.Lookup(
        KeyRange::Equal(Value(keys[static_cast<size_t>(probe)])));
    EXPECT_LE(r.begin, static_cast<uint32_t>(probe));
    EXPECT_GT(r.end, static_cast<uint32_t>(probe));
  }
  // Round trip preserves string keys.
  auto back = ClusteredIndex::Deserialize(index.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->Lookup(KeyRange::Equal(Value(keys[250]))).begin,
            index.Lookup(KeyRange::Equal(Value(keys[250]))).begin);
}

TEST(ClusteredIndexTest, IndexIsSparse) {
  // §3.5: the root is ~0.01% of the data; dense structures are 10-20%.
  const ColumnVector col = SortedInts(100000, 7);
  const ClusteredIndex index = ClusteredIndex::Build(col, 1024);
  const uint64_t data_bytes = col.SerializedValueBytes();
  EXPECT_LT(index.SerializedBytes(), data_bytes / 100);
}

// ---------------------------------------------------------------------------
// Trojan index
// ---------------------------------------------------------------------------

TEST(TrojanIndexTest, LookupReturnsByteRange) {
  ColumnVector col(FieldType::kInt32);
  std::vector<uint64_t> offsets;
  // 100 sorted keys, rows of 10 bytes each.
  for (int i = 0; i < 100; ++i) {
    col.Append(Value(int32_t{i * 2}));
    offsets.push_back(static_cast<uint64_t>(i) * 10);
  }
  const TrojanIndex index = TrojanIndex::Build(col, offsets, 1000, 8);
  EXPECT_EQ(index.num_entries(), 13u);  // ceil(100/8)

  const auto hit = index.Lookup(KeyRange::Between(Value(int32_t{40}),
                                                  Value(int32_t{60})));
  // Rows 20..30 qualify; entries are 8-row aligned: rows 16..32.
  EXPECT_LE(hit.first_row, 20u);
  EXPECT_GE(hit.end_row, 31u);
  EXPECT_EQ(hit.bytes.begin, hit.first_row * 10u);
  EXPECT_EQ(hit.bytes.end, hit.end_row * 10u);
}

TEST(TrojanIndexTest, SerializeRoundTrip) {
  ColumnVector col(FieldType::kInt32);
  std::vector<uint64_t> offsets;
  for (int i = 0; i < 64; ++i) {
    col.Append(Value(int32_t{i}));
    offsets.push_back(static_cast<uint64_t>(i) * 7);
  }
  const TrojanIndex index = TrojanIndex::Build(col, offsets, 64 * 7, 4);
  auto back = TrojanIndex::Deserialize(index.Serialize());
  ASSERT_TRUE(back.ok());
  const KeyRange kr = KeyRange::Equal(Value(int32_t{33}));
  EXPECT_EQ(back->Lookup(kr).bytes.begin, index.Lookup(kr).bytes.begin);
  EXPECT_EQ(back->Lookup(kr).bytes.end, index.Lookup(kr).bytes.end);
}

TEST(TrojanIndexTest, DenserThanClustered) {
  // The paper reports 304 KB (trojan) vs 2 KB (HAIL) for the same block.
  const ColumnVector col = SortedInts(100000, 10);
  std::vector<uint64_t> offsets(100000);
  for (size_t i = 0; i < offsets.size(); ++i) offsets[i] = i * 150;
  const TrojanIndex trojan = TrojanIndex::Build(col, offsets, 15000000, 8);
  const ClusteredIndex clustered = ClusteredIndex::Build(col, 1024);
  EXPECT_GT(trojan.SerializedBytes(), 50 * clustered.SerializedBytes());
}

// ---------------------------------------------------------------------------
// Unclustered index (ablation)
// ---------------------------------------------------------------------------

TEST(UnclusteredIndexTest, FindsExactRowIds) {
  ColumnVector col(FieldType::kInt32);
  // Unsorted data.
  const std::vector<int32_t> data = {5, 1, 9, 1, 7, 3, 1, 9};
  for (int32_t v : data) col.Append(Value(v));
  const UnclusteredIndex index = UnclusteredIndex::Build(col);
  auto hits = index.Lookup(KeyRange::Equal(Value(int32_t{1})));
  std::set<uint32_t> got(hits.begin(), hits.end());
  EXPECT_EQ(got, (std::set<uint32_t>{1, 3, 6}));
  hits = index.Lookup(KeyRange::Between(Value(int32_t{5}), Value(int32_t{9})));
  got = std::set<uint32_t>(hits.begin(), hits.end());
  EXPECT_EQ(got, (std::set<uint32_t>{0, 2, 4, 7}));
}

TEST(UnclusteredIndexTest, DenseSizeMatchesPaperClaim) {
  // "Unclustered indexes are dense by definition ... about 10% to 20%
  // over the data block size" (§3.5, footnote 4).
  ColumnVector col(FieldType::kInt32);
  Random rng(11);
  for (int i = 0; i < 50000; ++i) {
    col.Append(Value(static_cast<int32_t>(rng.Uniform(1000000))));
  }
  const UnclusteredIndex index = UnclusteredIndex::Build(col);
  // The key column is 4B/row out of a ~40B row; the index stores key+rowid
  // = 8B/row, i.e. ~20% of a 40B-row block.
  const uint64_t block_bytes = 50000ull * 40;
  const double overhead = static_cast<double>(index.SerializedBytes()) /
                          static_cast<double>(block_bytes);
  EXPECT_GT(overhead, 0.10);
  EXPECT_LT(overhead, 0.25);
}

TEST(UnclusteredIndexTest, SerializeRoundTrip) {
  ColumnVector col(FieldType::kInt32);
  for (int32_t v : {4, 2, 8, 6}) col.Append(Value(v));
  const UnclusteredIndex index = UnclusteredIndex::Build(col);
  auto back = UnclusteredIndex::Deserialize(index.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->Lookup(KeyRange::Equal(Value(int32_t{6}))),
            index.Lookup(KeyRange::Equal(Value(int32_t{6}))));
}

TEST(UnclusteredIndexTest, AgreesWithNaiveScanAcrossRangeShapes) {
  Random rng(21);
  ColumnVector col(FieldType::kInt32);
  std::vector<int32_t> data;
  for (int i = 0; i < 2000; ++i) {
    data.push_back(static_cast<int32_t>(rng.Uniform(50)));  // many dupes
    col.Append(Value(data.back()));
  }
  const UnclusteredIndex index = UnclusteredIndex::Build(col);
  const auto naive = [&](const KeyRange& range) {
    std::set<uint32_t> out;
    for (uint32_t r = 0; r < data.size(); ++r) {
      const int32_t v = data[r];
      if (range.lo.has_value() && v < range.lo->as_int32()) continue;
      if (range.hi.has_value() && v > range.hi->as_int32()) continue;
      out.insert(r);
    }
    return out;
  };
  const KeyRange shapes[] = {
      KeyRange::All(),
      KeyRange::Equal(Value(int32_t{7})),
      KeyRange::AtLeast(Value(int32_t{44})),
      KeyRange::AtMost(Value(int32_t{3})),
      KeyRange::Between(Value(int32_t{10}), Value(int32_t{20})),
      KeyRange::Equal(Value(int32_t{99})),  // no hits
  };
  for (const KeyRange& range : shapes) {
    const std::vector<uint32_t> hits = index.Lookup(range);
    EXPECT_EQ(std::set<uint32_t>(hits.begin(), hits.end()), naive(range));
  }
}

TEST(UnclusteredIndexTest, StringKeysRoundTripAndLookup) {
  ColumnVector col(FieldType::kString);
  const std::vector<std::string> words = {"delta", "alpha", "echo", "alpha",
                                          "charlie"};
  for (const auto& w : words) col.Append(Value(w));
  const UnclusteredIndex index = UnclusteredIndex::Build(col);
  const std::string bytes = index.Serialize();
  EXPECT_EQ(bytes.size(), index.SerializedBytes());
  auto back = UnclusteredIndex::Deserialize(bytes);
  ASSERT_TRUE(back.ok());
  auto hits = back->Lookup(KeyRange::Equal(Value(std::string("alpha"))));
  EXPECT_EQ(std::set<uint32_t>(hits.begin(), hits.end()),
            (std::set<uint32_t>{1, 3}));
  hits = back->Lookup(KeyRange::Between(Value(std::string("b")),
                                        Value(std::string("e"))));
  EXPECT_EQ(std::set<uint32_t>(hits.begin(), hits.end()),
            (std::set<uint32_t>{0, 4}));
}

TEST(UnclusteredIndexTest, SerializedBytesMatchesAllTypes) {
  // SerializedBytes is used for Dir_rep accounting; it must equal the
  // actual encoding for every key type.
  {
    ColumnVector col(FieldType::kInt64);
    for (int64_t v : {int64_t{1} << 40, int64_t{-5}, int64_t{0}}) {
      col.Append(Value(v));
    }
    const UnclusteredIndex index = UnclusteredIndex::Build(col);
    EXPECT_EQ(index.Serialize().size(), index.SerializedBytes());
  }
  {
    ColumnVector col(FieldType::kDouble);
    for (double v : {3.25, -1.5, 0.0}) col.Append(Value(v));
    const UnclusteredIndex index = UnclusteredIndex::Build(col);
    EXPECT_EQ(index.Serialize().size(), index.SerializedBytes());
  }
}

/// \p n keys of \p type from \p seed, with duplicates (and, for strings,
/// empty keys), ascending when \p sorted.
ColumnVector PinKeys(FieldType type, uint32_t n, uint64_t seed, bool sorted) {
  Random rng(seed);
  ColumnVector col(type);
  for (uint32_t i = 0; i < n; ++i) {
    switch (type) {
      case FieldType::kInt32:
        col.AppendInt32(static_cast<int32_t>(rng.UniformRange(-500, 500)));
        break;
      case FieldType::kDate:
        col.AppendInt32(static_cast<int32_t>(rng.UniformRange(14000, 14400)));
        break;
      case FieldType::kInt64:
        col.AppendInt64(rng.UniformRange(-(int64_t{1} << 50), int64_t{1} << 50));
        break;
      case FieldType::kDouble:
        col.AppendDouble(static_cast<double>(rng.UniformRange(-4000, 4000)) /
                         8.0);
        break;
      case FieldType::kString:
        col.AppendString(rng.NextString(rng.Uniform(7)));
        break;
    }
  }
  if (sorted) col.ApplyPermutation(ArgSortColumn(col));
  return col;
}

/// The serialised bytes of all three index formats over every key type,
/// including empty and one-key indexes, pinned as CRC32C constants: a
/// change to the key codec must pass them unedited. Each decoder must
/// also give back an index that serialises to the same bytes.
TEST(IndexPinTest, SerializedBytesOfEveryKeyType) {
  const FieldType kTypes[] = {FieldType::kInt32, FieldType::kDate,
                              FieldType::kInt64, FieldType::kDouble,
                              FieldType::kString};
  const uint32_t kRows[] = {0, 1, 200};
  // [index: clustered, trojan, unclustered][key type][rows]
  const uint32_t kPinned[3][5][3] = {
      {
          {0x129b8d3cu, 0x8b564e97u, 0xa4c56e27u},
          {0xd1d36ca8u, 0x81d851bcu, 0xfd0b257du},
          {0x2249b559u, 0xf813d823u, 0x967bd92au},
          {0x733ffdf6u, 0xed885ee6u, 0xf706cfcdu},
          {0x43edc593u, 0xb4584151u, 0xfdd25821u},
      },
      {
          {0xa9289593u, 0x66a3a9e0u, 0x77f8636fu},
          {0x9d016227u, 0x48a6e03bu, 0xb1742bafu},
          {0xa422e87eu, 0x5dddf3b8u, 0x6f37a805u},
          {0xb33c6e49u, 0x5d7ee87au, 0x4f227ecfu},
          {0xbe3613a4u, 0x4a78a98fu, 0xd166311fu},
      },
      {
          {0xd2e49582u, 0xee579f53u, 0x0ef5e054u},
          {0x32a12b32u, 0x028c104au, 0x3bb0e72au},
          {0xeaf5fa2eu, 0x133d5212u, 0xf4c3a0a1u},
          {0xa2c64adau, 0xcce055b9u, 0xe138e081u},
          {0x9ad72576u, 0xe6547d7du, 0x7698f1ddu},
      },
  };
  const auto crc = [](const std::string& bytes) {
    return crc32c::Extend(0, bytes.data(), bytes.size());
  };
  for (size_t t = 0; t < std::size(kTypes); ++t) {
    for (size_t s = 0; s < std::size(kRows); ++s) {
      const uint32_t n = kRows[s];
      SCOPED_TRACE(testing::Message() << "key type " << t << " rows " << n);
      const ColumnVector sorted = PinKeys(kTypes[t], n, 31 + t, true);
      const ColumnVector unsorted = PinKeys(kTypes[t], n, 31 + t, false);

      const std::string clustered = ClusteredIndex::Build(sorted, 16).Serialize();
      EXPECT_EQ(crc(clustered), kPinned[0][t][s]);
      auto clustered_back = ClusteredIndex::Deserialize(clustered);
      ASSERT_TRUE(clustered_back.ok());
      EXPECT_EQ(clustered_back->Serialize(), clustered);

      std::vector<uint64_t> offsets(n);
      for (uint32_t r = 0; r < n; ++r) offsets[r] = 11ull * r;
      const std::string trojan =
          TrojanIndex::Build(sorted, offsets, 11ull * n, 8).Serialize();
      EXPECT_EQ(crc(trojan), kPinned[1][t][s]);
      auto trojan_back = TrojanIndex::Deserialize(trojan);
      ASSERT_TRUE(trojan_back.ok());
      EXPECT_EQ(trojan_back->Serialize(), trojan);

      const std::string unclustered =
          UnclusteredIndex::Build(unsorted).Serialize();
      EXPECT_EQ(crc(unclustered), kPinned[2][t][s]);
      auto unclustered_back = UnclusteredIndex::Deserialize(unclustered);
      ASSERT_TRUE(unclustered_back.ok());
      EXPECT_EQ(unclustered_back->Serialize(), unclustered);
    }
  }
}

TEST(UnclusteredIndexTest, EmptyColumnAndCorruptInput) {
  ColumnVector col(FieldType::kInt32);
  const UnclusteredIndex index = UnclusteredIndex::Build(col);
  EXPECT_EQ(index.num_records(), 0u);
  EXPECT_TRUE(index.Lookup(KeyRange::All()).empty());
  auto back = UnclusteredIndex::Deserialize(index.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->Lookup(KeyRange::All()).empty());
  EXPECT_TRUE(UnclusteredIndex::Deserialize("garbage").status().IsCorruption());
}

// ---------------------------------------------------------------------------
// Property sweep: index lookup vs naive scan across partition sizes
// ---------------------------------------------------------------------------

// The branchless (cmov-based) probes in key_search.h promise semantics
// identical to std::lower_bound / std::upper_bound; assert it across sizes
// (including 0, 1, and non-powers-of-two), duplicates, widened literals,
// and probes off both ends.
TEST(KeySearchTest, BranchlessProbesMatchStd) {
  Random rng(404);
  for (const size_t n : {0u, 1u, 2u, 3u, 7u, 64u, 1000u, 1023u}) {
    std::vector<int32_t> i32;
    std::vector<double> f64;
    for (size_t i = 0; i < n; ++i) {
      i32.push_back(static_cast<int32_t>(rng.Uniform(200)) - 100);
      f64.push_back(static_cast<double>(rng.Uniform(400)) / 4.0 - 50.0);
    }
    std::sort(i32.begin(), i32.end());
    std::sort(f64.begin(), f64.end());
    for (int trial = 0; trial < 200; ++trial) {
      const int64_t vi = static_cast<int64_t>(rng.Uniform(260)) - 130;
      EXPECT_EQ((key_search::LowerBoundRaw<int32_t, int64_t>(i32, vi)),
                static_cast<size_t>(
                    std::lower_bound(i32.begin(), i32.end(), vi) -
                    i32.begin()))
          << "n=" << n << " v=" << vi;
      EXPECT_EQ((key_search::UpperBoundRaw<int32_t, int64_t>(i32, vi)),
                static_cast<size_t>(
                    std::upper_bound(i32.begin(), i32.end(), vi) -
                    i32.begin()))
          << "n=" << n << " v=" << vi;
      // Widened comparisons: an int32 column probed with a double literal.
      const double vd = static_cast<double>(vi) + 0.5;
      EXPECT_EQ((key_search::LowerBoundRaw<int32_t, double>(i32, vd)),
                static_cast<size_t>(
                    std::lower_bound(i32.begin(), i32.end(), vd,
                                     [](int32_t a, double b) { return a < b; }) -
                    i32.begin()));
      const double vf = static_cast<double>(rng.Uniform(480)) / 4.0 - 60.0;
      EXPECT_EQ((key_search::LowerBoundRaw<double, double>(f64, vf)),
                static_cast<size_t>(
                    std::lower_bound(f64.begin(), f64.end(), vf) -
                    f64.begin()));
      EXPECT_EQ((key_search::UpperBoundRaw<double, double>(f64, vf)),
                static_cast<size_t>(
                    std::upper_bound(f64.begin(), f64.end(), vf) -
                    f64.begin()));
    }
  }
}

class IndexPropertyTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(IndexPropertyTest, ConservativeAndTight) {
  const uint32_t partition = GetParam();
  const ColumnVector col = SortedInts(3000, 12 + partition);
  const ClusteredIndex index = ClusteredIndex::Build(col, partition);
  Random rng(13);
  for (int trial = 0; trial < 100; ++trial) {
    int32_t a = static_cast<int32_t>(rng.Uniform(10000)) - 500;
    int32_t b = a + static_cast<int32_t>(rng.Uniform(3000));
    const KeyRange kr = KeyRange::Between(Value(a), Value(b));
    const RowRange got = index.Lookup(kr);
    const auto [nb, ne] = NaiveRange(col, kr);
    if (nb < ne) {
      ASSERT_LE(got.begin, nb);
      ASSERT_GE(got.end, ne);
      ASSERT_LE(nb - got.begin, 2u * partition);
      ASSERT_LE(got.end - ne, 2u * partition);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(PartitionSizes, IndexPropertyTest,
                         ::testing::Values(1u, 2u, 16u, 64u, 256u, 1024u,
                                           4096u));

}  // namespace
}  // namespace hail
