#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <numeric>
#include <optional>
#include <type_traits>

#include "layout/column_vector.h"
#include "layout/pax_block.h"
#include "layout/row_binary.h"
#include "schema/row_parser.h"
#include "util/io.h"
#include "util/random.h"

namespace hail {
namespace {

Schema MixedSchema() {
  return Schema({{"k", FieldType::kInt32},
                 {"url", FieldType::kString},
                 {"rev", FieldType::kDouble}});
}

std::string MakeText(int rows, uint64_t seed) {
  Random rng(seed);
  std::string out;
  for (int i = 0; i < rows; ++i) {
    out += std::to_string(rng.UniformRange(-1000, 1000));
    out += ",";
    out += rng.NextString(3 + rng.Uniform(20));
    out += ",";
    out += std::to_string(static_cast<double>(rng.Uniform(100000)) / 100.0);
    out += "\n";
  }
  return out;
}

TEST(ColumnVectorTest, AppendAndGet) {
  ColumnVector col(FieldType::kInt32);
  col.Append(Value(int32_t{5}));
  col.Append(Value(int32_t{-3}));
  EXPECT_EQ(col.size(), 2u);
  EXPECT_EQ(col.GetValue(1).as_int32(), -3);
  EXPECT_EQ(col.SerializedValueBytes(), 8u);
}

TEST(ColumnVectorTest, StringBytesCountNulTerminators) {
  ColumnVector col(FieldType::kString);
  col.Append(Value(std::string("ab")));
  col.Append(Value(std::string("")));
  EXPECT_EQ(col.SerializedValueBytes(), 4u);  // "ab\0" + "\0"
}

TEST(ColumnVectorTest, ArgSortIsStable) {
  ColumnVector col(FieldType::kInt32);
  for (int v : {3, 1, 3, 1, 2}) col.Append(Value(int32_t{v}));
  const auto perm = ArgSortColumn(col);
  EXPECT_EQ(perm, (std::vector<uint32_t>{1, 3, 4, 0, 2}));
}

TEST(ColumnVectorTest, ApplyPermutationReordersAllTypes) {
  ColumnVector col(FieldType::kString);
  col.Append(Value(std::string("c")));
  col.Append(Value(std::string("a")));
  col.Append(Value(std::string("b")));
  col.ApplyPermutation({1, 2, 0});
  EXPECT_EQ(
      (std::vector<std::string_view>{col.str(0), col.str(1), col.str(2)}),
      (std::vector<std::string_view>{"a", "b", "c"}));
}

TEST(PaxBlockTest, BuildFromTextAndReadBack) {
  const Schema schema = MixedSchema();
  const std::string text = MakeText(100, 1);
  PaxBlock block = BuildPaxBlockFromText(schema, text);
  EXPECT_EQ(block.num_records(), 100u);
  EXPECT_TRUE(block.bad_records().empty());

  RowParser parser(schema);
  const auto rows = SplitRows(text);
  for (uint32_t r = 0; r < 100; ++r) {
    const auto expected = parser.Parse(rows[r]);
    EXPECT_EQ(block.GetRow(r), expected.values) << "row " << r;
  }
}

TEST(PaxBlockTest, SerializeDeserializeRoundTrip) {
  const Schema schema = MixedSchema();
  PaxBlock block = BuildPaxBlockFromText(schema, MakeText(257, 2),
                                         BlockFormatOptions{16});
  const std::string bytes = block.Serialize();
  auto back = PaxBlock::Deserialize(bytes);
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->num_records(), block.num_records());
  for (uint32_t r = 0; r < block.num_records(); ++r) {
    EXPECT_EQ(back->GetRow(r), block.GetRow(r)) << "row " << r;
  }
}

TEST(PaxBlockTest, BadRecordsGoToBadSection) {
  const Schema schema = MixedSchema();
  const std::string text =
      "1,aa,2.0\n"
      "not-a-number,bb,3.0\n"
      "2,cc\n"
      "3,dd,4.5\n";
  PaxBlock block = BuildPaxBlockFromText(schema, text);
  EXPECT_EQ(block.num_records(), 2u);
  ASSERT_EQ(block.bad_records().size(), 2u);
  EXPECT_EQ(block.bad_records()[0], "not-a-number,bb,3.0");
  EXPECT_EQ(block.bad_records()[1], "2,cc");

  // Bad records survive serialisation.
  const std::string bytes = block.Serialize();
  auto view = PaxBlockView::Open(bytes);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->num_bad_records(), 2u);
  EXPECT_EQ(*view->GetBadRecord(1), "2,cc");
}

TEST(PaxBlockTest, BadRowLeavesNoStringBytes) {
  // "2,cc,x" appends "cc" to the string column before its double fails to
  // parse (and "2,cc" lacks a field); the rollback must drop those bytes
  // too, or the next row would read "ccdd".
  const PaxBlock block = BuildPaxBlockFromText(
      MixedSchema(), "1,aa,2.0\n2,cc\n2,cc,x\n3,dd,4.5\n");
  ASSERT_EQ(block.num_records(), 2u);
  ASSERT_EQ(block.bad_records().size(), 2u);
  const ColumnVector& col = block.column(1);
  EXPECT_EQ(col.GetValue(0).as_string(), "aa");
  EXPECT_EQ(col.GetValue(1).as_string(), "dd");
  EXPECT_EQ(col.SerializedValueBytes(), 6u);  // "aa\0dd\0"
}

TEST(PaxBlockTest, SortByColumnSortsAllColumns) {
  const Schema schema = MixedSchema();
  PaxBlock block = BuildPaxBlockFromText(schema, MakeText(500, 3));
  // Remember original rows to verify permutation integrity.
  std::vector<std::vector<Value>> original;
  for (uint32_t r = 0; r < block.num_records(); ++r) {
    original.push_back(block.GetRow(r));
  }
  block.SortByColumn(0);
  int32_t prev = INT32_MIN;
  std::vector<std::vector<Value>> sorted;
  for (uint32_t r = 0; r < block.num_records(); ++r) {
    auto row = block.GetRow(r);
    EXPECT_GE(row[0].as_int32(), prev);
    prev = row[0].as_int32();
    sorted.push_back(std::move(row));
  }
  // Same multiset of rows.
  auto key = [](const std::vector<Value>& row) {
    return row[0].ToText(FieldType::kInt32) + "|" + row[1].as_string() + "|" +
           row[2].ToText(FieldType::kDouble);
  };
  std::vector<std::string> a, b;
  for (const auto& r : original) a.push_back(key(r));
  for (const auto& r : sorted) b.push_back(key(r));
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
}

TEST(PaxBlockViewTest, VarlenPartitionScanPath) {
  const Schema schema = MixedSchema();
  BlockFormatOptions options;
  options.varlen_partition_size = 8;  // force multi-partition varlen
  PaxBlock block = BuildPaxBlockFromText(schema, MakeText(100, 4), options);
  const std::string bytes = block.Serialize();
  auto view = PaxBlockView::Open(bytes);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->varlen_partition_size(), 8u);
  // §3.5's example: retrieve values by scanning partition floor(row/n).
  for (uint32_t r : {0u, 7u, 8u, 42u, 99u}) {
    auto s = view->GetString(1, r);
    ASSERT_TRUE(s.ok());
    EXPECT_EQ(*s, block.GetRow(r)[1].as_string()) << "row " << r;
  }
}

TEST(PaxBlockViewTest, FixedValueRandomAccess) {
  const Schema schema = MixedSchema();
  PaxBlock block = BuildPaxBlockFromText(schema, MakeText(64, 5));
  const std::string bytes = block.Serialize();
  auto view = PaxBlockView::Open(bytes);
  ASSERT_TRUE(view.ok());
  for (uint32_t r : {0u, 31u, 63u}) {
    EXPECT_EQ(view->GetFixedValue(0, r)->as_int32(),
              block.GetRow(r)[0].as_int32());
    EXPECT_DOUBLE_EQ(view->GetFixedValue(2, r)->as_double(),
                     block.GetRow(r)[2].as_double());
  }
  EXPECT_TRUE(view->GetFixedValue(0, 64).status().IsOutOfRange());
  EXPECT_TRUE(view->GetFixedValue(1, 0).status().IsInvalidArgument());
}

TEST(PaxBlockViewTest, ColumnOutsideTheBlockIsInvalidArgument) {
  for (const bool encoded : {false, true}) {
    BlockFormatOptions options;
    options.enable_encoding = encoded;
    const PaxBlock block =
        BuildPaxBlockFromText(MixedSchema(), MakeText(16, 5), options);
    const std::string bytes = block.Serialize();
    auto view = PaxBlockView::Open(bytes);
    ASSERT_TRUE(view.ok());
    for (const int column : {-1, view->num_columns()}) {
      EXPECT_TRUE(view->OpenColumn(column).status().IsInvalidArgument());
      EXPECT_TRUE(view->GetFixedValue(column, 0).status().IsInvalidArgument());
      EXPECT_TRUE(view->GetString(column, 0).status().IsInvalidArgument());
      EXPECT_TRUE(view->GetAnyValue(column, 0).status().IsInvalidArgument());
    }
  }
}

TEST(PaxBlockViewTest, CorruptionDetected) {
  const Schema schema = MixedSchema();
  PaxBlock block = BuildPaxBlockFromText(schema, MakeText(10, 6));
  std::string bytes = block.Serialize();
  EXPECT_TRUE(PaxBlockView::Open(bytes.substr(0, 10)).status().IsCorruption());
  bytes[0] ^= 0xff;  // magic
  EXPECT_TRUE(PaxBlockView::Open(bytes).status().IsCorruption());
}

TEST(PaxBlockViewTest, EmptyBlock) {
  const Schema schema = MixedSchema();
  PaxBlock block(schema);
  const std::string bytes = block.Serialize();
  auto view = PaxBlockView::Open(bytes);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->num_records(), 0u);
}

TEST(PaxBlockViewTest, PlainStringValuesMustFitTheirMinipage) {
  // Column 0's value-byte count is raised by column 1's minipage size: its
  // values then run on into column 1's minipage, still inside the buffer.
  // v1 and v3 alike keep a string minipage's values inside its own
  // directory extent.
  const Schema schema({{"a", FieldType::kString}, {"b", FieldType::kString}});
  for (const bool encoded : {false, true}) {
    BlockFormatOptions options;
    options.enable_encoding = encoded;
    const PaxBlock block =
        BuildPaxBlockFromText(schema, "a,d\nbb,ee\nccc,fff\n", options);
    ASSERT_EQ(block.num_records(), 3u);
    std::string bytes = block.Serialize();
    // Directory: after the magic, the layout kind, the schema text and
    // four u32 counts, a (u8 type, u64 offset, u64 bytes) entry per column.
    ByteReader r(bytes);
    ASSERT_TRUE(r.SeekTo(4 + 1).ok());
    ASSERT_TRUE(r.GetLengthPrefixed().ok());
    ASSERT_TRUE(r.SeekTo(r.position() + 16).ok());
    uint64_t offset[2];
    uint64_t size[2];
    for (int c = 0; c < 2; ++c) {
      ASSERT_TRUE(r.GetU8().ok());
      offset[c] = *r.GetU64();
      size[c] = *r.GetU64();
    }
    // The plain string body: [v3 tag] u32 offset count, u64 offsets, u64
    // value-byte count, values.
    const size_t body = offset[0] + (encoded ? 1 : 0);
    uint32_t num_offsets;
    std::memcpy(&num_offsets, bytes.data() + body, 4);
    const size_t count_pos = body + 4 + 8ull * num_offsets;
    uint64_t value_bytes;
    std::memcpy(&value_bytes, bytes.data() + count_pos, 8);
    ASSERT_EQ(value_bytes, 9u);
    {
      auto view = PaxBlockView::Open(bytes);
      ASSERT_TRUE(view.ok());
      ASSERT_EQ(view->OpenColumn(0)->encoding(), MiniPageEncoding::kPlain);
      EXPECT_EQ(view->column_value_bytes(0), 9u);
    }
    value_bytes += size[1];
    std::memcpy(bytes.data() + count_pos, &value_bytes, 8);
    ASSERT_LE(count_pos + 8 + value_bytes, bytes.size());
    EXPECT_TRUE(PaxBlockView::Open(bytes).status().IsCorruption())
        << (encoded ? "v3" : "v1");
  }
}

TEST(PaxBlockViewTest, ReadersShareNoState) {
  // One cached view serves every reader of a block at once, so each
  // OpenColumn reader keeps its own cursor position and RLE run, and a
  // copy of a view reads without the original.
  BlockFormatOptions options;
  options.enable_encoding = true;
  options.varlen_partition_size = 8;
  const Schema schema({{"url", FieldType::kString}, {"run", FieldType::kInt32}});
  Random rng(31);
  std::string text;
  for (int i = 0; i < 100; ++i) {
    text += rng.NextString(6 + rng.Uniform(10)) + "," + std::to_string(i / 20) +
            "\n";
  }
  const PaxBlock block = BuildPaxBlockFromText(schema, text, options);
  const uint32_t n = block.num_records();
  ASSERT_EQ(n, 100u);
  const std::string bytes = block.Serialize();
  auto opened = PaxBlockView::Open(bytes);
  ASSERT_TRUE(opened.ok());
  std::optional<PaxBlockView> original = std::move(*opened);
  ASSERT_EQ(original->OpenColumn(0)->encoding(), MiniPageEncoding::kPlain);
  ASSERT_EQ(original->OpenColumn(1)->encoding(), MiniPageEncoding::kRle);

  for (int c = 0; c < 2; ++c) {
    auto first = original->OpenColumn(c);
    ASSERT_TRUE(first.ok());
    for (uint32_t r = 0; r < n; ++r) {
      ASSERT_EQ(*first->Get(r), block.GetRow(r)[static_cast<size_t>(c)]);
    }
    auto second = original->OpenColumn(c);
    ASSERT_TRUE(second.ok());
    EXPECT_EQ(*second->Get(0), block.GetRow(0)[static_cast<size_t>(c)]);
    if (c != 0) continue;
    // The second cursor starts at row 0: one value decoded, no seek.
    second->Visit([](auto& span) {
      if constexpr (std::is_same_v<std::decay_t<decltype(span)>,
                                   VarlenCursor>) {
        EXPECT_EQ(span.decode_steps(), 1u);
        EXPECT_EQ(span.partition_seeks(), 0u);
      } else {
        ADD_FAILURE() << "column 0 is not a plain string span";
      }
    });
  }

  const PaxBlockView copy = *original;
  original.reset();
  for (int c = 0; c < copy.num_columns(); ++c) {
    auto reader = copy.OpenColumn(c);
    ASSERT_TRUE(reader.ok());
    for (uint32_t r = 0; r < n; ++r) {
      EXPECT_EQ(*reader->Get(r), block.GetRow(r)[static_cast<size_t>(c)]);
    }
  }
}

// ---------------------------------------------------------------------------
// Encoded minipages (format v3)
// ---------------------------------------------------------------------------

Schema EncodableSchema() {
  return Schema({{"k", FieldType::kInt32},
                 {"tag", FieldType::kString},
                 {"run", FieldType::kInt32},
                 {"rev", FieldType::kDouble}});
}

/// k: narrow range (frame-of-reference), tag: 4 distinct values
/// (dictionary), run: long runs (RLE), rev: random doubles (stays plain).
std::string MakeEncodableText(int rows, uint64_t seed) {
  Random rng(seed);
  static const char* kTags[] = {"de", "fr", "jp", "us"};
  std::string out;
  for (int i = 0; i < rows; ++i) {
    out += std::to_string(rng.UniformRange(100, 300));
    out += ",";
    out += kTags[rng.Uniform(4)];
    out += ",";
    out += std::to_string(i / 50);
    out += ",";
    out += std::to_string(static_cast<double>(rng.Uniform(100000)) / 100.0);
    out += "\n";
  }
  return out;
}

TEST(PaxBlockEncodedTest, RoundTripAndEncodingChoice) {
  BlockFormatOptions options;
  options.enable_encoding = true;
  const Schema schema = EncodableSchema();
  PaxBlock block =
      BuildPaxBlockFromText(schema, MakeEncodableText(400, 11), options);
  const std::string bytes = block.Serialize();
  auto view = PaxBlockView::Open(bytes);
  ASSERT_TRUE(view.ok());
  EXPECT_TRUE(view->encoded_format());
  EXPECT_EQ(view->OpenColumn(0)->encoding(), MiniPageEncoding::kFor);
  EXPECT_EQ(view->OpenColumn(1)->encoding(), MiniPageEncoding::kDict);
  EXPECT_EQ(view->OpenColumn(2)->encoding(), MiniPageEncoding::kRle);
  EXPECT_EQ(view->OpenColumn(3)->encoding(), MiniPageEncoding::kPlain);
  EXPECT_EQ(view->num_encoded_columns(), 3);
  // Stored (compressed) extent beats the uncompressed payload.
  EXPECT_LT(view->stored_payload_bytes(), block.PayloadBytes());

  // Row accessors decode through the encoded minipages.
  for (uint32_t r : {0u, 49u, 50u, 399u}) {
    EXPECT_EQ(view->GetFixedValue(0, r)->as_int32(),
              block.GetRow(r)[0].as_int32());
    EXPECT_EQ(*view->GetString(1, r), block.GetRow(r)[1].as_string());
    EXPECT_EQ(view->GetFixedValue(2, r)->as_int32(),
              block.GetRow(r)[2].as_int32());
  }

  // Full deserialise expands codes/runs/dictionary back to the originals.
  auto back = PaxBlock::Deserialize(bytes);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->options().enable_encoding);
  ASSERT_EQ(back->num_records(), block.num_records());
  for (uint32_t r = 0; r < block.num_records(); ++r) {
    EXPECT_EQ(back->GetRow(r), block.GetRow(r)) << "row " << r;
  }
}

TEST(PaxBlockEncodedTest, OrderedSerializeReencodes) {
  BlockFormatOptions options;
  options.enable_encoding = true;
  const Schema schema = EncodableSchema();
  PaxBlock block =
      BuildPaxBlockFromText(schema, MakeEncodableText(300, 12), options);
  // Deserialize -> serialize in key order is the replica-transformer
  // path: the sorted replica picks and encodes each minipage for its own
  // row order, never reusing codes minted for the arrival order, and
  // writes the block's shared string dictionaries with its rows' codes.
  auto base = PaxBlock::Deserialize(block.Serialize());
  ASSERT_TRUE(base.ok());
  const std::vector<uint32_t> perm = ArgSortColumn(base->column(0));
  const BlockDictionaries dictionaries = base->BuildDictionaries();
  const std::string sorted_bytes = base->Serialize(&perm, &dictionaries);
  EXPECT_EQ(sorted_bytes, base->Serialize(&perm));
  auto view = PaxBlockView::Open(sorted_bytes);
  ASSERT_TRUE(view.ok());
  EXPECT_TRUE(view->encoded_format());
  int32_t prev = INT32_MIN;
  for (uint32_t r = 0; r < view->num_records(); ++r) {
    const int32_t k = view->GetFixedValue(0, r)->as_int32();
    EXPECT_GE(k, prev);
    prev = k;
    // Each row of the re-encoded block is the permuted original row.
    EXPECT_EQ(view->GetFixedValue(0, r)->as_int32(),
              block.GetRow(perm[r])[0].as_int32());
    EXPECT_EQ(*view->GetString(1, r), block.GetRow(perm[r])[1].as_string());
    EXPECT_EQ(view->GetFixedValue(2, r)->as_int32(),
              block.GetRow(perm[r])[2].as_int32());
    EXPECT_DOUBLE_EQ(view->GetFixedValue(3, r)->as_double(),
                     block.GetRow(perm[r])[3].as_double());
  }
  // The same bytes as sorting a copy of every column and serialising it.
  PaxBlock sorted = *base;
  sorted.SortByColumn(0);
  EXPECT_EQ(sorted_bytes, sorted.Serialize());
}

// ---------------------------------------------------------------------------
// Minipage encoders vs. the sort-based reference
// ---------------------------------------------------------------------------

/// Sort-based format-v3 string and FOR minipage writers, the byte
/// reference the real encoder must match: the string dictionary is every
/// value sorted and uniqued, each row's code is a lower_bound into it, and
/// codes are appended one at a time.
namespace reference {

void PadTo8(ByteWriter& w) {
  while (w.size() % 8 != 0) w.PutU8(0);
}

void PutCode(ByteWriter& w, uint64_t code, uint8_t width) {
  switch (width) {
    case 1:
      w.PutU8(static_cast<uint8_t>(code));
      break;
    case 2:
      w.PutU8(static_cast<uint8_t>(code & 0xFF));
      w.PutU8(static_cast<uint8_t>((code >> 8) & 0xFF));
      break;
    default:
      w.PutU32(static_cast<uint32_t>(code));
      break;
  }
}

void WriteVarlenBody(ByteWriter& w, const std::vector<std::string>& strs,
                     uint32_t n, uint32_t part) {
  const uint32_t num_offsets = n == 0 ? 0 : (n + part - 1) / part;
  w.PutU32(num_offsets);
  std::vector<uint64_t> offsets(num_offsets);
  uint64_t pos = 0;
  for (uint32_t r = 0; r < n; ++r) {
    if (r % part == 0) offsets[r / part] = pos;
    pos += strs[r].size() + 1;
  }
  for (uint64_t off : offsets) w.PutU64(off);
  w.PutU64(pos);
  for (uint32_t r = 0; r < n; ++r) {
    w.PutBytes(strs[r]);
    w.PutU8(0);
  }
}

void WriteEncodedStringMiniPage(ByteWriter& w,
                                const std::vector<std::string>& strs,
                                uint32_t n, uint32_t part) {
  std::vector<std::string_view> dict;
  uint64_t plain_values = 0;
  if (n > 0) {
    dict.reserve(n);
    for (uint32_t r = 0; r < n; ++r) {
      dict.push_back(strs[r]);
      plain_values += strs[r].size() + 1;
    }
    std::sort(dict.begin(), dict.end());
    dict.erase(std::unique(dict.begin(), dict.end()), dict.end());
  }
  uint64_t dict_bytes = 0;
  for (std::string_view s : dict) dict_bytes += s.size() + 1;
  const uint8_t width = dict.size() <= 256 ? 1 : (dict.size() <= 65536 ? 2 : 4);
  const uint32_t num_offsets = n == 0 ? 0 : (n + part - 1) / part;
  const uint64_t plain_est = 1 + 4 + 8ull * num_offsets + 8 + plain_values;
  const uint64_t dict_est = 14 + 8 + 4ull * dict.size() + dict_bytes +
                            uint64_t{n} * width;
  if (n == 0 || dict_bytes > std::numeric_limits<uint32_t>::max() ||
      dict_est >= plain_est) {
    w.PutU8(static_cast<uint8_t>(MiniPageEncoding::kPlain));
    WriteVarlenBody(w, strs, n, part);
    return;
  }
  w.PutU8(static_cast<uint8_t>(MiniPageEncoding::kDict));
  w.PutU8(width);
  w.PutU32(static_cast<uint32_t>(dict.size()));
  w.PutU64(dict_bytes);
  PadTo8(w);
  uint32_t off = 0;
  for (std::string_view s : dict) {
    w.PutU32(off);
    off += static_cast<uint32_t>(s.size()) + 1;
  }
  for (std::string_view s : dict) {
    w.PutBytes(s);
    w.PutU8(0);
  }
  PadTo8(w);
  for (uint32_t r = 0; r < n; ++r) {
    const auto it = std::lower_bound(dict.begin(), dict.end(),
                                     std::string_view(strs[r]));
    PutCode(w, static_cast<uint64_t>(it - dict.begin()), width);
  }
}

/// The FOR branch of the integer writer (callers pick columns where FOR
/// beats plain and RLE).
template <typename T>
void WriteForMiniPage(ByteWriter& w, const std::vector<T>& vals,
                      uint8_t width) {
  const T mn = *std::min_element(vals.begin(), vals.end());
  w.PutU8(static_cast<uint8_t>(MiniPageEncoding::kFor));
  w.PutU8(width);
  PadTo8(w);
  w.PutU64(static_cast<uint64_t>(static_cast<int64_t>(mn)));
  for (const T v : vals) {
    PutCode(w,
            static_cast<uint64_t>(static_cast<int64_t>(v)) -
                static_cast<uint64_t>(static_cast<int64_t>(mn)),
            width);
  }
}

}  // namespace reference

/// A block whose only column is \p col.
PaxBlock SingleColumnBlock(const ColumnVector& col, bool encoded,
                           uint32_t part) {
  BlockFormatOptions options;
  options.enable_encoding = encoded;
  options.varlen_partition_size = part;
  PaxBlock block(Schema({{"c", col.type()}}), options);
  block.mutable_columns()[0] = col;
  return block;
}

/// The stored minipage of a serialised single-column block: with no bad
/// records the minipage is the block's tail.
std::string MiniPageOf(const std::string& bytes, MiniPageEncoding* encoding) {
  auto view = PaxBlockView::Open(bytes);
  EXPECT_TRUE(view.ok()) << view.status().ToString();
  if (!view.ok()) return "";
  *encoding = view->OpenColumn(0)->encoding();
  return bytes.substr(bytes.size() - view->column_bytes(0));
}

/// Serialises \p col as the only column of a block and returns its stored
/// minipage.
std::string StoredMiniPage(const ColumnVector& col, bool encoded,
                           uint32_t part, MiniPageEncoding* encoding) {
  return MiniPageOf(SingleColumnBlock(col, encoded, part).Serialize(),
                    encoding);
}

ColumnVector StringColumn(const std::vector<std::string>& values) {
  ColumnVector col(FieldType::kString);
  for (const std::string& v : values) col.AppendString(v);
  return col;
}

/// Checks the v3 and v1 string minipages of \p values byte for byte
/// against the reference writers; returns the v3 encoding chosen.
MiniPageEncoding ExpectStringMiniPagesMatch(
    const std::vector<std::string>& values, uint32_t part = 64) {
  const ColumnVector col = StringColumn(values);
  const uint32_t n = static_cast<uint32_t>(values.size());
  MiniPageEncoding encoding = MiniPageEncoding::kPlain;
  ByteWriter plain;
  reference::WriteVarlenBody(plain, values, n, part);
  EXPECT_EQ(StoredMiniPage(col, /*encoded=*/false, part, &encoding),
            plain.buffer())
      << n << " rows (v1)";
  ByteWriter encoded;
  reference::WriteEncodedStringMiniPage(encoded, values, n, part);
  EXPECT_EQ(StoredMiniPage(col, /*encoded=*/true, part, &encoding),
            encoded.buffer())
      << n << " rows (v3)";
  return encoding;
}

/// n rows cycling through \p distinct values "<prefix><i>".
std::vector<std::string> Cycle(uint32_t n, uint32_t distinct,
                               const std::string& prefix = "v") {
  std::vector<std::string> out;
  out.reserve(n);
  for (uint32_t r = 0; r < n; ++r) {
    // Scrambled so first-seen order differs from sorted order.
    out.push_back(prefix + std::to_string((r * 7919u) % distinct));
  }
  return out;
}

TEST(MiniPageEncoderTest, StringDictionaryEdgesMatchReference) {
  EXPECT_EQ(ExpectStringMiniPagesMatch({}), MiniPageEncoding::kPlain);
  EXPECT_EQ(ExpectStringMiniPagesMatch(Cycle(300, 1)), MiniPageEncoding::kDict);
  // 256 entries still take 1-byte codes, 257 take 2-byte codes.
  for (const uint32_t distinct : {255u, 256u, 257u, 258u}) {
    EXPECT_EQ(ExpectStringMiniPagesMatch(Cycle(10 * distinct, distinct)),
              MiniPageEncoding::kDict)
        << distinct;
  }
  // 65536 entries still take 2-byte codes, 65537 take 4-byte codes.
  const std::string long_prefix(28, 'k');
  for (const uint32_t distinct : {65536u, 65537u}) {
    EXPECT_EQ(ExpectStringMiniPagesMatch(
                  Cycle(2 * distinct, distinct, long_prefix), 1024),
              MiniPageEncoding::kDict)
        << distinct;
  }
  // One value, two rows, one sparse offset: dictionary 27 + L + 2 bytes
  // vs plain 21 + 2 (L + 1). L = 6 ties, and plain must win the tie.
  EXPECT_EQ(ExpectStringMiniPagesMatch({"abcde", "abcde"}),
            MiniPageEncoding::kPlain);
  EXPECT_EQ(ExpectStringMiniPagesMatch({"abcdef", "abcdef"}),
            MiniPageEncoding::kPlain);
  EXPECT_EQ(ExpectStringMiniPagesMatch({"abcdefg", "abcdefg"}),
            MiniPageEncoding::kDict);
  // Empty strings: alone (plain wins) and mixed into a dictionary.
  EXPECT_EQ(ExpectStringMiniPagesMatch(std::vector<std::string>(50, "")),
            MiniPageEncoding::kPlain);
  std::vector<std::string> mixed = Cycle(200, 5, "some-longer-value-");
  for (size_t r = 0; r < mixed.size(); r += 3) mixed[r].clear();
  EXPECT_EQ(ExpectStringMiniPagesMatch(mixed), MiniPageEncoding::kDict);
  // Long URLs sharing a prefix: repeated (dictionary) and all distinct
  // (plain, the sourceIP/destURL case).
  const std::string url = "http://www.example-shop.com/catalog/item?id=";
  EXPECT_EQ(ExpectStringMiniPagesMatch(Cycle(500, 40, url)),
            MiniPageEncoding::kDict);
  EXPECT_EQ(ExpectStringMiniPagesMatch(Cycle(500, 500, url)),
            MiniPageEncoding::kPlain);
}

TEST(MiniPageEncoderTest, RandomStringColumnsMatchReference) {
  Random rng(20240613);
  for (int trial = 0; trial < 200; ++trial) {
    const uint32_t n = static_cast<uint32_t>(rng.Uniform(700));
    const uint32_t pool_size = 1 + static_cast<uint32_t>(rng.Uniform(400));
    const std::string prefix(rng.Uniform(3) == 0 ? 30 : 0, 'p');
    std::vector<std::string> pool;
    for (uint32_t i = 0; i < pool_size; ++i) {
      pool.push_back(prefix + rng.NextString(rng.Uniform(12)));
    }
    std::vector<std::string> values;
    for (uint32_t r = 0; r < n; ++r) {
      values.push_back(pool[rng.Uniform(pool_size)]);
    }
    const uint32_t part = 1 + static_cast<uint32_t>(rng.Uniform(80));
    ExpectStringMiniPagesMatch(values, part);

    // Two random row orders written through one shared dictionary pass
    // match the reference over the reordered values.
    const PaxBlock block =
        SingleColumnBlock(StringColumn(values), /*encoded=*/true, part);
    const BlockDictionaries dictionaries = block.BuildDictionaries();
    for (int k = 0; k < 2; ++k) {
      std::vector<uint32_t> order(n);
      std::iota(order.begin(), order.end(), 0u);
      for (uint32_t i = n; i > 1; --i) {
        std::swap(order[i - 1], order[rng.Uniform(i)]);
      }
      std::vector<std::string> reordered;
      for (const uint32_t row : order) reordered.push_back(values[row]);
      ByteWriter expected;
      reference::WriteEncodedStringMiniPage(expected, reordered, n, part);
      MiniPageEncoding encoding = MiniPageEncoding::kPlain;
      EXPECT_EQ(MiniPageOf(block.Serialize(&order, &dictionaries), &encoding),
                expected.buffer())
          << n << " rows, order " << k;
    }
  }
}

TEST(MiniPageEncoderTest, ForCodeWidthsMatchReference) {
  Random rng(7);
  const auto check = [](const ColumnVector& col, auto values, uint8_t width) {
    MiniPageEncoding encoding = MiniPageEncoding::kPlain;
    const std::string stored =
        StoredMiniPage(col, /*encoded=*/true, 64, &encoding);
    EXPECT_EQ(encoding, MiniPageEncoding::kFor) << int{width};
    ByteWriter expected;
    reference::WriteForMiniPage(expected, values, width);
    EXPECT_EQ(stored, expected.buffer()) << int{width};
  };
  // Random values, so runs are short and FOR beats RLE; every frame is
  // negative.
  ColumnVector narrow(FieldType::kInt32);
  ColumnVector mid(FieldType::kInt32);
  ColumnVector wide(FieldType::kInt64);
  for (int r = 0; r < 500; ++r) {
    narrow.AppendInt32(static_cast<int32_t>(rng.UniformRange(-200, 50)));
    mid.AppendInt32(static_cast<int32_t>(rng.UniformRange(-40000, 20000)));
    wide.AppendInt64(rng.UniformRange(-5000000000, -2000000000));
  }
  check(narrow, narrow.i32(), 1);
  check(mid, mid.i32(), 2);
  check(wide, wide.i64(), 4);
}

// ---------------------------------------------------------------------------
// Binary row layout (Hadoop++)
// ---------------------------------------------------------------------------

TEST(RowBinaryTest, RoundTrip) {
  const Schema schema = MixedSchema();
  RowParser parser(schema);
  const std::string text = MakeText(50, 8);
  RowBinaryBlockBuilder builder(schema);
  std::vector<std::vector<Value>> rows;
  for (std::string_view row : SplitRows(text)) {
    if (row.empty()) continue;
    auto parsed = parser.Parse(row);
    ASSERT_TRUE(parsed.ok);
    builder.AddRow(parsed.values);
    rows.push_back(std::move(parsed.values));
  }
  EXPECT_EQ(builder.num_records(), 50u);
  EXPECT_EQ(builder.row_offsets().size(), 50u);
  EXPECT_EQ(builder.row_offsets()[0], 0u);

  const std::string bytes = builder.Finish();
  auto view = RowBinaryBlockView::Open(bytes);
  ASSERT_TRUE(view.ok());
  auto decoded = view->DecodeAll();
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, rows);
}

TEST(RowBinaryTest, DecodeAtOffsets) {
  const Schema schema = MixedSchema();
  RowParser parser(schema);
  RowBinaryBlockBuilder builder(schema);
  auto r1 = parser.Parse("1,aa,2.5");
  auto r2 = parser.Parse("2,bbbb,3.5");
  builder.AddRow(r1.values);
  builder.AddRow(r2.values);
  const auto offsets = builder.row_offsets();
  const std::string bytes = builder.Finish();
  auto view = RowBinaryBlockView::Open(bytes);
  ASSERT_TRUE(view.ok());
  uint64_t pos = view->data_start() + offsets[1];
  auto row = view->DecodeRowAt(&pos);
  ASSERT_TRUE(row.ok());
  EXPECT_EQ((*row)[1].as_string(), "bbbb");
  EXPECT_EQ(pos, bytes.size());
}

TEST(RowBinaryTest, TruncationDetected) {
  const Schema schema = MixedSchema();
  RowParser parser(schema);
  RowBinaryBlockBuilder builder(schema);
  builder.AddRow(parser.Parse("1,hello,2.5").values);
  std::string bytes = builder.Finish();
  bytes.resize(bytes.size() - 3);
  auto view = RowBinaryBlockView::Open(bytes);
  ASSERT_TRUE(view.ok());
  EXPECT_FALSE(view->DecodeAll().ok());
}

}  // namespace
}  // namespace hail
