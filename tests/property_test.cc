/// \file property_test.cc
/// \brief Randomised invariants across the whole stack.
///
/// The central property of the paper's design: *physical layout never
/// changes query answers*. For random data, random predicates and random
/// per-replica index choices, the HAIL index-scan path must return exactly
/// what a naive in-memory filter returns, and every replica of a block
/// must hold the same record multiset regardless of its sort order.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "hail/hail_block.h"
#include "hail/hail_client.h"
#include "index/clustered_index.h"
#include "layout/pax_block.h"
#include "query/predicate.h"
#include "schema/row_parser.h"
#include "util/random.h"
#include "workload/testbed.h"

namespace hail {
namespace {

/// Random schema of 2-7 columns with mixed types.
Schema RandomSchema(Random* rng) {
  const int n = 2 + static_cast<int>(rng->Uniform(6));
  std::vector<Field> fields;
  for (int i = 0; i < n; ++i) {
    const FieldType types[] = {FieldType::kInt32, FieldType::kInt64,
                               FieldType::kDouble, FieldType::kString,
                               FieldType::kDate};
    fields.push_back(Field{"c" + std::to_string(i),
                           types[rng->Uniform(std::size(types))]});
  }
  return Schema(std::move(fields));
}

Value RandomValue(Random* rng, FieldType type) {
  switch (type) {
    case FieldType::kInt32:
      return Value(static_cast<int32_t>(rng->UniformRange(-1000, 1000)));
    case FieldType::kInt64:
      return Value(static_cast<int64_t>(rng->UniformRange(-100000, 100000)));
    case FieldType::kDouble:
      return Value(rng->NextDouble() * 100.0);
    case FieldType::kString:
      return Value(rng->NextString(1 + rng->Uniform(12)));
    case FieldType::kDate:
      return Value(static_cast<int32_t>(rng->UniformRange(0, 20000)));
  }
  return Value();
}

class LayoutPropertyTest : public ::testing::TestWithParam<uint64_t> {};

/// For random blocks and predicates: sorted+indexed lookup + post-filter
/// equals a naive scan of the unsorted block.
TEST_P(LayoutPropertyTest, IndexScanEqualsNaiveFilter) {
  Random rng(GetParam());
  const Schema schema = RandomSchema(&rng);
  const int rows = 50 + static_cast<int>(rng.Uniform(400));

  PaxBlock block(schema, BlockFormatOptions{8});
  for (int r = 0; r < rows; ++r) {
    std::vector<Value> row;
    for (int c = 0; c < schema.num_fields(); ++c) {
      row.push_back(RandomValue(&rng, schema.field(c).type));
    }
    block.AppendRow(row);
  }

  // Pick a random filter column + range predicate.
  const int col = static_cast<int>(rng.Uniform(
      static_cast<uint64_t>(schema.num_fields())));
  Value lo = RandomValue(&rng, schema.field(col).type);
  Value hi = RandomValue(&rng, schema.field(col).type);
  if (hi < lo) std::swap(lo, hi);
  PredicateTerm term;
  term.column = col;
  term.op = CompareOp::kBetween;
  term.literal = lo;
  term.literal_hi = hi;

  // Naive reference on the unsorted block.
  std::multiset<std::string> expected;
  RowParser parser(schema);
  for (uint32_t r = 0; r < block.num_records(); ++r) {
    auto row = block.GetRow(r);
    if (term.Matches(row[static_cast<size_t>(col)])) {
      expected.insert(parser.Render(row));
    }
  }

  // HAIL path: sort, index, serialise, lookup, post-filter.
  block.SortByColumn(col);
  const ClusteredIndex index = ClusteredIndex::Build(block.column(col), 8);
  const std::string bytes = BuildHailBlock(block, &index, col);
  auto view = HailBlockView::Open(bytes);
  ASSERT_TRUE(view.ok());
  auto idx = view->ReadIndex();
  ASSERT_TRUE(idx.ok());
  auto pax = view->OpenPax();
  ASSERT_TRUE(pax.ok());

  const RowRange range = idx->Lookup(*term.ToKeyRange());
  std::multiset<std::string> got;
  for (uint32_t r = range.begin; r < range.end; ++r) {
    auto v = pax->GetAnyValue(col, r);
    ASSERT_TRUE(v.ok());
    if (!term.Matches(*v)) continue;  // post-filter
    auto row = pax->GetRow(r);
    ASSERT_TRUE(row.ok());
    got.insert(parser.Render(*row));
  }
  EXPECT_EQ(got, expected) << "seed " << GetParam() << " col " << col;
}

/// Rows for the round-trip property: the columns of \p schema hold random
/// values, except that the last two are run-shaped (a value repeats for a
/// random stretch) and low-cardinality (drawn from a pool of 1-4 values),
/// so that format v3 writes FOR, RLE and dictionary minipages.
std::vector<std::vector<Value>> RoundTripRows(const Schema& schema, int rows,
                                              Random* rng) {
  const int ncols = schema.num_fields();
  const int runs_col = ncols - 2;
  const int pool_col = ncols - 1;
  std::vector<Value> pool;
  const int pool_size = 1 + static_cast<int>(rng->Uniform(4));
  for (int i = 0; i < pool_size; ++i) {
    pool.push_back(RandomValue(rng, schema.field(pool_col).type));
  }
  std::vector<std::vector<Value>> out;
  for (int r = 0; r < rows; ++r) {
    std::vector<Value> row;
    for (int c = 0; c < ncols; ++c) {
      const FieldType type = schema.field(c).type;
      if (c == runs_col && r > 0 && rng->Uniform(8) != 0) {
        row.push_back(out.back()[static_cast<size_t>(c)]);
      } else if (c == pool_col) {
        row.push_back(pool[rng->Uniform(pool.size())]);
      } else {
        row.push_back(RandomValue(rng, type));
      }
    }
    out.push_back(std::move(row));
  }
  return out;
}

/// The blocks of one round-trip seed: a random schema plus the
/// run-shaped and the low-cardinality column, one varlen partition size,
/// and blocks of 0, 1 and up to 300 rows.
struct RoundTripCase {
  Schema schema;
  uint32_t partition = 1;
  std::vector<std::vector<std::vector<Value>>> blocks;
};

RoundTripCase MakeRoundTripCase(uint64_t seed) {
  Random rng(seed * 31 + 7);
  std::vector<Field> fields = RandomSchema(&rng).fields();
  for (const char* name : {"runs", "pool"}) {
    fields.push_back(Field{name, RandomSchema(&rng).field(0).type});
  }
  RoundTripCase out;
  out.schema = Schema(std::move(fields));
  out.partition = 1 + static_cast<uint32_t>(rng.Uniform(32));
  const int rows = static_cast<int>(rng.Uniform(300));
  for (const int n : {0, 1, rows}) {
    out.blocks.push_back(RoundTripRows(out.schema, n, &rng));
  }
  return out;
}

PaxBlock BuildBlock(const RoundTripCase& tc, size_t i, bool encoded) {
  PaxBlock block(tc.schema, BlockFormatOptions{tc.partition, encoded});
  for (const std::vector<Value>& row : tc.blocks[i]) block.AppendRow(row);
  return block;
}

/// Reads column \p c of \p view with a fresh ColumnReader, row by row in
/// \p order, and compares every value with \p col.
void ExpectReaderMatches(const PaxBlockView& view, int c,
                         const ColumnVector& col,
                         const std::vector<uint32_t>& order,
                         const char* access) {
  auto reader = view.OpenColumn(c);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  for (uint32_t r : order) {
    auto v = reader->Get(r);
    ASSERT_TRUE(v.ok()) << access << " row " << r << ": "
                        << v.status().ToString();
    ASSERT_EQ(*v, col.GetValue(r)) << access << " column " << c << " row "
                                   << r << " encoding "
                                   << MiniPageEncodingName(reader->encoding());
    if (col.type() == FieldType::kString) {
      auto s = reader->GetString(r);
      ASSERT_TRUE(s.ok());
      ASSERT_EQ(*s, col.str(r));
    }
  }
}

/// Serialise/deserialise is identity for random blocks of 0, 1 and up to
/// 300 rows, written as v1 and as v3, and ColumnReader reads every
/// column back: in bulk (AppendTo) and row by row in dense ascending,
/// sparse ascending, backward and far-first-row order.
TEST_P(LayoutPropertyTest, PaxRoundTripIsIdentity) {
  const RoundTripCase tc = MakeRoundTripCase(GetParam());
  Random rng(GetParam() * 131 + 5);  // access orders
  for (size_t i = 0; i < tc.blocks.size(); ++i) {
    for (const bool encoded : {false, true}) {
      SCOPED_TRACE(testing::Message()
                   << "rows " << tc.blocks[i].size() << " encoded " << encoded
                   << " partition " << tc.partition);
      const PaxBlock block = BuildBlock(tc, i, encoded);
      const std::string bytes = block.Serialize();
      auto back = PaxBlock::Deserialize(bytes);
      ASSERT_TRUE(back.ok());
      ASSERT_EQ(back->num_records(), block.num_records());
      for (uint32_t r = 0; r < block.num_records(); ++r) {
        ASSERT_EQ(back->GetRow(r), block.GetRow(r));
      }

      auto view = PaxBlockView::Open(bytes);
      ASSERT_TRUE(view.ok());
      ASSERT_EQ(view->encoded_format(), encoded);
      const uint32_t n = block.num_records();
      std::vector<uint32_t> dense(n);
      for (uint32_t r = 0; r < n; ++r) dense[r] = r;
      std::vector<uint32_t> sparse;
      for (uint32_t r = 0; r < n;
           r += 1 + static_cast<uint32_t>(rng.Uniform(9))) {
        sparse.push_back(r);
      }
      const std::vector<uint32_t> backward(dense.rbegin(), dense.rend());
      std::vector<uint32_t> far_first;
      if (n > 0) far_first.push_back(n - 1);
      for (int k = 0; k < 20 && n > 0; ++k) {
        far_first.push_back(static_cast<uint32_t>(rng.Uniform(n)));
      }
      for (int c = 0; c < block.num_columns(); ++c) {
        const ColumnVector& col = block.column(c);
        ExpectReaderMatches(*view, c, col, dense, "dense");
        ExpectReaderMatches(*view, c, col, sparse, "sparse");
        ExpectReaderMatches(*view, c, col, backward, "backward");
        ExpectReaderMatches(*view, c, col, far_first, "far-first");
        auto reader = view->OpenColumn(c);
        ASSERT_TRUE(reader.ok());
        EXPECT_TRUE(reader->Get(n).status().IsOutOfRange());
        // AppendTo appends: a second call lands after the first.
        ColumnVector out(col.type());
        ASSERT_TRUE(reader->AppendTo(&out).ok());
        ASSERT_TRUE(reader->AppendTo(&out).ok());
        ASSERT_EQ(out.size(), 2 * col.size());
        for (uint32_t r = 0; r < n; ++r) {
          ASSERT_EQ(out.GetValue(r), col.GetValue(r)) << "column " << c;
          ASSERT_EQ(out.GetValue(n + r), col.GetValue(r)) << "column " << c;
        }
      }
    }
  }
}

/// The round-trip blocks above exercise every v3 encoding across the
/// seeds.
TEST(LayoutPropertyCoverageTest, RoundTripBlocksUseEveryEncoding) {
  std::set<MiniPageEncoding> seen;
  for (uint64_t seed = 1; seed < 13; ++seed) {
    const RoundTripCase tc = MakeRoundTripCase(seed);
    for (size_t i = 0; i < tc.blocks.size(); ++i) {
      const std::string bytes = BuildBlock(tc, i, true).Serialize();
      auto view = PaxBlockView::Open(bytes);
      ASSERT_TRUE(view.ok());
      for (int c = 0; c < view->num_columns(); ++c) {
        seen.insert(view->OpenColumn(c)->encoding());
      }
    }
  }
  EXPECT_TRUE(seen.count(MiniPageEncoding::kFor));
  EXPECT_TRUE(seen.count(MiniPageEncoding::kRle));
  EXPECT_TRUE(seen.count(MiniPageEncoding::kDict));
}

/// Row-aligned cutting loses nothing for random row lengths.
TEST_P(LayoutPropertyTest, RowAlignedCuttingIsLossless) {
  Random rng(GetParam() * 97 + 3);
  std::string text;
  const int rows = static_cast<int>(rng.Uniform(500));
  for (int r = 0; r < rows; ++r) {
    text += rng.NextString(1 + rng.Uniform(120));
    text += '\n';
  }
  const uint64_t block_size = 64 + rng.Uniform(512);
  std::string joined;
  for (std::string_view b : CutRowAlignedBlocks(text, block_size)) {
    joined += std::string(b);
  }
  EXPECT_EQ(joined, text);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LayoutPropertyTest,
                         ::testing::Range<uint64_t>(1, 13));

// ---------------------------------------------------------------------------
// End-to-end property: replica multiset invariance under upload
// ---------------------------------------------------------------------------

class UploadPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(UploadPropertyTest, AllReplicasHoldSameRecords) {
  sim::ClusterConfig cc;
  cc.num_nodes = 5;
  sim::SimCluster cluster(cc);
  hdfs::DfsConfig cfg;
  cfg.block_size = 4096;
  cfg.scale_factor = 128.0;
  cfg.format.varlen_partition_size = 8;
  hdfs::MiniDfs dfs(&cluster, cfg);

  Random rng(GetParam());
  workload::UserVisitsConfig uv;
  uv.rows = 100 + rng.Uniform(300);
  uv.seed = GetParam();
  const std::string text = workload::GenerateUserVisitsText(uv);

  HailUploadConfig config;
  config.schema = workload::UserVisitsSchema();
  // Random subset of columns to index.
  config.sort_columns = {
      static_cast<int>(rng.Uniform(9)),
      static_cast<int>(rng.Uniform(9)),
      static_cast<int>(rng.Uniform(9)),
  };
  auto report = HailUploadTextFile(&dfs, config, 0, "/p", text);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  auto blocks = dfs.namenode().GetFileBlocks("/p");
  ASSERT_TRUE(blocks.ok());
  RowParser parser(config.schema);
  std::multiset<std::string> all_rows_once;
  for (const auto& loc : *blocks) {
    std::multiset<std::string> first;
    for (size_t i = 0; i < loc.datanodes.size(); ++i) {
      auto bytes = dfs.datanode(loc.datanodes[i])
                       .ReadBlockVerified(loc.block_id, cfg.chunk_bytes);
      ASSERT_TRUE(bytes.ok());
      auto view = HailBlockView::Open(*bytes);
      ASSERT_TRUE(view.ok());
      auto pax_bytes = view->OpenPax();
      ASSERT_TRUE(pax_bytes.ok());
      std::multiset<std::string> rows;
      for (uint32_t r = 0; r < pax_bytes->num_records(); ++r) {
        auto row = pax_bytes->GetRow(r);
        ASSERT_TRUE(row.ok());
        rows.insert(parser.Render(*row));
      }
      if (i == 0) {
        first = rows;
        for (const auto& s : rows) all_rows_once.insert(s);
      } else {
        ASSERT_EQ(rows, first) << "replica diverged logically";
      }
    }
  }
  // And the union of blocks equals the input rows (canonicalised through
  // the same parse+render path, since e.g. "113.30" renders as "113.3").
  std::multiset<std::string> input;
  for (std::string_view row : SplitRows(text)) {
    if (row.empty()) continue;
    ParsedRow parsed = parser.Parse(row);
    ASSERT_TRUE(parsed.ok);
    input.insert(parser.Render(parsed.values));
  }
  EXPECT_EQ(all_rows_once, input);
}

INSTANTIATE_TEST_SUITE_P(Seeds, UploadPropertyTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

// ---------------------------------------------------------------------------
// Query-level property: systems agree on random range queries
// ---------------------------------------------------------------------------

class QueryPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(QueryPropertyTest, HailAgreesWithHadoopOnRandomRanges) {
  workload::TestbedConfig config;
  config.num_nodes = 4;
  config.real_block_bytes = 8 * 1024;
  config.logical_block_bytes = 1024 * 1024;
  config.blocks_per_node = 4;
  config.seed = GetParam();

  Random rng(GetParam() * 13);
  // Random range on a random indexable UserVisits attribute.
  struct Choice {
    int column;
    std::string filter;
  };
  const int32_t d1 = static_cast<int32_t>(rng.UniformRange(4000, 14000));
  const int32_t d2 = d1 + static_cast<int32_t>(rng.Uniform(2000));
  const double a1 = rng.NextDouble() * 400;
  const double a2 = a1 + rng.NextDouble() * 100;
  const int32_t u1 = static_cast<int32_t>(rng.Uniform(9000));
  const Choice choices[] = {
      {workload::kVisitDate,
       "@3 between(" + DaysToDateString(d1) + "," + DaysToDateString(d2) +
           ")"},
      {workload::kAdRevenue,
       "@4 between(" + std::to_string(a1) + "," + std::to_string(a2) + ")"},
      {workload::kDuration, "@9 >= " + std::to_string(u1)},
  };
  const Choice& pick = choices[rng.Uniform(std::size(choices))];
  workload::QueryDef q{"prop", pick.filter, "{@1,@9}", 0};

  std::vector<std::string> hadoop_rows, hail_rows;
  {
    workload::Testbed bed(config);
    bed.LoadUserVisits();
    ASSERT_TRUE(bed.UploadHadoop("/d").ok());
    auto r = bed.RunQuery(mapreduce::System::kHadoop, "/d", q, false, {},
                          true);
    ASSERT_TRUE(r.ok());
    hadoop_rows = r->output_rows;
  }
  {
    workload::Testbed bed(config);
    bed.LoadUserVisits();
    ASSERT_TRUE(bed.UploadHail("/d", {pick.column}).ok());
    auto r = bed.RunQuery(mapreduce::System::kHail, "/d", q, true, {}, true);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->fallback_scans, 0u);
    hail_rows = r->output_rows;
  }
  std::sort(hadoop_rows.begin(), hadoop_rows.end());
  std::sort(hail_rows.begin(), hail_rows.end());
  EXPECT_EQ(hail_rows, hadoop_rows) << pick.filter;
}

INSTANTIATE_TEST_SUITE_P(Seeds, QueryPropertyTest,
                         ::testing::Range<uint64_t>(100, 110));

}  // namespace
}  // namespace hail
