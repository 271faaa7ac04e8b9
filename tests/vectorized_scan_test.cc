/// \file vectorized_scan_test.cc
/// \brief Property tests for the vectorized scan engine: the batched
/// column filter + selection vector + typed reconstruction path must be
/// observably identical to the row-at-a-time GetRow/GetAnyValue path
/// across all field types, varlen partition sizes, and bad-record mixes.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <type_traits>
#include <vector>

#include "layout/pax_block.h"
#include "query/predicate.h"
#include "query/vectorized.h"
#include "schema/row_parser.h"
#include "util/random.h"

namespace hail {
namespace {

/// One column of every field type, two strings to exercise independent
/// varlen cursors.
Schema AllTypesSchema() {
  return Schema({{"k", FieldType::kInt32},
                 {"url", FieldType::kString},
                 {"rev", FieldType::kDouble},
                 {"d", FieldType::kDate},
                 {"cnt", FieldType::kInt64},
                 {"tag", FieldType::kString}});
}

/// Text rows for AllTypesSchema with an optional bad-record mix.
std::string MakeText(int rows, uint64_t seed, double bad_fraction) {
  Random rng(seed);
  std::string out;
  for (int i = 0; i < rows; ++i) {
    if (rng.Bernoulli(bad_fraction)) {
      // Alternate wrong-arity and non-numeric bad rows.
      out += (i % 2 == 0) ? "only,three,fields\n" : "NaNish,x,1.0,2001-01-01,oops,t\n";
      continue;
    }
    out += std::to_string(rng.UniformRange(-50, 50));
    out += ",";
    out += rng.NextString(rng.Uniform(12));  // includes empty strings
    out += ",";
    out += std::to_string(static_cast<double>(rng.UniformRange(0, 10000)) / 100.0);
    out += ",";
    out += "20" + std::to_string(rng.UniformRange(10, 19)) + "-01-0" +
           std::to_string(rng.UniformRange(1, 9));
    out += ",";
    out += std::to_string(rng.UniformRange(-1000000000000LL, 1000000000000LL));
    out += ",";
    out += rng.NextString(1 + rng.Uniform(4));
    out += "\n";
  }
  return out;
}

/// Random predicate over the schema with typed literals; exercises every
/// operator, numeric widening, and string terms.
Predicate MakePredicate(const Schema& schema, Random* rng) {
  const int nterms = 1 + static_cast<int>(rng->Uniform(3));
  std::vector<PredicateTerm> terms;
  for (int t = 0; t < nterms; ++t) {
    PredicateTerm term;
    term.column = static_cast<int>(rng->Uniform(
        static_cast<uint64_t>(schema.num_fields())));
    const FieldType type = schema.field(term.column).type;
    static constexpr CompareOp kOps[] = {
        CompareOp::kEq, CompareOp::kNe, CompareOp::kLt, CompareOp::kLe,
        CompareOp::kGt, CompareOp::kGe, CompareOp::kBetween};
    term.op = kOps[rng->Uniform(7)];
    auto make_literal = [&]() -> Value {
      switch (type) {
        case FieldType::kInt32:
          // Sometimes an int64 or double literal to exercise widening.
          if (rng->Bernoulli(0.2)) return Value(rng->UniformRange(-50, 50));
          if (rng->Bernoulli(0.2)) {
            return Value(static_cast<double>(rng->UniformRange(-50, 50)) + 0.5);
          }
          return Value(static_cast<int32_t>(rng->UniformRange(-50, 50)));
        case FieldType::kDate:
          return Value(*ParseDateToDays(
              "20" + std::to_string(rng->UniformRange(10, 19)) + "-01-05"));
        case FieldType::kInt64:
          if (rng->Bernoulli(0.3)) {
            return Value(static_cast<int32_t>(rng->UniformRange(-100, 100)));
          }
          return Value(rng->UniformRange(-1000000000000LL, 1000000000000LL));
        case FieldType::kDouble:
          if (rng->Bernoulli(0.3)) return Value(rng->UniformRange(0, 100));
          return Value(static_cast<double>(rng->UniformRange(0, 10000)) / 100.0);
        case FieldType::kString:
          return Value(Random(rng->NextU64()).NextString(rng->Uniform(6)));
      }
      return Value(int64_t{0});
    };
    term.literal = make_literal();
    if (term.op == CompareOp::kBetween) term.literal_hi = make_literal();
    terms.push_back(std::move(term));
  }
  return Predicate(std::move(terms));
}

/// The pre-refactor reader hot loop: per row, per term GetAnyValue +
/// Matches. This is the reference the engine must reproduce exactly.
std::vector<uint32_t> RowAtATimeFilter(const PaxBlockView& view,
                                       const Predicate& pred, RowRange range) {
  std::vector<uint32_t> out;
  const uint32_t end = std::min(range.end, view.num_records());
  for (uint32_t r = range.begin; r < end; ++r) {
    bool match = true;
    for (const PredicateTerm& term : pred.terms()) {
      auto v = view.GetAnyValue(term.column, r);
      EXPECT_TRUE(v.ok()) << v.status().ToString();
      if (!term.Matches(*v)) {
        match = false;
        break;
      }
    }
    if (match) out.push_back(r);
  }
  return out;
}

TEST(VectorizedScanTest, FilterMatchesRowAtATimePath) {
  const Schema schema = AllTypesSchema();
  Random rng(2024);
  for (const uint32_t partition : {1u, 3u, 16u, 64u}) {
    for (const int rows : {0, 1, 7, 250, 1000}) {
      for (const double bad_fraction : {0.0, 0.15}) {
        BlockFormatOptions options;
        options.varlen_partition_size = partition;
        PaxBlock block = BuildPaxBlockFromText(
            schema, MakeText(rows, rng.NextU64(), bad_fraction), options);
        const std::string bytes = block.Serialize();
        auto view = PaxBlockView::Open(bytes);
        ASSERT_TRUE(view.ok());

        for (int trial = 0; trial < 8; ++trial) {
          const Predicate pred = MakePredicate(schema, &rng);
          // Random sub-range, sometimes the full block (index-scan and
          // full-scan shapes).
          RowRange range{0, view->num_records()};
          if (trial % 2 == 1 && view->num_records() > 0) {
            range.begin = static_cast<uint32_t>(
                rng.Uniform(view->num_records()));
            range.end = range.begin + static_cast<uint32_t>(rng.Uniform(
                view->num_records() - range.begin + 1));
          }
          auto compiled = CompiledPredicate::Compile(pred, schema);
          ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
          SelectionVector sel;
          ASSERT_TRUE(compiled->FilterBlock(*view, range, &sel).ok());
          EXPECT_EQ(sel.rows(), RowAtATimeFilter(*view, pred, range))
              << "partition=" << partition << " rows=" << rows
              << " bad=" << bad_fraction << " filter="
              << pred.ToString(schema);
        }
      }
    }
  }
}

/// Text rows for AllTypesSchema shaped so format-v3 picks every encoding:
/// k narrow-range (FOR), url/tag low-cardinality (dictionary), rev and cnt
/// change value only every ~30 rows (RLE, including double runs), d a
/// narrow date range. Same bad-record mix as MakeText.
std::string MakeEncodableText(int rows, uint64_t seed, double bad_fraction) {
  Random rng(seed);
  static const char* kUrls[] = {"a.com", "bb.net", "c.org", "", "dd.io"};
  static const char* kTags[] = {"x", "yy", "zzz"};
  std::string out;
  std::string run_rev = "0.25";
  std::string run_cnt = "-7";
  for (int i = 0; i < rows; ++i) {
    if (rng.Bernoulli(bad_fraction)) {
      out += (i % 2 == 0) ? "only,three,fields\n"
                          : "NaNish,x,1.0,2001-01-01,oops,t\n";
      continue;
    }
    if (i % 30 == 0) {
      run_rev = std::to_string(
          static_cast<double>(rng.UniformRange(0, 2000)) / 4.0);
      run_cnt = std::to_string(rng.UniformRange(-1000000000000LL,
                                                1000000000000LL));
    }
    out += std::to_string(rng.UniformRange(100, 160));
    out += ",";
    out += kUrls[rng.Uniform(5)];
    out += ",";
    out += run_rev;
    out += ",";
    out += "201" + std::to_string(rng.UniformRange(0, 9)) + "-01-0" +
           std::to_string(rng.UniformRange(1, 9));
    out += ",";
    out += run_cnt;
    out += ",";
    out += kTags[rng.Uniform(3)];
    out += "\n";
  }
  return out;
}

/// Satellite property: scanning the encoded form directly — predicate
/// literals rewritten into code space, kernels over codes/runs — must be
/// observably identical to both the unencoded vectorized path and the
/// row-at-a-time reference, across all field types, operators, encodings,
/// and bad-record mixes.
TEST(VectorizedScanTest, EncodedScanMatchesPlainAndRowAtATime) {
  const Schema schema = AllTypesSchema();
  Random rng(777);
  for (const uint32_t partition : {3u, 16u}) {
    for (const int rows : {0, 1, 7, 250, 1000}) {
      for (const double bad_fraction : {0.0, 0.15}) {
        const std::string text =
            MakeEncodableText(rows, rng.NextU64(), bad_fraction);
        BlockFormatOptions plain_opts;
        plain_opts.varlen_partition_size = partition;
        BlockFormatOptions enc_opts = plain_opts;
        enc_opts.enable_encoding = true;
        PaxBlock plain_block = BuildPaxBlockFromText(schema, text, plain_opts);
        PaxBlock enc_block = BuildPaxBlockFromText(schema, text, enc_opts);
        const std::string plain_bytes = plain_block.Serialize();
        const std::string enc_bytes = enc_block.Serialize();
        auto plain = PaxBlockView::Open(plain_bytes);
        auto enc = PaxBlockView::Open(enc_bytes);
        ASSERT_TRUE(plain.ok() && enc.ok());
        ASSERT_TRUE(enc->encoded_format());
        if (rows >= 250) {
          // The generator must actually exercise every encoding, or this
          // property test silently degrades to plain-vs-plain.
          EXPECT_EQ(enc->OpenColumn(0)->encoding(), MiniPageEncoding::kFor);
          EXPECT_EQ(enc->OpenColumn(1)->encoding(), MiniPageEncoding::kDict);
          EXPECT_EQ(enc->OpenColumn(2)->encoding(), MiniPageEncoding::kRle);
          EXPECT_EQ(enc->OpenColumn(4)->encoding(), MiniPageEncoding::kRle);
          EXPECT_EQ(enc->OpenColumn(5)->encoding(), MiniPageEncoding::kDict);
        }

        for (int trial = 0; trial < 10; ++trial) {
          Predicate pred = MakePredicate(schema, &rng);
          if (trial == 0) {
            // Guaranteed dictionary-equality hit (a literal that IS in the
            // dictionary), plus a FOR range straddling the frame.
            PredicateTerm t0;
            t0.column = 1;
            t0.op = CompareOp::kEq;
            t0.literal = Value(std::string("bb.net"));
            PredicateTerm t1;
            t1.column = 0;
            t1.op = CompareOp::kBetween;
            t1.literal = Value(int32_t{90});
            t1.literal_hi = Value(int32_t{130});
            pred = Predicate({t0, t1});
          }
          RowRange range{0, plain->num_records()};
          if (trial % 2 == 1 && plain->num_records() > 0) {
            range.begin =
                static_cast<uint32_t>(rng.Uniform(plain->num_records()));
            range.end = range.begin + static_cast<uint32_t>(rng.Uniform(
                plain->num_records() - range.begin + 1));
          }
          auto compiled = CompiledPredicate::Compile(pred, schema);
          ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
          SelectionVector sel_plain, sel_enc;
          ASSERT_TRUE(compiled->FilterBlock(*plain, range, &sel_plain).ok());
          ASSERT_TRUE(compiled->FilterBlock(*enc, range, &sel_enc).ok());
          const std::vector<uint32_t> reference =
              RowAtATimeFilter(*plain, pred, range);
          EXPECT_EQ(sel_plain.rows(), reference)
              << "plain filter=" << pred.ToString(schema);
          EXPECT_EQ(sel_enc.rows(), reference)
              << "encoded filter=" << pred.ToString(schema)
              << " partition=" << partition << " rows=" << rows
              << " bad=" << bad_fraction;
          // Row-at-a-time over the encoded view (GetAnyValue decodes
          // per value) closes the three-way equivalence.
          EXPECT_EQ(RowAtATimeFilter(*enc, pred, range), reference)
              << "encoded row-at-a-time filter=" << pred.ToString(schema);
        }
      }
    }
  }
}

/// RowAtATimeFilter over the rows of \p candidates only.
std::vector<uint32_t> RowAtATimeRefine(const PaxBlockView& view,
                                       const Predicate& pred,
                                       const std::vector<uint32_t>& candidates) {
  std::vector<uint32_t> out;
  for (uint32_t r : candidates) {
    if (!RowAtATimeFilter(view, pred, RowRange{r, r + 1}).empty()) {
      out.push_back(r);
    }
  }
  return out;
}

/// The unclustered-index read path: RefineCandidates narrows an ascending
/// candidate set, so every term runs sparse from the first one. Over v1
/// blocks, v3 blocks in arrival order and v3 blocks sorted on k (whose k
/// minipage is then RLE), every kernel runs on every kind of minipage.
TEST(VectorizedScanTest, RefineCandidatesMatchesRowAtATime) {
  const Schema schema = AllTypesSchema();
  Random rng(4242);
  for (const uint32_t partition : {3u, 16u}) {
    for (const int rows : {0, 1, 7, 250, 1000}) {
      for (const double bad_fraction : {0.0, 0.15}) {
        const std::string text =
            MakeEncodableText(rows, rng.NextU64(), bad_fraction);
        for (const int shape : {0, 1, 2}) {  // v1, v3, v3 sorted on k
          BlockFormatOptions options;
          options.varlen_partition_size = partition;
          options.enable_encoding = shape != 0;
          PaxBlock block = BuildPaxBlockFromText(schema, text, options);
          if (shape == 2) block.SortByColumn(0);
          const std::string bytes = block.Serialize();
          auto view = PaxBlockView::Open(bytes);
          ASSERT_TRUE(view.ok());
          const uint32_t n = view->num_records();

          std::vector<std::vector<uint32_t>> candidate_sets;
          candidate_sets.push_back({});
          if (n > 0) {
            candidate_sets.push_back(
                {static_cast<uint32_t>(rng.Uniform(n))});
          }
          std::vector<uint32_t> every(n);
          for (uint32_t r = 0; r < n; ++r) every[r] = r;
          candidate_sets.push_back(every);
          for (const uint64_t keep_one_in : {2u, 9u, 50u}) {
            std::vector<uint32_t> subset;
            for (uint32_t r = 0; r < n; ++r) {
              if (rng.Uniform(keep_one_in) == 0) subset.push_back(r);
            }
            candidate_sets.push_back(std::move(subset));
          }

          for (int trial = 0; trial < 6; ++trial) {
            const Predicate pred = MakePredicate(schema, &rng);
            auto compiled = CompiledPredicate::Compile(pred, schema);
            ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
            for (const std::vector<uint32_t>& candidates : candidate_sets) {
              SelectionVector sel;
              sel.mutable_rows() = candidates;
              ASSERT_TRUE(compiled->RefineCandidates(*view, &sel).ok());
              EXPECT_EQ(sel.rows(), RowAtATimeRefine(*view, pred, candidates))
                  << "filter=" << pred.ToString(schema) << " shape=" << shape
                  << " partition=" << partition << " rows=" << rows
                  << " bad=" << bad_fraction
                  << " candidates=" << candidates.size();
            }
          }
        }
      }
    }
  }
}

/// A compiled predicate run on a block that does not hold what it was
/// compiled for is InvalidArgument, whatever the minipage's encoding: a
/// term on a column the block lacks, and a term compiled for another
/// storage type than the block's column, stored plain or FOR-encoded.
TEST(VectorizedScanTest, MismatchedBlocksAreInvalidArgument) {
  const Schema schema = AllTypesSchema();
  const std::string text = MakeEncodableText(1000, 99, 0.0);
  BlockFormatOptions plain_opts;
  BlockFormatOptions enc_opts;
  enc_opts.enable_encoding = true;
  // k (column 0) is plain int32 in the v1 block and FOR-encoded in the v3
  // block (EncodedScanMatchesPlainAndRowAtATime checks the encoding).
  const std::string plain_bytes =
      BuildPaxBlockFromText(schema, text, plain_opts).Serialize();
  const std::string enc_bytes =
      BuildPaxBlockFromText(schema, text, enc_opts).Serialize();
  auto plain = PaxBlockView::Open(plain_bytes);
  auto enc = PaxBlockView::Open(enc_bytes);
  ASSERT_TRUE(plain.ok() && enc.ok());

  // Compiles "@<column+1> > literal" against \p compile_schema, runs it
  // on \p view through FilterBlock and through RefineCandidates with
  // every row as a candidate, and expects \p want from both.
  const auto check = [](const Schema& compile_schema, int column,
                        const Value& literal, const PaxBlockView& view,
                        StatusCode want, const std::string& what) {
    PredicateTerm term;
    term.column = column;
    term.op = CompareOp::kGt;
    term.literal = literal;
    auto compiled =
        CompiledPredicate::Compile(Predicate({term}), compile_schema);
    ASSERT_TRUE(compiled.ok()) << what;
    SelectionVector sel;
    const Status filter =
        compiled->FilterBlock(view, RowRange{0, view.num_records()}, &sel);
    EXPECT_EQ(filter.code(), want) << what << ": " << filter.ToString();
    sel.FillRange(0, view.num_records());
    const Status refine = compiled->RefineCandidates(view, &sel);
    EXPECT_EQ(refine.code(), want) << what << ": " << refine.ToString();
  };
  const auto block_name = [&](const PaxBlockView* view) {
    return std::string(view == &*plain ? "plain" : "FOR");
  };

  // A seventh column the six-column blocks lack.
  std::vector<Field> fields;
  for (int c = 0; c < schema.num_fields(); ++c) {
    fields.push_back(schema.field(c));
  }
  std::vector<Field> wide_fields = fields;
  wide_fields.push_back({"extra", FieldType::kInt32});
  for (const PaxBlockView* view : {&*plain, &*enc}) {
    check(Schema(wide_fields), 6, Value(int32_t{5}), *view,
          StatusCode::kInvalidArgument,
          "missing column, " + block_name(view) + " block");
  }

  // k compiled as a double or an int64 column; the blocks store int32.
  for (const FieldType type : {FieldType::kDouble, FieldType::kInt64}) {
    std::vector<Field> mistyped = fields;
    mistyped[0].type = type;
    const Value literal = type == FieldType::kDouble ? Value(120.0)
                                                     : Value(int64_t{120});
    for (const PaxBlockView* view : {&*plain, &*enc}) {
      check(Schema(mistyped), 0, literal, *view, StatusCode::kInvalidArgument,
            std::string(FieldTypeName(type)) + " term on " + block_name(view) +
                " int32 column");
    }
  }

  // int32 and date share storage: a date term reads an int32 column.
  std::vector<Field> as_date = fields;
  as_date[0].type = FieldType::kDate;
  for (const PaxBlockView* view : {&*plain, &*enc}) {
    check(Schema(as_date), 0, Value(int32_t{120}), *view, StatusCode::kOk,
          "date term on " + block_name(view) + " int32 column");
  }
}

/// A copy of the VarlenCursor that plain string column \p column's
/// reader holds (invalid for any other column).
VarlenCursor CursorOf(const PaxBlockView& view, int column) {
  VarlenCursor cursor;
  auto reader = view.OpenColumn(column);
  EXPECT_TRUE(reader.ok());
  if (reader.ok()) {
    reader->Visit([&cursor](const auto& span) {
      if constexpr (std::is_same_v<std::decay_t<decltype(span)>,
                                   VarlenCursor>) {
        cursor = span;
      }
    });
  }
  EXPECT_TRUE(cursor.valid());
  return cursor;
}

TEST(VectorizedScanTest, VarlenCursorSequentialIsLinear) {
  const Schema schema = AllTypesSchema();
  BlockFormatOptions options;
  options.varlen_partition_size = 16;
  PaxBlock block = BuildPaxBlockFromText(schema, MakeText(1000, 3, 0.0),
                                         options);
  const std::string bytes = block.Serialize();
  auto view = PaxBlockView::Open(bytes);
  ASSERT_TRUE(view.ok());
  const uint32_t n = view->num_records();

  VarlenCursor cursor = CursorOf(*view, 1);
  ASSERT_TRUE(cursor.valid());
  for (uint32_t r = 0; r < n; ++r) {
    auto s = cursor.Get(r);
    ASSERT_TRUE(s.ok());
    EXPECT_EQ(*s, *view->GetString(1, r)) << "row " << r;
  }
  // A full sequential pass decodes each value exactly once — O(n), unlike
  // GetString's O(n * partition) re-scans — and never re-seeks.
  EXPECT_EQ(cursor.decode_steps(), n);
  EXPECT_EQ(cursor.partition_seeks(), 0u);

  // Ascending sparse access stays bounded by one partition per hit.
  VarlenCursor sparse = CursorOf(*view, 1);
  ASSERT_TRUE(sparse.valid());
  uint32_t hits = 0;
  for (uint32_t r = 5; r < n; r += 97) {
    ASSERT_TRUE(sparse.Get(r).ok());
    ++hits;
  }
  EXPECT_LE(sparse.decode_steps(),
            static_cast<uint64_t>(hits) * options.varlen_partition_size);

  // Backward access re-seeks via the sparse offsets and still agrees.
  VarlenCursor backward = CursorOf(*view, 1);
  ASSERT_TRUE(backward.valid());
  for (uint32_t r = n; r-- > 0;) {
    ASSERT_EQ(std::string(*backward.Get(r)), *view->GetString(1, r));
  }
}

TEST(VectorizedScanTest, BadRecordCursorMatchesGetBadRecord) {
  const Schema schema = AllTypesSchema();
  PaxBlock block = BuildPaxBlockFromText(schema, MakeText(300, 11, 0.3));
  const std::string bytes = block.Serialize();
  auto view = PaxBlockView::Open(bytes);
  ASSERT_TRUE(view.ok());
  ASSERT_GT(view->num_bad_records(), 0u);

  auto cursor = view->OpenBadRecords();
  ASSERT_TRUE(cursor.ok());
  for (uint32_t i = 0; i < view->num_bad_records(); ++i) {
    ASSERT_FALSE(cursor->Done());
    auto next = cursor->Next();
    ASSERT_TRUE(next.ok());
    EXPECT_EQ(*next, *view->GetBadRecord(i)) << "bad record " << i;
  }
  EXPECT_TRUE(cursor->Done());
  EXPECT_TRUE(cursor->Next().status().IsOutOfRange());
}

TEST(VectorizedScanTest, MatchesRowEqualsPredicateMatches) {
  const Schema schema = AllTypesSchema();
  Random rng(5150);
  RowParser parser(schema);
  const std::string text = MakeText(400, 17, 0.0);
  std::vector<std::vector<Value>> rows;
  for (std::string_view row : SplitRows(text)) {
    if (row.empty()) continue;
    auto parsed = parser.Parse(row);
    ASSERT_TRUE(parsed.ok);
    rows.push_back(std::move(parsed.values));
  }
  for (int trial = 0; trial < 50; ++trial) {
    const Predicate pred = MakePredicate(schema, &rng);
    auto compiled = CompiledPredicate::Compile(pred, schema);
    ASSERT_TRUE(compiled.ok());
    for (const auto& row : rows) {
      EXPECT_EQ(compiled->MatchesRow(row), pred.Matches(row))
          << pred.ToString(schema);
    }
  }
}

TEST(VectorizedScanTest, NanDoublesMatchInterpretedSemantics) {
  // ParseDouble accepts "nan", so NaN reaches double minipages through the
  // normal upload path. CompareValues' three-way mapping classifies an
  // unordered pair as "greater" (cmp = 1); the typed kernels must
  // reproduce that, not IEEE's all-false comparisons.
  const Schema schema = AllTypesSchema();
  PaxBlock block = BuildPaxBlockFromText(
      schema,
      "1,a,nan,2015-01-01,10,x\n"
      "2,b,5.0,2015-01-02,20,y\n"
      "3,c,nan,2015-01-03,30,z\n");
  ASSERT_EQ(block.num_records(), 3u);
  const std::string bytes = block.Serialize();
  auto view = PaxBlockView::Open(bytes);
  ASSERT_TRUE(view.ok());

  for (const CompareOp op :
       {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt, CompareOp::kLe,
        CompareOp::kGt, CompareOp::kGe, CompareOp::kBetween}) {
    PredicateTerm term;
    term.column = 2;  // the double column
    term.op = op;
    term.literal = Value(1.0);
    term.literal_hi = Value(100.0);
    const Predicate pred({term});
    auto compiled = CompiledPredicate::Compile(pred, schema);
    ASSERT_TRUE(compiled.ok());
    SelectionVector sel;
    ASSERT_TRUE(
        compiled->FilterBlock(*view, RowRange{0, 3}, &sel).ok());
    EXPECT_EQ(sel.rows(), RowAtATimeFilter(*view, pred, RowRange{0, 3}))
        << "op " << static_cast<int>(op);
    for (uint32_t r = 0; r < 3; ++r) {
      auto row = view->GetRow(r);
      ASSERT_TRUE(row.ok());
      EXPECT_EQ(compiled->MatchesRow(*row), pred.Matches(*row))
          << "op " << static_cast<int>(op) << " row " << r;
    }
  }
}

TEST(VectorizedScanTest, CompileRejectsMistypedTerms) {
  const Schema schema = AllTypesSchema();
  PredicateTerm bad_col;
  bad_col.column = 99;
  EXPECT_TRUE(CompiledPredicate::Compile(Predicate({bad_col}), schema)
                  .status()
                  .IsInvalidArgument());

  PredicateTerm string_vs_int;
  string_vs_int.column = 0;  // kInt32
  string_vs_int.literal = Value(std::string("nope"));
  EXPECT_TRUE(CompiledPredicate::Compile(Predicate({string_vs_int}), schema)
                  .status()
                  .IsInvalidArgument());

  PredicateTerm int_vs_string;
  int_vs_string.column = 1;  // kString
  int_vs_string.literal = Value(int64_t{3});
  EXPECT_TRUE(CompiledPredicate::Compile(Predicate({int_vs_string}), schema)
                  .status()
                  .IsInvalidArgument());
}

TEST(VectorizedScanTest, EmptyPredicateSelectsRange) {
  const Schema schema = AllTypesSchema();
  PaxBlock block = BuildPaxBlockFromText(schema, MakeText(100, 1, 0.0));
  const std::string bytes = block.Serialize();
  auto view = PaxBlockView::Open(bytes);
  ASSERT_TRUE(view.ok());
  auto compiled = CompiledPredicate::Compile(Predicate(), schema);
  ASSERT_TRUE(compiled.ok());
  EXPECT_TRUE(compiled->empty());
  SelectionVector sel;
  ASSERT_TRUE(compiled->FilterBlock(*view, RowRange{10, 20}, &sel).ok());
  ASSERT_EQ(sel.size(), 10u);
  EXPECT_EQ(sel[0], 10u);
  EXPECT_EQ(sel[9], 19u);
  // Ranges past the block clamp instead of reading out of bounds.
  ASSERT_TRUE(
      compiled->FilterBlock(*view, RowRange{90, 5000}, &sel).ok());
  EXPECT_EQ(sel.size(), view->num_records() - 90);
}

}  // namespace
}  // namespace hail
