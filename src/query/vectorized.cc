#include "query/vectorized.h"

#include <algorithm>
#include <cstring>
#include <type_traits>
#include <utility>

#include "index/key_search.h"

namespace hail {

namespace {

/// Dispatches a CompareOp to a per-value match lambda once, then hands it
/// to `run` (the loop shape). Every op is expressed through (v < lit) and
/// (v == lit), replicating the interpreted path's three-way mapping
/// `a < b ? -1 : (a == b ? 0 : 1)` — which classifies an unordered (NaN)
/// pair as "greater", so e.g. kGt must match NaN even though `v > lit`
/// would not.
template <typename L, typename F>
void WithComparator(CompareOp op, L lit, F run) {
  switch (op) {
    case CompareOp::kEq: run([lit](L v) { return v == lit; }); break;
    case CompareOp::kNe: run([lit](L v) { return !(v == lit); }); break;
    case CompareOp::kLt: run([lit](L v) { return v < lit; }); break;
    case CompareOp::kLe: run([lit](L v) { return v < lit || v == lit; }); break;
    case CompareOp::kGt:
      run([lit](L v) { return !(v < lit) && !(v == lit); });
      break;
    case CompareOp::kGe: run([lit](L v) { return !(v < lit); }); break;
    case CompareOp::kBetween: break;  // decomposed at compile time
  }
}

/// Tight dense loop over the span appending qualifying rows. T is the
/// storage type, L the comparison type (int64_t or double) chosen by the
/// compiled term.
template <typename T, typename L>
void DenseFilter(const ColumnSpan<T>& col, CompareOp op, L lit,
                 uint32_t begin, uint32_t end, std::vector<uint32_t>* out) {
  WithComparator<L>(op, lit, [&](auto pred) {
    for (uint32_t r = begin; r < end; ++r) {
      if (pred(static_cast<L>(col[r]))) out->push_back(r);
    }
  });
}

/// In-place compaction of an existing selection vector.
template <typename T, typename L>
void SparseFilter(const ColumnSpan<T>& col, CompareOp op, L lit,
                  std::vector<uint32_t>* sel) {
  WithComparator<L>(op, lit, [&](auto pred) {
    size_t w = 0;
    for (uint32_t r : *sel) {
      if (pred(static_cast<L>(col[r]))) (*sel)[w++] = r;
    }
    sel->resize(w);
  });
}

// -- Scan-on-compressed kernels ---------------------------------------------

/// Outcome of rewriting a literal into the encoded domain of one block.
enum class LiteralFold : uint8_t {
  kKernel,  // run the code kernel with the rewritten literal
  kAll,     // every row matches this term
  kNone,    // no row matches this term
};

/// Rewrites an integral literal into FOR code space (code = value − frame)
/// and constant-folds comparisons that fall outside [0, code_max]. The
/// arithmetic runs in 128 bits: literal − frame can exceed the int64
/// range when the two have opposite signs.
LiteralFold FoldCodeLiteral(CompareOp op, __int128 rewritten,
                            uint64_t code_max, int64_t* kernel_lit) {
  if (rewritten < 0) {
    switch (op) {
      case CompareOp::kEq:
      case CompareOp::kLt:
      case CompareOp::kLe:
        return LiteralFold::kNone;  // all codes are >= 0 > literal
      default:
        return LiteralFold::kAll;
    }
  }
  if (rewritten > static_cast<__int128>(code_max)) {
    switch (op) {
      case CompareOp::kEq:
      case CompareOp::kGt:
      case CompareOp::kGe:
        return LiteralFold::kNone;  // all codes are <= code_max < literal
      default:
        return LiteralFold::kAll;
    }
  }
  *kernel_lit = static_cast<int64_t>(rewritten);
  return LiteralFold::kKernel;
}

/// Dense/sparse loops over a 1/2/4-byte code array. `map` lifts a raw
/// code into the comparison domain (identity for rewritten integral
/// literals, frame + code → double for double literals).
template <typename C, typename L, typename Map>
void DenseCodeFilter(const char* codes, CompareOp op, L lit, Map map,
                     uint32_t begin, uint32_t end,
                     std::vector<uint32_t>* out) {
  WithComparator<L>(op, lit, [&](auto pred) {
    for (uint32_t r = begin; r < end; ++r) {
      C c;
      std::memcpy(&c, codes + static_cast<size_t>(r) * sizeof(C), sizeof(C));
      if (pred(map(c))) out->push_back(r);
    }
  });
}

template <typename C, typename L, typename Map>
void SparseCodeFilter(const char* codes, CompareOp op, L lit, Map map,
                      std::vector<uint32_t>* sel) {
  WithComparator<L>(op, lit, [&](auto pred) {
    size_t w = 0;
    for (uint32_t r : *sel) {
      C c;
      std::memcpy(&c, codes + static_cast<size_t>(r) * sizeof(C), sizeof(C));
      if (pred(map(c))) (*sel)[w++] = r;
    }
    sel->resize(w);
  });
}

/// Width dispatch shared by the FOR and dictionary kernels.
template <typename L, typename Map>
void RunCodeFilter(const char* codes, uint8_t width, CompareOp op, L lit,
                   Map map, RowRange range, bool dense,
                   std::vector<uint32_t>* rows) {
  switch (width) {
    case 1:
      dense ? DenseCodeFilter<uint8_t, L>(codes, op, lit, map, range.begin,
                                          range.end, rows)
            : SparseCodeFilter<uint8_t, L>(codes, op, lit, map, rows);
      break;
    case 2:
      dense ? DenseCodeFilter<uint16_t, L>(codes, op, lit, map, range.begin,
                                           range.end, rows)
            : SparseCodeFilter<uint16_t, L>(codes, op, lit, map, rows);
      break;
    default:
      dense ? DenseCodeFilter<uint32_t, L>(codes, op, lit, map, range.begin,
                                           range.end, rows)
            : SparseCodeFilter<uint32_t, L>(codes, op, lit, map, rows);
      break;
  }
}

/// Applies a folded-away term: kAll keeps the candidate set (filling the
/// range when this is the first, dense, term), kNone empties it.
void ApplyFold(LiteralFold fold, RowRange range, bool dense,
               SelectionVector* sel) {
  if (fold == LiteralFold::kAll) {
    if (dense) sel->FillRange(range.begin, range.end);
    return;
  }
  sel->Clear();
}

/// RLE term: the predicate runs once per run and whole qualifying runs
/// short-circuit into the selection vector without touching per-row data.
template <typename T, typename L>
void DenseRleFilter(const RleSpan<T>& col, CompareOp op, L lit,
                    uint32_t begin, uint32_t end,
                    std::vector<uint32_t>* out) {
  if (end <= begin || col.num_records() == 0) return;
  WithComparator<L>(op, lit, [&](auto pred) {
    for (uint32_t j = col.RunContaining(begin); j < col.num_runs(); ++j) {
      const uint32_t s = std::max(col.run_start(j), begin);
      const uint32_t e = std::min(col.run_end(j), end);
      if (s >= end) break;
      if (pred(static_cast<L>(col.run_value(j)))) {
        for (uint32_t r = s; r < e; ++r) out->push_back(r);
      }
    }
  });
}

/// Sparse RLE: candidates are ascending, so one forward walk over the
/// runs evaluates the predicate once per run actually visited.
template <typename T, typename L>
void SparseRleFilter(const RleSpan<T>& col, CompareOp op, L lit,
                     std::vector<uint32_t>* sel) {
  if (sel->empty()) return;
  WithComparator<L>(op, lit, [&](auto pred) {
    size_t w = 0;
    uint32_t j = col.RunContaining((*sel)[0]);
    bool match = pred(static_cast<L>(col.run_value(j)));
    for (uint32_t r : *sel) {
      while (col.run_end(j) <= r) {
        ++j;
        match = pred(static_cast<L>(col.run_value(j)));
      }
      if (match) (*sel)[w++] = r;
    }
    sel->resize(w);
  });
}

uint64_t MaxCodeForWidth(uint8_t width) {
  return width == 1 ? 0xFFull : width == 2 ? 0xFFFFull : 0xFFFFFFFFull;
}

}  // namespace

Result<CompiledPredicate::CompiledTerm> CompiledPredicate::CompileTerm(
    int column, CompareOp op, const Value& literal, FieldType column_type) {
  CompiledTerm t;
  t.column = column;
  t.op = op;
  t.column_type = column_type;
  if (column_type == FieldType::kString) {
    if (!literal.is_string()) {
      return Status::InvalidArgument(
          "numeric literal against string column @" +
          std::to_string(column + 1));
    }
    t.comparison = Comparison::kString;
    t.lit_s = literal.as_string();
    return t;
  }
  if (literal.is_string()) {
    return Status::InvalidArgument("string literal against numeric column @" +
                                   std::to_string(column + 1));
  }
  if (column_type != FieldType::kDouble && key_search::IsIntegral(literal)) {
    t.comparison = Comparison::kIntegral;
    t.lit_i = key_search::AsInt64(literal);
  } else {
    t.comparison = Comparison::kDouble;
    t.lit_d = literal.AsNumeric();
  }
  return t;
}

Result<CompiledPredicate> CompiledPredicate::Compile(const Predicate& pred,
                                                     const Schema& schema) {
  CompiledPredicate out;
  out.terms_.reserve(pred.terms().size());
  for (const PredicateTerm& term : pred.terms()) {
    if (term.column < 0 || term.column >= schema.num_fields()) {
      return Status::InvalidArgument("predicate references attribute @" +
                                     std::to_string(term.column + 1) +
                                     " outside the schema");
    }
    const FieldType type = schema.field(term.column).type;
    if (term.op == CompareOp::kBetween) {
      // Two independent comparisons, mirroring the interpreted
      // `cmp(v, lo) >= 0 && cmp(v, hi) <= 0`.
      HAIL_ASSIGN_OR_RETURN(
          CompiledTerm lo,
          CompileTerm(term.column, CompareOp::kGe, term.literal, type));
      HAIL_ASSIGN_OR_RETURN(
          CompiledTerm hi,
          CompileTerm(term.column, CompareOp::kLe, term.literal_hi, type));
      out.terms_.push_back(std::move(lo));
      out.terms_.push_back(std::move(hi));
    } else {
      HAIL_ASSIGN_OR_RETURN(
          CompiledTerm t,
          CompileTerm(term.column, term.op, term.literal, type));
      out.terms_.push_back(std::move(t));
    }
  }
  return out;
}

namespace {

// -- One kernel per span type -------------------------------------------------
// Each narrows `sel`: from `range` when `dense`, else in place. L is the
// comparison type (int64_t or double) the compiled term chose. Fixed-size
// spans are taken by value: the reader's copy lives on the heap, where a
// push_back into the selection vector could alias it, so the loops would
// reload the span's pointers after every qualifying row.

template <typename T, typename L>
void FilterSpan(ColumnSpan<T> col, CompareOp op, L lit, RowRange range,
                bool dense, SelectionVector* sel) {
  std::vector<uint32_t>& rows = sel->mutable_rows();
  dense ? DenseFilter<T, L>(col, op, lit, range.begin, range.end, &rows)
        : SparseFilter<T, L>(col, op, lit, &rows);
}

template <typename T, typename L>
void FilterSpan(RleSpan<T> col, CompareOp op, L lit, RowRange range,
                bool dense, SelectionVector* sel) {
  std::vector<uint32_t>& rows = sel->mutable_rows();
  dense ? DenseRleFilter<T, L>(col, op, lit, range.begin, range.end, &rows)
        : SparseRleFilter<T, L>(col, op, lit, &rows);
}

template <typename L>
void FilterSpan(const ForSpan& span, CompareOp op, L lit, RowRange range,
                bool dense, SelectionVector* sel) {
  if constexpr (std::is_same_v<L, int64_t>) {
    // Rewrite the literal into code space once; the kernel then compares
    // raw unsigned codes against it — no per-row frame addition at all.
    int64_t kernel_lit = 0;
    const LiteralFold fold = FoldCodeLiteral(
        op, static_cast<__int128>(lit) - span.frame(),
        MaxCodeForWidth(span.code_width()), &kernel_lit);
    if (fold != LiteralFold::kKernel) {
      ApplyFold(fold, range, dense, sel);
      return;
    }
    RunCodeFilter<int64_t>(
        span.codes(), span.code_width(), op, kernel_lit,
        [](auto c) { return static_cast<int64_t>(c); }, range, dense,
        &sel->mutable_rows());
  } else {
    // Double literal: compare frame + code widened to double, the same
    // widening the plain kernel applies to the decoded value.
    const int64_t frame = span.frame();
    RunCodeFilter<double>(
        span.codes(), span.code_width(), op, lit,
        [frame](auto c) {
          return static_cast<double>(static_cast<int64_t>(
              static_cast<uint64_t>(frame) + static_cast<uint64_t>(c)));
        },
        range, dense, &sel->mutable_rows());
  }
}

Status FilterSpan(const DictSpan& span, CompareOp op, const std::string& lit,
                  RowRange range, bool dense, SelectionVector* sel) {
  // Rewrite the string literal into code space once per block. The
  // dictionary is sorted and distinct, so code order IS string order:
  // every comparison maps to a bound over the codes.
  const uint32_t dict_size = span.dict_size();
  LiteralFold fold = LiteralFold::kKernel;
  CompareOp code_op = CompareOp::kEq;
  int64_t code_lit = 0;
  switch (op) {
    case CompareOp::kEq:
    case CompareOp::kNe: {
      const uint32_t lb = span.LowerBound(lit);
      const bool present = lb < dict_size && span.DictEntry(lb) == lit;
      if (!present) {
        fold = op == CompareOp::kEq ? LiteralFold::kNone : LiteralFold::kAll;
      } else {
        code_op = op;
        code_lit = lb;
      }
      break;
    }
    case CompareOp::kLt:
    case CompareOp::kLe: {
      // v < lit  ⇔ code < LowerBound(lit);  v <= lit ⇔ code < UpperBound.
      const uint32_t bound = op == CompareOp::kLt ? span.LowerBound(lit)
                                                  : span.UpperBound(lit);
      if (bound == 0) {
        fold = LiteralFold::kNone;
      } else if (bound == dict_size) {
        fold = LiteralFold::kAll;
      } else {
        code_op = CompareOp::kLt;
        code_lit = bound;
      }
      break;
    }
    case CompareOp::kGt:
    case CompareOp::kGe: {
      // v > lit  ⇔ code >= UpperBound(lit);  v >= lit ⇔ code >= LowerBound.
      const uint32_t bound = op == CompareOp::kGt ? span.UpperBound(lit)
                                                  : span.LowerBound(lit);
      if (bound == dict_size) {
        fold = LiteralFold::kNone;
      } else if (bound == 0) {
        fold = LiteralFold::kAll;
      } else {
        code_op = CompareOp::kGe;
        code_lit = bound;
      }
      break;
    }
    case CompareOp::kBetween:
      return Status::InvalidArgument("between not decomposed");
  }
  if (fold != LiteralFold::kKernel) {
    ApplyFold(fold, range, dense, sel);
    return Status::OK();
  }
  RunCodeFilter<int64_t>(
      span.codes(), span.code_width(), code_op, code_lit,
      [](auto c) { return static_cast<int64_t>(c); }, range, dense,
      &sel->mutable_rows());
  return Status::OK();
}

Status FilterSpan(VarlenCursor& cursor, CompareOp op, const std::string& lit,
                  RowRange range, bool dense, SelectionVector* sel) {
  std::vector<uint32_t>& rows = sel->mutable_rows();
  if (dense) {
    for (uint32_t r = range.begin; r < range.end; ++r) {
      HAIL_ASSIGN_OR_RETURN(std::string_view s, cursor.Get(r));
      if (OpMatchesCompare(ThreeWayCompareStrings(s, lit), op)) {
        rows.push_back(r);
      }
    }
    return Status::OK();
  }
  size_t w = 0;
  for (uint32_t r : rows) {
    // Selection vectors are ascending, so the cursor decodes each
    // candidate partition in one forward pass.
    HAIL_ASSIGN_OR_RETURN(std::string_view s, cursor.Get(r));
    if (OpMatchesCompare(ThreeWayCompareStrings(s, lit), op)) rows[w++] = r;
  }
  rows.resize(w);
  return Status::OK();
}

/// The type a column of \p type stores its values as.
FieldType StorageType(FieldType type) {
  return type == FieldType::kDate ? FieldType::kInt32 : type;
}

}  // namespace

Status CompiledPredicate::FilterBlock(const PaxBlockView& view, RowRange range,
                                      SelectionVector* sel) const {
  sel->Clear();
  range.end = std::min(range.end, view.num_records());
  if (range.empty()) return Status::OK();
  if (terms_.empty()) {
    sel->FillRange(range.begin, range.end);
    return Status::OK();
  }
  return ApplyTerms(view, range, /*dense=*/true, sel);
}

Status CompiledPredicate::RefineCandidates(const PaxBlockView& view,
                                           SelectionVector* sel) const {
  if (terms_.empty() || sel->empty()) return Status::OK();
  // The selection is the candidate set, so no term runs dense.
  return ApplyTerms(view, RowRange{}, /*dense=*/false, sel);
}

Status CompiledPredicate::ApplyTerms(const PaxBlockView& view, RowRange range,
                                     bool dense, SelectionVector* sel) const {
  // Cheap terms first — typed span loads and integer code kernels
  // (dictionary strings included) narrow the candidate set before any
  // plain varlen value is decoded. Order within each phase is the term
  // order, so the conjunction's result set is identical either way.
  // Every term's column is opened and checked, also once no row is left.
  std::vector<std::pair<const CompiledTerm*, ColumnReader>> plain_strings;
  for (const CompiledTerm& term : terms_) {
    // Used in place: copying the reader would cost more than filtering
    // the few rows of a short index range.
    Result<ColumnReader> reader = view.OpenColumn(term.column);
    HAIL_RETURN_NOT_OK(reader.status());
    if (StorageType(reader->type()) != StorageType(term.column_type)) {
      return Status::InvalidArgument(
          "term on @" + std::to_string(term.column + 1) + " compiled for a " +
          std::string(FieldTypeName(term.column_type)) +
          " column; the block stores " +
          std::string(FieldTypeName(reader->type())));
    }
    if (reader->type() == FieldType::kString && !reader->encoded()) {
      plain_strings.emplace_back(&term, *reader);
    } else if (dense || !sel->empty()) {
      HAIL_RETURN_NOT_OK(ApplyTerm(term, &*reader, range, dense, sel));
      dense = false;
    }
  }
  for (auto& [term, reader] : plain_strings) {
    if (!dense && sel->empty()) break;
    HAIL_RETURN_NOT_OK(ApplyTerm(*term, &reader, range, dense, sel));
    dense = false;
  }
  return Status::OK();
}

Status CompiledPredicate::ApplyTerm(const CompiledTerm& term,
                                    ColumnReader* reader, RowRange range,
                                    bool dense, SelectionVector* sel) {
  // ApplyTerms checked the column's storage, so a string term meets a
  // VarlenCursor or a DictSpan and a numeric term one of the others.
  return reader->Visit([&](auto& span) -> Status {
    using S = std::decay_t<decltype(span)>;
    if constexpr (std::is_same_v<S, VarlenCursor> ||
                  std::is_same_v<S, DictSpan>) {
      return FilterSpan(span, term.op, term.lit_s, range, dense, sel);
    } else {
      if (term.comparison == Comparison::kIntegral) {
        FilterSpan(span, term.op, term.lit_i, range, dense, sel);
      } else {
        FilterSpan(span, term.op, term.lit_d, range, dense, sel);
      }
      return Status::OK();
    }
  });
}

bool CompiledPredicate::MatchesRow(const std::vector<Value>& row) const {
  for (const CompiledTerm& term : terms_) {
    if (term.column < 0 ||
        term.column >= static_cast<int>(row.size())) {
      return false;
    }
    const Value& v = row[static_cast<size_t>(term.column)];
    bool match = false;
    switch (term.comparison) {
      case Comparison::kString: {
        if (!v.is_string()) return false;
        match = OpMatchesCompare(ThreeWayCompareStrings(v.as_string(), term.lit_s),
                               term.op);
        break;
      }
      case Comparison::kIntegral: {
        if (v.is_string()) return false;
        if (key_search::IsIntegral(v)) {
          const int64_t w = key_search::AsInt64(v);
          match = OpMatchesCompare(
              w < term.lit_i ? -1 : (w == term.lit_i ? 0 : 1), term.op);
        } else {
          // Double row value vs integral literal widens to double, exactly
          // like CompareValues.
          const double w = v.AsNumeric();
          const double lit = static_cast<double>(term.lit_i);
          match = OpMatchesCompare(w < lit ? -1 : (w == lit ? 0 : 1), term.op);
        }
        break;
      }
      case Comparison::kDouble: {
        if (v.is_string()) return false;
        const double w = v.AsNumeric();
        match = OpMatchesCompare(
            w < term.lit_d ? -1 : (w == term.lit_d ? 0 : 1), term.op);
        break;
      }
    }
    if (!match) return false;
  }
  return true;
}

}  // namespace hail
