/// \file vectorized.h
/// \brief The vectorized scan engine's filter layer.
///
/// The row-at-a-time hot loop the readers used to run — one
/// std::vector<Value> per record, one type-dispatched CompareValues per
/// predicate term, one O(partition) varlen re-scan per string access —
/// burns the I/O savings HAIL's index scans buy (paper §4.3). This layer
/// lowers a Predicate once per job, in its plan (mapreduce::ComputeJobPlan),
/// into per-column typed kernels that evaluate column-at-a-time over
/// zero-copy minipage spans, producing a selection vector of qualifying
/// row ids. Tuple reconstruction then runs only for those rows. A
/// compiled predicate holds no mutable state: the tasks of a job share it
/// across pool threads.
///
/// Semantics are exactly those of PredicateTerm::Matches /
/// Predicate::Matches (numeric widening included); the property tests in
/// tests/vectorized_scan_test.cc assert the equivalence across all field
/// types, partition sizes, and bad-record mixes.
///
/// Encoded minipages (format v3) are scanned WITHOUT decoding: literals
/// are rewritten once per block into the encoded domain — dictionary
/// literals become integer code compares against the sorted dictionary,
/// FOR literals become unsigned code offsets (folding to match-all /
/// match-none when the literal falls outside the frame) — and RLE terms
/// evaluate the predicate once per run, short-circuiting whole runs into
/// the selection vector. Only qualifying rows are ever decoded, at tuple
/// reconstruction.
///
/// This layer never reads a block's bytes itself: each term opens its
/// column once per block through PaxBlockView::OpenColumn, which hands
/// out a copy of the ColumnReader (layout/pax_block.h) that
/// PaxBlockView::Open resolved over the minipage's one span (ColumnSpan,
/// VarlenCursor, ForSpan, RleSpan or DictSpan), and the kernel is picked
/// by that span's type. A term on a column the block
/// lacks, or compiled for a column whose storage differs from the
/// block's (int32 and date share storage), is InvalidArgument.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "layout/pax_block.h"
#include "query/predicate.h"
#include "schema/schema.h"
#include "util/result.h"

namespace hail {

/// \brief Reusable, ascending list of qualifying row ids.
class SelectionVector {
 public:
  void Clear() { rows_.clear(); }
  void FillRange(uint32_t begin, uint32_t end) {
    rows_.clear();
    rows_.reserve(end > begin ? end - begin : 0);
    for (uint32_t r = begin; r < end; ++r) rows_.push_back(r);
  }

  size_t size() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }
  uint32_t operator[](size_t i) const { return rows_[i]; }
  const std::vector<uint32_t>& rows() const { return rows_; }
  std::vector<uint32_t>& mutable_rows() { return rows_; }

 private:
  std::vector<uint32_t> rows_;
};

/// \brief A Predicate lowered to typed per-column kernels.
///
/// `between` terms are decomposed into (>= lo) and (<= hi) so every
/// compiled term carries exactly one literal, matching the two independent
/// CompareValues calls of the interpreted path. Fixed-size terms are
/// evaluated first (cheap span loads); string terms post-filter the
/// survivors with a sequential VarlenCursor so each candidate value is
/// decoded at most once.
class CompiledPredicate {
 public:
  CompiledPredicate() = default;

  /// Lowers \p pred against \p schema. Fails with InvalidArgument when a
  /// term references a column outside the schema or mixes a string literal
  /// with a numeric column (the interpreted path throws on such terms).
  static Result<CompiledPredicate> Compile(const Predicate& pred,
                                           const Schema& schema);

  /// True when the predicate has no terms (every row qualifies).
  bool empty() const { return terms_.empty(); }

  /// Fills \p sel with every row of [range.begin, range.end) — clamped to
  /// the block — that satisfies all terms, in ascending order.
  Status FilterBlock(const PaxBlockView& view, RowRange range,
                     SelectionVector* sel) const;

  /// Filters an existing *ascending* candidate selection in place (the
  /// unclustered-index read path: the index yields candidate row ids, this
  /// applies the remaining terms). Evaluates only the candidate rows —
  /// fixed-size terms first, then strings through one sequential cursor
  /// pass — never the whole range.
  Status RefineCandidates(const PaxBlockView& view, SelectionVector* sel) const;

  /// Row-wise evaluation with literal typing resolved at compile time.
  /// Used by the row-major readers (text, trojan). Equivalent to
  /// Predicate::Matches for rows whose value types match the schema; rows
  /// with mismatched types are rejected instead of throwing.
  bool MatchesRow(const std::vector<Value>& row) const;

 private:
  /// How a term compares, resolved at compile time: as int64 (an integral
  /// literal against an integer or date column), as double (any literal
  /// against a double column, a double literal against any numeric
  /// column) or as strings.
  enum class Comparison : uint8_t { kIntegral, kDouble, kString };

  struct CompiledTerm {
    int column = -1;
    CompareOp op = CompareOp::kEq;
    Comparison comparison = Comparison::kIntegral;
    /// The column type the term was compiled for; a block whose column
    /// stores another type is InvalidArgument.
    FieldType column_type = FieldType::kInt32;
    int64_t lit_i = 0;   // integral-compare literal
    double lit_d = 0.0;  // double-compare literal
    std::string lit_s;   // string literal
  };

  static Result<CompiledTerm> CompileTerm(int column, CompareOp op,
                                          const Value& literal,
                                          FieldType column_type);

  /// Opens each term's column of \p view once and applies the terms to
  /// \p sel: fixed-size columns (any encoding) and dictionary strings
  /// first, whose compare is a typed load or an integer code kernel, then
  /// plain varlen strings, which pay a sequential decode. The first term
  /// fills \p sel from \p range when \p dense, else every term narrows the
  /// rows already in \p sel.
  Status ApplyTerms(const PaxBlockView& view, RowRange range, bool dense,
                    SelectionVector* sel) const;

  /// Runs \p term's kernel on the span \p reader holds.
  static Status ApplyTerm(const CompiledTerm& term, ColumnReader* reader,
                          RowRange range, bool dense, SelectionVector* sel);

  std::vector<CompiledTerm> terms_;
};

}  // namespace hail
