/// \file column_vector.h
/// \brief In-memory typed column storage used while building/sorting blocks.
///
/// A PAX block under construction holds one ColumnVector per attribute.
/// Sorting a block (upload pipeline, §3.5) argsorts the key column and then
/// writes every ColumnVector in that order ("we build a sort index to
/// reorganize all other columns"; PaxBlock::Serialize).

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "schema/schema.h"
#include "schema/value.h"

namespace hail {

/// \brief One attribute's values for all records of a block.
class ColumnVector {
 public:
  explicit ColumnVector(FieldType type) : type_(type) {}

  FieldType type() const { return type_; }
  size_t size() const;

  void Append(const Value& v);
  Value GetValue(size_t row) const;

  /// Direct typed appends (callers must match type()). These are the
  /// ingest hot path: text parsing writes straight into the typed storage
  /// with no Value boxing in between.
  void AppendInt32(int32_t v) { i32_.push_back(v); }
  void AppendInt64(int64_t v) { i64_.push_back(v); }
  void AppendDouble(double v) { f64_.push_back(v); }
  void AppendString(std::string_view v) { str_.emplace_back(v); }

  /// Drops values past the first \p n (rollback of a partially appended
  /// row when a later field fails to parse).
  void Truncate(size_t n);

  /// Direct typed access (callers must match type()).
  const std::vector<int32_t>& i32() const { return i32_; }
  const std::vector<int64_t>& i64() const { return i64_; }
  const std::vector<double>& f64() const { return f64_; }
  const std::vector<std::string>& str() const { return str_; }

  /// Mutable typed access for bulk decode paths (block deserialisation
  /// memcpys whole minipages instead of appending row by row).
  std::vector<int32_t>& mutable_i32() { return i32_; }
  std::vector<int64_t>& mutable_i64() { return i64_; }
  std::vector<double>& mutable_f64() { return f64_; }
  std::vector<std::string>& mutable_str() { return str_; }

  /// Reorders values so new[i] = old[perm[i]].
  void ApplyPermutation(const std::vector<uint32_t>& perm);

  /// Non-destructive counterpart of ApplyPermutation: returns a column
  /// with out[i] = this[perm[i]], leaving this column untouched. A sorted
  /// replica copies its key column this way for the clustered index.
  ColumnVector PermutedCopy(const std::vector<uint32_t>& perm) const;

  /// Total bytes this column occupies when serialised (values only).
  uint64_t SerializedValueBytes() const;

  void Reserve(size_t n);

 private:
  FieldType type_;
  std::vector<int32_t> i32_;    // kInt32 and kDate
  std::vector<int64_t> i64_;
  std::vector<double> f64_;
  std::vector<std::string> str_;
};

/// \brief Stable argsort of a column: returns perm with
/// column[perm[0]] <= column[perm[1]] <= ...
std::vector<uint32_t> ArgSortColumn(const ColumnVector& column);

}  // namespace hail
