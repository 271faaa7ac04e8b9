/// \file column_vector.h
/// \brief In-memory typed column storage used while building/sorting blocks.
///
/// A PAX block under construction holds one ColumnVector per attribute.
/// Sorting a block (upload pipeline, §3.5) argsorts the key column and then
/// writes every ColumnVector in that order ("we build a sort index to
/// reorganize all other columns"; PaxBlock::Serialize).
///
/// A string column keeps its values back to back in one byte buffer with
/// one end offset per row, the way a PAX minipage keeps an attribute's
/// values together: appending a value copies its bytes, and str(i) is a
/// view into the buffer. Parse, decode, argsort and serialise therefore
/// allocate nothing per value, and no other module knows this layout.

#pragma once

#include <cstdint>
#include <string_view>
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
  void AppendString(std::string_view v) {
    bytes_.insert(bytes_.end(), v.begin(), v.end());
    ends_.push_back(bytes_.size());
  }

  /// Drops values past the first \p n (rollback of a partially appended
  /// row when a later field fails to parse).
  void Truncate(size_t n);

  /// Direct typed access (callers must match type()).
  const std::vector<int32_t>& i32() const { return i32_; }
  const std::vector<int64_t>& i64() const { return i64_; }
  const std::vector<double>& f64() const { return f64_; }
  /// String value of \p row. The view stays valid until the next append
  /// or reorder; moving the column keeps it valid.
  std::string_view str(size_t row) const {
    const uint64_t begin = row == 0 ? 0 : ends_[row - 1];
    return std::string_view(bytes_.data() + begin, ends_[row] - begin);
  }

  /// Mutable typed access for bulk decode paths (block deserialisation
  /// memcpys whole minipages instead of appending row by row).
  std::vector<int32_t>& mutable_i32() { return i32_; }
  std::vector<int64_t>& mutable_i64() { return i64_; }
  std::vector<double>& mutable_f64() { return f64_; }

  /// Reorders values so new[i] = old[perm[i]].
  void ApplyPermutation(const std::vector<uint32_t>& perm);

  /// Non-destructive counterpart of ApplyPermutation: returns a column
  /// with out[i] = this[perm[i]], leaving this column untouched. A sorted
  /// replica copies its key column this way for the clustered index.
  ColumnVector PermutedCopy(const std::vector<uint32_t>& perm) const;

  /// Total bytes this column occupies when serialised (values only; a
  /// string counts its NUL terminator).
  uint64_t SerializedValueBytes() const;

  /// Reserves room for \p n more values and, in a string column, for
  /// \p string_bytes more bytes of them.
  void Reserve(size_t n, uint64_t string_bytes = 0);

 private:
  FieldType type_;
  std::vector<int32_t> i32_;    // kInt32 and kDate
  std::vector<int64_t> i64_;
  std::vector<double> f64_;
  // kString: the values back to back (no terminators) and, per row, the
  // end of its value in bytes_. A vector keeps its buffer when the column
  // moves, so views survive a move.
  std::vector<char> bytes_;
  std::vector<uint64_t> ends_;
};

/// \brief Stable argsort of a column: returns perm with
/// column[perm[0]] <= column[perm[1]] <= ...
std::vector<uint32_t> ArgSortColumn(const ColumnVector& column);

}  // namespace hail
