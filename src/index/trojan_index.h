/// \file trojan_index.h
/// \brief Hadoop++-style trojan index over binary row blocks (paper §5, [12]).
///
/// Hadoop++ sorts a *logical* block's rows by one key and appends a sparse
/// directory mapping keys to byte offsets in the row data. Differences from
/// HAIL's clustered index that matter for the evaluation:
///  - one index per logical block: all three replicas are byte-identical,
///    so only one filter attribute can ever be served;
///  - the directory is much denser (paper: 304 KB vs HAIL's 2 KB for a
///    64 MB block), so reading it costs noticeably more;
///  - a block header must be read during the split phase (HAIL keeps that
///    information in the namenode's replica directory instead).

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "index/clustered_index.h"
#include "schema/value.h"
#include "util/io.h"
#include "util/result.h"

namespace hail {

/// \brief Offset range into a binary-row block's data section.
struct ByteRange {
  uint64_t begin = 0;
  uint64_t end = 0;
  bool empty() const { return begin >= end; }
};

/// \brief Sparse key -> byte-offset directory over sorted binary rows.
class TrojanIndex {
 public:
  /// \param sorted_keys key values in row order (already sorted).
  /// \param row_offsets byte offset of each row in the data section.
  /// \param data_bytes total bytes of the data section.
  /// \param rows_per_entry directory granularity; Hadoop++ uses a dense
  ///        footer (default 8 rows/entry reproduces its ~150x larger
  ///        directory relative to HAIL's 1024).
  static TrojanIndex Build(const ColumnVector& sorted_keys,
                           const std::vector<uint64_t>& row_offsets,
                           uint64_t data_bytes, uint32_t rows_per_entry = 8);

  uint32_t num_records() const { return num_records_; }
  uint32_t rows_per_entry() const { return rows_per_entry_; }
  uint32_t num_entries() const {
    return static_cast<uint32_t>(entry_keys_.size());
  }

  /// Returns the conservative byte range of rows whose key may lie in
  /// \p range, plus the row id of the range start (for row accounting).
  struct LookupResult {
    ByteRange bytes;
    uint32_t first_row = 0;
    uint32_t end_row = 0;
  };
  LookupResult Lookup(const KeyRange& range) const;

  std::string Serialize() const;
  /// Rejects a wrong magic, an unknown key type, zero rows per entry, an
  /// entry count the bytes cannot hold or that differs from
  /// ceil(num_records / rows_per_entry), and trailing bytes.
  static Result<TrojanIndex> Deserialize(std::string_view data);
  uint64_t SerializedBytes() const;

 private:
  TrojanIndex(FieldType type, uint32_t rows_per_entry)
      : entry_keys_(type), rows_per_entry_(rows_per_entry) {}

  ColumnVector entry_keys_;            // first key of each directory entry
  std::vector<uint64_t> entry_offsets_;  // byte offset of each entry's rows
  uint32_t rows_per_entry_;
  uint32_t num_records_ = 0;
  uint64_t data_bytes_ = 0;
};

}  // namespace hail
