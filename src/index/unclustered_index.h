/// \file unclustered_index.h
/// \brief Dense unclustered index: one (key, rowid) entry per record.
///
/// HAIL's upload never builds one. The paper (§3.5) rejects unclustered
/// indexes there: they are dense by definition (~10-20% of the block
/// size), cost more write I/O at upload, and trigger random I/O per
/// qualifying record at query time, so they only pay off for very
/// selective queries. Adaptive indexing installs one on a replica's hot
/// column (adaptive::MaintenanceTask::Kind::kInstallUnclustered), and the
/// HAIL reader probes it when no live replica is clustered on the filter
/// column. bench_index_micro times its lookup and compares its size and
/// modelled query I/O with the clustered index; it does not measure the
/// upload write cost.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "index/clustered_index.h"
#include "layout/column_vector.h"
#include "util/result.h"

namespace hail {

/// \brief Dense (key, rowid) index over an *unsorted* block.
class UnclusteredIndex {
 public:
  /// Builds over the key column of a block in its original (unsorted) order.
  static UnclusteredIndex Build(const ColumnVector& keys);

  uint32_t num_records() const { return num_records_; }

  /// Row ids (in block order) whose key lies in \p range. Rows come back
  /// sorted by key, i.e. in *random* block order — each hit is a separate
  /// random access, which is exactly the §3.5 problem.
  std::vector<uint32_t> Lookup(const KeyRange& range) const;

  std::string Serialize() const;
  /// Rejects a wrong magic, an unknown key type, a record count the bytes
  /// cannot hold, truncation and trailing bytes.
  static Result<UnclusteredIndex> Deserialize(std::string_view data);
  uint64_t SerializedBytes() const;

  /// Corruption unless the index covers exactly the \p block_records rows
  /// of the block it was stored with, so that every Lookup row id can
  /// index that block.
  Status CheckRowsOf(uint32_t block_records) const;

 private:
  explicit UnclusteredIndex(FieldType type) : sorted_keys_(type) {}

  ColumnVector sorted_keys_;        // all keys, sorted
  std::vector<uint32_t> row_ids_;   // row id of each sorted key
  uint32_t num_records_ = 0;
};

}  // namespace hail
