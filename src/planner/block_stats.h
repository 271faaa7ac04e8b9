/// \file block_stats.h
/// \brief Per-column, per-block statistics powering the access-path planner.
///
/// Built once per logical block at upload time (all replicas hold the same
/// rows, so one stats sidecar serves every replica) and registered in the
/// namenode next to the replica directory. Three summaries per column:
///
///   - zone map: min/max value — a predicate disjoint from it proves the
///     block holds no qualifying row, so the planner skips the block
///     without reading a byte (RDF-3X-style exact-statistics segments,
///     scaled down to one directory entry per block);
///   - distinct-count estimate — equality selectivity = 1/distinct;
///   - small equi-depth histogram — range selectivity from bucket counts.
///
/// The serialized form is a versioned sidecar ("HSTA" v1). Block bytes
/// (golden v1/v3 formats) are untouched: stats live only in namenode
/// metadata, mirroring how Dir_rep extends stock HDFS without changing
/// what datanodes store.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "index/clustered_index.h"
#include "layout/pax_block.h"
#include "schema/value.h"
#include "util/result.h"

namespace hail {
namespace planner {

/// Sidecar magic ("HSTA" little-endian) and current version.
inline constexpr uint32_t kBlockStatsMagic = 0x41545348;
inline constexpr uint8_t kBlockStatsVersion = 1;

/// Equi-depth bucket count. Small on purpose: the sidecar must stay a
/// metadata-sized object (the planner bills reading it as part of the
/// split phase, not as data I/O).
inline constexpr uint32_t kDefaultHistogramBuckets = 16;

/// \brief Statistics of one column over one block's records.
struct ColumnStats {
  FieldType type = FieldType::kInt32;
  /// False when the block holds no records (nothing to summarize).
  bool valid = false;
  uint64_t num_values = 0;
  uint64_t distinct = 0;  // exact at real scale; an estimate by contract
  /// Real payload bytes of the column's values (fixed width × count, or
  /// the sum of string lengths) — the planner's transfer-cost input.
  uint64_t value_bytes = 0;
  Value min_value;
  Value max_value;
  /// Upper bound of each equi-depth bucket (ascending, last == max).
  std::vector<Value> bucket_bounds;
};

/// \brief Statistics of every column of one block.
struct BlockStats {
  uint32_t num_records = 0;
  /// Rows in the block's bad-record section. A zone-map skip is only
  /// sound when this is zero: bad records reach the mapper regardless of
  /// the filter, so skipping a block that holds any would change output.
  uint32_t num_bad_records = 0;
  std::vector<ColumnStats> columns;

  /// Builds stats from decoded columns. Deterministic and independent of
  /// row order, so every replica of a block yields identical stats. A
  /// string column the block's dictionary pass encodes (\p dictionaries,
  /// BuildDictionaries of \p block; null runs that pass here) is
  /// summarised from its sorted entries and their row counts; every
  /// other column (all of a v1 block's, and v3 strings stored plain) is
  /// sorted. The result is the same.
  static BlockStats Build(const PaxBlock& block,
                          const BlockDictionaries* dictionaries = nullptr,
                          uint32_t histogram_buckets = kDefaultHistogramBuckets);

  std::string Serialize() const;
  static Result<BlockStats> Deserialize(std::string_view data);

  /// Zone-map check: true when no value of \p column can satisfy the
  /// inclusive \p range — the block is skippable. Conservative: returns
  /// false when stats are missing for the column.
  bool RangeDisjoint(int column, const KeyRange& range) const;

  /// Estimated fraction of the block's records with the column value in
  /// \p range. 0 when provably disjoint; 1 when no stats restrict it.
  double EstimateSelectivity(int column, const KeyRange& range) const;
};

}  // namespace planner
}  // namespace hail
