/// \file clustered_index.h
/// \brief HAIL's sparse clustered index (paper §3.5, Figure 2).
///
/// Built over a block whose records are *sorted* by the key attribute.
/// The index is a single root directory: the first key of every partition
/// of `partition_size` values. All but the first child pointer are implicit
/// because partitions are contiguous on disk (leaf offset = leaf id × leaf
/// size). A range lookup determines the first and last qualifying partition
/// entirely in main memory, so the reader scans exactly the qualifying
/// partitions and post-filters — never the whole range.
///
/// The paper motivates the single-level design: for block sizes below
/// ~5 GB the root directory is so small (KBs) that a second level would
/// only add an extra disk seek (see bench_index_micro for the ablation).

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "layout/column_vector.h"
#include "schema/value.h"
#include "util/io.h"
#include "util/result.h"

namespace hail {

/// Width of one index key for logical (paper-scale) size billing: fixed
/// types bill their storage width, strings an average key. Shared by the
/// readers, the upload transformer and the adaptive reorganizer so the
/// billed size of an index is priced identically wherever it appears.
inline uint64_t IndexKeyWidth(FieldType type) {
  return IsFixedSize(type) ? FieldTypeWidth(type) : 16;
}

/// Smallest serialised key of a key type (a string's length prefix); 0
/// for a byte that names no type. The index decoders check a stored count
/// against the bytes left with it before sizing anything from the count.
inline size_t MinSerializedKeyBytes(FieldType type) {
  switch (type) {
    case FieldType::kInt32:
    case FieldType::kDate:
    case FieldType::kString:
      return 4;
    case FieldType::kInt64:
    case FieldType::kDouble:
      return 8;
  }
  return 0;
}

/// Writes key \p i of \p keys as all three index formats store a key: a
/// fixed-size key in its storage width, a string with a u32 length
/// prefix.
void PutIndexKey(ByteWriter& w, const ColumnVector& keys, size_t i);

/// Reads one key written by PutIndexKey and appends it to \p keys, whose
/// type says how the key is stored.
Status GetIndexKey(ByteReader& r, ColumnVector* keys);

/// Paper-scale bytes of a sparse index root: one (key, pointer) entry per
/// `records_per_entry` logical records (+1 for the trailing partial
/// partition). HAIL's clustered root uses 4-byte pointers at 1024
/// records/entry (§3.5); the trojan directory 8-byte offsets at ~8
/// rows/entry (§6.4.2).
inline uint64_t LogicalSparseIndexBytes(uint64_t logical_records,
                                        uint32_t records_per_entry,
                                        FieldType key_type,
                                        uint64_t pointer_bytes) {
  return (logical_records / records_per_entry + 1) *
         (IndexKeyWidth(key_type) + pointer_bytes);
}

/// Paper-scale bytes of a dense index: one (key, rowid) entry per logical
/// record (§3.5 footnote 4 — the unclustered case).
inline uint64_t LogicalDenseIndexBytes(uint64_t logical_records,
                                       FieldType key_type) {
  return logical_records * (IndexKeyWidth(key_type) + 4);
}

/// \brief Half-open, partition-aligned row range returned by index lookups.
struct RowRange {
  uint32_t begin = 0;
  uint32_t end = 0;  // exclusive
  bool empty() const { return begin >= end; }
  uint32_t size() const { return empty() ? 0 : end - begin; }
};

/// \brief Inclusive key-range query against an index.
struct KeyRange {
  std::optional<Value> lo;  // nullopt = unbounded below
  std::optional<Value> hi;  // nullopt = unbounded above

  static KeyRange Equal(Value v) { return KeyRange{v, v}; }
  static KeyRange Between(Value lo, Value hi) {
    return KeyRange{std::move(lo), std::move(hi)};
  }
  static KeyRange AtLeast(Value lo) {
    return KeyRange{std::move(lo), std::nullopt};
  }
  static KeyRange AtMost(Value hi) {
    return KeyRange{std::nullopt, std::move(hi)};
  }
  static KeyRange All() { return KeyRange{}; }
};

/// \brief The sparse single-root clustered index of Figure 2.
class ClusteredIndex {
 public:
  /// Builds over \p sorted_keys (must already be sorted ascending).
  /// \p partition_size is the number of values per partition (paper: 1024).
  static ClusteredIndex Build(const ColumnVector& sorted_keys,
                              uint32_t partition_size);

  FieldType key_type() const { return first_keys_.type(); }
  uint32_t partition_size() const { return partition_size_; }
  uint32_t num_records() const { return num_records_; }
  uint32_t num_partitions() const {
    return static_cast<uint32_t>(first_keys_.size());
  }

  /// In-memory first/last partition determination (steps 1 & 2 in Fig. 2).
  /// Returns a conservative partition-aligned row range containing every
  /// record whose key lies in \p range; the caller post-filters.
  RowRange Lookup(const KeyRange& range) const;

  /// Corruption unless the index covers exactly a block of
  /// \p block_records records (a lookup's row range indexes that block).
  Status CheckRowsOf(uint32_t block_records) const;

  /// Serialises the root directory ("Index" + "Index Metadata" in Fig. 1).
  std::string Serialize() const;
  /// Corruption for anything Serialize cannot have written: an unknown key
  /// type, a partition count other than one per started partition or more
  /// than the bytes hold, and trailing bytes.
  static Result<ClusteredIndex> Deserialize(std::string_view data);

  /// Size of the serialised root directory in bytes.
  uint64_t SerializedBytes() const;

 private:
  ClusteredIndex(FieldType type, uint32_t partition_size)
      : first_keys_(type), partition_size_(partition_size) {}

  ColumnVector first_keys_;  // first key of each partition
  uint32_t partition_size_ = 0;
  uint32_t num_records_ = 0;
};

}  // namespace hail
