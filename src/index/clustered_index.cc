#include "index/clustered_index.h"

#include <algorithm>
#include <cassert>

#include "index/key_search.h"

namespace hail {

namespace {
constexpr uint32_t kClusteredIndexMagic = 0x58444948;  // "HIDX"
}  // namespace

void PutIndexKey(ByteWriter& w, const ColumnVector& keys, size_t i) {
  switch (keys.type()) {
    case FieldType::kInt32:
    case FieldType::kDate:
      w.PutI32(keys.i32()[i]);
      return;
    case FieldType::kInt64:
      w.PutI64(keys.i64()[i]);
      return;
    case FieldType::kDouble:
      w.PutF64(keys.f64()[i]);
      return;
    case FieldType::kString:
      w.PutLengthPrefixed(keys.str(i));
      return;
  }
}

Status GetIndexKey(ByteReader& r, ColumnVector* keys) {
  switch (keys->type()) {
    case FieldType::kInt32:
    case FieldType::kDate: {
      HAIL_ASSIGN_OR_RETURN(int32_t v, r.GetI32());
      keys->AppendInt32(v);
      return Status::OK();
    }
    case FieldType::kInt64: {
      HAIL_ASSIGN_OR_RETURN(int64_t v, r.GetI64());
      keys->AppendInt64(v);
      return Status::OK();
    }
    case FieldType::kDouble: {
      HAIL_ASSIGN_OR_RETURN(double v, r.GetF64());
      keys->AppendDouble(v);
      return Status::OK();
    }
    case FieldType::kString: {
      HAIL_ASSIGN_OR_RETURN(std::string_view s, r.GetLengthPrefixed());
      keys->AppendString(s);
      return Status::OK();
    }
  }
  return Status::Corruption("index names an unknown key type");
}

ClusteredIndex ClusteredIndex::Build(const ColumnVector& sorted_keys,
                                     uint32_t partition_size) {
  assert(partition_size > 0);
  ClusteredIndex index(sorted_keys.type(), partition_size);
  index.num_records_ = static_cast<uint32_t>(sorted_keys.size());
  for (uint32_t r = 0; r < index.num_records_; r += partition_size) {
    index.first_keys_.Append(sorted_keys.GetValue(r));
  }
  return index;
}

RowRange ClusteredIndex::Lookup(const KeyRange& range) const {
  if (num_records_ == 0 || num_partitions() == 0) return RowRange{};

  // Steps 1 & 2 of Figure 2: determine first and last qualifying partition
  // in main memory. The partition *before* the first start key >= lo may
  // still hold keys equal to lo in its tail, so QualifyingPartitions steps
  // one back (conservative; the reader post-filters).
  size_t first_partition = 0, last_partition = 0;
  if (!key_search::QualifyingPartitions(first_keys_, range.lo, range.hi,
                                        &first_partition, &last_partition)) {
    return RowRange{};
  }

  RowRange out;
  out.begin = static_cast<uint32_t>(first_partition) * partition_size_;
  const uint64_t end =
      (static_cast<uint64_t>(last_partition) + 1) * partition_size_;
  out.end = static_cast<uint32_t>(std::min<uint64_t>(end, num_records_));
  return out;
}

std::string ClusteredIndex::Serialize() const {
  ByteWriter w;
  w.PutU32(kClusteredIndexMagic);
  w.PutU8(static_cast<uint8_t>(key_type()));
  w.PutU32(partition_size_);
  w.PutU32(num_records_);
  w.PutU32(num_partitions());
  for (uint32_t i = 0; i < num_partitions(); ++i) {
    PutIndexKey(w, first_keys_, i);
  }
  return w.Take();
}

Result<ClusteredIndex> ClusteredIndex::Deserialize(std::string_view data) {
  ByteReader r(data);
  HAIL_ASSIGN_OR_RETURN(uint32_t magic, r.GetU32());
  if (magic != kClusteredIndexMagic) {
    return Status::Corruption("not a clustered index");
  }
  HAIL_ASSIGN_OR_RETURN(uint8_t type_byte, r.GetU8());
  const FieldType type = static_cast<FieldType>(type_byte);
  const size_t min_key = MinSerializedKeyBytes(type);
  if (min_key == 0) {
    return Status::Corruption("clustered index names an unknown key type");
  }
  HAIL_ASSIGN_OR_RETURN(uint32_t partition_size, r.GetU32());
  if (partition_size == 0) return Status::Corruption("zero partition size");
  ClusteredIndex index(type, partition_size);
  HAIL_ASSIGN_OR_RETURN(index.num_records_, r.GetU32());
  HAIL_ASSIGN_OR_RETURN(uint32_t n, r.GetU32());
  // The partition count is checked against the bytes left and against the
  // record count before any key is decoded: Build emits exactly one first
  // key per started partition.
  if (n > r.remaining() / min_key) {
    return Status::Corruption("clustered index partition count exceeds data");
  }
  if (n != (uint64_t{index.num_records_} + partition_size - 1) /
               partition_size) {
    return Status::Corruption(
        "clustered index partition count does not match its records");
  }
  for (uint32_t i = 0; i < n; ++i) {
    HAIL_RETURN_NOT_OK(GetIndexKey(r, &index.first_keys_));
  }
  if (!r.exhausted()) {
    return Status::Corruption("trailing bytes after clustered index");
  }
  return index;
}

Status ClusteredIndex::CheckRowsOf(uint32_t block_records) const {
  if (num_records_ == block_records) return Status::OK();
  return Status::Corruption("clustered index covers " +
                            std::to_string(num_records_) + " records of a " +
                            std::to_string(block_records) + "-record block");
}

uint64_t ClusteredIndex::SerializedBytes() const {
  uint64_t bytes = 4 + 1 + 4 + 4 + 4;  // header
  bytes += first_keys_.SerializedValueBytes();
  if (key_type() == FieldType::kString) {
    bytes += 4ull * num_partitions();  // length prefixes replace NULs
  }
  return bytes;
}

}  // namespace hail
