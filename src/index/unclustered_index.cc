#include "index/unclustered_index.h"

#include "index/key_search.h"
#include "util/io.h"

namespace hail {

namespace {
constexpr uint32_t kUnclusteredMagic = 0x43554948;  // "HIUC"
}  // namespace

UnclusteredIndex UnclusteredIndex::Build(const ColumnVector& keys) {
  UnclusteredIndex index(keys.type());
  index.num_records_ = static_cast<uint32_t>(keys.size());
  index.row_ids_ = ArgSortColumn(keys);
  index.sorted_keys_ = keys.PermutedCopy(index.row_ids_);
  return index;
}

std::vector<uint32_t> UnclusteredIndex::Lookup(const KeyRange& range) const {
  std::vector<uint32_t> out;
  if (num_records_ == 0) return out;
  size_t begin = 0;
  size_t end = sorted_keys_.size();
  if (range.lo.has_value()) {
    begin = key_search::LowerBoundIndex(sorted_keys_, *range.lo);
  }
  if (range.hi.has_value()) {
    end = key_search::UpperBoundIndex(sorted_keys_, *range.hi);
  }
  for (size_t i = begin; i < end; ++i) {
    out.push_back(row_ids_[i]);
  }
  return out;
}

std::string UnclusteredIndex::Serialize() const {
  ByteWriter w;
  w.PutU32(kUnclusteredMagic);
  w.PutU8(static_cast<uint8_t>(sorted_keys_.type()));
  w.PutU32(num_records_);
  for (uint32_t i = 0; i < num_records_; ++i) {
    PutIndexKey(w, sorted_keys_, i);
    w.PutU32(row_ids_[i]);
  }
  return w.Take();
}

Result<UnclusteredIndex> UnclusteredIndex::Deserialize(std::string_view data) {
  ByteReader r(data);
  HAIL_ASSIGN_OR_RETURN(uint32_t magic, r.GetU32());
  if (magic != kUnclusteredMagic) {
    return Status::Corruption("not an unclustered index");
  }
  HAIL_ASSIGN_OR_RETURN(uint8_t type_byte, r.GetU8());
  const FieldType type = static_cast<FieldType>(type_byte);
  const size_t min_key = MinSerializedKeyBytes(type);
  if (min_key == 0) {
    return Status::Corruption("unclustered index names an unknown key type");
  }
  const size_t min_entry = min_key + 4;  // key + row id
  UnclusteredIndex index(type);
  HAIL_ASSIGN_OR_RETURN(index.num_records_, r.GetU32());
  // The count is checked against the bytes left before anything is sized
  // from it.
  if (index.num_records_ > r.remaining() / min_entry) {
    return Status::Corruption("unclustered index record count exceeds data");
  }
  index.row_ids_.reserve(index.num_records_);
  for (uint32_t i = 0; i < index.num_records_; ++i) {
    HAIL_RETURN_NOT_OK(GetIndexKey(r, &index.sorted_keys_));
    HAIL_ASSIGN_OR_RETURN(uint32_t row, r.GetU32());
    index.row_ids_.push_back(row);
  }
  if (!r.exhausted()) {
    return Status::Corruption("trailing bytes after unclustered index");
  }
  return index;
}

Status UnclusteredIndex::CheckRowsOf(uint32_t block_records) const {
  if (num_records_ != block_records) {
    return Status::Corruption("unclustered index covers " +
                              std::to_string(num_records_) +
                              " records of a " +
                              std::to_string(block_records) + "-record block");
  }
  for (uint32_t row : row_ids_) {
    if (row >= block_records) {
      return Status::Corruption("unclustered index row id " +
                                std::to_string(row) + " past the block");
    }
  }
  return Status::OK();
}

uint64_t UnclusteredIndex::SerializedBytes() const {
  uint64_t bytes = 4 + 1 + 4;
  bytes += sorted_keys_.SerializedValueBytes();
  if (sorted_keys_.type() == FieldType::kString) {
    // Serialize() writes length-prefixed strings (4 bytes each), while
    // SerializedValueBytes counts the PAX convention's NUL terminator
    // (1 byte each): swap the difference so this matches Serialize().
    bytes += 3ull * num_records_;
  }
  bytes += 4ull * num_records_;
  return bytes;
}

}  // namespace hail
