#include "index/trojan_index.h"

#include <algorithm>
#include <cassert>

#include "index/key_search.h"

namespace hail {

namespace {
constexpr uint32_t kTrojanMagic = 0x4A525448;  // "HTRJ"
}  // namespace

TrojanIndex TrojanIndex::Build(const ColumnVector& sorted_keys,
                               const std::vector<uint64_t>& row_offsets,
                               uint64_t data_bytes, uint32_t rows_per_entry) {
  assert(rows_per_entry > 0);
  assert(sorted_keys.size() == row_offsets.size());
  TrojanIndex index(sorted_keys.type(), rows_per_entry);
  index.num_records_ = static_cast<uint32_t>(sorted_keys.size());
  index.data_bytes_ = data_bytes;
  for (uint32_t r = 0; r < index.num_records_; r += rows_per_entry) {
    index.entry_keys_.Append(sorted_keys.GetValue(r));
    index.entry_offsets_.push_back(row_offsets[r]);
  }
  return index;
}

TrojanIndex::LookupResult TrojanIndex::Lookup(const KeyRange& range) const {
  LookupResult out;
  if (num_records_ == 0) return out;

  // A directory entry plays the role of a partition of rows_per_entry_ rows.
  size_t first = 0, last = 0;
  if (!key_search::QualifyingPartitions(entry_keys_, range.lo, range.hi,
                                        &first, &last)) {
    return out;
  }
  const uint32_t first_entry = static_cast<uint32_t>(first);
  const uint32_t last_entry = static_cast<uint32_t>(last);  // inclusive
  out.first_row = first_entry * rows_per_entry_;
  out.end_row = std::min<uint32_t>((last_entry + 1) * rows_per_entry_,
                                   num_records_);
  out.bytes.begin = entry_offsets_[first_entry];
  out.bytes.end = (last_entry + 1 < entry_offsets_.size())
                      ? entry_offsets_[last_entry + 1]
                      : data_bytes_;
  return out;
}

std::string TrojanIndex::Serialize() const {
  ByteWriter w;
  w.PutU32(kTrojanMagic);
  w.PutU8(static_cast<uint8_t>(entry_keys_.type()));
  w.PutU32(rows_per_entry_);
  w.PutU32(num_records_);
  w.PutU64(data_bytes_);
  w.PutU32(num_entries());
  for (uint32_t i = 0; i < num_entries(); ++i) {
    PutIndexKey(w, entry_keys_, i);
    w.PutU64(entry_offsets_[i]);
  }
  return w.Take();
}

Result<TrojanIndex> TrojanIndex::Deserialize(std::string_view data) {
  ByteReader r(data);
  HAIL_ASSIGN_OR_RETURN(uint32_t magic, r.GetU32());
  if (magic != kTrojanMagic) return Status::Corruption("not a trojan index");
  HAIL_ASSIGN_OR_RETURN(uint8_t type_byte, r.GetU8());
  const FieldType type = static_cast<FieldType>(type_byte);
  const size_t min_key = MinSerializedKeyBytes(type);
  if (min_key == 0) {
    return Status::Corruption("trojan index names an unknown key type");
  }
  HAIL_ASSIGN_OR_RETURN(uint32_t rows_per_entry, r.GetU32());
  if (rows_per_entry == 0) return Status::Corruption("zero rows per entry");
  TrojanIndex index(type, rows_per_entry);
  HAIL_ASSIGN_OR_RETURN(index.num_records_, r.GetU32());
  HAIL_ASSIGN_OR_RETURN(index.data_bytes_, r.GetU64());
  HAIL_ASSIGN_OR_RETURN(uint32_t n, r.GetU32());
  // The entry count is checked against the bytes left (key + 8-byte
  // offset per entry) and against the record count before anything is
  // sized from it: Build emits one entry per started run of rows.
  if (n > r.remaining() / (min_key + 8)) {
    return Status::Corruption("trojan index entry count exceeds data");
  }
  if (n != (uint64_t{index.num_records_} + rows_per_entry - 1) /
               rows_per_entry) {
    return Status::Corruption(
        "trojan index entry count does not match its records");
  }
  index.entry_offsets_.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    HAIL_RETURN_NOT_OK(GetIndexKey(r, &index.entry_keys_));
    HAIL_ASSIGN_OR_RETURN(uint64_t off, r.GetU64());
    index.entry_offsets_.push_back(off);
  }
  if (!r.exhausted()) {
    return Status::Corruption("trailing bytes after trojan index");
  }
  return index;
}

uint64_t TrojanIndex::SerializedBytes() const {
  uint64_t bytes = 4 + 1 + 4 + 4 + 8 + 4;
  bytes += entry_keys_.SerializedValueBytes();
  if (entry_keys_.type() == FieldType::kString) {
    bytes += 4ull * num_entries();
  }
  bytes += 8ull * num_entries();
  return bytes;
}

}  // namespace hail
