/// \file io.h
/// \brief Little-endian byte serialisation used by all on-"disk" formats.
///
/// ByteWriter appends to an owned std::string; ByteReader walks a
/// string_view with bounds checking, returning Corruption statuses on
/// truncated input so block deserialisation never reads out of bounds.

#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "util/result.h"

namespace hail {

/// \brief Append-only little-endian encoder.
class ByteWriter {
 public:
  void PutU8(uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void PutU32(uint32_t v) { PutRaw(&v, sizeof(v)); }
  void PutU64(uint64_t v) { PutRaw(&v, sizeof(v)); }
  void PutI32(int32_t v) { PutRaw(&v, sizeof(v)); }
  void PutI64(int64_t v) { PutRaw(&v, sizeof(v)); }
  void PutF64(double v) { PutRaw(&v, sizeof(v)); }

  /// Length-prefixed (u32) byte string.
  void PutLengthPrefixed(std::string_view s) {
    PutU32(static_cast<uint32_t>(s.size()));
    PutBytes(s);
  }

  void PutBytes(std::string_view s) { out_.append(s.data(), s.size()); }

  /// Appends \p n zero bytes and returns where they start, so a section
  /// of known size is filled in bulk instead of value by value. The
  /// pointer is valid until the next append.
  char* Extend(size_t n) {
    const size_t pos = out_.size();
    out_.resize(pos + n);
    return out_.data() + pos;
  }

  /// Current size; also used to note offsets while writing headers.
  size_t size() const { return out_.size(); }

  std::string& buffer() { return out_; }
  const std::string& buffer() const { return out_; }
  std::string Take() { return std::move(out_); }

 private:
  void PutRaw(const void* p, size_t n) {
    out_.append(static_cast<const char*>(p), n);
  }
  std::string out_;
};

/// \brief Bounds-checked little-endian decoder.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  size_t position() const { return pos_; }
  size_t remaining() const { return data_.size() - pos_; }
  bool exhausted() const { return pos_ >= data_.size(); }

  Result<uint8_t> GetU8() {
    uint8_t v = 0;
    HAIL_RETURN_NOT_OK(GetRaw(&v, sizeof(v)));
    return v;
  }
  Result<uint32_t> GetU32() {
    uint32_t v = 0;
    HAIL_RETURN_NOT_OK(GetRaw(&v, sizeof(v)));
    return v;
  }
  Result<uint64_t> GetU64() {
    uint64_t v = 0;
    HAIL_RETURN_NOT_OK(GetRaw(&v, sizeof(v)));
    return v;
  }
  Result<int32_t> GetI32() {
    int32_t v = 0;
    HAIL_RETURN_NOT_OK(GetRaw(&v, sizeof(v)));
    return v;
  }
  Result<int64_t> GetI64() {
    int64_t v = 0;
    HAIL_RETURN_NOT_OK(GetRaw(&v, sizeof(v)));
    return v;
  }
  Result<double> GetF64() {
    double v = 0.0;
    HAIL_RETURN_NOT_OK(GetRaw(&v, sizeof(v)));
    return v;
  }

  /// Length-prefixed (u32) byte string; the view aliases the input buffer.
  Result<std::string_view> GetLengthPrefixed() {
    HAIL_ASSIGN_OR_RETURN(uint32_t len, GetU32());
    return GetBytes(len);
  }

  Result<std::string_view> GetBytes(size_t n) {
    if (remaining() < n) {
      return Status::Corruption("byte stream truncated");
    }
    std::string_view out = data_.substr(pos_, n);
    pos_ += n;
    return out;
  }

  /// Repositions the cursor (e.g. to jump to a column minipage offset).
  Status SeekTo(size_t offset) {
    if (offset > data_.size()) return Status::Corruption("seek out of bounds");
    pos_ = offset;
    return Status::OK();
  }

 private:
  Status GetRaw(void* p, size_t n) {
    if (remaining() < n) {
      return Status::Corruption("byte stream truncated");
    }
    std::memcpy(p, data_.data() + pos_, n);
    pos_ += n;
    return Status::OK();
  }

  std::string_view data_;
  size_t pos_ = 0;
};

}  // namespace hail
