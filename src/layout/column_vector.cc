#include "layout/column_vector.h"

#include <algorithm>
#include <cassert>
#include <numeric>

namespace hail {

size_t ColumnVector::size() const {
  switch (type_) {
    case FieldType::kInt32:
    case FieldType::kDate:
      return i32_.size();
    case FieldType::kInt64:
      return i64_.size();
    case FieldType::kDouble:
      return f64_.size();
    case FieldType::kString:
      return ends_.size();
  }
  return 0;
}

void ColumnVector::Append(const Value& v) {
  switch (type_) {
    case FieldType::kInt32:
    case FieldType::kDate:
      i32_.push_back(v.as_int32());
      break;
    case FieldType::kInt64:
      i64_.push_back(v.as_int64());
      break;
    case FieldType::kDouble:
      f64_.push_back(v.as_double());
      break;
    case FieldType::kString:
      AppendString(v.as_string());
      break;
  }
}

Value ColumnVector::GetValue(size_t row) const {
  switch (type_) {
    case FieldType::kInt32:
    case FieldType::kDate:
      return Value(i32_[row]);
    case FieldType::kInt64:
      return Value(i64_[row]);
    case FieldType::kDouble:
      return Value(f64_[row]);
    case FieldType::kString:
      return Value(std::string(str(row)));
  }
  return Value();
}

void ColumnVector::Truncate(size_t n) {
  switch (type_) {
    case FieldType::kInt32:
    case FieldType::kDate:
      if (n < i32_.size()) i32_.resize(n);
      break;
    case FieldType::kInt64:
      if (n < i64_.size()) i64_.resize(n);
      break;
    case FieldType::kDouble:
      if (n < f64_.size()) f64_.resize(n);
      break;
    case FieldType::kString:
      if (n < ends_.size()) {
        ends_.resize(n);
        bytes_.resize(n == 0 ? 0 : ends_.back());
      }
      break;
  }
}

namespace {
template <typename T>
std::vector<T> PermutedVector(const std::vector<T>& data,
                              const std::vector<uint32_t>& perm) {
  std::vector<T> out;
  out.reserve(data.size());
  for (uint32_t src : perm) out.push_back(data[src]);
  return out;
}
}  // namespace

void ColumnVector::ApplyPermutation(const std::vector<uint32_t>& perm) {
  assert(perm.size() == size());
  *this = PermutedCopy(perm);
}

ColumnVector ColumnVector::PermutedCopy(
    const std::vector<uint32_t>& perm) const {
  assert(perm.size() == size());
  ColumnVector out(type_);
  switch (type_) {
    case FieldType::kInt32:
    case FieldType::kDate:
      out.i32_ = PermutedVector(i32_, perm);
      break;
    case FieldType::kInt64:
      out.i64_ = PermutedVector(i64_, perm);
      break;
    case FieldType::kDouble:
      out.f64_ = PermutedVector(f64_, perm);
      break;
    case FieldType::kString:
      out.Reserve(perm.size(), bytes_.size());
      for (uint32_t src : perm) out.AppendString(str(src));
      break;
  }
  return out;
}

uint64_t ColumnVector::SerializedValueBytes() const {
  switch (type_) {
    case FieldType::kInt32:
    case FieldType::kDate:
      return i32_.size() * sizeof(int32_t);
    case FieldType::kInt64:
      return i64_.size() * sizeof(int64_t);
    case FieldType::kDouble:
      return f64_.size() * sizeof(double);
    case FieldType::kString:
      return bytes_.size() + ends_.size();  // one NUL per value
  }
  return 0;
}

void ColumnVector::Reserve(size_t n, uint64_t string_bytes) {
  switch (type_) {
    case FieldType::kInt32:
    case FieldType::kDate:
      i32_.reserve(i32_.size() + n);
      break;
    case FieldType::kInt64:
      i64_.reserve(i64_.size() + n);
      break;
    case FieldType::kDouble:
      f64_.reserve(f64_.size() + n);
      break;
    case FieldType::kString:
      ends_.reserve(ends_.size() + n);
      bytes_.reserve(bytes_.size() + string_bytes);
      break;
  }
}

std::vector<uint32_t> ArgSortColumn(const ColumnVector& column) {
  std::vector<uint32_t> perm(column.size());
  std::iota(perm.begin(), perm.end(), 0u);
  switch (column.type()) {
    case FieldType::kInt32:
    case FieldType::kDate: {
      const auto& v = column.i32();
      std::stable_sort(perm.begin(), perm.end(),
                       [&](uint32_t a, uint32_t b) { return v[a] < v[b]; });
      break;
    }
    case FieldType::kInt64: {
      const auto& v = column.i64();
      std::stable_sort(perm.begin(), perm.end(),
                       [&](uint32_t a, uint32_t b) { return v[a] < v[b]; });
      break;
    }
    case FieldType::kDouble: {
      const auto& v = column.f64();
      std::stable_sort(perm.begin(), perm.end(),
                       [&](uint32_t a, uint32_t b) { return v[a] < v[b]; });
      break;
    }
    case FieldType::kString:
      std::stable_sort(perm.begin(), perm.end(), [&](uint32_t a, uint32_t b) {
        return column.str(a) < column.str(b);
      });
      break;
  }
  return perm;
}

}  // namespace hail
