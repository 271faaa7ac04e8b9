/// \file key_search.h
/// \brief Typed binary search over sorted key columns (shared by indexes).
///
/// The probe entry points (LowerBoundIndex / UpperBoundIndex) resolve the
/// key-column type and the literal's numeric kind ONCE, then run a tight
/// binary search over the raw typed vector — no Value boxing and no
/// per-iteration variant dispatch in the inner loop.

#pragma once

#include <algorithm>
#include <cstddef>

#include "layout/column_vector.h"
#include "schema/value.h"

namespace hail {
namespace key_search {

/// True when the value should compare as an exact integer (no widening to
/// double, which loses precision above 2^53).
inline bool IsIntegral(const Value& v) { return v.is_int32() || v.is_int64(); }

inline int64_t AsInt64(const Value& v) {
  return v.is_int32() ? v.as_int32() : v.as_int64();
}

#if defined(__GNUC__) || defined(__clang__)
#define HAIL_KEYSEARCH_EXPECT(x) __builtin_expect(!!(x), 1)
#else
#define HAIL_KEYSEARCH_EXPECT(x) (x)
#endif

/// Raw typed binary searches. T is the key storage type, L the widened
/// comparison type (int64_t or double) the caller resolved from the
/// literal; each iteration is one cast + one compare.
///
/// The loop is *branchless*: instead of a taken/not-taken branch per
/// probe (mispredicted ~50% of the time on random keys), each step
/// shrinks the window by a fixed half and advances the base with a
/// conditional move, so the only control dependency is the predictable
/// `n > 1` counter — the data-dependent compare feeds a cmov. The short
/// pragma-unrolled body keeps the halving steps in flight, and
/// __builtin_expect marks the loop as the hot path. Semantics are
/// identical to std::lower_bound / std::upper_bound (asserted in
/// tests/index_test.cc against the std versions).
template <typename T, typename L>
inline size_t LowerBoundRaw(const std::vector<T>& keys, L v) {
  const T* base = keys.data();
  size_t n = keys.size();
#if defined(__clang__)
#pragma unroll 4
#elif defined(__GNUC__)
#pragma GCC unroll 4
#endif
  while (HAIL_KEYSEARCH_EXPECT(n > 1)) {
    const size_t half = n / 2;
    base += (static_cast<L>(base[half - 1]) < v) ? half : 0;  // cmov
    n -= half;
  }
  return static_cast<size_t>(base - keys.data()) +
         ((n == 1 && static_cast<L>(base[0]) < v) ? 1 : 0);
}

template <typename T, typename L>
inline size_t UpperBoundRaw(const std::vector<T>& keys, L v) {
  const T* base = keys.data();
  size_t n = keys.size();
#if defined(__clang__)
#pragma unroll 4
#elif defined(__GNUC__)
#pragma GCC unroll 4
#endif
  while (HAIL_KEYSEARCH_EXPECT(n > 1)) {
    const size_t half = n / 2;
    base += !(v < static_cast<L>(base[half - 1])) ? half : 0;  // cmov
    n -= half;
  }
  return static_cast<size_t>(base - keys.data()) +
         ((n == 1 && !(v < static_cast<L>(base[0]))) ? 1 : 0);
}

/// First row of the sorted string column \p keys where \p below is false.
template <typename Below>
inline size_t StringPartitionPoint(const ColumnVector& keys, Below below) {
  size_t lo = 0;
  size_t n = keys.size();
  while (n > 0) {
    const size_t half = n / 2;
    if (below(keys.str(lo + half))) {
      lo += half + 1;
      n -= half + 1;
    } else {
      n = half;
    }
  }
  return lo;
}

/// First index whose key is >= v. Numeric widening matches
/// query/predicate.cc's CompareValues: int-vs-int compares as int64,
/// anything involving a double compares as double.
inline size_t LowerBoundIndex(const ColumnVector& keys, const Value& v) {
  switch (keys.type()) {
    case FieldType::kInt32:
    case FieldType::kDate:
      if (IsIntegral(v)) return LowerBoundRaw<int32_t, int64_t>(keys.i32(), AsInt64(v));
      return LowerBoundRaw<int32_t, double>(keys.i32(), v.AsNumeric());
    case FieldType::kInt64:
      if (IsIntegral(v)) return LowerBoundRaw<int64_t, int64_t>(keys.i64(), AsInt64(v));
      return LowerBoundRaw<int64_t, double>(keys.i64(), v.AsNumeric());
    case FieldType::kDouble:
      return LowerBoundRaw<double, double>(keys.f64(), v.AsNumeric());
    case FieldType::kString: {
      const std::string_view s = v.as_string();
      return StringPartitionPoint(
          keys, [s](std::string_view key) { return key < s; });
    }
  }
  return 0;
}

/// First index whose key is > v.
inline size_t UpperBoundIndex(const ColumnVector& keys, const Value& v) {
  switch (keys.type()) {
    case FieldType::kInt32:
    case FieldType::kDate:
      if (IsIntegral(v)) return UpperBoundRaw<int32_t, int64_t>(keys.i32(), AsInt64(v));
      return UpperBoundRaw<int32_t, double>(keys.i32(), v.AsNumeric());
    case FieldType::kInt64:
      if (IsIntegral(v)) return UpperBoundRaw<int64_t, int64_t>(keys.i64(), AsInt64(v));
      return UpperBoundRaw<int64_t, double>(keys.i64(), v.AsNumeric());
    case FieldType::kDouble:
      return UpperBoundRaw<double, double>(keys.f64(), v.AsNumeric());
    case FieldType::kString: {
      const std::string_view s = v.as_string();
      return StringPartitionPoint(
          keys, [s](std::string_view key) { return !(s < key); });
    }
  }
  return 0;
}

/// \brief First/last qualifying partition for a key range over partition
/// start keys, following Figure 2's in-memory determination. Returns false
/// when nothing qualifies.
inline bool QualifyingPartitions(const ColumnVector& first_keys,
                                 const std::optional<Value>& lo,
                                 const std::optional<Value>& hi,
                                 size_t* first_partition,
                                 size_t* last_partition) {
  if (first_keys.size() == 0) return false;
  size_t first = 0;
  if (lo.has_value()) {
    const size_t lb = LowerBoundIndex(first_keys, *lo);
    first = (lb == 0) ? 0 : lb - 1;
  }
  size_t last = first_keys.size() - 1;
  if (hi.has_value()) {
    const size_t ub = UpperBoundIndex(first_keys, *hi);
    if (ub == 0) return false;
    last = ub - 1;
  }
  if (first > last) return false;
  *first_partition = first;
  *last_partition = last;
  return true;
}

}  // namespace key_search
}  // namespace hail
