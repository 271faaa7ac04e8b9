/// \file stats.h
/// \brief Sample statistics, outcome accounting and digests of the
/// benchmark harness. Header-only so the self-test links nothing else.

#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile: the smallest sample such that at least
/// \p pct percent of the samples are <= it (rank = ceil(pct/100 * n),
/// 1-based). 0 for an empty sample set.
inline double NearestRank(std::vector<double> values, double pct) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  size_t rank = static_cast<size_t>(std::ceil(pct / 100.0 * n));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

/// Samples ranked strictly above the nearest-rank \p pct percentile.
inline size_t SamplesBeyond(size_t n, double pct) {
  if (n == 0) return 0;
  size_t rank = static_cast<size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  return n - rank;
}

/// A tail percentile is only reported when at least this many samples
/// lie beyond it; otherwise one outlier decides it.
inline constexpr size_t kMinSamplesBeyond = 10;

inline bool PercentileResolved(size_t n, double pct) {
  return SamplesBeyond(n, pct) >= kMinSamplesBeyond;
}

/// Median of a sample set (nearest-rank p50, so it is always a sample).
inline double Median(const std::vector<double>& values) {
  return NearestRank(values, 50.0);
}

/// What happened to the operations a run attempted. A shed (refused)
/// operation counts as failed: the user did not get an answer.
struct Outcomes {
  uint64_t attempted = 0;
  uint64_t completed = 0;
  uint64_t errored = 0;
  uint64_t shed = 0;

  uint64_t failed() const { return errored + shed; }
  double failed_frac() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed()) /
                                static_cast<double>(attempted);
  }
};

/// 64-bit FNV-1a, chained through \p seed so several dumps fold into one.
inline uint64_t Fnv1a(std::string_view data,
                      uint64_t seed = 0xcbf29ce484222325ull) {
  uint64_t h = seed;
  for (unsigned char c : data) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

inline std::string Hex64(uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace perfbench
