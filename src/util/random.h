/// \file random.h
/// \brief Deterministic PRNGs for data generation and simulation.
///
/// Everything in the repository that needs randomness takes an explicit
/// seed so simulations and tests are reproducible bit-for-bit.

#pragma once

#include <cstdint>
#include <string>

namespace hail {

/// \brief SplitMix64: tiny, fast generator used to seed and for general use.
class Random {
 public:
  explicit Random(uint64_t seed) : state_(seed + 0x9e3779b97f4a7c15ULL) {}

  /// Next 64 uniformly distributed bits.
  uint64_t NextU64() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  /// Uniform in [0, n). Returns 0 when n == 0.
  uint64_t Uniform(uint64_t n) {
    if (n == 0) return 0;
    // Multiply-shift rejection-free mapping (Lemire); bias is negligible
    // for the generator periods used here.
    return static_cast<uint64_t>(
        (static_cast<unsigned __int128>(NextU64()) * n) >> 64);
  }

  /// Uniform in [lo, hi] inclusive; requires lo <= hi.
  int64_t UniformRange(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Uniform(static_cast<uint64_t>(hi - lo + 1)));
  }

  /// Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(NextU64() >> 11) * (1.0 / 9007199254740992.0);
  }

  /// True with probability p.
  bool Bernoulli(double p) { return NextDouble() < p; }

  /// Random lowercase ASCII string of the given length.
  std::string NextString(size_t length);

  /// Forks an independent stream (for per-node / per-block generators).
  Random Fork() { return Random(NextU64()); }

 private:
  uint64_t state_;
};

}  // namespace hail
