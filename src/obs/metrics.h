/// \file metrics.h
/// \brief Unified metrics registry: typed counters, gauges, histograms.
///
/// One registry per cluster (owned by MiniDfs) replaces the ad-hoc
/// counters that used to be scattered across the block cache, the
/// scheduler, the adaptive observer and the repair path. Three types:
///
///  - Counter: monotonic uint64, incremented from scan-kernel hot paths
///    and pool threads. Sharded relaxed atomics — on the serial engine a
///    single thread touches a single cache line; on the parallel engine
///    each worker lands on its own shard and the read-side merge is a
///    plain uint64 sum, which is associative and commutative, so the
///    merged value is bit-identical regardless of thread interleaving.
///  - Gauge: a double, mutated only on the simulated-clock event thread
///    (enforced by convention, checked under TSan in CI).
///  - Histogram: fixed boundaries chosen at registration; per-bucket
///    counts are Counters, so parallel observation stays deterministic.
///
/// Registration is by dotted lowercase name ("cache.verify_hits",
/// "scheduler.preemptions"); `TakeSnapshot()` returns every metric
/// sorted by name and serializes to one canonical flat JSON object —
/// the single serializer behind every BENCH_*.json and the metrics
/// artifacts, so keys cannot drift between benches.

#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace hail {
namespace obs {

/// Shortest round-trip decimal rendering of a double (deterministic
/// across runs and platforms with IEEE doubles; "17" never prints as
/// "17.000000000000000").
std::string FormatDouble(double v);

/// \brief Monotonic counter with per-worker shards.
class Counter {
 public:
  void Add(uint64_t delta) {
    slots_[ThisThreadShard()].v.fetch_add(delta, std::memory_order_relaxed);
  }
  void Inc() { Add(1); }

  /// Sum over shards. Deterministic for a deterministic set of
  /// increments (uint64 addition commutes).
  uint64_t Value() const {
    uint64_t sum = 0;
    for (const Slot& s : slots_) sum += s.v.load(std::memory_order_relaxed);
    return sum;
  }

  void Reset() {
    for (Slot& s : slots_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  static constexpr size_t kShards = 16;
  struct alignas(64) Slot {
    std::atomic<uint64_t> v{0};
  };
  static size_t ThisThreadShard();
  Slot slots_[kShards];
};

/// \brief Last-value-wins double. Event-thread only.
class Gauge {
 public:
  void Set(double v) { value_ = v; }
  void Add(double v) { value_ += v; }
  double Value() const { return value_; }
  void Reset() { value_ = 0.0; }

 private:
  double value_ = 0.0;
};

/// \brief Fixed-boundary histogram; bucket i counts values <= bounds[i],
/// with one overflow bucket, so counts.size() == bounds.size() + 1.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void Observe(double v);
  const std::vector<double>& bounds() const { return bounds_; }
  std::vector<uint64_t> Counts() const;
  void Reset();

 private:
  std::vector<double> bounds_;
  std::vector<std::unique_ptr<Counter>> buckets_;
};

/// \brief One metric in a snapshot (name-sorted within the snapshot).
struct MetricValue {
  enum class Kind { kCounter, kGauge, kHistogram };
  std::string name;
  Kind kind = Kind::kCounter;
  uint64_t count = 0;             // counter
  double value = 0.0;             // gauge
  std::vector<double> bounds;     // histogram
  std::vector<uint64_t> buckets;  // histogram (bounds.size() + 1)
};

/// \brief Point-in-time copy of every registered metric, sorted by name.
struct MetricsSnapshot {
  std::vector<MetricValue> metrics;

  /// Canonical flat JSON object: counters as integers, gauges as
  /// shortest-round-trip doubles, histograms as {bounds, counts}.
  /// Byte-deterministic for equal metric values.
  std::string ToJson() const;

  /// "name value" per line (human quick-look / test diffs).
  std::string ToText() const;
};

/// \brief Named registry. Thread-safe registration; lookups return
/// stable pointers that stay valid for the registry's lifetime, so hot
/// paths resolve a name once and increment raw pointers afterwards.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Finds or registers. A name registered as one kind must not be
  /// reused as another (returns the existing metric of that kind only).
  Counter* counter(std::string_view name);
  Gauge* gauge(std::string_view name);
  /// \p bounds is consulted only on first registration.
  Histogram* histogram(std::string_view name, std::vector<double> bounds);

  /// Zeroes every value but keeps registrations (pointers stay valid).
  void Reset();

  MetricsSnapshot TakeSnapshot() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// Writes \p contents to \p path (truncating). Returns false on I/O
/// error. Shared by the bench JSON emitters and the trace writers.
bool WriteTextFile(const std::string& path, const std::string& contents);

}  // namespace obs
}  // namespace hail
