/// \file plan_cache.h
/// \brief Session-scoped cache of computed job plans.
///
/// Recomputing splits + per-block access decisions for every submission
/// of the same query is pure waste in a steady-state session: the plan
/// only changes when the replica directory does. The cache keys on
/// everything that feeds ComputeJobPlan — input file, schema, annotation,
/// system, splitting and planning flags — plus the namenode's
/// directory generation. Any directory mutation (replica registered or
/// revoked, node death/revive, file create/delete, stats arrival) bumps
/// the generation, so a stale plan can never be served: a generation
/// mismatch counts as an invalidation and the entry is replaced.
///
/// A cache hit skips both the plan computation and its billed planning
/// CPU (JobPlan::planner_seconds) — the admission path adds that cost
/// only on misses — and reuses the plan's compiled filter.

#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "mapreduce/input_format.h"

namespace hail {
namespace planner {

/// \brief Lifetime counters (monotonic across sessions sharing the cache).
struct PlanCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t invalidations = 0;  // generation-mismatch evictions
};

/// \brief Keyed store of JobPlans, invalidated by directory generation.
///
/// Single-threaded by design: plans are computed and cached inside the
/// session's deterministic admission loop (serial and parallel execution
/// drive it through the identical event sequence).
class PlanCache {
 public:
  /// Bounded size: when full, the next insert clears the cache (simple
  /// and deterministic; steady-state sessions hold far fewer plans).
  explicit PlanCache(size_t max_entries = 64) : max_entries_(max_entries) {}

  /// Builds the lookup key for a job spec (the schema, and the annotation
  /// rendered against it with every double literal exact; map function
  /// and output options excluded — they do not affect the plan).
  static std::string KeyFor(const mapreduce::JobSpec& spec);

  /// Returns the cached plan when present and computed at \p generation;
  /// nullptr on miss. A present-but-stale entry is dropped, counted as
  /// an invalidation, and reported as a miss.
  const mapreduce::JobPlan* Lookup(const std::string& key,
                                   uint64_t generation);

  /// Records a freshly computed plan for \p key at \p generation.
  void Insert(const std::string& key, uint64_t generation,
              mapreduce::JobPlan plan);

  const PlanCacheStats& stats() const { return stats_; }
  size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    uint64_t generation = 0;
    mapreduce::JobPlan plan;
  };
  size_t max_entries_;
  std::map<std::string, Entry> entries_;
  PlanCacheStats stats_;
};

}  // namespace planner
}  // namespace hail
