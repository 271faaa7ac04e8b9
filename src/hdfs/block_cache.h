/// \file block_cache.h
/// \brief Per-cluster read cache memoising per-block-version work.
///
/// Every map task of every query used to redo the same per-block work:
/// Datanode::ReadBlockVerified re-computed CRC32C over the full block,
/// HailBlockView::Open re-parsed the layout, and the clustered index was
/// re-deserialised per task (the paper reads it "entirely into main
/// memory", §4.3 — there is no reason to decode it thousands of times per
/// job). This cache makes that work once per *block version*:
///
///   key   = (datanode, block_id) -> entry pinned to a generation
///   entry = { verified flag, decoded artifact (reader-specific) }
///
/// Generations are bumped by the owning datanode on every mutation of the
/// replica (stream append, one-shot store, delete), so a stale entry can
/// never be served; node kill/revive additionally invalidates all of a
/// datanode's entries (a revived node conceptually re-reports its blocks).
///
/// The cache is purely a *real-work* optimisation: simulated cost
/// accounting in the readers is untouched, so every simulated number is
/// bit-identical with the cache on, off, hot or cold.
///
/// Thread safety: the cache is sharded; each shard's mutex is held across
/// the miss path (verify/decode + insert), which both serialises duplicate
/// work and guarantees the exactly-once counters the tests rely on. The
/// counters live on the cluster MetricsRegistry ("cache.*") as sharded
/// obs::Counters — the parallel task engine hits this cache from many
/// pool threads at once, and the exactly-once protocol makes the merged
/// totals identical between serial and parallel execution.

#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "obs/metrics.h"
#include "util/result.h"

namespace hail {
namespace hdfs {

/// \brief Base class for cached per-block decode artifacts.
///
/// Readers subclass this with whatever their layout decodes once per block
/// (HAIL: block view + PAX view + lazy clustered index; Hadoop++: trojan
/// view + row view + lazy trojan index) and downcast on retrieval. An
/// artifact may hold string_views into the datanode's stored bytes; entry
/// invalidation on every replica mutation keeps those views from being
/// served dangling.
struct BlockArtifact {
  virtual ~BlockArtifact() = default;
};

/// \brief Monotonic cache counters (test hooks + BENCH_query.json).
struct BlockCacheStats {
  uint64_t verify_hits = 0;
  uint64_t verify_misses = 0;
  /// Real bytes actually CRC-verified (misses only) — proves verification
  /// happens once per block version, not once per task.
  uint64_t bytes_verified = 0;
  uint64_t artifact_hits = 0;
  uint64_t artifact_misses = 0;
  /// Clustered/trojan index deserialisations actually performed.
  uint64_t index_decodes = 0;
  /// Entries dropped by explicit invalidation (mutation, kill, revive).
  uint64_t invalidated_entries = 0;
  /// Entries dropped by capacity eviction.
  uint64_t evicted_entries = 0;
};

/// \brief Bounded, sharded, generation-checked per-block cache.
class BlockCache {
 public:
  /// \p max_entries_per_shard bounds each of the kShards shards (FIFO
  /// eviction). The default comfortably holds the paper-scale corpus
  /// (3200 blocks x 3 replicas) while bounding worst-case memory.
  /// Counters register on \p registry as "cache.*"; when null, the cache
  /// owns a private registry (standalone unit tests).
  explicit BlockCache(size_t max_entries_per_shard = 4096,
                      obs::MetricsRegistry* registry = nullptr);

  /// Memoised checksum verification. On a hit for this exact generation,
  /// returns OK without invoking \p verify; on a miss, runs \p verify and
  /// caches success (failures are never cached). \p bytes is the real
  /// size being verified, accounted in bytes_verified on misses.
  Status VerifyOnce(int datanode, uint64_t block_id, uint64_t generation,
                    uint64_t bytes, const std::function<Status()>& verify);

  /// Memoised per-block decode. On a miss (or generation mismatch) runs
  /// \p make and caches the artifact; errors are returned, not cached.
  Result<std::shared_ptr<const BlockArtifact>> ArtifactOnce(
      int datanode, uint64_t block_id, uint64_t generation,
      const std::function<Result<std::shared_ptr<const BlockArtifact>>()>&
          make);

  /// Drops the entry for one replica (called on every replica mutation).
  void InvalidateBlock(int datanode, uint64_t block_id);

  /// Drops every entry of one datanode (node kill / revive).
  void InvalidateDatanode(int datanode);

  /// Counter hook for readers' lazy index decodes (the artifact owns the
  /// decode; the cache owns the counter so tests have one place to look).
  void NoteIndexDecode() { index_decodes_->Inc(); }

  /// Snapshot of the monotonic counters.
  BlockCacheStats stats() const;

  /// Live entries for one datanode (test hook: must be 0 after a kill —
  /// a dead node's replicas are never served from cache).
  size_t entry_count_for(int datanode) const;

 private:
  static constexpr size_t kShards = 16;

  struct Key {
    int datanode;
    uint64_t block_id;
    bool operator==(const Key& o) const {
      return datanode == o.datanode && block_id == o.block_id;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      // splitmix64-style scramble over the combined key.
      uint64_t x = (static_cast<uint64_t>(static_cast<uint32_t>(k.datanode))
                    << 48) ^
                   k.block_id;
      x ^= x >> 30;
      x *= 0xbf58476d1ce4e5b9ull;
      x ^= x >> 27;
      return static_cast<size_t>(x * 0x94d049bb133111ebull);
    }
  };

  struct Entry {
    uint64_t generation = 0;
    bool verified = false;
    std::shared_ptr<const BlockArtifact> artifact;
  };

  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<Key, Entry, KeyHash> map;
    std::deque<Key> fifo;  // insertion order for capacity eviction
  };

  Shard& shard_for(const Key& key) {
    return shards_[KeyHash{}(key) % kShards];
  }

  /// Returns the live entry for \p key at \p generation, creating (or
  /// generation-resetting) it as needed. Shard mutex must be held.
  Entry& LiveEntry(Shard& shard, const Key& key, uint64_t generation);

  size_t max_entries_per_shard_;
  Shard shards_[kShards];

  // Registry-backed counters ("cache.*"); `stats()` is a snapshot view
  // over these — there are no per-field atomics anymore.
  std::unique_ptr<obs::MetricsRegistry> owned_registry_;
  obs::Counter* verify_hits_;
  obs::Counter* verify_misses_;
  obs::Counter* bytes_verified_;
  obs::Counter* artifact_hits_;
  obs::Counter* artifact_misses_;
  obs::Counter* index_decodes_;
  obs::Counter* invalidated_entries_;
  obs::Counter* evicted_entries_;
};

}  // namespace hdfs
}  // namespace hail
