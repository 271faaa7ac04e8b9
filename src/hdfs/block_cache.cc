#include "hdfs/block_cache.h"

#include <algorithm>

namespace hail {
namespace hdfs {

BlockCache::BlockCache(size_t max_entries_per_shard,
                       obs::MetricsRegistry* registry)
    : max_entries_per_shard_(max_entries_per_shard) {
  if (registry == nullptr) {
    owned_registry_ = std::make_unique<obs::MetricsRegistry>();
    registry = owned_registry_.get();
  }
  verify_hits_ = registry->counter("cache.verify_hits");
  verify_misses_ = registry->counter("cache.verify_misses");
  bytes_verified_ = registry->counter("cache.bytes_verified");
  artifact_hits_ = registry->counter("cache.artifact_hits");
  artifact_misses_ = registry->counter("cache.artifact_misses");
  index_decodes_ = registry->counter("cache.index_decodes");
  invalidated_entries_ = registry->counter("cache.invalidated_entries");
  evicted_entries_ = registry->counter("cache.evicted_entries");
}

BlockCache::Entry& BlockCache::LiveEntry(Shard& shard, const Key& key,
                                         uint64_t generation) {
  auto it = shard.map.find(key);
  if (it == shard.map.end()) {
    // Capacity eviction: FIFO over insertion order, skipping keys whose
    // entry was already erased by invalidation.
    while (shard.map.size() >= max_entries_per_shard_ && !shard.fifo.empty()) {
      const Key victim = shard.fifo.front();
      shard.fifo.pop_front();
      if (victim == key) continue;
      if (shard.map.erase(victim) > 0) {
        evicted_entries_->Inc();
      }
    }
    it = shard.map.emplace(key, Entry{}).first;
    it->second.generation = generation;
    shard.fifo.push_back(key);
  } else if (it->second.generation != generation) {
    // The replica was rewritten since this entry was cached: everything in
    // it describes dead bytes. Reset in place.
    it->second = Entry{};
    it->second.generation = generation;
  }
  return it->second;
}

Status BlockCache::VerifyOnce(int datanode, uint64_t block_id,
                              uint64_t generation, uint64_t bytes,
                              const std::function<Status()>& verify) {
  const Key key{datanode, block_id};
  Shard& shard = shard_for(key);
  // The mutex is held across the verification itself: two tasks racing on
  // the same cold block must not both burn the CRC work (and the
  // exactly-once counters would lie).
  std::lock_guard<std::mutex> lock(shard.mu);
  Entry& entry = LiveEntry(shard, key, generation);
  if (entry.verified) {
    verify_hits_->Inc();
    return Status::OK();
  }
  verify_misses_->Inc();
  bytes_verified_->Add(bytes);
  Status st = verify();
  if (st.ok()) entry.verified = true;
  return st;
}

Result<std::shared_ptr<const BlockArtifact>> BlockCache::ArtifactOnce(
    int datanode, uint64_t block_id, uint64_t generation,
    const std::function<Result<std::shared_ptr<const BlockArtifact>>()>&
        make) {
  const Key key{datanode, block_id};
  Shard& shard = shard_for(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  Entry& entry = LiveEntry(shard, key, generation);
  if (entry.artifact != nullptr) {
    artifact_hits_->Inc();
    return entry.artifact;
  }
  artifact_misses_->Inc();
  HAIL_ASSIGN_OR_RETURN(std::shared_ptr<const BlockArtifact> artifact,
                        make());
  entry.artifact = std::move(artifact);
  return entry.artifact;
}

void BlockCache::InvalidateBlock(int datanode, uint64_t block_id) {
  const Key key{datanode, block_id};
  Shard& shard = shard_for(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  if (shard.map.erase(key) > 0) {
    invalidated_entries_->Inc();
  }
}

void BlockCache::InvalidateDatanode(int datanode) {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (auto it = shard.map.begin(); it != shard.map.end();) {
      if (it->first.datanode == datanode) {
        it = shard.map.erase(it);
        invalidated_entries_->Inc();
      } else {
        ++it;
      }
    }
  }
}

void BlockCache::Clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    invalidated_entries_->Add(shard.map.size());
    shard.map.clear();
    shard.fifo.clear();
  }
}

BlockCacheStats BlockCache::stats() const {
  BlockCacheStats out;
  out.verify_hits = verify_hits_->Value();
  out.verify_misses = verify_misses_->Value();
  out.bytes_verified = bytes_verified_->Value();
  out.artifact_hits = artifact_hits_->Value();
  out.artifact_misses = artifact_misses_->Value();
  out.index_decodes = index_decodes_->Value();
  out.invalidated_entries = invalidated_entries_->Value();
  out.evicted_entries = evicted_entries_->Value();
  return out;
}

size_t BlockCache::entry_count_for(int datanode) const {
  size_t n = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const auto& [key, entry] : shard.map) {
      (void)entry;
      if (key.datanode == datanode) ++n;
    }
  }
  return n;
}

}  // namespace hdfs
}  // namespace hail
