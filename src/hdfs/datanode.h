/// \file datanode.h
/// \brief A simulated HDFS datanode: local replica storage + read path.
///
/// The upload pipelines (hdfs::UploadPipeline for stock HDFS,
/// hail::HailUploadPipeline for HAIL) drive packets *through* datanodes;
/// the datanode itself owns the two files per replica (data + checksums)
/// and the verified read path used by RecordReaders.
///
/// Each replica carries a monotonically increasing *generation*, bumped on
/// every mutation (stream append, one-shot store, delete). The generation
/// keys the cluster-wide BlockCache so query-path work memoised for one
/// version of the bytes (CRC verification, layout decode) can never be
/// served for another.

#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "hdfs/block_cache.h"
#include "hdfs/local_store.h"
#include "hdfs/packet.h"
#include "sim/cluster.h"
#include "util/result.h"

namespace hail {
namespace hdfs {

/// \brief One datanode: an id, a local store, its simulated machine and
/// the cluster's shared read cache, whose entries for a replica it drops
/// on every mutation of that replica.
class Datanode {
 public:
  Datanode(int id, sim::SimNode* sim_node, BlockCache* cache)
      : id_(id), sim_(sim_node), cache_(cache) {}

  int id() const { return id_; }
  sim::SimNode& sim() { return *sim_; }
  const sim::SimNode& sim() const { return *sim_; }
  LocalStore& store() { return store_; }
  const LocalStore& store() const { return store_; }

  /// Streaming flush of one packet (stock HDFS write path): appends the
  /// chunk data to blk_<id> and the checksums to blk_<id>.meta.
  void AppendPacket(const Packet& packet);

  /// One-shot store of a finished block (HAIL path: after sort + index +
  /// checksum recomputation). Overwrites any streamed state.
  void StoreBlock(uint64_t block_id, std::string data,
                  const std::vector<uint32_t>& crcs);

  bool HasBlock(uint64_t block_id) const {
    return store_.Exists(BlockFileName(block_id));
  }

  /// Current version of the replica's bytes; 0 for a never-written block.
  uint64_t block_generation(uint64_t block_id) const {
    auto it = generations_.find(block_id);
    return it == generations_.end() ? 0 : it->second;
  }

  /// Reads a replica and verifies every chunk checksum against the meta
  /// file ("these checksums are reused by HDFS whenever data is sent",
  /// §3.2). Returns a view into the store. Verification is memoised per
  /// block generation in the cluster's BlockCache (the simulated CRC cost
  /// is still billed per task by the readers — the cache only removes the
  /// repeated *real* work). Reads against a dead node return Unavailable
  /// (retryable on another replica); CRC mismatches return Corruption.
  Result<std::string_view> ReadBlockVerified(uint64_t block_id,
                                             uint32_t chunk_bytes) const;

  /// Reads without verification (used when billing partial reads whose
  /// verification is accounted separately). Unavailable on a dead node.
  Result<std::string_view> ReadBlockRaw(uint64_t block_id) const;

  Status DeleteBlock(uint64_t block_id);

  /// Fault injection: flips one byte of the stored replica without
  /// touching its checksums, so the next verified read fails with
  /// Corruption. Bumps the generation (the cache may never serve bytes
  /// that no longer match the disk).
  Status CorruptReplica(uint64_t block_id);

 private:
  /// Registers a mutation of the replica: bumps the generation and drops
  /// any cached state describing the previous bytes.
  void NoteMutation(uint64_t block_id);

  /// Parses the meta file and verifies all chunk CRCs (on a cache miss).
  Status VerifyAgainstMeta(uint64_t block_id, std::string_view data,
                           uint32_t chunk_bytes) const;

  int id_;
  sim::SimNode* sim_;
  LocalStore store_;
  BlockCache* cache_;
  std::unordered_map<uint64_t, uint64_t> generations_;
};

}  // namespace hdfs
}  // namespace hail
