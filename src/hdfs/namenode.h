/// \file namenode.h
/// \brief The HDFS namenode plus HAIL's replica-directory extension (§3.3).
///
/// Stock HDFS keeps Dir_block: blockID -> set of datanodes, and treats all
/// replicas as byte-equivalent. HAIL adds Dir_rep: (blockID, datanode) ->
/// HailBlockReplicaInfo describing the sort order and index each physical
/// replica carries, so the scheduler can route map tasks to the replica
/// with the matching clustered index (getHostsWithIndex, §4.3). Both live
/// in one record per (block, datanode), kept with the block's other
/// replicas: a host query is one lookup plus a walk of the block's few
/// replicas.

#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "util/result.h"

namespace hail {
namespace hdfs {

/// \brief Physical layout of one replica.
enum class ReplicaLayout : uint8_t {
  kText = 0,       // raw rows (stock Hadoop)
  kPax = 1,        // HAIL binary PAX
  kRowBinary = 2,  // Hadoop++ binary rows
};

/// \brief HAILBlockReplicaInfo (paper §3.3): what one replica physically is.
struct HailBlockReplicaInfo {
  ReplicaLayout layout = ReplicaLayout::kText;
  /// Column the replica is sorted+indexed by; -1 when unindexed.
  int sort_column = -1;
  /// "clustered", "trojan", or empty for none.
  std::string index_kind;
  /// Physical size of the replica's data file (real bytes).
  uint64_t replica_bytes = 0;
  /// Size of the embedded index (real bytes).
  uint64_t index_bytes = 0;
  /// Column carrying an adaptive *unclustered* index (LIAH-style lazy
  /// adaptivity, installed online by the reorganizer); -1 when none.
  int unclustered_column = -1;
  /// Size of the embedded unclustered index (real bytes).
  uint64_t unclustered_index_bytes = 0;

  bool has_index() const { return sort_column >= 0 && !index_kind.empty(); }
  bool has_unclustered() const { return unclustered_column >= 0; }
};

/// \brief Result of a block allocation: the new id plus pipeline targets.
struct BlockAllocation {
  uint64_t block_id = 0;
  std::vector<int> datanodes;  // pipeline order: DN1 (head) first
};

/// \brief Location info for one block of a file (split phase input).
struct BlockLocation {
  uint64_t block_id = 0;
  std::vector<int> datanodes;   // alive holders
  uint64_t logical_bytes = 0;   // paper-scale size for split accounting
  /// Distinguishes part files when a directory is read: record readers
  /// must not chase row tails across file boundaries.
  uint32_t file_id = 0;
};

/// \brief One lost replica awaiting re-replication.
///
/// `lost_info` remembers the replica-specific layout (sort column, index
/// kind) so the repair re-creates *that* replica, not a generic copy —
/// post-repair the cluster answers index scans exactly as before.
struct UnderReplicatedEntry {
  uint64_t block_id = 0;
  /// The datanode that held the lost replica.
  int lost_datanode = -1;
  HailBlockReplicaInfo lost_info;
  /// True when the loss already revoked ownership (corruption report);
  /// false for node-death losses, where the dead node keeps ownership
  /// until the repair commits (it may revive with the data intact).
  bool ownership_revoked = false;
};

/// \brief Central directory: files -> blocks -> replicas (+ HAIL Dir_rep).
class Namenode {
 public:
  explicit Namenode(int num_datanodes) : num_datanodes_(num_datanodes) {}

  /// Allocates a block id and chooses `replication` targets: the client's
  /// local datanode first (HDFS default placement), then successive alive
  /// nodes. Appends the block to the file's block list.
  Result<BlockAllocation> AllocateBlock(const std::string& file,
                                        int client_node, int replication);

  /// Registers a finished replica (step 11/14 in Figure 1). Also records
  /// the HAIL replica info in Dir_rep.
  Status RegisterReplica(uint64_t block_id, int datanode,
                         const HailBlockReplicaInfo& info);

  /// Records the logical size of a block (billing metadata for splits).
  void SetBlockLogicalBytes(uint64_t block_id, uint64_t logical_bytes);

  /// Dir_block lookup: alive datanodes holding the block.
  Result<std::vector<int>> GetBlockDatanodes(uint64_t block_id) const;

  /// All blocks of a file, in order, with alive holders. When \p file
  /// names no exact file but is a directory prefix (files named
  /// "<file>/part-..."), the blocks of all part files are returned in
  /// file-name order — mirroring how MapReduce jobs consume a directory
  /// of per-node part files.
  Result<std::vector<BlockLocation>> GetFileBlocks(const std::string& file) const;

  /// Dir_rep lookup ("one main memory lookup for each replica", §3.3).
  Result<HailBlockReplicaInfo> GetReplicaInfo(uint64_t block_id,
                                              int datanode) const;

  /// getHostsWithIndex (§4.3): alive datanodes whose replica of the block
  /// carries an index on \p column. Empty when none exists.
  std::vector<int> GetHostsWithIndex(uint64_t block_id, int column) const;

  /// Adaptive fallback lookup: alive datanodes whose replica carries an
  /// *unclustered* index on \p column (readers probe this only when no
  /// clustered replica matches).
  std::vector<int> GetHostsWithUnclusteredIndex(uint64_t block_id,
                                                int column) const;

  /// Failure handling: excludes the node from all lookups.
  void MarkDatanodeDead(int datanode);
  void MarkDatanodeAlive(int datanode);
  bool IsDatanodeAlive(int datanode) const;

  /// Block ids the datanode currently owns a replica of, in block-id
  /// order (deterministic: fault plans address the "nth block of node i").
  std::vector<uint64_t> BlocksOnDatanode(int datanode) const;

  /// A reader detected a CRC failure on (block, datanode): the replica is
  /// revoked from all lookups immediately, remembered so a future revive
  /// never resurrects it, and queued for re-replication. Idempotent.
  Status ReportCorruptReplica(uint64_t block_id, int datanode);

  /// Node-death handling: queues every replica the dead node held for
  /// re-replication. Ownership is *retained* (the node may revive with
  /// the data intact before a repair runs); it is revoked only when the
  /// repair for that replica commits. Idempotent per (block, node).
  void EnqueueLostNodeReplicas(int datanode);

  /// Drains the under-replicated queue (FIFO). Entries stay marked as
  /// in-repair until CompleteRepair or AbandonRepair, so a second loss
  /// report of the same replica cannot double-queue it.
  std::vector<UnderReplicatedEntry> TakeUnderReplicated();
  /// Returns an unserviced entry to the queue (session ended first).
  void RequeueUnderReplicated(const UnderReplicatedEntry& entry);
  size_t under_replicated_count() const { return under_replicated_.size(); }

  /// Commits a finished repair: registers the re-created replica on
  /// `target` and, for a node-death loss whose node is still dead,
  /// revokes the stale copy so a later revive drops it.
  Status CompleteRepair(const UnderReplicatedEntry& entry, int target,
                        const HailBlockReplicaInfo& info);
  /// Drops an in-repair marker without repairing (e.g. the lost node
  /// revived with its replica intact, so nothing is missing anymore).
  void AbandonRepair(const UnderReplicatedEntry& entry);

  /// Deliberately drops one replica (aggressive-replication eviction):
  /// removes the (block, datanode) record without queueing a
  /// repair — the drop is wanted, nothing was lost. Refuses when the
  /// replica is unknown, is being repaired, or when fewer than
  /// \p min_remaining alive replicas would survive the drop.
  Status DropReplica(uint64_t block_id, int datanode, int min_remaining);

  /// Blocks whose replica on `datanode` was revoked while it was dead
  /// (re-replicated elsewhere or reported corrupt). The revive path
  /// deletes these stale copies before the node rejoins; each call
  /// clears the node's revocation list.
  std::vector<uint64_t> TakeRevoked(int datanode);

  /// Removes a file from the namespace and returns its block ids so the
  /// caller can reclaim the replicas from the datanodes.
  Result<std::vector<uint64_t>> DeleteFile(const std::string& file);

  /// Registers the per-column statistics sidecar of a block (opaque
  /// serialized planner::BlockStats — the namenode does not interpret it).
  /// The blob is recorded at the block's current mutation count: any later
  /// replica mutation (repair, reorg commit, eviction, corruption) makes
  /// it stale, and `GetBlockStats` stops returning it until a rebuild
  /// re-registers fresh bytes.
  void RegisterBlockStats(uint64_t block_id, std::string stats);

  /// Stats sidecar if present and fresh; NotFound when absent or stale.
  Result<std::string_view> GetBlockStats(uint64_t block_id) const;

  /// True when the block has fresh stats (false: backfill candidate).
  bool BlockStatsFresh(uint64_t block_id) const;

  /// Monotonic counter bumped on every directory mutation (replica
  /// registration/revocation, node death/revive, file create/delete,
  /// stats arrival). Plan caches key on this: any change that could alter
  /// a plan bumps it.
  uint64_t directory_generation() const { return directory_generation_; }

  bool FileExists(const std::string& file) const {
    return files_.count(file) > 0;
  }
  uint64_t next_block_id() const { return next_block_id_; }
  int num_datanodes() const { return num_datanodes_; }

 private:
  int num_datanodes_;
  uint64_t next_block_id_ = 1;
  int placement_cursor_ = 0;  // rotating follower placement
  std::map<std::string, std::vector<uint64_t>> files_;
  /// One replica's Dir_block membership and its Dir_rep record.
  struct Replica {
    int datanode = -1;
    HailBlockReplicaInfo info;
  };
  /// blockID -> its replicas in registration order. A block whose last
  /// replica was revoked keeps an empty entry, so GetBlockDatanodes
  /// answers an empty list rather than NotFound.
  std::map<uint64_t, std::vector<Replica>> replicas_;
  std::map<uint64_t, uint64_t> block_logical_bytes_;
  std::vector<int> dead_;  // datanode ids currently dead

  /// The (block, datanode) record, or nullptr when none is registered.
  const Replica* FindReplica(uint64_t block_id, int datanode) const;

  /// Removes the (block, datanode) record and remembers the revocation so
  /// a revive of the node deletes its stale copy.
  void RevokeReplica(uint64_t block_id, int datanode);

  // Self-healing state: lost replicas awaiting repair, the (block, node)
  // pairs currently queued or in repair, and per-node revoked replicas.
  std::deque<UnderReplicatedEntry> under_replicated_;
  std::set<std::pair<uint64_t, int>> repair_pending_;
  std::map<int, std::set<uint64_t>> revoked_;

  /// Bumps the block's mutation count and the directory generation.
  void NoteBlockMutation(uint64_t block_id);

  uint64_t directory_generation_ = 0;
  std::map<uint64_t, uint64_t> block_mutations_;
  // Stats sidecar per block: (mutation count at registration, blob).
  std::map<uint64_t, std::pair<uint64_t, std::string>> block_stats_;
};

}  // namespace hdfs
}  // namespace hail
