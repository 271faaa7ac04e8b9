/// \file reorg.h
/// \brief Per-block replica rewrites: the adaptive loop's hands, and the
/// build machinery self-healing repairs share with them.
///
/// A MaintenanceTask names one replica and what to make of it:
///  - kInstallUnclustered: splice a dense per-block UnclusteredIndex on
///    the hot column into the existing replica (LIAH-style lazy
///    adaptivity) — sort order, clustered index and PAX payload are copied
///    verbatim, so the rewrite costs one read + key sort + write;
///  - kResortReplica: fully re-sort the replica to the hot column and
///    rebuild its clustered index through the upload's own
///    BuildSortedReplica / BillSortedReplica (hail/hail_block.h).
///
/// Execution is split so the session engine can bill it like any other
/// simulated work:
///  - PrepareReorg (at task assignment, read-only) makes every
///    cluster-dependent decision: the checks, the decode of the source
///    replica, the simulated duration and the Dir_rep fields already
///    known. The CPU-heavy rest (argsort, re-encode, index build,
///    checksums, stats) is the *build*, which owns all of its inputs and
///    never touches MiniDfs, so it can run on a worker thread while the
///    event thread keeps changing the cluster;
///  - CommitReorg (at the completion event) joins or runs the build, then
///    atomically stores the bytes — bumping the datanode's block
///    generation, which invalidates every BlockCache entry for the old
///    bytes — and re-registers the replica in the namenode's Dir_rep so
///    getHostsWithIndex immediately routes queries to the new index.
///
/// A repair (hail/re_replication.h) is prepared into the same
/// PreparedReorg through the same two builds — PrepareCopy's byte copy
/// and SetResortBuild's re-sort — so the engine runs both kinds of
/// background work through one prepare -> build -> commit path.

#pragma once

#include <cstdint>
#include <future>
#include <string>
#include <vector>

#include "hdfs/dfs_client.h"
#include "layout/pax_block.h"

namespace hail {
class ThreadPool;
namespace adaptive {

/// \brief One background replica rewrite.
struct MaintenanceTask {
  enum class Kind : uint8_t {
    /// Add a dense unclustered index on `column`, keep everything else.
    kInstallUnclustered,
    /// Re-sort the replica by `column` + rebuild the clustered index.
    kResortReplica,
    /// Aggressive replication: copy the block's best replica for `column`
    /// onto `datanode` (which must not hold one), registering an extra
    /// replica *beyond* the replication factor. Byte copy, no transform.
    kAddReplica,
    /// Drop the extra replica on `datanode` (storage-budget eviction).
    /// Refused when it would leave fewer than `replication` alive copies.
    kEvictReplica,
    /// Build the planner's per-column block-statistics sidecar from the
    /// replica on `datanode` and register it with the namenode (backfill
    /// for blocks loaded before stats existed, or whose stats went stale
    /// after a repair/reorg). Metadata-only commit: the replica bytes and
    /// its generation are untouched. `column` is -1.
    kBuildStats,
  };

  uint64_t block_id = 0;
  /// Datanode whose replica is rewritten (the rewrite runs there). For
  /// kAddReplica the *target* of the copy; for kEvictReplica the evictee.
  int datanode = -1;
  /// The hot column the rewrite serves.
  int column = -1;
  Kind kind = Kind::kInstallUnclustered;

  bool operator==(const MaintenanceTask& o) const {
    return block_id == o.block_id && datanode == o.datanode &&
           column == o.column && kind == o.kind;
  }
};

/// \brief What a rewrite build produces.
struct ReorgOutput {
  std::string bytes;                 // new replica bytes
  std::vector<uint32_t> chunk_crcs;  // their checksums
  /// Real bytes of the index the build made: the clustered index of a
  /// re-sort or the unclustered index of an install; 0 otherwise.
  uint64_t index_bytes = 0;
  /// kBuildStats only: the serialized planner::BlockStats sidecar to
  /// register at commit (replica bytes stay untouched).
  std::string stats;
};

/// \brief A rewrite or repair ready to commit, plus its simulated price.
struct PreparedReorg {
  /// New Dir_rep record; the commit completes it with the built replica
  /// and index sizes.
  hdfs::HailBlockReplicaInfo info;
  /// Simulated seconds the rewrite occupies its slot (read + CPU + write),
  /// billed on the cost models of the nodes it reads and writes.
  double seconds = 0.0;
  /// The build, invalid for kEvictReplica (nothing to build). It owns its
  /// inputs: the decoded block is moved in, and an install or a byte copy
  /// gets its own copy of the source sections or bytes. Join runs it
  /// inline unless StartBuild moved it to a pool.
  std::packaged_task<ReorgOutput()> build;
  std::future<ReorgOutput> output;

  /// Runs the build on `pool`; Join then waits for it.
  void StartBuild(ThreadPool* pool);
  /// The build's output: joins a build StartBuild moved to a pool, or
  /// runs it here.
  ReorgOutput Join();
};

/// Prepares a byte copy of `source`'s replica of the block onto `target`.
/// The Dir_rep record is the source's (the bytes are its bytes), and the
/// price is source read + network transfer (between distinct nodes) +
/// checksum + target write. Aggressive replication (kAddReplica) and a
/// repair from a same-layout survivor both copy through it.
Result<PreparedReorg> PrepareCopy(const hdfs::MiniDfs& dfs, uint64_t block_id,
                                  int source, int target);

/// Installs the re-sort build on `out`: `base` sorted on `column` through
/// BuildSortedReplica (a negative column keeps arrival order, unindexed),
/// which takes its dictionaries from `base.BuildDictionaries()`, so a
/// decoded v3 replica's own canonical dictionaries are reused, then
/// checksummed; the output's index_bytes is the new clustered
/// index's size, 0 when unindexed. Adaptive re-sorts and repairs that
/// re-create a lost layout build through it; each bills its own sum.
void SetResortBuild(const hdfs::MiniDfs& dfs, PaxBlock base, int column,
                    PreparedReorg* out);

/// Whether the task's own target replica already has what the task would
/// build, according to its Dir_rep record: a re-sort has converged when
/// the target is clustered on the task's column, an unclustered install
/// when the target carries an unclustered index on the column or is
/// clustered on it. Replica adds, evictions and stats backfills never
/// converge, and neither does a task whose replica is missing (PrepareReorg
/// fails it). Read-only; the session engine asks it at assignment, the
/// instant PrepareReorg reads the directory.
bool IsConverged(const hdfs::MiniDfs& dfs, const MaintenanceTask& task);

/// Decides the rewrite without mutating anything. Fails when the replica
/// is missing, not PAX, or the column is out of range. Deterministic for a
/// given DFS state, and so is the build it returns: the build computes the
/// same bytes on any thread, whatever happened to the DFS in between.
Result<PreparedReorg> PrepareReorg(const hdfs::MiniDfs& dfs,
                                   const MaintenanceTask& task);

/// Applies a prepared rewrite: joins (or runs) its build, then StoreBlock
/// (generation bump + cache invalidation) and Dir_rep re-registration.
/// Refuses when the node died since preparation (the task is requeued by
/// the caller and survives the kill/revive cycle).
Status CommitReorg(hdfs::MiniDfs* dfs, const MaintenanceTask& task,
                   PreparedReorg prepared);

}  // namespace adaptive
}  // namespace hail
