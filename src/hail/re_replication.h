/// \file re_replication.h
/// \brief Background repair of lost replicas (HDFS self-healing, HAIL-aware).
///
/// When a node dies or a replica is reported corrupt, the namenode queues
/// an UnderReplicatedEntry remembering the *replica-specific* layout that
/// was lost (sort column, index kind — §3.3's Dir_rep record). Repair
/// jobs run as the session engine's background work (strictly below
/// foreground work, ahead of adaptive rewrites) and re-create that exact
/// layout on a new node:
///
///  - when a surviving replica already has the wanted layout, the repair
///    is a plain byte copy (source read + network + checksum + write);
///  - otherwise a surviving PAX replica is re-sorted to the wanted column
///    through the upload pipeline's own BuildSortedReplica (key argsort,
///    clustered index, block serialised in key order), so the repaired
///    cluster answers clustered index scans exactly like the pre-fault
///    one.
///
/// A repair is an adaptive::PreparedReorg built by adaptive/reorg.h's
/// byte copy or re-sort: PrepareRepair at assignment (read-only, decides
/// the source and the simulated price), the build on the worker pool or
/// at commit, CommitRepair at the completion event (StoreBlock on the
/// target + namenode bookkeeping, including revoking the dead node's
/// stale copy).

#pragma once

#include "adaptive/reorg.h"
#include "hdfs/dfs_client.h"

namespace hail {

/// True when the entry still describes missing data. A node-death loss
/// whose node revived with the replica intact, or a block that no longer
/// exists, needs no repair (the caller drops the entry via AbandonRepair).
bool RepairStillNeeded(const hdfs::MiniDfs& dfs,
                       const hdfs::UnderReplicatedEntry& entry);

/// Picks the node to re-create the replica on: the lost node itself when
/// it is alive and no longer owns the block (corruption repair restores
/// the original placement), else the lowest-id alive non-holder. Returns
/// -1 when no eligible node exists.
int PickRepairTarget(const hdfs::MiniDfs& dfs,
                     const hdfs::UnderReplicatedEntry& entry);

/// Decides the repair without mutating anything. Returns Unavailable
/// when no live source replica exists right now (retry later).
/// Deterministic for a given DFS state, and so is the build it returns.
Result<adaptive::PreparedReorg> PrepareRepair(
    const hdfs::MiniDfs& dfs, const hdfs::UnderReplicatedEntry& entry,
    int target);

/// Applies a prepared repair: joins (or runs) its build, then StoreBlock
/// on the target (generation bump + cache invalidation) and namenode
/// CompleteRepair (register + revoke the superseded copy). Refuses when
/// the target died since preparation.
Status CommitRepair(hdfs::MiniDfs* dfs,
                    const hdfs::UnderReplicatedEntry& entry, int target,
                    adaptive::PreparedReorg prepared);

}  // namespace hail
