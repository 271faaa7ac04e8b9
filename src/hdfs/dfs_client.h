/// \file dfs_client.h
/// \brief The stock HDFS client: fixed-byte block cutting + upload loop.
///
/// "HDFS partitions the file into logical HDFS blocks using a constant
/// block size... This is in contrast to standard HDFS which splits a file
/// into HDFS blocks after a constant number of bytes" (§2.1/§3.1): rows
/// *can* straddle block boundaries; the text RecordReader compensates at
/// query time (first-partial-line skip / read-past-end), exactly like
/// Hadoop's TextInputFormat.

#pragma once

#include <string>
#include <vector>

#include "hdfs/upload_pipeline.h"

namespace hail {
namespace hdfs {

/// \brief Upload statistics for one file (and aggregates across clients).
struct UploadReport {
  sim::SimTime started = 0.0;
  sim::SimTime completed = 0.0;
  uint32_t blocks = 0;
  uint64_t real_bytes = 0;
  uint64_t logical_bytes = 0;
  double duration() const { return completed - started; }
};

/// \brief A distributed filesystem handle shared by clients and readers.
class MiniDfs {
 public:
  MiniDfs(sim::SimCluster* cluster, DfsConfig config);

  Namenode& namenode() { return namenode_; }
  const Namenode& namenode() const { return namenode_; }
  Datanode& datanode(int id) { return *datanodes_[static_cast<size_t>(id)]; }
  const Datanode& datanode(int id) const {
    return *datanodes_[static_cast<size_t>(id)];
  }
  int num_datanodes() const { return static_cast<int>(datanodes_.size()); }
  sim::SimCluster& cluster() { return *cluster_; }
  const sim::SimCluster& cluster() const { return *cluster_; }
  const DfsConfig& config() const { return config_; }
  UploadPipeline& pipeline() { return pipeline_; }

  /// Cluster-wide per-block-version read cache (internally synchronised;
  /// const because reading through the DFS is logically const).
  BlockCache& block_cache() const { return block_cache_; }

  /// Cluster-wide metrics registry (obs/metrics.h): the cache, the
  /// session engine, the adaptive loop and the repair path all register
  /// their counters here. Monotonic across sessions; tests that compare
  /// snapshots call Reset() at their own boundaries. Const for the same
  /// reason as the cache: observing the DFS is logically const.
  obs::MetricsRegistry& metrics() const { return metrics_; }

  std::vector<Datanode*> datanode_ptrs();

  /// Kills a node at the given simulated time: marks it dead in both the
  /// cluster (resources) and the namenode (locations), and drops the
  /// node's cached read state so nothing is ever served for a dead
  /// replica.
  void KillNode(int id, sim::SimTime when);

  /// Revives a node (queries run on a repaired cluster): marks it alive
  /// everywhere and — like a real re-registration — starts it with a cold
  /// cache. Replicas revoked while the node was dead (re-replicated
  /// elsewhere or reported corrupt) are deleted before the node rejoins,
  /// so a stale copy can never be read again.
  void ReviveNode(int id);

  /// A reader's CRC failure on (block, datanode): drops the replica from
  /// all namenode lookups, deletes the bad files from the node, and
  /// invalidates any cached state. Idempotent.
  Status ReportBadReplica(uint64_t block_id, int datanode);

  /// Fault injection: flips a byte of the replica of `block_id` stored on
  /// `datanode` (checksums untouched), so its next verified read returns
  /// Corruption.
  Status InjectCorruption(int datanode, uint64_t block_id);

  /// Session boundary (mapreduce/scheduler.h): clears every node's
  /// resource bookings and revives dead nodes, once per ClusterSession
  /// rather than per job — jobs inside a session share resource state and
  /// observe each other's faults. Stored blocks, Dir_rep registrations
  /// and still-valid cache entries survive (cross-session reuse is the
  /// block cache's whole point); revived nodes come back cold.
  void ResetForSession();

 private:
  sim::SimCluster* cluster_;
  DfsConfig config_;
  Namenode namenode_;
  mutable obs::MetricsRegistry metrics_;  // before block_cache_: it
                                          // registers counters here
  mutable BlockCache block_cache_;
  std::vector<std::unique_ptr<Datanode>> datanodes_;  // before pipeline_
  UploadPipeline pipeline_;
};

/// \brief Uploads a text file the stock-HDFS way from one client node.
///
/// Bills the client's source-disk read and drives the block pipeline;
/// blocks are cut after exactly `block_size` real bytes.
Result<UploadReport> UploadTextFile(MiniDfs* dfs, int client_node,
                                    const std::string& dfs_path,
                                    std::string_view text,
                                    sim::SimTime start_time = 0.0);

/// \brief Runs one UploadTextFile per (client, file) pair, modelling the
/// paper's parallel per-node ingestion. Returns the latest completion.
struct ParallelUploadSpec {
  int client_node;
  std::string dfs_path;
  std::string_view text;
};
Result<UploadReport> ParallelUploadText(MiniDfs* dfs,
                                        const std::vector<ParallelUploadSpec>& specs,
                                        sim::SimTime start_time = 0.0);

}  // namespace hdfs
}  // namespace hail
