/// \file upload_pipeline.h
/// \brief The one block-write transport shared by every engine (§3.2).
///
/// Functional path: the client cuts a block into packets (512 B chunks,
/// per-chunk CRC32C), sends them to DN1, which forwards to DN2, which
/// forwards to DN3. Only the tail verifies chunk checksums; ACKs flow back
/// through the chain, each node appending its ID, and the client validates
/// order and chain membership. What each datanode *stores* is decided by
/// the block's ReplicaTransformer (hdfs/replica_transform.h):
///
///   - identity (stock HDFS): data and checksums are flushed to the two
///     replica files as packets arrive (streaming flush);
///   - transforming (HAIL): the block is reassembled in memory, each
///     datanode sorts/indexes its own replica and recomputes checksums
///     before flushing, and the block's final ACK is gated on the flush.
///
/// Timing: transfers are cut-through (a downstream hop starts one packet
/// behind the upstream hop, not after the whole block). Streaming flushes
/// overlap receive; transformed replicas flush after their sort/index CPU
/// work on the datanode's bounded upload worker pool.

#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "hdfs/datanode.h"
#include "hdfs/dfs_config.h"
#include "hdfs/namenode.h"
#include "hdfs/replica_transform.h"
#include "sim/cluster.h"
#include "util/result.h"

namespace hail {
namespace hdfs {

/// \brief Outcome of writing one block through the pipeline.
struct BlockWriteResult {
  /// Simulated time the client received the block's final ACK.
  sim::SimTime completed = 0.0;
  /// Real bytes stored per replica (data file + meta file); only set for
  /// identity writes, where every replica is the same size.
  uint64_t replica_physical_bytes = 0;
  /// Real data-file bytes summed across all (possibly divergent) replicas.
  uint64_t replica_bytes_total = 0;
  /// Packets that traversed the pipeline.
  uint32_t packets = 0;
};

/// \brief Per-hop arrival times of a chain transfer (shared with HAIL).
struct ChainTiming {
  /// arrival_complete[i]: when target i has received the whole block.
  std::vector<sim::SimTime> arrival_complete;
};

/// Bills a cut-through transfer of \p logical_bytes from \p client through
/// the \p targets chain. Books client nic_send plus each hop's NIC pair.
ChainTiming BillChainTransfer(sim::SimCluster* cluster, int client,
                              sim::SimTime ready, uint64_t logical_bytes,
                              const std::vector<int>& targets);

/// \brief The unified block writer: packet transport + replica policy.
class UploadPipeline {
 public:
  UploadPipeline(sim::SimCluster* cluster, Namenode* namenode,
                 std::vector<Datanode*> datanodes, DfsConfig config)
      : cluster_(cluster),
        namenode_(namenode),
        datanodes_(std::move(datanodes)),
        config_(config) {}

  /// Writes one block through the packet/ACK chain; \p transformer
  /// decides each replica's physical layout (see replica_transform.h).
  /// As for StoreTransformedReplicas, the caller has already called
  /// transformer->BeginBlock(block_bytes) — the HAIL client does so on the
  /// worker pool — and the pipeline checks that the packets reassemble to
  /// exactly those bytes. \p ready is when the client has the block bytes
  /// in hand.
  /// \p logical_bytes is the paper-scale size used for cost accounting of
  /// the chain transfer.
  Result<BlockWriteResult> WriteBlock(int client, sim::SimTime ready,
                                      uint64_t block_id,
                                      std::string_view block_bytes,
                                      uint64_t logical_bytes,
                                      const std::vector<int>& targets,
                                      ReplicaTransformer* transformer);

  /// Raw (text) block convenience overload: identity replicas.
  Result<BlockWriteResult> WriteBlock(int client, sim::SimTime ready,
                                      uint64_t block_id,
                                      std::string_view block_bytes,
                                      uint64_t logical_bytes,
                                      const std::vector<int>& targets);

  const DfsConfig& config() const { return config_; }

 private:
  sim::SimCluster* cluster_;
  Namenode* namenode_;
  std::vector<Datanode*> datanodes_;
  DfsConfig config_;
};

}  // namespace hdfs
}  // namespace hail
