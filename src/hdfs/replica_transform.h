/// \file replica_transform.h
/// \brief Pluggable per-replica layout policy for the upload pipeline.
///
/// The paper's three upload paths differ only in what each datanode makes
/// of the block it received: stock HDFS stores the bytes as-is (every
/// replica identical), Hadoop++ stores one converted trojan block on every
/// replica, and HAIL gives each replica its own sort order and clustered
/// index (§3.2). A ReplicaTransformer captures exactly that policy, so the
/// packet/ACK/chain-timing transport in hdfs/upload_pipeline.cc exists
/// once and the engines are thin callers:
///
///   text upload      -> IdentityTransformer          (stream to disk)
///   HAIL upload      -> hail::HailReplicaTransformer (hail/hail_block.h)
///   Hadoop++ convert -> hadooppp::TrojanReplicaTransformer
///                       (hadooppp/trojan_block.h, distributed through
///                        StoreTransformedReplicas — its cost is billed at
///                        MapReduce phase level, not through the chain)

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "hdfs/datanode.h"
#include "hdfs/namenode.h"
#include "sim/cost_model.h"
#include "util/result.h"

namespace hail {
namespace hdfs {

/// Paper-scale size of a replica's checksum side-car (blk_*.meta): 4 bytes
/// of CRC32C per chunk, plus the trailing partial chunk. The single home
/// of the `(bytes / chunk + 1) * 4` accounting so callers cannot drift.
constexpr uint64_t ChecksumMetaBytes(uint64_t data_bytes,
                                     uint64_t chunk_bytes) {
  return (data_bytes / chunk_bytes + 1) * 4;
}

/// Paper-scale bytes of a serialised block's header plus sparse offset
/// side-cars. The real serialised block carries offsets at scaled-down
/// density which must not be multiplied back up (DESIGN.md §2); at paper
/// scale the header and sparse lists are a few KB per 64 MB block.
inline constexpr uint64_t kLogicalBlockOverhead = 8 * 1024;

/// \brief What the pipeline knows about the datanode asked to build a
/// replica.
struct ReplicaWorkContext {
  /// The building datanode's cost model; null when the caller bills the
  /// transform outside the pipeline (Hadoop++ phase-level billing).
  const sim::CostModel* cost = nullptr;
  /// True for the chain tail, which also verified every incoming packet.
  bool is_tail = false;
};

/// \brief One finished replica: physical bytes plus accounting.
struct ReplicaBlock {
  /// Physical replica bytes to store on the datanode.
  std::string bytes;
  /// Per-chunk CRC32Cs of \p bytes (each replica recomputes its own —
  /// replicas may differ physically, §3.2).
  std::vector<uint32_t> chunk_crcs;
  /// Dir_rep record for the namenode.
  HailBlockReplicaInfo info;
  /// Datanode CPU seconds (sort + index + checksum recomputation) to book
  /// on the upload worker pool.
  double cpu_seconds = 0.0;
  /// Paper-scale bytes of the stored data file (block + embedded index).
  uint64_t logical_bytes = 0;
};

/// \brief Per-block replica layout policy.
///
/// One transformer instance handles one block: the caller calls
/// BeginBlock once with the block bytes, then the pipeline (or
/// StoreTransformedReplicas) calls BuildReplica once per target.
/// Implementations decode shared state in BeginBlock exactly once and
/// derive every replica from it.
class ReplicaTransformer {
 public:
  virtual ~ReplicaTransformer() = default;

  /// True when replicas are byte-identical to the transferred block and
  /// datanodes stream packets straight to disk as they arrive (stock
  /// HDFS). False when datanodes reassemble the block in memory and build
  /// transformed replicas before flushing (HAIL).
  virtual bool identity() const { return false; }

  /// Called once per block with the (reassembled) block bytes.
  virtual Status BeginBlock(std::string_view block_bytes) = 0;

  /// Produces replica \p replica_index (position in the pipeline chain).
  virtual Result<ReplicaBlock> BuildReplica(size_t replica_index,
                                            const ReplicaWorkContext& ctx) = 0;

  /// Serialized planner stats sidecar of the block handed to BeginBlock
  /// (planner::BlockStats bytes), or empty when the policy does not build
  /// stats. Stats describe the logical block — identical across replicas —
  /// so the pipeline registers them once per block with the namenode.
  virtual std::string_view stats_bytes() const { return {}; }
};

/// \brief Stock-HDFS policy: every replica is the transferred bytes.
class IdentityTransformer : public ReplicaTransformer {
 public:
  bool identity() const override { return true; }
  Status BeginBlock(std::string_view block_bytes) override;
  Result<ReplicaBlock> BuildReplica(size_t replica_index,
                                    const ReplicaWorkContext& ctx) override;

 private:
  uint64_t block_bytes_ = 0;
};

/// \brief Distributes transformer-built replicas without chain billing.
///
/// Used by ingestion paths whose functional output is replicated but whose
/// cost is modelled at a coarser level (the Hadoop++ conversion MapReduce
/// job): stores and registers one BuildReplica result per allocated target
/// and records \p logical_bytes with the namenode. The caller must already
/// have called transformer->BeginBlock() for this block — it typically
/// needs the conversion result to compute \p logical_bytes. Returns the
/// total stored replica bytes.
Result<uint64_t> StoreTransformedReplicas(Namenode* namenode,
                                          const std::vector<Datanode*>& datanodes,
                                          const BlockAllocation& alloc,
                                          uint64_t logical_bytes,
                                          ReplicaTransformer* transformer);

}  // namespace hdfs
}  // namespace hail
