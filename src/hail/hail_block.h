/// \file hail_block.h
/// \brief The physical HAIL block: Index Metadata + Index + PAX data.
///
/// Figure 1's datanodes form a "HAIL Block" out of each reassembled PAX
/// block: they sort it by the replica's sort key, build a sparse clustered
/// index, and prepend Index Metadata describing what they created. Each
/// replica of the same logical block therefore has different bytes (and
/// different checksums), but the same logical record multiset — which is
/// why failover is unaffected (§2.3).

#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "hdfs/replica_transform.h"
#include "index/clustered_index.h"
#include "index/unclustered_index.h"
#include "layout/pax_block.h"
#include "util/result.h"

namespace hail {

inline constexpr uint32_t kHailBlockMagic = 0x4B4C4248;  // "HBLK"

/// \brief Builds the serialised HAIL block for one replica.
///
/// \param pax the block's records, sorted by \p sort_column in the order
///        \p order gives (PaxBlock::Serialize), or already in that order
///        when \p order is null.
/// \param index clustered index over the sort column; null when unindexed.
/// \param sort_column attribute the data is sorted by; -1 for none.
/// \param dictionaries pax's dictionary passes, shared by its replicas;
///        null runs them here.
std::string BuildHailBlock(const PaxBlock& pax, const ClusteredIndex* index,
                           int sort_column,
                           const std::vector<uint32_t>* order = nullptr,
                           const BlockDictionaries* dictionaries = nullptr);

/// \brief Assembles a version-2 HAIL block from pre-serialised sections.
///
/// Version 2 extends version 1 with an optional *unclustered* index over a
/// second attribute, appended after the PAX payload. The adaptive
/// reorganizer uses this to splice a LIAH-style lazy index into an
/// existing replica without touching (or re-serialising) the sorted data
/// and clustered index: the caller passes the original index and PAX
/// sections verbatim. Pass an empty \p uc_bytes / \p uc_column = -1 for no
/// unclustered section.
std::string BuildHailBlockParts(int sort_column, std::string_view index_bytes,
                                std::string_view pax_bytes,
                                int uc_column, std::string_view uc_bytes);

/// \brief One replica's node-independent part: what any datanode builds.
struct SortedReplica {
  std::string bytes;         ///< serialised HAIL block
  uint64_t index_bytes = 0;  ///< real clustered-index bytes; 0 unindexed
};

/// \brief Sorts a replica the same way for upload, adaptive re-sort and
/// repair: raw typed argsort of the key column, a sorted copy of that
/// column alone for the sparse clustered index of \p varlen_partition_size
/// values per partition, and \p base serialised in key order with
/// \p dictionaries (BuildDictionaries of \p base; null runs the pass
/// here). A negative \p sort_column keeps arrival order, unindexed.
/// Reads no cluster state.
SortedReplica BuildSortedReplica(
    const PaxBlock& base, int sort_column, uint32_t varlen_partition_size,
    const BlockDictionaries* dictionaries = nullptr);

/// \brief Paper-scale cost of sorting and indexing one replica (§3.5).
struct SortCost {
  double cpu_seconds = 0.0;          ///< SortBlock + IndexBuild
  uint64_t logical_index_bytes = 0;  ///< sparse root, 4-byte pointers
};

/// The one home of that billing for upload, adaptive re-sort and repair.
SortCost BillSortedReplica(const sim::CostModel& cost, FieldType key_type,
                           uint64_t logical_records,
                           uint64_t logical_fixed_bytes,
                           uint64_t logical_varlen_bytes,
                           uint32_t index_partition_logical);

/// \brief Everything the HAIL transformer needs besides the block bytes.
///
/// The logical_* sizes are the paper-scale quantities of the block being
/// written, computed client-side from the values-only payload (DESIGN.md
/// §2) and carried here so datanode-side billing uses the exact same
/// numbers.
struct HailTransformParams {
  /// sort_columns[i] is the attribute replica i is sorted/indexed by;
  /// missing entries (and -1) keep arrival order, unindexed.
  std::vector<int> sort_columns;
  /// Real chunk size for per-replica checksum recomputation.
  uint32_t chunk_bytes = 512;
  /// Values per index/varlen partition in the real (scaled-down) block.
  uint32_t varlen_partition_size = kDefaultVarlenPartition;
  /// Logical values per index partition (paper: 1024, §3.5).
  uint32_t index_partition_logical = 1024;
  uint64_t logical_pax_bytes = 0;
  uint64_t logical_fixed_bytes = 0;
  uint64_t logical_varlen_bytes = 0;
  uint64_t logical_records = 0;
  /// Build the per-column planner stats sidecar (planner/block_stats.h)
  /// from the decoded block and expose it via stats_bytes(). Off by
  /// default: upload costs and namenode metadata are unchanged unless the
  /// caller opts into cost-based planning.
  bool build_stats = false;
};

/// \brief The HAIL per-replica layout policy (steps 6-9 of Figure 1).
///
/// Split by what each step reads. BeginBlock decodes the PAX block
/// exactly once (asserted by PaxBlock::deserialize_count() in tests),
/// runs each v3 string column's dictionary pass once, builds the stats
/// sidecar from those dictionaries and notes the few facts billing reads;
/// PrepareReplicas writes every replica's bytes and chunk CRCs from those
/// shared columns and dictionaries, each replica in its own row order
/// (BuildSortedReplica), and then frees them, so they die on the thread
/// that built them. Neither reads cluster state, so the
/// HAIL client runs both on the worker pool. BuildReplica bills the
/// building datanode and hands over a copy of the prepared bytes. Without
/// PrepareReplicas it prepares each replica on first use from the decoded
/// columns; after it, a replica index it did not prepare is
/// FailedPrecondition. The copy is deliberate: it allocates the bytes the
/// datanode keeps on the calling (committing) thread, not in a pool
/// worker's malloc arena.
class HailReplicaTransformer : public hdfs::ReplicaTransformer {
 public:
  explicit HailReplicaTransformer(HailTransformParams params)
      : params_(std::move(params)) {}

  Status BeginBlock(std::string_view block_bytes) override;
  /// Prepares the replica of every sort_columns entry (replicas sorted by
  /// the same column share one build), then frees the decoded columns.
  Status PrepareReplicas();
  Result<hdfs::ReplicaBlock> BuildReplica(
      size_t replica_index, const hdfs::ReplicaWorkContext& ctx) override;
  std::string_view stats_bytes() const override { return stats_bytes_; }

 private:
  struct PreparedReplica {
    SortedReplica replica;
    std::vector<uint32_t> chunk_crcs;
    FieldType key_type = FieldType::kInt32;  ///< unused when unsorted
  };
  /// What billing reads of the begun block, kept after base_ is freed.
  struct BlockFacts {
    uint32_t num_records = 0;
    uint64_t num_fields = 0;
    bool encoded = false;
  };
  /// Replica \p replica_index's sort column; negative for arrival order
  /// (always on an empty block, which has nothing to sort).
  int SortColumn(size_t replica_index) const;
  Result<const PreparedReplica*> Prepare(int sort_column);

  HailTransformParams params_;
  /// Set by a successful BeginBlock.
  std::optional<BlockFacts> facts_;
  /// Shared arrival-order columnar data, decoded once per block; freed by
  /// PrepareReplicas.
  std::optional<PaxBlock> base_;
  /// base_'s dictionary passes, which view its strings: every replica
  /// writes the same v3 dictionaries. Freed with base_.
  BlockDictionaries dictionaries_;
  /// Serialized planner::BlockStats when params_.build_stats is set.
  std::string stats_bytes_;
  /// Prepared replicas by sort column (negative: arrival order).
  std::map<int, PreparedReplica> prepared_;
};

/// \brief Zero-copy reader for a serialised HAIL block (versions 1 and 2).
class HailBlockView {
 public:
  static Result<HailBlockView> Open(std::string_view data);

  bool has_index() const { return index_bytes_ > 0; }
  int sort_column() const { return sort_column_; }
  uint64_t index_bytes() const { return index_bytes_; }
  uint64_t pax_bytes() const { return pax_bytes_; }
  uint64_t total_bytes() const { return data_.size(); }

  /// Unclustered-index section (version 2, installed by the adaptive
  /// reorganizer); absent in version-1 blocks.
  bool has_unclustered() const {
    return uc_column_ >= 0 && uc_bytes_ > 0;
  }
  int unclustered_column() const { return uc_column_; }
  uint64_t unclustered_bytes() const { return uc_bytes_; }

  /// Raw serialised sections (for splicing a rewrite without re-encoding).
  std::string_view index_section() const {
    return data_.substr(index_offset_, index_bytes_);
  }
  std::string_view pax_section() const {
    return data_.substr(pax_offset_, pax_bytes_);
  }
  std::string_view unclustered_section() const {
    return data_.substr(uc_offset_, uc_bytes_);
  }

  /// Materialises the index ("we read the index entirely into main memory
  /// (typically a few KB)", §4.3).
  Result<ClusteredIndex> ReadIndex() const;

  /// Materialises the unclustered index; has_unclustered() must hold.
  Result<UnclusteredIndex> ReadUnclusteredIndex() const;

  /// Opens the embedded PAX block.
  Result<PaxBlockView> OpenPax() const;

 private:
  std::string_view data_;
  int sort_column_ = -1;
  uint64_t index_offset_ = 0;
  uint64_t index_bytes_ = 0;
  uint64_t pax_offset_ = 0;
  uint64_t pax_bytes_ = 0;
  int uc_column_ = -1;
  uint64_t uc_offset_ = 0;
  uint64_t uc_bytes_ = 0;
};

}  // namespace hail
