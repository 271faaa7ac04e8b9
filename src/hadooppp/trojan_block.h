/// \file trojan_block.h
/// \brief Hadoop++'s physical block: trojan index + binary rows (paper §5).
///
/// Hadoop++ [12] converts text blocks to a binary row layout and appends a
/// trojan index per *logical* block — every replica stores identical
/// bytes, so only one attribute can ever be indexed. The block header must
/// be read by the JobClient during the split phase (unlike HAIL, which
/// keeps replica metadata in the namenode).

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "hdfs/replica_transform.h"
#include "index/trojan_index.h"
#include "layout/row_binary.h"
#include "schema/schema.h"
#include "util/result.h"

namespace hail {
namespace hadooppp {

inline constexpr uint32_t kTrojanBlockMagic = 0x42505048;  // "HPPB"

/// \brief Serialises header + trojan index + binary rows.
/// \param row_block serialised RowBinaryBlock (rows sorted by the index
///        key when \p index is non-null).
std::string BuildTrojanBlock(std::string row_block, const TrojanIndex* index,
                             int sort_column);

/// \brief Configuration of the Hadoop++ conversion policy.
struct TrojanTransformParams {
  Schema schema;
  /// Attribute the trojan index is built on; -1 converts to binary only.
  int index_column = -1;
  /// Real rows per trojan directory entry.
  uint32_t rows_per_entry = 8;
  /// Real chunk size for the block's checksums.
  uint32_t chunk_bytes = 512;
};

/// \brief The Hadoop++ per-replica layout policy (paper §5).
///
/// BeginBlock converts one text block to the trojan layout exactly once:
/// rows parse straight into typed columns (bad rows are dropped — the
/// Hadoop++ converter has no bad-record section), the key column is
/// argsorted without Value boxing, and rows are emitted in sorted order
/// from the columns. Every BuildReplica returns the same bytes — Hadoop++
/// cannot give different replicas different indexes, which is HAIL's key
/// advantage. Distributed through hdfs::StoreTransformedReplicas since
/// its cost is billed at MapReduce phase level, not through the chain.
class TrojanReplicaTransformer : public hdfs::ReplicaTransformer {
 public:
  /// \p params must outlive the transformer (one params struct typically
  /// serves a whole upload; the transformer is per block). The rvalue
  /// overload is deleted so a temporary cannot silently dangle.
  explicit TrojanReplicaTransformer(const TrojanTransformParams& params)
      : params_(params) {}
  explicit TrojanReplicaTransformer(TrojanTransformParams&&) = delete;

  Status BeginBlock(std::string_view text_block) override;
  Result<hdfs::ReplicaBlock> BuildReplica(
      size_t replica_index, const hdfs::ReplicaWorkContext& ctx) override;

  /// Size of the converted block (phase-level billing input).
  uint64_t binary_bytes() const { return block_bytes_.size(); }
  /// Rows that survived conversion.
  uint32_t num_rows() const { return num_rows_; }

 private:
  const TrojanTransformParams& params_;
  std::string block_bytes_;
  std::vector<uint32_t> chunk_crcs_;
  hdfs::HailBlockReplicaInfo info_;
  uint32_t num_rows_ = 0;
};

/// \brief Zero-copy reader for a trojan block.
class TrojanBlockView {
 public:
  static Result<TrojanBlockView> Open(std::string_view data);

  bool has_index() const { return index_bytes_ > 0; }
  int sort_column() const { return sort_column_; }
  uint64_t index_bytes() const { return index_bytes_; }
  uint64_t data_bytes() const { return data_.size() - rows_offset_; }
  uint64_t total_bytes() const { return data_.size(); }

  /// The serialised trojan index (empty when the block has none).
  std::string_view index_section() const {
    return data_.substr(index_offset_, index_bytes_);
  }
  Result<TrojanIndex> ReadIndex() const;
  Result<RowBinaryBlockView> OpenRows() const;
  /// Offset of the row data section within the block (the trojan index's
  /// byte ranges are relative to this).
  uint64_t rows_offset() const { return rows_offset_; }

 private:
  std::string_view data_;
  int sort_column_ = -1;
  uint64_t index_offset_ = 0;
  uint64_t index_bytes_ = 0;
  uint64_t rows_offset_ = 0;
};

}  // namespace hadooppp
}  // namespace hail
