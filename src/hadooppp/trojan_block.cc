#include "hadooppp/trojan_block.h"

#include <cstring>
#include <numeric>

#include "hdfs/packet.h"
#include "layout/column_vector.h"
#include "schema/row_parser.h"
#include "util/io.h"

namespace hail {
namespace hadooppp {

Status TrojanReplicaTransformer::BeginBlock(std::string_view text_block) {
  // Parse rows straight into typed columns (bad rows are dropped by
  // Hadoop++'s converter — they would fail its binary serialiser).
  std::vector<ColumnVector> columns;
  columns.reserve(static_cast<size_t>(params_.schema.num_fields()));
  for (int i = 0; i < params_.schema.num_fields(); ++i) {
    columns.emplace_back(params_.schema.field(i).type);
  }
  ColumnarAppender appender(params_.schema, &columns);
  for (std::string_view row : SplitRows(text_block)) {
    if (row.empty()) continue;
    (void)appender.AppendRow(row);
  }
  num_rows_ =
      columns.empty() ? 0 : static_cast<uint32_t>(columns[0].size());

  RowBinaryBlockBuilder builder(params_.schema);
  int sort_column = -1;
  if (params_.index_column >= 0) {
    // Sort rows by the index key (typed argsort, no Value comparisons)
    // and build the trojan directory over the sorted key column.
    const int col = params_.index_column;
    const std::vector<uint32_t> perm =
        ArgSortColumn(columns[static_cast<size_t>(col)]);
    const ColumnVector keys =
        columns[static_cast<size_t>(col)].PermutedCopy(perm);
    for (uint32_t row : perm) {
      builder.AddRowFromColumns(columns, row);
    }
    const std::vector<uint64_t> offsets = builder.row_offsets();
    const uint64_t data_bytes = builder.data_bytes();
    const TrojanIndex index =
        TrojanIndex::Build(keys, offsets, data_bytes, params_.rows_per_entry);
    block_bytes_ = BuildTrojanBlock(builder.Finish(), &index, col);
    sort_column = col;
  } else {
    for (uint32_t row = 0; row < num_rows_; ++row) {
      builder.AddRowFromColumns(columns, row);
    }
    block_bytes_ = BuildTrojanBlock(builder.Finish(), nullptr, -1);
  }

  chunk_crcs_ = hdfs::ComputeChunkChecksums(block_bytes_, params_.chunk_bytes);
  info_ = hdfs::HailBlockReplicaInfo();
  info_.layout = hdfs::ReplicaLayout::kRowBinary;
  info_.sort_column = sort_column;
  info_.index_kind = sort_column >= 0 ? "trojan" : "";
  info_.replica_bytes = block_bytes_.size();
  return Status::OK();
}

Result<hdfs::ReplicaBlock> TrojanReplicaTransformer::BuildReplica(
    size_t replica_index, const hdfs::ReplicaWorkContext& ctx) {
  (void)replica_index;
  (void)ctx;
  // Every replica stores identical bytes (the defining limitation);
  // CPU cost is billed at MapReduce phase level by the caller.
  hdfs::ReplicaBlock out;
  out.bytes = block_bytes_;
  out.chunk_crcs = chunk_crcs_;
  out.info = info_;
  return out;
}

std::string BuildTrojanBlock(std::string row_block, const TrojanIndex* index,
                             int sort_column) {
  ByteWriter w;
  w.PutU32(kTrojanBlockMagic);
  w.PutI32(index != nullptr ? sort_column : -1);
  const std::string index_bytes = index != nullptr ? index->Serialize() : "";
  const size_t layout_pos = w.size();
  w.PutU64(0);  // index offset
  w.PutU64(0);  // index bytes
  w.PutU64(0);  // rows offset
  const uint64_t index_offset = w.size();
  w.PutBytes(index_bytes);
  const uint64_t rows_offset = w.size();
  w.PutBytes(row_block);

  std::string out = w.Take();
  const uint64_t index_len = index_bytes.size();
  std::memcpy(out.data() + layout_pos, &index_offset, sizeof(uint64_t));
  std::memcpy(out.data() + layout_pos + 8, &index_len, sizeof(uint64_t));
  std::memcpy(out.data() + layout_pos + 16, &rows_offset, sizeof(uint64_t));
  return out;
}

Result<TrojanBlockView> TrojanBlockView::Open(std::string_view data) {
  TrojanBlockView view;
  view.data_ = data;
  ByteReader r(data);
  HAIL_ASSIGN_OR_RETURN(uint32_t magic, r.GetU32());
  if (magic != kTrojanBlockMagic) {
    return Status::Corruption("not a trojan block");
  }
  HAIL_ASSIGN_OR_RETURN(view.sort_column_, r.GetI32());
  HAIL_ASSIGN_OR_RETURN(view.index_offset_, r.GetU64());
  HAIL_ASSIGN_OR_RETURN(view.index_bytes_, r.GetU64());
  HAIL_ASSIGN_OR_RETURN(view.rows_offset_, r.GetU64());
  if (view.index_offset_ + view.index_bytes_ > data.size() ||
      view.rows_offset_ > data.size()) {
    return Status::Corruption("trojan block sections out of bounds");
  }
  return view;
}

Result<TrojanIndex> TrojanBlockView::ReadIndex() const {
  if (!has_index()) {
    return Status::FailedPrecondition("trojan block has no index");
  }
  return TrojanIndex::Deserialize(index_section());
}

Result<RowBinaryBlockView> TrojanBlockView::OpenRows() const {
  return RowBinaryBlockView::Open(data_.substr(rows_offset_));
}

}  // namespace hadooppp
}  // namespace hail
