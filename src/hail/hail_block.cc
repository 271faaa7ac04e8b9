#include "hail/hail_block.h"

#include "hdfs/packet.h"
#include "planner/block_stats.h"
#include "util/io.h"

namespace hail {

namespace {

/// Stable counting sort of a dictionary column's rows by code. Codes are
/// ranks in string order, so this is ArgSortColumn's permutation.
std::vector<uint32_t> SortByCode(const StringDictionary& dict) {
  std::vector<uint32_t> next(dict.values.size() + 1, 0);  // first slot
  for (const uint32_t code : dict.codes) ++next[code + 1];
  for (size_t c = 1; c < next.size(); ++c) next[c] += next[c - 1];
  std::vector<uint32_t> order(dict.codes.size());
  for (uint32_t r = 0; r < order.size(); ++r) order[next[dict.codes[r]]++] = r;
  return order;
}

}  // namespace

SortedReplica BuildSortedReplica(const PaxBlock& base, int sort_column,
                                 uint32_t varlen_partition_size,
                                 const BlockDictionaries* dictionaries) {
  BlockDictionaries own;
  if (dictionaries == nullptr) {
    own = base.BuildDictionaries();
    dictionaries = &own;
  }
  SortedReplica out;
  if (sort_column < 0) {
    out.bytes = BuildHailBlock(base, nullptr, -1, nullptr, dictionaries);
    return out;
  }
  const ColumnVector& key = base.column(sort_column);
  const std::optional<StringDictionary>& key_dict =
      (*dictionaries)[static_cast<size_t>(sort_column)];
  const std::vector<uint32_t> order =
      key_dict.has_value() ? SortByCode(*key_dict) : ArgSortColumn(key);
  const ClusteredIndex index =
      ClusteredIndex::Build(key.PermutedCopy(order), varlen_partition_size);
  out.bytes = BuildHailBlock(base, &index, sort_column, &order, dictionaries);
  out.index_bytes = index.SerializedBytes();
  return out;
}

SortCost BillSortedReplica(const sim::CostModel& cost, FieldType key_type,
                           uint64_t logical_records,
                           uint64_t logical_fixed_bytes,
                           uint64_t logical_varlen_bytes,
                           uint32_t index_partition_logical) {
  SortCost out;
  out.cpu_seconds =
      cost.SortBlock(logical_records, logical_fixed_bytes,
                     logical_varlen_bytes, key_type == FieldType::kString);
  out.cpu_seconds += cost.IndexBuild(logical_records);
  out.logical_index_bytes =
      LogicalSparseIndexBytes(logical_records, index_partition_logical,
                              key_type, /*pointer_bytes=*/4);
  return out;
}

Status HailReplicaTransformer::BeginBlock(std::string_view block_bytes) {
  facts_.reset();
  dictionaries_.clear();
  base_.reset();
  prepared_.clear();
  stats_bytes_.clear();
  // The single decode this block will ever see: every replica below
  // writes these columns in its own row order.
  HAIL_ASSIGN_OR_RETURN(PaxBlock base, PaxBlock::Deserialize(block_bytes));
  base_.emplace(std::move(base));
  dictionaries_ = base_->BuildDictionaries();
  facts_ = BlockFacts{base_->num_records(),
                      static_cast<uint64_t>(base_->schema().num_fields()),
                      base_->options().enable_encoding};
  if (params_.build_stats) {
    // Built from the shared arrival-order columns: replicas are row
    // permutations of these, so one sidecar describes them all.
    stats_bytes_ =
        planner::BlockStats::Build(*base_, &dictionaries_).Serialize();
  }
  return Status::OK();
}

int HailReplicaTransformer::SortColumn(size_t replica_index) const {
  if (replica_index >= params_.sort_columns.size() ||
      facts_->num_records == 0) {
    return -1;
  }
  return params_.sort_columns[replica_index];
}

Result<const HailReplicaTransformer::PreparedReplica*>
HailReplicaTransformer::Prepare(int sort_column) {
  auto it = prepared_.find(sort_column);
  if (it == prepared_.end()) {
    if (!base_.has_value()) {
      return Status::FailedPrecondition(
          "replica was not prepared and PrepareReplicas freed the block");
    }
    PreparedReplica p;
    p.replica = BuildSortedReplica(*base_, sort_column,
                                   params_.varlen_partition_size,
                                   &dictionaries_);
    // Each replica carries its own checksums: replicas differ physically,
    // so DN1's CRCs are useless to DN2 (§3.2).
    p.chunk_crcs =
        hdfs::ComputeChunkChecksums(p.replica.bytes, params_.chunk_bytes);
    if (sort_column >= 0) p.key_type = base_->schema().field(sort_column).type;
    it = prepared_.emplace(sort_column, std::move(p)).first;
  }
  return &it->second;
}

Status HailReplicaTransformer::PrepareReplicas() {
  if (!facts_.has_value()) {
    return Status::FailedPrecondition("PrepareReplicas before BeginBlock");
  }
  for (size_t i = 0; i < params_.sort_columns.size(); ++i) {
    HAIL_RETURN_NOT_OK(Prepare(SortColumn(i)).status());
  }
  dictionaries_.clear();
  base_.reset();
  return Status::OK();
}

Result<hdfs::ReplicaBlock> HailReplicaTransformer::BuildReplica(
    size_t replica_index, const hdfs::ReplicaWorkContext& ctx) {
  if (!facts_.has_value()) {
    return Status::FailedPrecondition("BuildReplica before BeginBlock");
  }
  if (ctx.cost == nullptr) {
    return Status::InvalidArgument(
        "HAIL replicas are billed through the pipeline; missing cost model");
  }
  const int sort_column = SortColumn(replica_index);
  HAIL_ASSIGN_OR_RETURN(const PreparedReplica* prepared, Prepare(sort_column));

  hdfs::ReplicaBlock out;
  out.info.layout = hdfs::ReplicaLayout::kPax;
  uint64_t logical_index_bytes = 0;
  if (sort_column >= 0) {
    const SortCost sort = BillSortedReplica(
        *ctx.cost, prepared->key_type, params_.logical_records,
        params_.logical_fixed_bytes, params_.logical_varlen_bytes,
        params_.index_partition_logical);
    out.cpu_seconds += sort.cpu_seconds;
    out.info.sort_column = sort_column;
    out.info.index_kind = "clustered";
    out.info.index_bytes = prepared->replica.index_bytes;
    logical_index_bytes = sort.logical_index_bytes;
  }

  if (replica_index == 0 && !stats_bytes_.empty()) {
    // The stats sidecar is built once per block; bill the summary pass on
    // the first replica's builder so scheduling rides the existing paths.
    out.cpu_seconds +=
        ctx.cost->StatsBuild(params_.logical_records * facts_->num_fields);
  }

  if (facts_->encoded) {
    // Format v3: every replica picks each minipage's encoding for its own
    // row order and writes its own codes, so each datanode pays the
    // sampling + code-emission pass. (This emulator runs the string
    // dictionary pass once per block for all replicas; a datanode
    // building only its own replica runs it itself, so the bill stays
    // per replica.)
    out.cpu_seconds +=
        ctx.cost->EncodeValues(params_.logical_records * facts_->num_fields);
  }

  // Each datanode recomputes its own checksums (see Prepare).
  const uint64_t logical_replica_bytes =
      params_.logical_pax_bytes + logical_index_bytes;
  out.cpu_seconds += ctx.cost->Crc(logical_replica_bytes);
  if (ctx.is_tail) {
    // The tail also verified every incoming packet.
    out.cpu_seconds += ctx.cost->Crc(params_.logical_pax_bytes);
  }
  out.bytes = prepared->replica.bytes;
  out.chunk_crcs = prepared->chunk_crcs;
  out.info.replica_bytes = out.bytes.size();
  out.logical_bytes = logical_replica_bytes;
  return out;
}

std::string BuildHailBlock(const PaxBlock& pax, const ClusteredIndex* index,
                           int sort_column,
                           const std::vector<uint32_t>* order,
                           const BlockDictionaries* dictionaries) {
  ByteWriter w;
  w.PutU32(kHailBlockMagic);
  w.PutU8(1);  // version
  w.PutI32(index != nullptr ? sort_column : -1);
  const std::string index_bytes = index != nullptr ? index->Serialize() : "";
  // Index Metadata: where the index and the PAX payload live.
  const size_t layout_pos = w.size();
  w.PutU64(0);  // index offset
  w.PutU64(0);  // index bytes
  w.PutU64(0);  // pax offset
  const uint64_t index_offset = w.size();
  w.PutBytes(index_bytes);
  const uint64_t pax_offset = w.size();
  w.PutBytes(pax.Serialize(order, dictionaries));

  std::string out = w.Take();
  const uint64_t index_len = index_bytes.size();
  std::memcpy(out.data() + layout_pos, &index_offset, sizeof(uint64_t));
  std::memcpy(out.data() + layout_pos + 8, &index_len, sizeof(uint64_t));
  std::memcpy(out.data() + layout_pos + 16, &pax_offset, sizeof(uint64_t));
  return out;
}

std::string BuildHailBlockParts(int sort_column, std::string_view index_bytes,
                                std::string_view pax_bytes,
                                int uc_column, std::string_view uc_bytes) {
  ByteWriter w;
  w.PutU32(kHailBlockMagic);
  w.PutU8(2);  // version
  w.PutI32(index_bytes.empty() ? -1 : sort_column);
  // Each placeholder's position is captured at write time, so the
  // back-patch below cannot drift from the header layout.
  const auto placeholder_u64 = [&w]() {
    const size_t pos = w.size();
    w.PutU64(0);
    return pos;
  };
  const size_t index_offset_pos = placeholder_u64();
  const size_t index_bytes_pos = placeholder_u64();
  const size_t pax_offset_pos = placeholder_u64();
  const size_t pax_bytes_pos = placeholder_u64();
  w.PutI32(uc_bytes.empty() ? -1 : uc_column);
  const size_t uc_offset_pos = placeholder_u64();
  const size_t uc_bytes_pos = placeholder_u64();
  const uint64_t index_offset = w.size();
  w.PutBytes(index_bytes);
  const uint64_t pax_offset = w.size();
  w.PutBytes(pax_bytes);
  const uint64_t uc_offset = w.size();
  w.PutBytes(uc_bytes);

  std::string out = w.Take();
  const auto put_u64 = [&out](size_t pos, uint64_t v) {
    std::memcpy(out.data() + pos, &v, sizeof(uint64_t));
  };
  put_u64(index_offset_pos, index_offset);
  put_u64(index_bytes_pos, index_bytes.size());
  put_u64(pax_offset_pos, pax_offset);
  put_u64(pax_bytes_pos, pax_bytes.size());
  put_u64(uc_offset_pos, uc_offset);
  put_u64(uc_bytes_pos, uc_bytes.size());
  return out;
}

Result<HailBlockView> HailBlockView::Open(std::string_view data) {
  HailBlockView view;
  view.data_ = data;
  ByteReader r(data);
  HAIL_ASSIGN_OR_RETURN(uint32_t magic, r.GetU32());
  if (magic != kHailBlockMagic) {
    return Status::Corruption("not a HAIL block (bad magic)");
  }
  HAIL_ASSIGN_OR_RETURN(uint8_t version, r.GetU8());
  if (version != 1 && version != 2) {
    return Status::Corruption("unsupported HAIL block version");
  }
  HAIL_ASSIGN_OR_RETURN(view.sort_column_, r.GetI32());
  HAIL_ASSIGN_OR_RETURN(view.index_offset_, r.GetU64());
  HAIL_ASSIGN_OR_RETURN(view.index_bytes_, r.GetU64());
  HAIL_ASSIGN_OR_RETURN(view.pax_offset_, r.GetU64());
  if (version == 2) {
    HAIL_ASSIGN_OR_RETURN(view.pax_bytes_, r.GetU64());
    HAIL_ASSIGN_OR_RETURN(view.uc_column_, r.GetI32());
    HAIL_ASSIGN_OR_RETURN(view.uc_offset_, r.GetU64());
    HAIL_ASSIGN_OR_RETURN(view.uc_bytes_, r.GetU64());
  } else {
    // Version 1: the PAX payload runs to the end of the block.
    view.pax_bytes_ = data.size() >= view.pax_offset_
                          ? data.size() - view.pax_offset_
                          : 0;
  }
  if (view.index_offset_ + view.index_bytes_ > data.size() ||
      view.pax_offset_ + view.pax_bytes_ > data.size() ||
      view.uc_offset_ + view.uc_bytes_ > data.size()) {
    return Status::Corruption("HAIL block sections out of bounds");
  }
  return view;
}

Result<ClusteredIndex> HailBlockView::ReadIndex() const {
  if (!has_index()) {
    return Status::FailedPrecondition("HAIL block has no index");
  }
  return ClusteredIndex::Deserialize(
      data_.substr(index_offset_, index_bytes_));
}

Result<UnclusteredIndex> HailBlockView::ReadUnclusteredIndex() const {
  if (!has_unclustered()) {
    return Status::FailedPrecondition("HAIL block has no unclustered index");
  }
  return UnclusteredIndex::Deserialize(unclustered_section());
}

Result<PaxBlockView> HailBlockView::OpenPax() const {
  return PaxBlockView::Open(data_.substr(pax_offset_, pax_bytes_));
}

}  // namespace hail
