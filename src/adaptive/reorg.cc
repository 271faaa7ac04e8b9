#include "adaptive/reorg.h"

#include <algorithm>
#include <utility>

#include "hail/hail_block.h"
#include "hdfs/packet.h"
#include "index/unclustered_index.h"
#include "planner/block_stats.h"
#include "util/thread_pool.h"

namespace hail {
namespace adaptive {

namespace {

/// Installs `fn` as the prepared rewrite's build.
template <typename Fn>
void SetBuild(PreparedReorg* out, Fn&& fn) {
  out->build = std::packaged_task<ReorgOutput()>(std::forward<Fn>(fn));
  out->output = out->build.get_future();
}

/// The build's last step for every kind that writes bytes.
ReorgOutput WithChecksums(std::string bytes, uint32_t chunk_bytes,
                          uint64_t index_bytes = 0) {
  ReorgOutput out;
  out.chunk_crcs = hdfs::ComputeChunkChecksums(bytes, chunk_bytes);
  out.bytes = std::move(bytes);
  out.index_bytes = index_bytes;
  return out;
}

/// Aggressive replication (kAddReplica): a plain byte copy of the block's
/// best replica for the hot column onto `task.datanode`. Prefers a source
/// whose replica carries a clustered index on the column (lowest datanode
/// id), so the extra copy is the *useful* layout; falls back to the
/// lowest-id alive PAX holder.
Result<PreparedReorg> PrepareAddReplica(const hdfs::MiniDfs& dfs,
                                        const MaintenanceTask& task) {
  const hdfs::Namenode& nn = dfs.namenode();
  if (nn.GetReplicaInfo(task.block_id, task.datanode).ok()) {
    return Status::AlreadyExists("target already holds a replica of block " +
                                 std::to_string(task.block_id));
  }
  int source = -1;
  const std::vector<int> indexed =
      nn.GetHostsWithIndex(task.block_id, task.column);
  if (!indexed.empty()) {
    source = *std::min_element(indexed.begin(), indexed.end());
  } else {
    HAIL_ASSIGN_OR_RETURN(std::vector<int> holders,
                          nn.GetBlockDatanodes(task.block_id));
    std::sort(holders.begin(), holders.end());
    for (int dn : holders) {
      auto info = nn.GetReplicaInfo(task.block_id, dn);
      if (info.ok() && info->layout == hdfs::ReplicaLayout::kPax) {
        source = dn;
        break;
      }
    }
  }
  if (source < 0) {
    return Status::Unavailable("no live PAX source replica for block " +
                               std::to_string(task.block_id));
  }
  return PrepareCopy(dfs, task.block_id, source, task.datanode);
}

}  // namespace

Result<PreparedReorg> PrepareCopy(const hdfs::MiniDfs& dfs, uint64_t block_id,
                                  int source, int target) {
  HAIL_ASSIGN_OR_RETURN(hdfs::HailBlockReplicaInfo info,
                        dfs.namenode().GetReplicaInfo(block_id, source));
  HAIL_ASSIGN_OR_RETURN(std::string_view raw,
                        dfs.datanode(source).ReadBlockRaw(block_id));
  PreparedReorg out;
  out.info = info;
  SetBuild(&out, [bytes = std::string(raw),
                  chunk_bytes = dfs.config().chunk_bytes]() mutable {
    return WithChecksums(std::move(bytes), chunk_bytes);
  });
  const double scale = dfs.config().scale_factor;
  const uint64_t logical =
      static_cast<uint64_t>(static_cast<double>(raw.size()) * scale);
  const sim::CostModel& src_cost = dfs.cluster().node(source).cost();
  const sim::CostModel& dst_cost = dfs.cluster().node(target).cost();
  out.seconds = src_cost.DiskAccess(logical);
  if (source != target) out.seconds += dst_cost.NetTransfer(logical);
  out.seconds += dst_cost.Crc(logical) + dst_cost.DiskAccess(logical);
  return out;
}

void SetResortBuild(const hdfs::MiniDfs& dfs, PaxBlock base, int column,
                    PreparedReorg* out) {
  SetBuild(out, [base = std::move(base), column,
                 partition = dfs.config().format.varlen_partition_size,
                 chunk_bytes = dfs.config().chunk_bytes] {
    SortedReplica sorted = BuildSortedReplica(base, column, partition);
    return WithChecksums(std::move(sorted.bytes), chunk_bytes,
                         sorted.index_bytes);
  });
}

bool IsConverged(const hdfs::MiniDfs& dfs, const MaintenanceTask& task) {
  const bool resort = task.kind == MaintenanceTask::Kind::kResortReplica;
  if (!resort && task.kind != MaintenanceTask::Kind::kInstallUnclustered) {
    return false;
  }
  const Result<hdfs::HailBlockReplicaInfo> info =
      dfs.namenode().GetReplicaInfo(task.block_id, task.datanode);
  if (!info.ok()) return false;
  if (info->has_index() && info->sort_column == task.column) return true;
  return !resort && info->has_unclustered() &&
         info->unclustered_column == task.column;
}

Result<PreparedReorg> PrepareReorg(const hdfs::MiniDfs& dfs,
                                   const MaintenanceTask& task) {
  if (task.datanode < 0 || task.datanode >= dfs.num_datanodes()) {
    return Status::InvalidArgument("maintenance task names no datanode");
  }
  if (task.kind == MaintenanceTask::Kind::kAddReplica) {
    return PrepareAddReplica(dfs, task);
  }
  if (task.kind == MaintenanceTask::Kind::kEvictReplica) {
    // Dropping a replica is a metadata operation plus an unlink: bill one
    // seek on the evictee; the actual drop happens at commit.
    HAIL_RETURN_NOT_OK(
        dfs.namenode().GetReplicaInfo(task.block_id, task.datanode).status());
    PreparedReorg out;
    out.seconds = dfs.cluster().node(task.datanode).cost().DiskAccess(0);
    return out;
  }
  HAIL_ASSIGN_OR_RETURN(
      hdfs::HailBlockReplicaInfo old_info,
      dfs.namenode().GetReplicaInfo(task.block_id, task.datanode));
  if (old_info.layout != hdfs::ReplicaLayout::kPax) {
    return Status::InvalidArgument(
        "adaptive reorg requires a PAX (HAIL) replica");
  }
  const hdfs::Datanode& node = dfs.datanode(task.datanode);
  HAIL_ASSIGN_OR_RETURN(std::string_view raw,
                        node.ReadBlockRaw(task.block_id));
  HAIL_ASSIGN_OR_RETURN(HailBlockView view, HailBlockView::Open(raw));
  HAIL_ASSIGN_OR_RETURN(PaxBlock base,
                        PaxBlock::Deserialize(view.pax_section()));
  if (task.kind == MaintenanceTask::Kind::kBuildStats) {
    // Stats backfill: read the replica, summarize every column, hand the
    // sidecar to CommitReorg. Metadata-only — no bytes are written back.
    PreparedReorg out;
    out.info = old_info;
    const double s = dfs.config().scale_factor;
    const sim::CostModel& node_cost = dfs.cluster().node(task.datanode).cost();
    const uint64_t logical_rows = static_cast<uint64_t>(
        static_cast<double>(base.num_records()) * s);
    const uint64_t logical_payload = static_cast<uint64_t>(
        static_cast<double>(base.PayloadBytes()) * s);
    out.seconds =
        node_cost.DiskAccess(logical_payload) +
        node_cost.StatsBuild(logical_rows * base.schema().num_fields());
    SetBuild(&out, [base = std::move(base)] {
      ReorgOutput built;
      built.stats = planner::BlockStats::Build(base).Serialize();
      return built;
    });
    return out;
  }
  if (task.column < 0 || task.column >= base.schema().num_fields()) {
    return Status::InvalidArgument("reorg column outside the schema");
  }

  // Logical (paper-scale) quantities for billing, derived exactly like the
  // upload path's HailTransformParams.
  const double scale = dfs.config().scale_factor;
  const auto scaled = [scale](uint64_t real) {
    return static_cast<uint64_t>(static_cast<double>(real) * scale);
  };
  const sim::CostModel& cost = dfs.cluster().node(task.datanode).cost();
  const uint64_t logical_records = scaled(base.num_records());
  const uint64_t logical_data = scaled(base.PayloadBytes());
  const FieldType key_type = base.schema().field(task.column).type;

  PreparedReorg out;
  out.info = old_info;
  out.info.layout = hdfs::ReplicaLayout::kPax;

  const uint32_t chunk_bytes = dfs.config().chunk_bytes;
  double cpu = 0.0;
  uint64_t logical_index_delta = 0;  // index bytes written on top of data
  if (task.kind == MaintenanceTask::Kind::kInstallUnclustered) {
    // Lazy path: sort only (key, rowid) pairs; data + clustered index are
    // spliced through untouched (the build splices copies of them).
    out.info.unclustered_column = task.column;
    cpu += cost.UnclusteredBuild(logical_records);
    // Dense: one (key, rowid) entry per logical record (§3.5) — the same
    // size the reader bills when it later loads this index.
    logical_index_delta = LogicalDenseIndexBytes(logical_records, key_type);
    SetBuild(&out, [base = std::move(base), column = task.column,
                    sort_column = view.sort_column(),
                    index = std::string(view.index_section()),
                    pax = std::string(view.pax_section()), chunk_bytes] {
      const UnclusteredIndex uc = UnclusteredIndex::Build(base.column(column));
      return WithChecksums(
          BuildHailBlockParts(sort_column, index, pax, column, uc.Serialize()),
          chunk_bytes, uc.SerializedBytes());
    });
  } else {
    // Full re-sort through the upload's own BuildSortedReplica and
    // BillSortedReplica; the sparse root is exactly what the reader bills
    // for loading it.
    out.info.sort_column = task.column;
    out.info.index_kind = "clustered";
    // The re-sort consumes any previously installed unclustered index
    // (rows moved; its rowids would be stale).
    out.info.unclustered_column = -1;
    out.info.unclustered_index_bytes = 0;
    const SortCost sort = BillSortedReplica(
        cost, key_type, logical_records, scaled(base.FixedPayloadBytes()),
        scaled(base.VarlenPayloadBytes()),
        dfs.cluster().constants().index_partition_logical);
    cpu += sort.cpu_seconds;
    logical_index_delta = sort.logical_index_bytes;
    SetResortBuild(dfs, std::move(base), task.column, &out);
  }

  // Simulated duration on the owning datanode: read the replica, do the
  // CPU work, recompute checksums, write data + index back.
  const uint64_t logical_out = logical_data + logical_index_delta;
  out.seconds = cost.DiskAccess(logical_data)   // read
                + cpu + cost.Crc(logical_out)   // transform + checksums
                + cost.DiskAccess(logical_out); // write
  return out;
}

void PreparedReorg::StartBuild(ThreadPool* pool) {
  if (build.valid()) pool->Submit(std::move(build));
}

ReorgOutput PreparedReorg::Join() {
  if (build.valid()) build();
  return output.get();
}

Status CommitReorg(hdfs::MiniDfs* dfs, const MaintenanceTask& task,
                   PreparedReorg prepared) {
  if (!dfs->cluster().node(task.datanode).alive()) {
    return Status::FailedPrecondition("datanode died mid-reorg");
  }
  if (task.kind == MaintenanceTask::Kind::kEvictReplica) {
    // Never below the configured replication factor: a baseline replica
    // may have died since planning, making this extra copy load-bearing.
    HAIL_RETURN_NOT_OK(dfs->namenode().DropReplica(
        task.block_id, task.datanode, dfs->config().replication));
    hdfs::Datanode& dn = dfs->datanode(task.datanode);
    if (dn.HasBlock(task.block_id)) {
      HAIL_RETURN_NOT_OK(dn.DeleteBlock(task.block_id));
    }
    return Status::OK();
  }
  ReorgOutput built = prepared.Join();
  if (task.kind == MaintenanceTask::Kind::kBuildStats) {
    // Metadata-only: register the sidecar (bumps the directory generation,
    // so cached plans built without these stats are invalidated). The
    // replica bytes and its datanode generation are untouched.
    dfs->namenode().RegisterBlockStats(task.block_id, std::move(built.stats));
    return Status::OK();
  }
  hdfs::HailBlockReplicaInfo& info = prepared.info;
  info.replica_bytes = built.bytes.size();
  if (task.kind == MaintenanceTask::Kind::kInstallUnclustered) {
    info.unclustered_index_bytes = built.index_bytes;
  } else if (task.kind == MaintenanceTask::Kind::kResortReplica) {
    info.index_bytes = built.index_bytes;
  }
  // StoreBlock bumps the replica's generation, which drops every
  // BlockCache entry describing the old bytes.
  dfs->datanode(task.datanode)
      .StoreBlock(task.block_id, std::move(built.bytes), built.chunk_crcs);
  return dfs->namenode().RegisterReplica(task.block_id, task.datanode, info);
}

}  // namespace adaptive
}  // namespace hail
