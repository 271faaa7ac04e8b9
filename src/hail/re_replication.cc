#include "hail/re_replication.h"

#include <algorithm>
#include <utility>

#include "hail/hail_block.h"
#include "obs/metrics.h"

namespace hail {

namespace {

bool SameLayout(const hdfs::HailBlockReplicaInfo& a,
                const hdfs::HailBlockReplicaInfo& b) {
  return a.layout == b.layout && a.sort_column == b.sort_column &&
         a.index_kind == b.index_kind &&
         a.unclustered_column == b.unclustered_column;
}

}  // namespace

bool RepairStillNeeded(const hdfs::MiniDfs& dfs,
                       const hdfs::UnderReplicatedEntry& entry) {
  if (!dfs.namenode().GetBlockDatanodes(entry.block_id).ok()) {
    return false;  // the file was deleted; nothing to restore
  }
  if (!entry.ownership_revoked &&
      dfs.namenode().IsDatanodeAlive(entry.lost_datanode) &&
      dfs.namenode().GetReplicaInfo(entry.block_id, entry.lost_datanode).ok()) {
    return false;  // the node revived with its replica intact
  }
  return true;
}

int PickRepairTarget(const hdfs::MiniDfs& dfs,
                     const hdfs::UnderReplicatedEntry& entry) {
  const hdfs::Namenode& nn = dfs.namenode();
  auto eligible = [&](int node) {
    return nn.IsDatanodeAlive(node) &&
           !nn.GetReplicaInfo(entry.block_id, node).ok();
  };
  // Restoring the original placement keeps post-repair locality identical
  // to pre-fault (the Fig. 8 recovery gate measures exactly this).
  if (eligible(entry.lost_datanode)) return entry.lost_datanode;
  for (int node = 0; node < dfs.num_datanodes(); ++node) {
    if (eligible(node)) return node;
  }
  return -1;
}

Result<adaptive::PreparedReorg> PrepareRepair(
    const hdfs::MiniDfs& dfs, const hdfs::UnderReplicatedEntry& entry,
    int target) {
  if (target < 0 || target >= dfs.num_datanodes()) {
    return Status::InvalidArgument("repair has no target datanode");
  }
  const hdfs::Namenode& nn = dfs.namenode();
  HAIL_ASSIGN_OR_RETURN(std::vector<int> survivors,
                        nn.GetBlockDatanodes(entry.block_id));
  survivors.erase(std::remove(survivors.begin(), survivors.end(), target),
                  survivors.end());
  if (survivors.empty()) {
    return Status::Unavailable("no live source replica for block " +
                               std::to_string(entry.block_id));
  }
  const hdfs::HailBlockReplicaInfo& want = entry.lost_info;

  // Preferred path: a surviving replica already has the wanted layout —
  // the repair is a byte copy and the registered Dir_rep record is the
  // source's (the bytes are its bytes).
  for (int s : survivors) {
    auto info = nn.GetReplicaInfo(entry.block_id, s);
    if (info.ok() && SameLayout(*info, want)) {
      HAIL_ASSIGN_OR_RETURN(
          adaptive::PreparedReorg out,
          adaptive::PrepareCopy(dfs, entry.block_id, s, target));
      dfs.metrics().counter("repair.prepares")->Inc();
      return out;
    }
  }
  if (want.layout != hdfs::ReplicaLayout::kPax) {
    // A non-PAX replica (text / binary rows) can only be cloned from a
    // same-layout survivor, and none is left.
    return Status::Unavailable("no same-layout source replica for block " +
                               std::to_string(entry.block_id));
  }
  // Transform path: re-sort any surviving PAX replica to the wanted
  // column, rebuilding the clustered index the way the upload-time
  // transformer does. A consumed unclustered index is not restored
  // (rowids would be stale); the adaptive observer re-installs it if the
  // column is still hot.
  int pax_source = -1;
  for (int s : survivors) {
    auto info = nn.GetReplicaInfo(entry.block_id, s);
    if (info.ok() && info->layout == hdfs::ReplicaLayout::kPax) {
      pax_source = s;
      break;
    }
  }
  if (pax_source < 0) {
    return Status::Unavailable("no PAX source replica for block " +
                               std::to_string(entry.block_id));
  }
  HAIL_ASSIGN_OR_RETURN(std::string_view raw,
                        dfs.datanode(pax_source).ReadBlockRaw(entry.block_id));
  HAIL_ASSIGN_OR_RETURN(HailBlockView view, HailBlockView::Open(raw));
  HAIL_ASSIGN_OR_RETURN(PaxBlock base,
                        PaxBlock::Deserialize(view.pax_section()));
  adaptive::PreparedReorg out;
  out.info = want;
  out.info.unclustered_column = -1;
  out.info.unclustered_index_bytes = 0;

  const double scale = dfs.config().scale_factor;
  const auto scaled = [scale](uint64_t real) {
    return static_cast<uint64_t>(static_cast<double>(real) * scale);
  };
  const uint64_t logical_data = scaled(base.PayloadBytes());
  const int sort_column = want.has_index() ? want.sort_column : -1;
  if (sort_column >= base.schema().num_fields()) {
    return Status::InvalidArgument("lost replica sort column outside schema");
  }
  const sim::CostModel& target_cost = dfs.cluster().node(target).cost();
  SortCost sort;  // nothing to bill for an arrival-order replica
  if (sort_column >= 0) {
    sort = BillSortedReplica(
        target_cost, base.schema().field(sort_column).type,
        scaled(base.num_records()), scaled(base.FixedPayloadBytes()),
        scaled(base.VarlenPayloadBytes()),
        dfs.cluster().constants().index_partition_logical);
  }
  const uint64_t logical_out = logical_data + sort.logical_index_bytes;
  const sim::CostModel& src_cost = dfs.cluster().node(pax_source).cost();
  out.seconds = src_cost.DiskAccess(logical_data);
  if (pax_source != target) {
    out.seconds += target_cost.NetTransfer(logical_data);
  }
  out.seconds += sort.cpu_seconds + target_cost.Crc(logical_out) +
                 target_cost.DiskAccess(logical_out);
  adaptive::SetResortBuild(dfs, std::move(base), sort_column, &out);
  dfs.metrics().counter("repair.prepares")->Inc();
  return out;
}

Status CommitRepair(hdfs::MiniDfs* dfs,
                    const hdfs::UnderReplicatedEntry& entry, int target,
                    adaptive::PreparedReorg prepared) {
  if (!dfs->cluster().node(target).alive()) {
    return Status::FailedPrecondition("repair target died mid-repair");
  }
  adaptive::ReorgOutput built = prepared.Join();
  hdfs::HailBlockReplicaInfo& info = prepared.info;
  info.replica_bytes = built.bytes.size();
  // A re-sort rebuilt the clustered index; a byte copy keeps the source's.
  if (built.index_bytes > 0) info.index_bytes = built.index_bytes;
  obs::MetricsRegistry& metrics = dfs->metrics();
  metrics.counter("repair.bytes_prepared")->Add(built.bytes.size());
  dfs->datanode(target).StoreBlock(entry.block_id, std::move(built.bytes),
                                   built.chunk_crcs);
  HAIL_RETURN_NOT_OK(dfs->namenode().CompleteRepair(entry, target, info));
  metrics.counter("repair.commits")->Inc();
  return Status::OK();
}

}  // namespace hail
