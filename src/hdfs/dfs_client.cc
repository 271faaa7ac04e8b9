#include "hdfs/dfs_client.h"

#include <algorithm>

namespace hail {
namespace hdfs {

namespace {

/// One datanode per simulated node, each sharing \p cache.
std::vector<std::unique_ptr<Datanode>> MakeDatanodes(sim::SimCluster* cluster,
                                                     BlockCache* cache) {
  std::vector<std::unique_ptr<Datanode>> out;
  out.reserve(static_cast<size_t>(cluster->num_nodes()));
  for (int i = 0; i < cluster->num_nodes(); ++i) {
    out.push_back(std::make_unique<Datanode>(i, &cluster->node(i), cache));
  }
  return out;
}

}  // namespace

MiniDfs::MiniDfs(sim::SimCluster* cluster, DfsConfig config)
    : cluster_(cluster),
      config_(config),
      namenode_(cluster->num_nodes()),
      block_cache_(/*max_entries_per_shard=*/4096, &metrics_),
      datanodes_(MakeDatanodes(cluster, &block_cache_)),
      pipeline_(cluster, &namenode_, datanode_ptrs(), config) {}

std::vector<Datanode*> MiniDfs::datanode_ptrs() {
  std::vector<Datanode*> ptrs;
  ptrs.reserve(datanodes_.size());
  for (auto& dn : datanodes_) ptrs.push_back(dn.get());
  return ptrs;
}

void MiniDfs::KillNode(int id, sim::SimTime when) {
  cluster_->KillNode(id, when);
  namenode_.MarkDatanodeDead(id);
  block_cache_.InvalidateDatanode(id);
}

void MiniDfs::ReviveNode(int id) {
  cluster_->node(id).set_alive(true);
  // Stale copies first: if a replica was re-replicated elsewhere or
  // reported corrupt while this node was down, its local files are
  // deleted before the node serves anything.
  for (uint64_t block_id : namenode_.TakeRevoked(id)) {
    Datanode& dn = datanode(id);
    if (dn.HasBlock(block_id)) {
      dn.DeleteBlock(block_id);  // bumps generation + invalidates cache
    }
  }
  namenode_.MarkDatanodeAlive(id);
  block_cache_.InvalidateDatanode(id);
}

Status MiniDfs::ReportBadReplica(uint64_t block_id, int datanode_id) {
  HAIL_RETURN_NOT_OK(namenode_.ReportCorruptReplica(block_id, datanode_id));
  Datanode& dn = datanode(datanode_id);
  if (dn.HasBlock(block_id)) {
    HAIL_RETURN_NOT_OK(dn.DeleteBlock(block_id));
  }
  return Status::OK();
}

Status MiniDfs::InjectCorruption(int datanode_id, uint64_t block_id) {
  return datanode(datanode_id).CorruptReplica(block_id);
}

void MiniDfs::ResetForSession() {
  for (int i = 0; i < cluster_->num_nodes(); ++i) {
    cluster_->node(i).ResetResources();
    if (!cluster_->node(i).alive()) {
      ReviveNode(i);
    }
  }
}

namespace {

/// Per-client upload cursor used by both single and parallel uploads.
struct ClientCursor {
  int client_node;
  std::string dfs_path;
  std::string_view text;
  size_t pos = 0;
  sim::SimTime read_ready;   // when the client's disk can start next read
  sim::SimTime completed = 0.0;
  uint32_t blocks = 0;
  uint64_t real_bytes = 0;
  uint64_t logical_bytes = 0;
  bool done() const { return pos >= text.size(); }
};

/// Uploads the next block of one cursor; returns false when exhausted.
Result<bool> UploadNextBlock(MiniDfs* dfs, ClientCursor* cur) {
  if (cur->done()) return false;
  const DfsConfig& cfg = dfs->config();
  const uint64_t take =
      std::min<uint64_t>(cfg.block_size, cur->text.size() - cur->pos);
  std::string_view block_bytes = cur->text.substr(cur->pos, take);
  cur->pos += take;
  const uint64_t logical_bytes = static_cast<uint64_t>(
      static_cast<double>(take) * cfg.scale_factor);

  // The client streams the source file from its local source disk (the
  // nodes have several spindles; ingestion reads do not contend with
  // replica flushes).
  sim::SimNode& client = dfs->cluster().node(cur->client_node);
  const sim::Interval read = client.src_disk().Schedule(
      cur->read_ready, client.cost().DiskTransfer(logical_bytes));
  cur->read_ready = read.end;

  HAIL_ASSIGN_OR_RETURN(
      BlockAllocation alloc,
      dfs->namenode().AllocateBlock(cur->dfs_path, cur->client_node,
                                    cfg.replication));
  HAIL_ASSIGN_OR_RETURN(
      BlockWriteResult result,
      dfs->pipeline().WriteBlock(cur->client_node, read.end, alloc.block_id,
                                 block_bytes, logical_bytes,
                                 alloc.datanodes));
  cur->completed = std::max(cur->completed, result.completed);
  cur->blocks += 1;
  cur->real_bytes += take;
  cur->logical_bytes += logical_bytes;
  return true;
}

UploadReport MakeReport(const std::vector<ClientCursor>& cursors,
                        sim::SimTime start_time) {
  UploadReport report;
  report.started = start_time;
  for (const ClientCursor& cur : cursors) {
    report.completed = std::max(report.completed, cur.completed);
    report.blocks += cur.blocks;
    report.real_bytes += cur.real_bytes;
    report.logical_bytes += cur.logical_bytes;
  }
  return report;
}

}  // namespace

Result<UploadReport> UploadTextFile(MiniDfs* dfs, int client_node,
                                    const std::string& dfs_path,
                                    std::string_view text,
                                    sim::SimTime start_time) {
  return ParallelUploadText(dfs, {{client_node, dfs_path, text}}, start_time);
}

Result<UploadReport> ParallelUploadText(
    MiniDfs* dfs, const std::vector<ParallelUploadSpec>& specs,
    sim::SimTime start_time) {
  std::vector<ClientCursor> cursors;
  cursors.reserve(specs.size());
  for (const ParallelUploadSpec& spec : specs) {
    cursors.push_back(ClientCursor{spec.client_node, spec.dfs_path, spec.text,
                                   0, start_time, 0.0, 0, 0, 0});
  }
  // Round-robin across clients so resource bookings stay roughly in time
  // order (all clients upload concurrently in the paper's experiments).
  bool any = true;
  while (any) {
    any = false;
    for (ClientCursor& cur : cursors) {
      if (cur.done()) continue;
      HAIL_ASSIGN_OR_RETURN(bool more, UploadNextBlock(dfs, &cur));
      any = any || more || !cur.done();
    }
  }
  return MakeReport(cursors, start_time);
}

}  // namespace hdfs
}  // namespace hail
