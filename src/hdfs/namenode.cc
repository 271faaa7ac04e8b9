#include "hdfs/namenode.h"

#include <algorithm>

namespace hail {
namespace hdfs {

Result<BlockAllocation> Namenode::AllocateBlock(const std::string& file,
                                                int client_node,
                                                int replication) {
  if (replication < 1) {
    return Status::InvalidArgument("replication must be >= 1");
  }
  if (replication > num_datanodes_) {
    return Status::InvalidArgument("replication exceeds datanode count");
  }
  BlockAllocation alloc;
  alloc.block_id = next_block_id_++;

  // Default HDFS placement: first replica on the writer's node (when
  // alive), the remaining replicas spread across the cluster. HDFS picks
  // followers randomly; a rotating cursor gives the same long-run balance
  // deterministically (every node receives an equal share of followers).
  alloc.datanodes.reserve(static_cast<size_t>(replication));
  const int local = client_node % num_datanodes_;
  if (IsDatanodeAlive(local)) alloc.datanodes.push_back(local);
  for (int i = 0; i < 2 * num_datanodes_ &&
                  static_cast<int>(alloc.datanodes.size()) < replication;
       ++i) {
    const int candidate = placement_cursor_;
    placement_cursor_ = (placement_cursor_ + 1) % num_datanodes_;
    if (!IsDatanodeAlive(candidate)) continue;
    if (std::find(alloc.datanodes.begin(), alloc.datanodes.end(), candidate) !=
        alloc.datanodes.end()) {
      continue;
    }
    alloc.datanodes.push_back(candidate);
  }
  if (static_cast<int>(alloc.datanodes.size()) < replication) {
    return Status::FailedPrecondition("not enough alive datanodes");
  }
  files_[file].push_back(alloc.block_id);
  ++directory_generation_;
  return alloc;
}

Status Namenode::RegisterReplica(uint64_t block_id, int datanode,
                                 const HailBlockReplicaInfo& info) {
  if (datanode < 0 || datanode >= num_datanodes_) {
    return Status::InvalidArgument("bad datanode id");
  }
  std::vector<Replica>& reps = replicas_[block_id];
  auto it = std::find_if(reps.begin(), reps.end(), [&](const Replica& r) {
    return r.datanode == datanode;
  });
  if (it == reps.end()) {
    reps.push_back({datanode, info});
  } else {
    it->info = info;
  }
  // A freshly registered replica on this node is legitimate: forget any
  // earlier revocation of the same (block, node) pair.
  auto rev = revoked_.find(datanode);
  if (rev != revoked_.end()) {
    rev->second.erase(block_id);
    if (rev->second.empty()) revoked_.erase(rev);
  }
  NoteBlockMutation(block_id);
  return Status::OK();
}

void Namenode::SetBlockLogicalBytes(uint64_t block_id, uint64_t logical_bytes) {
  block_logical_bytes_[block_id] = logical_bytes;
}

Result<std::vector<int>> Namenode::GetBlockDatanodes(uint64_t block_id) const {
  auto it = replicas_.find(block_id);
  if (it == replicas_.end()) {
    return Status::NotFound("unknown block " + std::to_string(block_id));
  }
  std::vector<int> alive;
  for (const Replica& r : it->second) {
    if (IsDatanodeAlive(r.datanode)) alive.push_back(r.datanode);
  }
  return alive;
}

Result<std::vector<BlockLocation>> Namenode::GetFileBlocks(
    const std::string& file) const {
  // Exact file, or all part files under the directory prefix.
  std::vector<const std::vector<uint64_t>*> file_lists;
  auto it = files_.find(file);
  if (it != files_.end()) {
    file_lists.push_back(&it->second);
  } else {
    const std::string prefix = file + "/";
    // std::map iterates in lexicographic order, giving deterministic
    // part-file ordering.
    for (auto fit = files_.lower_bound(prefix);
         fit != files_.end() && fit->first.compare(0, prefix.size(), prefix) == 0;
         ++fit) {
      file_lists.push_back(&fit->second);
    }
    if (file_lists.empty()) {
      return Status::NotFound("no such file or directory: " + file);
    }
  }
  std::vector<BlockLocation> out;
  uint32_t file_id = 0;
  for (const std::vector<uint64_t>* blocks : file_lists) {
    for (uint64_t block_id : *blocks) {
      BlockLocation loc;
      loc.block_id = block_id;
      loc.file_id = file_id;
      HAIL_ASSIGN_OR_RETURN(loc.datanodes, GetBlockDatanodes(block_id));
      auto sz = block_logical_bytes_.find(block_id);
      loc.logical_bytes = sz == block_logical_bytes_.end() ? 0 : sz->second;
      out.push_back(std::move(loc));
    }
    ++file_id;
  }
  return out;
}

Result<HailBlockReplicaInfo> Namenode::GetReplicaInfo(uint64_t block_id,
                                                      int datanode) const {
  const Replica* r = FindReplica(block_id, datanode);
  if (r == nullptr) {
    return Status::NotFound("no replica info for block " +
                            std::to_string(block_id) + " on dn " +
                            std::to_string(datanode));
  }
  return r->info;
}

const Namenode::Replica* Namenode::FindReplica(uint64_t block_id,
                                               int datanode) const {
  auto it = replicas_.find(block_id);
  if (it == replicas_.end()) return nullptr;
  for (const Replica& r : it->second) {
    if (r.datanode == datanode) return &r;
  }
  return nullptr;
}

std::vector<int> Namenode::GetHostsWithIndex(uint64_t block_id,
                                             int column) const {
  std::vector<int> hosts;
  auto it = replicas_.find(block_id);
  if (it == replicas_.end()) return hosts;
  for (const Replica& r : it->second) {
    if (r.info.has_index() && r.info.sort_column == column &&
        IsDatanodeAlive(r.datanode)) {
      hosts.push_back(r.datanode);
    }
  }
  return hosts;
}

std::vector<int> Namenode::GetHostsWithUnclusteredIndex(uint64_t block_id,
                                                        int column) const {
  std::vector<int> hosts;
  auto it = replicas_.find(block_id);
  if (it == replicas_.end()) return hosts;
  for (const Replica& r : it->second) {
    if (r.info.unclustered_column == column && IsDatanodeAlive(r.datanode)) {
      hosts.push_back(r.datanode);
    }
  }
  return hosts;
}

Result<std::vector<uint64_t>> Namenode::DeleteFile(const std::string& file) {
  auto it = files_.find(file);
  if (it == files_.end()) {
    return Status::NotFound("no such file: " + file);
  }
  std::vector<uint64_t> blocks = std::move(it->second);
  files_.erase(it);
  for (uint64_t block_id : blocks) {
    replicas_.erase(block_id);
    block_logical_bytes_.erase(block_id);
    block_stats_.erase(block_id);
    block_mutations_.erase(block_id);
  }
  ++directory_generation_;
  return blocks;
}

void Namenode::MarkDatanodeDead(int datanode) {
  if (std::find(dead_.begin(), dead_.end(), datanode) == dead_.end()) {
    dead_.push_back(datanode);
    ++directory_generation_;
  }
}

void Namenode::MarkDatanodeAlive(int datanode) {
  auto it = std::remove(dead_.begin(), dead_.end(), datanode);
  if (it != dead_.end()) {
    dead_.erase(it, dead_.end());
    ++directory_generation_;
  }
}

bool Namenode::IsDatanodeAlive(int datanode) const {
  return std::find(dead_.begin(), dead_.end(), datanode) == dead_.end();
}

std::vector<uint64_t> Namenode::BlocksOnDatanode(int datanode) const {
  // replicas_ is an ordered map, so the result is in block-id order.
  std::vector<uint64_t> blocks;
  for (const auto& [block_id, reps] : replicas_) {
    for (const Replica& r : reps) {
      if (r.datanode == datanode) {
        blocks.push_back(block_id);
        break;
      }
    }
  }
  return blocks;
}

void Namenode::RevokeReplica(uint64_t block_id, int datanode) {
  auto it = replicas_.find(block_id);
  if (it != replicas_.end()) {
    std::erase_if(it->second,
                  [&](const Replica& r) { return r.datanode == datanode; });
  }
  revoked_[datanode].insert(block_id);
  NoteBlockMutation(block_id);
}

void Namenode::NoteBlockMutation(uint64_t block_id) {
  ++block_mutations_[block_id];
  ++directory_generation_;
}

void Namenode::RegisterBlockStats(uint64_t block_id, std::string stats) {
  block_stats_[block_id] = {block_mutations_[block_id], std::move(stats)};
  // Fresh stats change what the planner would decide: invalidate plans.
  ++directory_generation_;
}

Result<std::string_view> Namenode::GetBlockStats(uint64_t block_id) const {
  auto it = block_stats_.find(block_id);
  if (it == block_stats_.end()) {
    return Status::NotFound("no stats for block " + std::to_string(block_id));
  }
  auto mut = block_mutations_.find(block_id);
  const uint64_t current = mut == block_mutations_.end() ? 0 : mut->second;
  if (it->second.first != current) {
    return Status::NotFound("stale stats for block " +
                            std::to_string(block_id));
  }
  return std::string_view(it->second.second);
}

bool Namenode::BlockStatsFresh(uint64_t block_id) const {
  return GetBlockStats(block_id).ok();
}

Status Namenode::ReportCorruptReplica(uint64_t block_id, int datanode) {
  const Replica* r = FindReplica(block_id, datanode);
  if (r == nullptr) {
    // Already reported (every task touching the bad replica reports it).
    return Status::OK();
  }
  UnderReplicatedEntry entry;
  entry.block_id = block_id;
  entry.lost_datanode = datanode;
  entry.lost_info = r->info;
  entry.ownership_revoked = true;
  RevokeReplica(block_id, datanode);
  if (repair_pending_.insert({block_id, datanode}).second) {
    under_replicated_.push_back(std::move(entry));
  }
  return Status::OK();
}

void Namenode::EnqueueLostNodeReplicas(int datanode) {
  for (const auto& [block_id, reps] : replicas_) {
    auto r = std::find_if(reps.begin(), reps.end(), [&](const Replica& x) {
      return x.datanode == datanode;
    });
    if (r == reps.end()) continue;
    if (!repair_pending_.insert({block_id, datanode}).second) continue;
    UnderReplicatedEntry entry;
    entry.block_id = block_id;
    entry.lost_datanode = datanode;
    entry.lost_info = r->info;
    entry.ownership_revoked = false;
    under_replicated_.push_back(std::move(entry));
  }
}

std::vector<UnderReplicatedEntry> Namenode::TakeUnderReplicated() {
  std::vector<UnderReplicatedEntry> out(under_replicated_.begin(),
                                        under_replicated_.end());
  under_replicated_.clear();
  return out;
}

void Namenode::RequeueUnderReplicated(const UnderReplicatedEntry& entry) {
  // The in-repair marker is still set; just put the work back.
  under_replicated_.push_back(entry);
}

Status Namenode::CompleteRepair(const UnderReplicatedEntry& entry, int target,
                                const HailBlockReplicaInfo& info) {
  HAIL_RETURN_NOT_OK(RegisterReplica(entry.block_id, target, info));
  if (!entry.ownership_revoked &&
      !IsDatanodeAlive(entry.lost_datanode) &&
      FindReplica(entry.block_id, entry.lost_datanode) != nullptr) {
    // The dead node's copy has been superseded; make sure a revive
    // deletes it instead of serving it.
    RevokeReplica(entry.block_id, entry.lost_datanode);
  }
  repair_pending_.erase({entry.block_id, entry.lost_datanode});
  return Status::OK();
}

void Namenode::AbandonRepair(const UnderReplicatedEntry& entry) {
  repair_pending_.erase({entry.block_id, entry.lost_datanode});
}

Status Namenode::DropReplica(uint64_t block_id, int datanode,
                             int min_remaining) {
  if (FindReplica(block_id, datanode) == nullptr) {
    return Status::NotFound("no replica of block " + std::to_string(block_id) +
                            " on datanode " + std::to_string(datanode));
  }
  if (repair_pending_.count({block_id, datanode}) > 0) {
    return Status::FailedPrecondition("replica is queued for repair");
  }
  int alive_remaining = 0;
  for (const Replica& r : replicas_.at(block_id)) {
    if (r.datanode != datanode && IsDatanodeAlive(r.datanode)) {
      ++alive_remaining;
    }
  }
  if (alive_remaining < min_remaining) {
    return Status::FailedPrecondition(
        "dropping the replica would leave " +
        std::to_string(alive_remaining) + " alive copies (< " +
        std::to_string(min_remaining) + ")");
  }
  RevokeReplica(block_id, datanode);
  return Status::OK();
}

std::vector<uint64_t> Namenode::TakeRevoked(int datanode) {
  auto it = revoked_.find(datanode);
  if (it == revoked_.end()) return {};
  std::vector<uint64_t> blocks(it->second.begin(), it->second.end());
  revoked_.erase(it);
  return blocks;
}

}  // namespace hdfs
}  // namespace hail
