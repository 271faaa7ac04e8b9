#include "adaptive/reorg_planner.h"

#include <algorithm>
#include <climits>

namespace hail {
namespace adaptive {

std::vector<MaintenanceTask> PlanStatsBackfill(const hdfs::MiniDfs& dfs,
                                               const std::string& file) {
  std::vector<MaintenanceTask> out;
  Result<std::vector<hdfs::BlockLocation>> blocks =
      dfs.namenode().GetFileBlocks(file);
  if (!blocks.ok()) return out;
  for (const hdfs::BlockLocation& loc : *blocks) {
    if (dfs.namenode().BlockStatsFresh(loc.block_id)) continue;
    std::vector<int> holders = loc.datanodes;
    std::sort(holders.begin(), holders.end());
    int source = -1;
    for (int dn : holders) {
      auto info = dfs.namenode().GetReplicaInfo(loc.block_id, dn);
      if (info.ok() && info->layout == hdfs::ReplicaLayout::kPax) {
        source = dn;
        break;
      }
    }
    if (source < 0) continue;  // no alive PAX source; retry after repair
    MaintenanceTask t;
    t.block_id = loc.block_id;
    t.datanode = source;
    t.column = -1;
    t.kind = MaintenanceTask::Kind::kBuildStats;
    out.push_back(t);
  }
  return out;
}

std::vector<MaintenanceTask> ReorgPlanner::Plan(const hdfs::MiniDfs& dfs,
                                                const Schema& schema,
                                                const std::string& file,
                                                const WorkloadObserver& observer,
                                                PlanSummary* summary) {
  PlanSummary sum;
  std::vector<MaintenanceTask> tasks;
  const auto finish = [&]() {
    sum.tasks_emitted = tasks.size();
    if (summary != nullptr) *summary = sum;
    return tasks;
  };

  sum.full_scan_regret = observer.FullScanRegret();
  sum.unclustered_share = observer.UnclusteredShare();
  // Regret counts everything not served by a clustered index: full scans
  // always, unclustered probes as the escalation signal.
  const double unserved = sum.full_scan_regret + sum.unclustered_share;
  if (observer.empty() || unserved < options_.regret_threshold ||
      observer.TotalWeight() < kMinWorkloadWeight) {
    // Below threshold the streak is broken: a column that heats up again
    // later must restart at the cheap incremental stage.
    hot_rounds_.clear();
    return finish();
  }

  const std::vector<WorkloadEntry> workload = observer.ToWorkload();
  const std::vector<IndexRecommendation> scores =
      ScoreColumns(schema, workload);
  const std::vector<int> desired =
      SuggestSortColumns(schema, workload, dfs.config().replication);
  if (desired.empty()) return finish();

  Result<std::vector<hdfs::BlockLocation>> blocks =
      dfs.namenode().GetFileBlocks(file);
  if (!blocks.ok() || blocks->empty()) return finish();

  std::vector<double> benefit(static_cast<size_t>(schema.num_fields()), 0.0);
  for (const IndexRecommendation& rec : scores) {
    if (rec.column >= 0 && rec.column < schema.num_fields()) {
      benefit[static_cast<size_t>(rec.column)] = rec.benefit;
    }
  }
  const auto is_desired = [&](int c) {
    return std::find(desired.begin(), desired.end(), c) != desired.end();
  };

  // One Dir_rep sweep per round: every loop below works off this
  // snapshot instead of re-asking the namenode per (block, replica).
  struct ReplicaState {
    int dn;
    hdfs::HailBlockReplicaInfo info;
  };
  std::vector<std::vector<ReplicaState>> replicas(blocks->size());
  for (size_t b = 0; b < blocks->size(); ++b) {
    const hdfs::BlockLocation& loc = (*blocks)[b];
    replicas[b].reserve(loc.datanodes.size());
    for (int dn : loc.datanodes) {
      Result<hdfs::HailBlockReplicaInfo> info =
          dfs.namenode().GetReplicaInfo(loc.block_id, dn);
      if (!info.ok() || info->layout != hdfs::ReplicaLayout::kPax) continue;
      replicas[b].push_back(ReplicaState{dn, std::move(*info)});
    }
  }
  const auto block_has_clustered = [&](size_t b, int col) {
    for (const ReplicaState& rep : replicas[b]) {
      if (rep.info.has_index() && rep.info.sort_column == col) return true;
    }
    return false;
  };

  // The hottest desired column whose clustered coverage is incomplete.
  int hot = -1;
  for (int col : desired) {
    size_t covered = 0;
    for (size_t b = 0; b < blocks->size(); ++b) {
      if (block_has_clustered(b, col)) ++covered;
    }
    if (covered < blocks->size()) {
      hot = col;
      break;
    }
  }
  if (hot < 0) {
    hot_rounds_.clear();  // fully covered; any later heat-up starts fresh
    return finish();
  }

  // `hot_rounds_` counts *consecutive* rounds (the header's contract):
  // only the currently hot column keeps its streak.
  const int streak = hot_rounds_[hot];
  hot_rounds_.clear();
  hot_rounds_[hot] = streak;
  int& rounds = hot_rounds_[hot];
  ++rounds;
  const bool escalate = rounds > options_.escalate_after_rounds;
  sum.hot_column = hot;
  sum.escalated = escalate;

  for (size_t b = 0; b < blocks->size(); ++b) {
    const hdfs::BlockLocation& loc = (*blocks)[b];
    // What each alive holder currently is.
    bool unclustered_hot = false;
    int unclustered_dn = -1;
    for (const ReplicaState& rep : replicas[b]) {
      if (rep.info.unclustered_column == hot && unclustered_dn < 0) {
        unclustered_hot = true;
        unclustered_dn = rep.dn;
      }
    }
    if (block_has_clustered(b, hot)) continue;   // block already converged
    if (!escalate && unclustered_hot) continue;  // lazy index in place

    // Victim: when escalating, prefer the replica already carrying the
    // lazy unclustered copy (its job is done); otherwise the replica whose
    // current index earns the least decayed benefit — unindexed replicas
    // first, replicas serving a still-desired column last. Ties break on
    // datanode id for determinism.
    int victim = -1;
    if (escalate && unclustered_hot) {
      victim = unclustered_dn;
    } else {
      double best_rank = 0.0;
      for (const ReplicaState& rep : replicas[b]) {
        const bool indexed = rep.info.has_index();
        const double rank =
            (indexed && is_desired(rep.info.sort_column) ? 1e9 : 0.0) +
            (indexed ? benefit[static_cast<size_t>(rep.info.sort_column)]
                     : -1.0);
        if (victim < 0 || rank < best_rank) {
          victim = rep.dn;
          best_rank = rank;
        }
      }
    }
    if (victim < 0) continue;

    MaintenanceTask task;
    task.block_id = loc.block_id;
    task.datanode = victim;
    task.column = hot;
    task.kind = escalate ? MaintenanceTask::Kind::kResortReplica
                         : MaintenanceTask::Kind::kInstallUnclustered;
    tasks.push_back(task);
  }

  // Aggressive replication: extra copies of the hot column's blocks beyond
  // the replication factor, under the storage budget; extras whose column
  // went cold are evicted first (freeing budget for the new hot set).
  if (options_.aggressive_replication &&
      options_.replication_budget_bytes > 0) {
    const uint64_t block_bytes = dfs.config().block_size;
    for (auto it = extras_.begin(); it != extras_.end();) {
      if (it->second == hot) {
        ++it;
        continue;
      }
      if (!dfs.namenode()
               .GetReplicaInfo(it->first.first, it->first.second)
               .ok()) {
        // Never registered (commit failed) or superseded: just forget it.
        it = extras_.erase(it);
        continue;
      }
      MaintenanceTask evict;
      evict.block_id = it->first.first;
      evict.datanode = it->first.second;
      evict.column = it->second;
      evict.kind = MaintenanceTask::Kind::kEvictReplica;
      tasks.push_back(evict);
      ++sum.evictions_planned;
      it = extras_.erase(it);
    }
    // Optimistic budget: queued-but-uncommitted adds count too, so one
    // planning round never over-commits the budget it just spent.
    uint64_t used = block_bytes * extras_.size();
    const int n = dfs.num_datanodes();
    for (size_t b = 0; b < blocks->size(); ++b) {
      if (used + block_bytes > options_.replication_budget_bytes) break;
      const hdfs::BlockLocation& loc = (*blocks)[b];
      // One extra replica per block.
      const auto extra = extras_.lower_bound({loc.block_id, INT_MIN});
      if (extra != extras_.end() && extra->first.first == loc.block_id) {
        continue;
      }
      // Round-robin from the block index so extras spread over the
      // cluster instead of piling onto the lowest node ids.
      int target = -1;
      for (int off = 0; off < n; ++off) {
        const int cand = (static_cast<int>(b) + off) % n;
        if (!dfs.namenode().IsDatanodeAlive(cand)) continue;
        if (dfs.namenode().GetReplicaInfo(loc.block_id, cand).ok()) continue;
        if (extras_.count({loc.block_id, cand}) > 0) continue;
        target = cand;
        break;
      }
      if (target < 0) continue;
      MaintenanceTask add;
      add.block_id = loc.block_id;
      add.datanode = target;
      add.column = hot;
      add.kind = MaintenanceTask::Kind::kAddReplica;
      tasks.push_back(add);
      extras_[{loc.block_id, target}] = hot;
      used += block_bytes;
      ++sum.replicas_planned;
    }
    sum.budget_used_bytes = used;
  }
  return finish();
}

}  // namespace adaptive
}  // namespace hail
