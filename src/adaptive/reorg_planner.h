/// \file reorg_planner.h
/// \brief Decides *when* and *how* to reorganize replicas online.
///
/// Policy (mirroring LIAH's lazy adaptivity on top of the paper's
/// aggressive upload-time indexing):
///  1. Nothing happens while the observed workload's regret — the weight
///     fraction served without any index — stays under `regret_threshold`.
///  2. When it crosses, the planner computes the current best per-replica
///     sort-column assignment (index_advisor::SuggestSortColumns over the
///     decayed log) and picks the hottest desired column with incomplete
///     clustered coverage.
///  3. First response is *incremental*: install a cheap per-block
///     UnclusteredIndex on the hot column (one read + key sort + write per
///     block, no data movement). Queries immediately leave the full-scan
///     path.
///  4. If the column stays hot — the unclustered share keeps paying random
///     I/O for `escalate_after_rounds` more planning rounds — the planner
///     pays for the real thing: per-block re-sorts of a victim replica
///     (the one whose current index earns the least decayed benefit) to
///     the hot column, with a fresh clustered index.
///
/// Planning is deterministic: victim choice ties break on datanode id,
/// block order follows the namenode's file listing.

#pragma once

#include <map>
#include <string>
#include <vector>

#include "adaptive/reorg.h"
#include "adaptive/workload_observer.h"
#include "schema/schema.h"

namespace hail {
namespace adaptive {

/// The planner idles when the log's total decayed weight falls below
/// this: once a workload shifts to unfiltered full scans, the stale
/// filtered entries decay toward zero and stop justifying reorganization
/// (regret is a weight *ratio*, so it alone never ages out).
inline constexpr double kMinWorkloadWeight = 0.05;

struct PlannerOptions {
  /// Regret (weight share served by full scans) that triggers action.
  double regret_threshold = 0.25;
  /// Planning rounds a column must stay hot (served unclustered or
  /// scanned) before escalating from unclustered install to full re-sort;
  /// 0 re-sorts straight away.
  int escalate_after_rounds = 2;
  /// Aggressive replication (paper §7 "aggressive elephants"): once a hot
  /// column is identified, add one extra replica of each of its blocks
  /// *beyond* the replication factor — copied from the best (clustered)
  /// source onto a node not yet holding the block — and evict extras
  /// whose column went cold, all under `replication_budget_bytes` of
  /// extra storage. The planner only ever evicts replicas it added
  /// itself; baseline replicas are untouched (and the commit path refuses
  /// to drop below the replication factor regardless).
  bool aggressive_replication = false;
  /// Total extra storage for added replicas, in *real* (in-process) bytes,
  /// accounted at the DFS block size. 0 disables adds.
  uint64_t replication_budget_bytes = 0;
};

/// \brief What one planning round decided (introspection + tests/bench).
struct PlanSummary {
  double full_scan_regret = 0.0;
  double unclustered_share = 0.0;
  /// Hot column this round acted on; -1 when idle.
  int hot_column = -1;
  bool escalated = false;  // true = re-sort stage, false = unclustered
  size_t tasks_emitted = 0;
  /// Aggressive-replication decisions this round.
  size_t replicas_planned = 0;
  size_t evictions_planned = 0;
  /// Budget consumed by still-registered extras after this round.
  uint64_t budget_used_bytes = 0;
};

/// Emits one kBuildStats maintenance task per block of \p file whose
/// planner stats sidecar is missing or stale (upload predates stats, or a
/// repair/reorg commit bumped the block's mutation count). The task reads
/// the lowest-id alive PAX replica; blocks without one are left for a
/// later round (a repair will restore a source). Deterministic: follows
/// the namenode's file listing, datanode ids ascending.
std::vector<MaintenanceTask> PlanStatsBackfill(const hdfs::MiniDfs& dfs,
                                               const std::string& file);

/// \brief Stateful planner: one instance per adaptively managed file.
class ReorgPlanner {
 public:
  explicit ReorgPlanner(PlannerOptions options = {}) : options_(options) {}

  /// Runs one planning round against the current namenode state and the
  /// observer's decayed workload. Returns the maintenance tasks to
  /// enqueue (empty when below threshold or already converged).
  std::vector<MaintenanceTask> Plan(const hdfs::MiniDfs& dfs,
                                    const Schema& schema,
                                    const std::string& file,
                                    const WorkloadObserver& observer,
                                    PlanSummary* summary = nullptr);

  /// Rounds the column has been hot in a row (escalation bookkeeping).
  int hot_rounds(int column) const {
    auto it = hot_rounds_.find(column);
    return it == hot_rounds_.end() ? 0 : it->second;
  }

 private:
  PlannerOptions options_;
  std::map<int, int> hot_rounds_;
  /// Extra replicas this planner added: (block, datanode) -> hot column at
  /// add time. Budget is recomputed each round against what is still
  /// registered in the namenode (commits can fail, repairs can supersede),
  /// and only these entries are ever eviction candidates.
  std::map<std::pair<uint64_t, int>, int> extras_;
};

}  // namespace adaptive
}  // namespace hail
