/// \file adaptive_manager.h
/// \brief The closed adaptive-indexing loop, one instance per managed file.
///
/// Wiring (see README "The adaptive path"):
///
///   ClusterSession --ObserveJob--> WorkloadObserver --ToWorkload/regret-->
///   ReorgPlanner --MaintenanceTasks--> pending queue --TakeTasks-->
///   session engine (idle slots, IsConverged skip) --Prepare/CommitReorg-->
///   datanode StoreBlock (generation bump -> BlockCache invalidation) +
///   namenode Dir_rep update --> next query's getHostsWithIndex finds the
///   new index.
///
/// The manager is deliberately passive: it never runs work itself. The
/// session engine (mapreduce/scheduler.h; a JobRunner run is a one-job
/// session) takes the pending queue at session start and, with
/// `online_adaptation`, again after every online ObserveJob, and drains
/// it into idle map slots strictly below foreground work, as background
/// tasks of the same kind as self-healing repairs (which a node runs
/// first). Tasks still queued or running when the session ends (node
/// died, session over) come back through ReturnUnfinished and wait for
/// the next session, so a reorganization interrupted by a node kill
/// resumes after the revive.

#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "adaptive/reorg_planner.h"
#include "adaptive/workload_observer.h"

namespace hail {
namespace adaptive {

struct AdaptiveConfig {
  WorkloadObserver::Options observer;
  PlannerOptions planner;
};

/// \brief Observer + planner + pending maintenance queue for one file.
class AdaptiveManager {
 public:
  AdaptiveManager(hdfs::MiniDfs* dfs, Schema schema, std::string file,
                  AdaptiveConfig config = AdaptiveConfig());

  // ---- session engine hooks ----

  /// Called at session start and, with online adaptation, after every
  /// online ObserveJob: hands every pending maintenance task to the engine
  /// and empties the queue. A later planning round therefore re-emits the
  /// rewrites that have not committed yet; the engine skips a copy whose
  /// target already has its layout (IsConverged) at assignment.
  std::vector<MaintenanceTask> TakeTasks();

  /// Called at session end with the tasks still queued or running (never
  /// the converged ones); they are requeued ahead of newly planned work.
  void ReturnUnfinished(std::vector<MaintenanceTask> tasks);

  /// Records the query in the observer and runs one planning round against
  /// the current directory state. Called for each finished query while
  /// the session runs (online adaptation), else in the session epilogue in
  /// completion order (after ReturnUnfinished). Ignores jobs over other
  /// files or without an annotation.
  void ObserveJob(const mapreduce::JobSpec& spec,
                  const mapreduce::JobResult& result);

  /// Queues a kBuildStats task for every block of the file whose stats
  /// sidecar is missing or stale (see PlanStatsBackfill). The tasks ride
  /// the same idle-slot maintenance queue as reorgs. Returns how many
  /// were newly queued (already-pending duplicates are dropped).
  size_t RequestStatsBackfill();

  /// Completion bookkeeping (counters only; the engine already committed).
  void NoteCompleted(uint32_t completed, uint32_t failed) {
    completed_total_ += completed;
    failed_total_ += failed;
  }

  // ---- introspection (tests, bench, demos) ----
  const WorkloadObserver& observer() const { return observer_; }
  const PlanSummary& last_plan() const { return last_plan_; }
  size_t pending_tasks() const { return pending_.size(); }
  uint64_t planned_total() const { return planned_total_; }
  uint64_t completed_total() const { return completed_total_; }
  uint64_t failed_total() const { return failed_total_; }
  const std::string& file() const { return file_; }
  const Schema& schema() const { return schema_; }

 private:
  /// Returns how many tasks were actually added (duplicates are dropped).
  size_t Enqueue(std::vector<MaintenanceTask> tasks, bool front);
  bool IsPending(const MaintenanceTask& task) const;
  /// Drops queued tasks whose block meanwhile gained an alive clustered
  /// replica on the task's column (e.g. a queued unclustered install made
  /// redundant by an escalated re-sort).
  void PruneConverged();

  hdfs::MiniDfs* dfs_;
  Schema schema_;
  std::string file_;
  WorkloadObserver observer_;
  ReorgPlanner planner_;
  std::deque<MaintenanceTask> pending_;
  PlanSummary last_plan_;
  uint64_t planned_total_ = 0;
  uint64_t completed_total_ = 0;
  uint64_t failed_total_ = 0;
};

}  // namespace adaptive
}  // namespace hail
