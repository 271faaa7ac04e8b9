/// \file job_runner.h
/// \brief Event-driven JobTracker/TaskTracker execution (paper §4.2, §6.4).
///
/// Faithful to Hadoop 0.20.203's scheduling behaviour, which the paper's
/// headline result depends on: the JobTracker hands each TaskTracker one
/// map task per heartbeat (3 s), plus an out-of-band heartbeat shortly
/// after a slot frees. For a 3200-block input this dispatch pattern — not
/// I/O — dominates short jobs (Fig. 6c), which is exactly what
/// HailSplitting removes by collapsing the input to #nodes x #slots
/// splits (Fig. 9).
///
/// Fault tolerance (§6.4.3): a FaultPlan kill can fire at a progress
/// fraction; the failure is detected after the expiry interval, running
/// tasks on the node are lost, completed map tasks on it are re-executed,
/// and HAIL tasks whose matching-index replica died fall back to scanning.
///
/// Execution engine: the *functional* side of each map task (replica
/// read, CRC verification, filtering, tuple reconstruction) is pure with
/// respect to the simulation — its result depends only on the split, the
/// assigned node and the DFS state at assignment time. The parallel
/// mode exploits this: AssignTask dispatches the read to a fixed-size
/// worker pool and the event loop joins the future no later than the
/// task's earliest possible completion instant, reserving the completion
/// event's FIFO slot at assignment time. Serial mode runs the same loop
/// and does the read inline at assignment. Scheduling decisions, the
/// simulated clock and all TaskCost accounting stay on the event thread,
/// so every simulated number (durations, per-task stats, JobResults) is
/// bit-identical between the modes — only wall-clock time changes.
///
/// Since the shared-cluster scheduler landed (mapreduce/scheduler.h),
/// JobRunner::Run is a one-job ClusterSession: the engine itself lives in
/// scheduler.cc and also admits multiple jobs (queries + uploads + the
/// adaptive manager's background maintenance) onto one simulated clock
/// under a FIFO or weighted-fair slot policy. The single-job event
/// schedule — and therefore every simulated output — is unchanged.

#pragma once

#include "hdfs/dfs_client.h"
#include "mapreduce/job.h"
#include "mapreduce/scheduler.h"

namespace hail {
namespace mapreduce {

/// \brief Per-run options: every session option (fault plan,
/// speculation, execution mode, adaptive loop, tracing, plan cache) plus
/// the single-job EXPLAIN profile.
struct RunOptions : SessionOptions {
  /// Attach an EXPLAIN-style QueryProfile (obs/explain.h) to the
  /// JobResult: access path, blocks scanned vs skipped, rows through the
  /// kernels, cache hits, and the per-bucket billed-cost breakdown.
  bool profile = false;
};

/// \brief Runs MapReduce jobs against a MiniDfs cluster.
class JobRunner {
 public:
  explicit JobRunner(hdfs::MiniDfs* dfs) : dfs_(dfs) {}

  /// Executes one job start-to-finish on a fresh simulated clock, as a
  /// single-job ClusterSession (mapreduce/scheduler.h) that receives
  /// `options` unchanged. The session boundary resets node resources
  /// (queries are measured independently of the upload that preceded
  /// them) and revives dead nodes; failure injection then applies
  /// `options.fault_plan`.
  Result<JobResult> Run(const JobSpec& spec, const RunOptions& options = {});

 private:
  hdfs::MiniDfs* dfs_;
};

}  // namespace mapreduce
}  // namespace hail
