#include "mapreduce/job_runner.h"

#include <utility>

#include "obs/explain.h"

namespace hail {
namespace mapreduce {

namespace {

/// Names the access path a finished job actually took, from its per-task
/// scan-class counts (the plan picks per replica; a mixed outcome means
/// failover crossed replica classes mid-job).
std::string AccessPathName(const JobResult& r) {
  const bool idx = r.index_scan_tasks > 0;
  const bool uc = r.unclustered_scan_tasks > 0;
  const bool full = r.fallback_scans > 0 ||
                    (!idx && !uc) ||
                    r.index_scan_tasks + r.unclustered_scan_tasks <
                        r.map_tasks;
  int kinds = (idx ? 1 : 0) + (uc ? 1 : 0) + (full ? 1 : 0);
  if (kinds > 1) return "mixed";
  if (idx) return "clustered-index";
  if (uc) return "unclustered-index";
  return "full-scan";
}

}  // namespace

Result<JobResult> JobRunner::Run(const JobSpec& spec,
                                 const RunOptions& options) {
  // A single-job ClusterSession: the session boundary resets resources and
  // revives dead nodes (queries are measured independently of whatever ran
  // before), and the session engine reproduces the pre-session single-job
  // event schedule exactly — simulated outputs are byte-identical.
  // Profile support: the block cache counters are cluster-global, so a
  // per-query view is the delta across this (single-job) session.
  const hdfs::BlockCacheStats cache_before =
      options.profile ? dfs_->block_cache().stats() : hdfs::BlockCacheStats{};
  ClusterSession session(dfs_, options);
  session.Submit(spec);
  HAIL_ASSIGN_OR_RETURN(SessionResult result, session.Run());
  Result<JobResult>& job = result.jobs[0];
  if (options.profile && job.ok()) {
    const hdfs::BlockCacheStats after = dfs_->block_cache().stats();
    obs::QueryProfile p;
    p.job_name = job->job_name;
    p.system = std::string(SystemName(spec.system));
    if (spec.annotation.has_value() && spec.annotation->has_filter()) {
      p.annotation = spec.annotation->filter.ToString(spec.schema);
    }
    p.access_path = AccessPathName(*job);
    p.index_column = job->index_column;
    p.map_tasks = job->map_tasks;
    p.index_scan_tasks = job->index_scan_tasks;
    p.unclustered_scan_tasks = job->unclustered_scan_tasks;
    p.fallback_scans = job->fallback_scans;
    p.blocks_scanned = job->blocks_scanned;
    p.blocks_skipped = job->blocks_skipped;
    p.planned = job->planned;
    p.predicted_seconds = job->predicted_cost_seconds;
    p.zone_skipped_blocks = job->zone_skipped_blocks;
    p.rows_skipped = job->rows_skipped;
    p.rows_in = job->records_seen;
    p.rows_out = job->records_qualifying;
    p.output_rows = job->output_count;
    p.cache_verify_hits = after.verify_hits - cache_before.verify_hits;
    p.cache_verify_misses = after.verify_misses - cache_before.verify_misses;
    p.cache_artifact_hits = after.artifact_hits - cache_before.artifact_hits;
    p.cache_artifact_misses =
        after.artifact_misses - cache_before.artifact_misses;
    p.cache_index_decodes = after.index_decodes - cache_before.index_decodes;
    p.cost = job->cost;
    p.billed_seconds = job->billed_cost_seconds;
    p.end_to_end_seconds = job->end_to_end_seconds;
    job->profile = std::move(p);
  }
  return std::move(job);
}

}  // namespace mapreduce
}  // namespace hail
