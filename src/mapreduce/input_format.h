/// \file input_format.h
/// \brief Split computation: default Hadoop policy vs HailSplitting (§4.3).
///
/// Default: one input split per HDFS block, located at the block's
/// replica holders. HailSplitting: for index-scan jobs, cluster blocks by
/// the node holding their matching-index replica, then create as many
/// splits per node as it has map slots — collapsing thousands of map
/// tasks into (#nodes x #slots), which §6.5 shows is worth up to 68x.

#pragma once

#include <cstdint>
#include <vector>

#include "hdfs/dfs_client.h"
#include "mapreduce/job.h"
#include "planner/access_planner.h"
#include "query/vectorized.h"

namespace hail {
namespace mapreduce {

/// \brief One unit of map-task input.
struct InputSplit {
  /// Block ids this split covers (1 for default splitting, many for
  /// HailSplitting).
  std::vector<uint64_t> blocks;
  /// Position of each block within the file (text boundary handling).
  std::vector<uint32_t> block_indexes;
  /// Nodes the scheduler should prefer (replica holders, or the node
  /// with the matching index under HAIL scheduling).
  std::vector<int> preferred_nodes;
  uint64_t logical_bytes = 0;
};

/// \brief Splits plus everything a reader needs about the file and the
/// job's query.
struct JobPlan {
  std::vector<InputSplit> splits;
  /// All blocks of the input file in order (readers chase row tails across
  /// block boundaries; the engine resolves next-block ids from here).
  std::vector<hdfs::BlockLocation> file_blocks;
  /// Simulated cost of the split phase itself, billed before scheduling
  /// starts (Hadoop++ pays per-block header reads here).
  double split_phase_seconds = 0.0;
  /// Index column the job will use, -1 for full scans.
  int index_column = -1;
  /// The job's query, resolved against spec.schema: projected and filter
  /// columns, and the filter's key range on index_column.
  planner::QueryShape shape;
  /// The job's filter, compiled against spec.schema (empty: every row
  /// qualifies). Readers on pool threads share it read-only.
  CompiledPredicate filter;

  // -- cost-based planning (spec.use_planner; see planner/access_planner.h)
  /// True when the access-path planner ran for this job.
  bool planned = false;
  /// One decision per file_blocks entry (same order); empty when not
  /// planned. Readers index it by a split's block_indexes.
  std::vector<planner::AccessDecision> decisions;
  /// Per-block planning CPU (constants().planner_block_plan_us × blocks).
  /// Not folded into split_phase_seconds: a plan-cache hit re-uses the
  /// plan without re-paying it.
  double planner_seconds = 0.0;
  /// Sum of the per-block cost estimates (the admission/observer signal).
  double predicted_cost_seconds = 0.0;
  /// Blocks the zone maps proved empty (binding skips).
  uint64_t planner_blocks_skipped = 0;
  /// Blocks planned from fresh statistics.
  uint64_t planner_fresh_stats_blocks = 0;
};

/// Computes the plan for a job: resolves its query once (InvalidArgument
/// when the filter does not compile against spec.schema), then default
/// splitting for full scans and for kHadoop/kHadoopPP; HailSplitting for
/// kHail jobs with spec.hail_splitting and an index-serviceable filter.
Result<JobPlan> ComputeJobPlan(hdfs::MiniDfs* dfs, const JobSpec& spec);

}  // namespace mapreduce
}  // namespace hail
