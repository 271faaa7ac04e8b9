#include "mapreduce/input_format.h"

#include <algorithm>
#include <map>

namespace hail {
namespace mapreduce {

namespace {

/// Default Hadoop splitting: one split per block, located at its holders.
void DefaultSplits(const std::vector<hdfs::BlockLocation>& blocks,
                   JobPlan* plan) {
  plan->splits.reserve(blocks.size());
  for (uint32_t i = 0; i < blocks.size(); ++i) {
    InputSplit split;
    split.blocks.push_back(blocks[i].block_id);
    split.block_indexes.push_back(i);
    split.preferred_nodes = blocks[i].datanodes;
    split.logical_bytes = blocks[i].logical_bytes;
    plan->splits.push_back(std::move(split));
  }
}

/// HailSplitting (§4.3): cluster blocks by the node holding the matching
/// index replica, then cut each node's collection into `map_slots` splits.
void HailSplits(hdfs::MiniDfs* dfs,
                const std::vector<hdfs::BlockLocation>& blocks,
                int index_column, JobPlan* plan) {
  // "HailSplitting first clusters the blocks of the input ... by locality.
  // As a result it produces as many collections of blocks as there are
  // datanodes storing at least one block of the given input."
  // A block's home is the first replica a reader would try: a matching
  // index holder, else (e.g. the indexed replica's node died) any holder,
  // which the reader will scan.
  std::map<int, std::vector<uint32_t>> by_node;  // node -> block positions
  for (uint32_t i = 0; i < blocks.size(); ++i) {
    const std::vector<planner::ReplicaCandidate> order =
        planner::OrderReplicas(dfs->namenode(), blocks[i], index_column,
                               /*with_unclustered=*/false, /*local_node=*/-1);
    if (order.empty()) {
      continue;  // unreadable block; surfaced by the reader as an error
    }
    by_node[order.front().datanode].push_back(i);
  }

  // "For each collection of blocks, HailSplitting creates as many input
  // splits as map slots each TaskTracker has."
  for (const auto& [node, members] : by_node) {
    const int slots =
        std::max(1, dfs->cluster().node(node).profile().map_slots);
    const size_t per_split =
        (members.size() + static_cast<size_t>(slots) - 1) /
        static_cast<size_t>(slots);
    for (size_t begin = 0; begin < members.size(); begin += per_split) {
      InputSplit split;
      const size_t end = std::min(members.size(), begin + per_split);
      for (size_t k = begin; k < end; ++k) {
        const uint32_t pos = members[k];
        split.blocks.push_back(blocks[pos].block_id);
        split.block_indexes.push_back(pos);
        split.logical_bytes += blocks[pos].logical_bytes;
      }
      split.preferred_nodes.push_back(node);
      plan->splits.push_back(std::move(split));
    }
  }
}

}  // namespace

Result<JobPlan> ComputeJobPlan(hdfs::MiniDfs* dfs, const JobSpec& spec) {
  JobPlan plan;
  HAIL_ASSIGN_OR_RETURN(plan.file_blocks,
                        dfs->namenode().GetFileBlocks(spec.input_file));
  // The query is resolved here, once per job (§4.3: the job client reads
  // the annotation, the record readers only execute it), so a filter that
  // does not compile fails the job at admission.
  const QueryAnnotation* annotation =
      spec.annotation.has_value() ? &*spec.annotation : nullptr;
  if (annotation != nullptr) {
    plan.index_column = annotation->preferred_index_column();
    HAIL_ASSIGN_OR_RETURN(plan.filter, CompiledPredicate::Compile(
                                           annotation->filter, spec.schema));
  }
  plan.shape = planner::ResolveShape(annotation, spec.schema.num_fields(),
                                     plan.index_column);

  const bool index_scan =
      plan.index_column >= 0 && spec.system != System::kHadoop;

  // Cost-based planning (opt-in): only HAIL uploads produce the stats
  // sidecars, and only a filtered query gives zone maps anything to
  // prune. The per-block planning CPU is recorded separately so a
  // plan-cache hit does not re-pay it.
  if (spec.use_planner && spec.system == System::kHail &&
      annotation != nullptr && annotation->has_filter()) {
    planner::FilePlan fp =
        planner::PlanAccessPaths(*dfs, spec.schema, *annotation,
                                 plan.index_column, plan.file_blocks);
    plan.planned = true;
    plan.decisions = std::move(fp.decisions);
    plan.predicted_cost_seconds = fp.predicted_cost_seconds;
    plan.planner_blocks_skipped = fp.blocks_skipped;
    plan.planner_fresh_stats_blocks = fp.blocks_with_fresh_stats;
    plan.planner_seconds =
        static_cast<double>(plan.file_blocks.size()) *
        dfs->cluster().constants().planner_block_plan_us / 1e6;
  }

  if (spec.system == System::kHail && spec.hail_splitting && index_scan) {
    HailSplits(dfs, plan.file_blocks, plan.index_column, &plan);
  } else {
    // "For those MapReduce jobs performing a full scan, HailSplitting
    // still uses the default Hadoop splitting" — and §6.4 disables
    // HailSplitting entirely.
    DefaultSplits(plan.file_blocks, &plan);
  }

  // Hadoop++ must read each block's header to compute its splits; HAIL
  // keeps that metadata in the namenode ("HAIL does not have to read any
  // block header to compute input splits while Hadoop++ does", §6.4.1).
  if (spec.system == System::kHadoopPP) {
    plan.split_phase_seconds =
        static_cast<double>(plan.file_blocks.size()) *
        dfs->cluster().constants().trojan_split_header_ms / 1000.0;
  }
  return plan;
}

}  // namespace mapreduce
}  // namespace hail
