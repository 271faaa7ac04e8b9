/// \file replay.h
/// \brief Replays of an end-to-end call's inputs through each layer's
/// public entry point, timed as spans under the call's root span.
///
/// Replays run after the call returned and read the DFS state as it
/// stands then, so the root's uncovered remainder is an estimate of the
/// time the call spent outside the replayed layers.

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "hail/hail_client.h"
#include "hdfs/dfs_client.h"
#include "mapreduce/input_format.h"
#include "mapreduce/job.h"
#include "spans.h"
#include "util/thread_pool.h"

namespace perfbench {

/// Work the ingest replay pushed through the layers.
struct IngestTally {
  uint64_t text_bytes = 0;
  uint64_t serialized_bytes = 0;
  uint64_t bad_records = 0;
  uint64_t replica_bytes = 0;
};

/// Cuts, parses, serialises, builds stats for and builds every replica of
/// every block of \p specs, as HailParallelUpload did.
hail::Status ReplayUpload(SpanLog* log, uint64_t parent, uint64_t op,
                          const hail::hdfs::MiniDfs& dfs,
                          const hail::HailUploadConfig& config,
                          const std::vector<hail::hdfs::ParallelUploadSpec>& specs,
                          IngestTally* tally);

/// What the stored replicas of some files hold.
struct StoredTally {
  uint64_t replicas = 0;
  uint64_t replica_bytes = 0;
  /// file -> block position -> records of each replica of that block.
  std::map<std::string, std::vector<std::vector<uint32_t>>> records;
};

/// Reads every replica of \p files through Datanode::ReadBlockVerified and
/// opens it (HailBlockView::Open / OpenPax / ReadIndex). With a log, each
/// call is recorded as a probe span under \p parent, plus a standalone
/// crc32c::Value over the replica bytes.
hail::Status ProbeStoredReplicas(SpanLog* log, uint64_t parent, uint64_t op,
                                 const hail::hdfs::MiniDfs& dfs,
                                 const std::vector<std::string>& files,
                                 StoredTally* tally);

/// Work the query replay pushed through the layers.
struct QueryTally {
  uint64_t plans = 0;
  uint64_t plan_blocks = 0;
  uint64_t splits = 0;
  uint64_t split_blocks = 0;
  uint64_t blocks_opened = 0;
  uint64_t block_rows = 0;
  uint64_t range_rows = 0;
  uint64_t blocks_pruned = 0;
  uint64_t rows_filtered = 0;
  uint64_t rows_qualifying = 0;
  double split_phase_s = 0.0;
  double planner_s = 0.0;
  /// Jobs whose blocks were replayed under their ReadSplit spans, and the
  /// ids of those spans.
  uint64_t block_jobs = 0;
  std::vector<uint64_t> block_read_spans;
};

/// Plans \p spec (ComputeJobPlan, and planner::PlanAccessPaths when the
/// job is planned); records the plan span under \p parent.
hail::Result<hail::mapreduce::JobPlan> ReplayPlan(
    SpanLog* log, uint64_t parent, uint64_t op, hail::hdfs::MiniDfs* dfs,
    const hail::mapreduce::JobSpec& spec, QueryTally* tally);

/// Reads every split of \p plan through MakeRecordReader(...)->ReadSplit
/// on \p pool (inline when null). With \p blocks, then replays each
/// split's index probe (ClusteredIndex::Lookup on Predicate::KeyRangeFor)
/// and filter (CompiledPredicate::Compile / FilterBlock) as children of
/// its ReadSplit span, with the block opens as probe spans.
hail::Status ReplayReads(SpanLog* log, uint64_t parent, uint64_t op,
                         hail::hdfs::MiniDfs* dfs,
                         const hail::mapreduce::JobSpec& spec,
                         const hail::mapreduce::JobPlan& plan,
                         hail::ThreadPool* pool, bool blocks,
                         QueryTally* tally);

/// Filters every block of \p file in full with \p spec's predicate (one
/// replica each), as a scan that no index narrows: Compile + FilterBlock
/// as probe spans under \p parent.
hail::Status ProbeFullScan(SpanLog* log, uint64_t parent, uint64_t op,
                           const hail::hdfs::MiniDfs& dfs,
                           const std::string& file,
                           const hail::mapreduce::JobSpec& spec,
                           QueryTally* tally);

}  // namespace perfbench
