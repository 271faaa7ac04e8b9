/// \file access_planner.h
/// \brief Which replica, on which path, at what cost: the one place that
/// decides and prices block reads.
///
/// Readers execute, they do not decide: every reader walks the replica
/// order of `OrderReplicas` (HAIL §4.3 getHostsWithIndex, then the
/// adaptive unclustered holders, then the plain holders, local first).
/// The HAIL reader bills what it read with `CostBlockRead`, and
/// `PlanAccessPaths` asks the same two functions, fed from stats instead
/// of an opened block; the text and Hadoop++ readers bill their own
/// terms.
///
/// For every block of a job's input the planner consults the namenode's
/// stats sidecar (planner/block_stats.h) and the replica directory, then
/// picks the cheapest sound path under the same seek/transfer/decode cost
/// constants the readers bill against:
///
///   - kSkipZoneMap when the filter is provably disjoint from the block's
///     min/max (and the block holds no bad records — those must reach the
///     mapper regardless of the filter);
///   - kClusteredIndex whenever a replica with the matching sorted index
///     is alive (a sparse-index range read never costs more than a full
///     pass in this billing model);
///   - kUnclusteredIndex when only the adaptive dense index exists and
///     the estimated selectivity clears the same threshold the runtime
///     heuristic uses — predicting (and avoiding) the reader's
///     "probe, then abandon" dead weight;
///   - kFullScan otherwise.
///
/// Missing or stale stats degrade to worst-case assumptions (never a
/// skip), so planning is always sound, merely less sharp.

#pragma once

#include <optional>
#include <vector>

#include "hdfs/dfs_client.h"
#include "planner/access_path.h"
#include "query/predicate.h"
#include "schema/schema.h"

namespace hail {
namespace planner {

/// \brief One replica a block can be read from, and the path it offers
/// (kClusteredIndex, kUnclusteredIndex or kFullScan).
struct ReplicaCandidate {
  int datanode = -1;
  AccessPath path = AccessPath::kFullScan;
};

/// The block's replicas in the order a reader tries them: alive holders
/// clustered on \p index_column; then, when \p with_unclustered, alive
/// holders with an unclustered index on it; then the plan-time holders in
/// \p loc. \p local_node comes first within each class, and each node is
/// listed once, in its first class. \p index_column -1 lists only the
/// plan-time holders.
std::vector<ReplicaCandidate> OrderReplicas(const hdfs::Namenode& nn,
                                            const hdfs::BlockLocation& loc,
                                            int index_column,
                                            bool with_unclustered,
                                            int local_node);

/// \brief What a query touches in every block, resolved once per query.
struct QueryShape {
  std::vector<int> proj;         // projected columns (all when none given)
  std::vector<int> filter_cols;  // columns the filter references
  std::vector<int> accessed;     // filter columns, then the projected rest
  std::optional<KeyRange> index_range;  // filter range on the index column
};

/// \p annotation may be null (no projection, no filter); \p num_columns
/// is the schema width an empty projection expands to.
QueryShape ResolveShape(const QueryAnnotation* annotation, int num_columns,
                        int index_column);

/// \brief One block read as the cost model sees it, in logical
/// (paper-scale) units: the reader fills it from the block it read, the
/// planner from the block's stats.
struct BlockRead {
  AccessPath path = AccessPath::kFullScan;  // never kSkipZoneMap
  /// Key type of the index column (index paths and an abandoned probe).
  FieldType key_type = FieldType::kInt32;
  /// Values-only bytes of every column of the block.
  std::vector<uint64_t> column_bytes;
  uint64_t records = 0;
  /// Records the CPU looks at: the key range (clustered), the index's
  /// candidate rows (unclustered), every record (full scan).
  uint64_t range_records = 0;
  uint64_t qualifying = 0;
  /// Clustered: share of the block's rows inside the key range.
  double range_fraction = 0.0;
  /// Full scan: an unclustered probe read the dense index first and found
  /// it too unselective.
  bool abandoned_probe = false;
};

/// \brief Billed cost of one block read, split the way readers book it.
struct ReadCost {
  uint64_t bytes = 0;
  double seek_s = 0.0;
  double transfer_s = 0.0;
  /// CRC + predicate + reconstruction of the qualifying rows + map calls.
  double cpu_s = 0.0;
  /// Full scans decode every record, not just the qualifying ones.
  double scan_cpu_s = 0.0;
};

/// Prices \p read: disk terms on \p disk (the replica's node), CPU terms
/// on \p cpu (the task's node).
ReadCost CostBlockRead(const BlockRead& read, const QueryShape& shape,
                       const sim::CostModel& disk, const sim::CostModel& cpu,
                       const sim::CostConstants& c);

/// \brief Per-block decisions plus file-level prediction aggregates.
struct FilePlan {
  /// One decision per entry of the file's block list, in block order.
  std::vector<AccessDecision> decisions;
  /// Sum of the per-block cost estimates (zone-map skips contribute 0).
  double predicted_cost_seconds = 0.0;
  /// Blocks proven empty by their zone maps.
  uint64_t blocks_skipped = 0;
  /// Blocks whose decision was informed by fresh statistics.
  uint64_t blocks_with_fresh_stats = 0;
};

/// Plans every block of \p blocks for a query with \p annotation whose
/// preferred index column is \p index_column (-1 for none). Reads only
/// namenode metadata — the caller bills the per-block planning CPU
/// (CostConstants::planner_block_plan_us) into the split phase.
FilePlan PlanAccessPaths(const hdfs::MiniDfs& dfs, const Schema& schema,
                         const QueryAnnotation& annotation, int index_column,
                         const std::vector<hdfs::BlockLocation>& blocks);

}  // namespace planner
}  // namespace hail
