#include "planner/access_planner.h"

#include <algorithm>

#include "index/clustered_index.h"
#include "planner/block_stats.h"

namespace hail {
namespace planner {

std::vector<ReplicaCandidate> OrderReplicas(const hdfs::Namenode& nn,
                                            const hdfs::BlockLocation& loc,
                                            int index_column,
                                            bool with_unclustered,
                                            int local_node) {
  std::vector<ReplicaCandidate> out;
  out.reserve(loc.datanodes.size());
  const auto add_class = [&](const std::vector<int>& hosts, AccessPath path) {
    const auto add = [&](int dn) {
      for (const ReplicaCandidate& c : out) {
        if (c.datanode == dn) return;
      }
      out.push_back({dn, path});
    };
    for (int dn : hosts) {
      if (dn == local_node) add(dn);
    }
    for (int dn : hosts) add(dn);
  };
  if (index_column >= 0) {
    add_class(nn.GetHostsWithIndex(loc.block_id, index_column),
              AccessPath::kClusteredIndex);
    if (with_unclustered) {
      add_class(nn.GetHostsWithUnclusteredIndex(loc.block_id, index_column),
                AccessPath::kUnclusteredIndex);
    }
  }
  add_class(loc.datanodes, AccessPath::kFullScan);
  return out;
}

QueryShape ResolveShape(const QueryAnnotation* annotation, int num_columns,
                        int index_column) {
  QueryShape shape;
  if (annotation != nullptr && !annotation->projection.empty()) {
    shape.proj = annotation->projection;
  } else {
    for (int i = 0; i < num_columns; ++i) shape.proj.push_back(i);
  }
  if (annotation != nullptr) {
    shape.filter_cols = annotation->filter.ReferencedColumns();
    if (index_column >= 0) {
      shape.index_range = annotation->filter.KeyRangeFor(index_column);
    }
  }
  shape.accessed = shape.filter_cols;
  for (int c : shape.proj) {
    if (std::find(shape.accessed.begin(), shape.accessed.end(), c) ==
        shape.accessed.end()) {
      shape.accessed.push_back(c);
    }
  }
  return shape;
}

ReadCost CostBlockRead(const BlockRead& read, const QueryShape& shape,
                       const sim::CostModel& disk, const sim::CostModel& cpu,
                       const sim::CostConstants& c) {
  const auto column_bytes = [&](int column) -> uint64_t {
    return column >= 0 && column < static_cast<int>(read.column_bytes.size())
               ? read.column_bytes[static_cast<size_t>(column)]
               : 0;
  };
  ReadCost out;
  uint64_t seeks = 1;  // the index, or the one sequential pass
  if (read.path == AccessPath::kUnclusteredIndex) {
    // §3.5's unclustered economics: the dense index (one key+rowid entry
    // per record) is read in full, then every candidate record costs a
    // random partition-granular access per touched column. Pays off only
    // for very selective queries — exactly the paper's argument.
    out.bytes += LogicalDenseIndexBytes(read.records, read.key_type);
    const uint64_t partitions = read.records / c.index_partition_logical + 1;
    // Candidates land in random partitions; with n candidates over P
    // partitions at most min(n, P) distinct partitions are touched.
    const uint64_t touched = std::min<uint64_t>(read.range_records, partitions);
    for (int colm : shape.accessed) {
      out.bytes += touched * (column_bytes(colm) / partitions);
      seeks += touched;
    }
  } else if (read.path == AccessPath::kClusteredIndex) {
    // Header + index root: read in full, a few KB at paper scale.
    out.bytes += LogicalSparseIndexBytes(read.records,
                                         c.index_partition_logical,
                                         read.key_type, /*pointer_bytes=*/4);
    if (read.range_fraction > 0.0) {
      for (int colm : shape.accessed) {
        out.bytes += static_cast<uint64_t>(
            read.range_fraction * static_cast<double>(column_bytes(colm)));
        ++seeks;  // each minipage slice is a separate extent
      }
    }
  } else {
    // Full scan of the PAX replica: every minipage, one pass. Billed on
    // values-only bytes (the real offset side-cars are scaled-down dense;
    // at paper scale they are negligible).
    for (uint64_t bytes : read.column_bytes) out.bytes += bytes;
    if (read.abandoned_probe) {
      out.bytes += LogicalDenseIndexBytes(read.records, read.key_type);
      ++seeks;
    }
  }
  out.seek_s =
      c.block_open_ms / 1000.0 + static_cast<double>(seeks) * disk.DiskSeek();
  out.transfer_s = disk.DiskTransfer(out.bytes);
  out.cpu_s = cpu.Crc(out.bytes) + cpu.PredicateEval(read.range_records) +
              cpu.Reconstruct(read.qualifying,
                              static_cast<int>(shape.proj.size())) +
              cpu.MapCalls(read.qualifying);
  if (read.path == AccessPath::kFullScan) {
    out.scan_cpu_s = cpu.Reconstruct(
        read.range_records, static_cast<int>(read.column_bytes.size()));
  }
  return out;
}

FilePlan PlanAccessPaths(const hdfs::MiniDfs& dfs, const Schema& schema,
                         const QueryAnnotation& annotation, int index_column,
                         const std::vector<hdfs::BlockLocation>& blocks) {
  const hdfs::Namenode& nn = dfs.namenode();
  const sim::CostConstants& c = dfs.cluster().constants();
  const QueryShape shape =
      ResolveShape(&annotation, schema.num_fields(), index_column);
  // Stats-based estimates use node 0's cost model: path choice only needs
  // relative costs, and a fixed node keeps plans independent of
  // scheduling.
  const sim::CostModel& cm = dfs.cluster().node(0).cost();
  const double scale = dfs.config().scale_factor;

  FilePlan plan;
  plan.decisions.resize(blocks.size());
  for (size_t i = 0; i < blocks.size(); ++i) {
    const hdfs::BlockLocation& loc = blocks[i];
    AccessDecision& d = plan.decisions[i];

    std::optional<BlockStats> stats;
    Result<std::string_view> blob = nn.GetBlockStats(loc.block_id);
    if (blob.ok()) {
      Result<BlockStats> parsed = BlockStats::Deserialize(*blob);
      if (parsed.ok()) stats.emplace(std::move(*parsed));
    }

    // The index paths a reader would find, from its own replica order.
    bool clustered_alive = false;
    bool unclustered_alive = false;
    if (shape.index_range.has_value()) {
      for (const ReplicaCandidate& r :
           OrderReplicas(nn, loc, index_column, /*with_unclustered=*/true,
                         /*local_node=*/-1)) {
        clustered_alive |= r.path == AccessPath::kClusteredIndex;
        unclustered_alive |= r.path == AccessPath::kUnclusteredIndex;
      }
    }

    if (!stats.has_value()) {
      // Missing or stale sidecar: worst-case assumptions. Never a skip;
      // the cost estimate is a sequential pass over the block's logical
      // extent (what the reader bills when no index helps).
      d.stats_fresh = false;
      d.est_selectivity = 1.0;
      d.path = clustered_alive ? AccessPath::kClusteredIndex
                               : AccessPath::kFullScan;
      d.est_cost_seconds = c.block_open_ms / 1000.0 + cm.DiskSeek() +
                           cm.DiskTransfer(loc.logical_bytes) +
                           cm.Crc(loc.logical_bytes);
      plan.predicted_cost_seconds += d.est_cost_seconds;
      continue;
    }

    d.stats_fresh = true;
    d.block_records = stats->num_records;
    ++plan.blocks_with_fresh_stats;

    // Combined qualifying selectivity: product over the filter columns'
    // range estimates (independence assumed). A provably disjoint column
    // makes the whole conjunction empty.
    bool disjoint = false;
    double sel_combined = 1.0;
    for (int colm : shape.filter_cols) {
      const std::optional<KeyRange> kr = annotation.filter.KeyRangeFor(colm);
      if (!kr.has_value()) continue;  // only !=-terms: no range to estimate
      if (stats->RangeDisjoint(colm, *kr)) disjoint = true;
      sel_combined *= stats->EstimateSelectivity(colm, *kr);
    }

    if (disjoint && stats->num_bad_records == 0) {
      // No row can qualify and no bad record forces the block open: the
      // block is never read. Billed only the per-block planning CPU.
      d.path = AccessPath::kSkipZoneMap;
      d.est_selectivity = 0.0;
      d.est_cost_seconds = 0.0;
      ++plan.blocks_skipped;
      continue;
    }

    const double sel_index =
        shape.index_range.has_value()
            ? stats->EstimateSelectivity(index_column, *shape.index_range)
            : 1.0;
    if (clustered_alive) {
      // A sparse-index range read is never costlier than the full pass in
      // this billing model, so keep the clustered replica when it exists.
      d.path = AccessPath::kClusteredIndex;
    } else if (unclustered_alive &&
               sel_index <= c.unclustered_max_selectivity) {
      d.path = AccessPath::kUnclusteredIndex;
    } else {
      // Either no index at all, or the dense index would be abandoned at
      // run time (predicted candidates above the threshold): plan the
      // scan outright so the reader does not pay the probe first.
      d.path = AccessPath::kFullScan;
    }
    d.est_selectivity = sel_combined;

    // Predicted billed cost: the read the HAIL reader would bill on this
    // path, from stats instead of the opened block.
    BlockRead read;
    read.path = d.path;
    if (d.path != AccessPath::kFullScan) {
      read.key_type = schema.field(index_column).type;
    }
    for (const ColumnStats& col : stats->columns) {
      read.column_bytes.push_back(static_cast<uint64_t>(
          static_cast<double>(col.value_bytes) * scale));
    }
    read.records = static_cast<uint64_t>(
        static_cast<double>(stats->num_records) * scale);
    read.range_records =
        d.path == AccessPath::kFullScan
            ? read.records
            : static_cast<uint64_t>(sel_index *
                                    static_cast<double>(read.records));
    read.qualifying = static_cast<uint64_t>(
        sel_combined * static_cast<double>(read.records));
    read.range_fraction = sel_index;
    const ReadCost cost = CostBlockRead(read, shape, cm, cm, c);
    d.est_cost_seconds =
        cost.seek_s + cost.transfer_s + (cost.cpu_s + cost.scan_cpu_s);
    plan.predicted_cost_seconds += d.est_cost_seconds;
  }
  return plan;
}

}  // namespace planner
}  // namespace hail
