#include <algorithm>

#include "hail/hail_block.h"
#include "mapreduce/cached_block.h"
#include "mapreduce/record_reader.h"
#include "planner/access_planner.h"
#include "query/vectorized.h"

namespace hail {
namespace mapreduce {

namespace {

/// \brief Once-per-block-version decode state shared across tasks and
/// queries via the cluster BlockCache: parsed HAIL layout, opened PAX
/// view, and the lazily deserialised clustered index (§4.3 reads it
/// "entirely into main memory" — once, not once per task).
struct CachedHailBlock : CachedIndexedBlock<HailBlockView, ClusteredIndex> {
  PaxBlockView pax;

  /// Lazily deserialises the adaptive unclustered index, like the
  /// clustered Index(). An index that does not cover exactly this block's
  /// rows is Corruption: its row ids become the read's selection vector.
  Result<const UnclusteredIndex*> Unclustered(hdfs::BlockCache* cache) const {
    return unclustered_.Get(cache, [this]() -> Result<UnclusteredIndex> {
      HAIL_ASSIGN_OR_RETURN(UnclusteredIndex index,
                            view.ReadUnclusteredIndex());
      HAIL_RETURN_NOT_OK(index.CheckRowsOf(pax.num_records()));
      return index;
    });
  }

 private:
  DecodeOnce<UnclusteredIndex> unclustered_;
};

/// Opens (or retrieves) the decoded block state for one replica.
Result<std::shared_ptr<const CachedHailBlock>> OpenCachedHailBlock(
    const ReadContext& ctx, int dn, uint64_t block_id,
    std::string_view bytes) {
  return OpenCachedArtifact<CachedHailBlock>(
      ctx, dn, block_id,
      [&]() -> Result<std::shared_ptr<const hdfs::BlockArtifact>> {
        auto cached = std::make_shared<CachedHailBlock>();
        HAIL_ASSIGN_OR_RETURN(cached->view, HailBlockView::Open(bytes));
        HAIL_ASSIGN_OR_RETURN(cached->pax, cached->view.OpenPax());
        return std::shared_ptr<const hdfs::BlockArtifact>(std::move(cached));
      });
}

/// \brief HAIL RecordReader (§4.3): index scan + vectorized post-filter +
/// PAX->row tuple reconstruction; falls back to a full scan of a PAX
/// replica when no suitable index is alive.
///
/// The read path is index-range -> batched column filter (typed kernels
/// over zero-copy minipage spans) -> selection vector -> tuple
/// reconstruction only for qualifying rows.
class HailRecordReader : public RecordReader {
 private:
  Status ReadBlock(uint32_t block_index, ReadContext* ctx,
                   TaskCost* cost) override {
    const hdfs::BlockLocation& loc = ctx->plan->file_blocks[block_index];
    const int index_column = ctx->plan->index_column;
    // Columns the task touches: filter columns + projection (all when no
    // projection was annotated, §4.3), and the key range on the index
    // column, resolved once in the job's plan.
    const planner::QueryShape& shape = ctx->plan->shape;

    // Per-block access decision from the cost-based planner (empty vector
    // when the job was not planned). kSkipZoneMap is binding: the stats
    // proved no row qualifies and the block holds no bad records, so it
    // is never opened and bills nothing — the planning CPU was already
    // paid in the split phase.
    const planner::AccessDecision* decision =
        block_index < ctx->plan->decisions.size()
            ? &ctx->plan->decisions[block_index]
            : nullptr;
    if (decision != nullptr &&
        decision->path == planner::AccessPath::kSkipZoneMap) {
      ++ctx->stats.blocks_skipped;
      ++ctx->stats.zone_skipped_blocks;
      ctx->stats.rows_skipped += decision->block_records;
      if (ctx->trace != nullptr) {
        const size_t span =
            ctx->trace->Open("block_skip", "read", cost->total());
        ctx->trace->Attr(span, "block", loc.block_id);
        ctx->trace->Attr(span, "reason", "zone_map");
        ctx->trace->Attr(span, "rows",
                         static_cast<uint64_t>(decision->block_records));
        ctx->trace->Close(span, cost->total());
      }
      return Status::OK();
    }

    const size_t bspan =
        ctx->trace != nullptr
            ? ctx->trace->Open("block_read", "read", cost->total())
            : 0;

    // Replica choice via getHostsWithIndex (§4.3), in the planner's one
    // replica order: matching clustered index, then an adaptive
    // *unclustered* index on the filter column (installed online by the
    // reorganizer), then the plain holders, local first within each
    // class. The list is the failover order: a dead or corrupt replica
    // costs a wasted attempt, not the task.
    //
    // A planned full scan (fresh stats predicted an unclustered probe
    // would be abandoned, or no index exists) goes straight to the plain
    // replicas: no dense-index read is wasted before the inevitable pass.
    // Advisory only — with a clustered replica alive the planner never
    // chooses kFullScan, and missing stats leave the dynamic path intact.
    const std::optional<KeyRange>& key_range = shape.index_range;
    const bool planned_scan = decision != nullptr && decision->stats_fresh &&
                              decision->path == planner::AccessPath::kFullScan;
    const std::vector<planner::ReplicaCandidate> candidates =
        planner::OrderReplicas(ctx->dfs->namenode(), loc,
                               planned_scan ? -1 : index_column,
                               key_range.has_value(), ctx->task_node);

    // A replica whose index the read would use is corrupt (it fails to
    // decode, or does not cover exactly its block's rows) is failed over
    // like a replica that fails its CRC: wasted read billed, replica
    // reported.
    std::string_view bytes;
    size_t winner = 0;
    std::shared_ptr<const CachedHailBlock> cached;
    const ClusteredIndex* index = nullptr;
    const UnclusteredIndex* uc = nullptr;
    for (size_t first = 0;; first = winner + 1) {
      HAIL_ASSIGN_OR_RETURN(
          winner, ReadReplicaWithFailover(ctx, loc.block_id, loc.logical_bytes,
                                          candidates, cost, &bytes, first));
      const planner::ReplicaCandidate& replica = candidates[winner];
      HAIL_ASSIGN_OR_RETURN(cached, OpenCachedHailBlock(*ctx, replica.datanode,
                                                        loc.block_id, bytes));
      const HailBlockView& view = cached->view;
      Status probe;
      if (replica.path == planner::AccessPath::kClusteredIndex &&
          view.has_index() &&
          view.sort_column() == index_column && key_range.has_value()) {
        Result<const ClusteredIndex*> decoded =
            cached->Index(&ctx->dfs->block_cache());
        probe = decoded.ok()
                    ? (*decoded)->CheckRowsOf(cached->pax.num_records())
                    : decoded.status();
        if (probe.ok()) index = *decoded;
      } else if (replica.path == planner::AccessPath::kUnclusteredIndex &&
                 view.unclustered_column() == index_column) {
        Result<const UnclusteredIndex*> decoded =
            cached->Unclustered(&ctx->dfs->block_cache());
        probe = decoded.status();
        if (probe.ok()) uc = *decoded;
      }
      if (probe.ok()) break;
      if (!probe.IsCorruption()) return probe;
      BillCorruptRead(ctx, loc.block_id, loc.logical_bytes,
                      replica.datanode, cost);
    }
    const int dn = candidates[winner].datanode;
    const planner::AccessPath replica_path = candidates[winner].path;
    if (replica_path == planner::AccessPath::kFullScan && index_column >= 0) {
      ctx->stats.fallback_scan = true;
    }
    const PaxBlockView& pax = cached->pax;
    const std::vector<int>& proj = shape.proj;
    const sim::CostConstants& c = ctx->dfs->cluster().constants();

    RowRange range{0, pax.num_records()};
    bool index_scan = false;
    bool uc_scan = false;
    bool uc_abandoned = false;  // probe paid for, then found unselective
    uint64_t uc_candidates = 0;  // rows the unclustered index yielded
    SelectionVector selection;
    bool use_selection = false;
    if (index != nullptr) {
      // "We read the index entirely into main memory (typically a few
      // KB) to perform an index lookup." — decoded once per block
      // version, shared across tasks and queries.
      range = index->Lookup(*key_range);
      index_scan = true;
      if (ctx->trace != nullptr) {
        const size_t probe =
            ctx->trace->Open("index_probe", "index", cost->total());
        ctx->trace->Attr(probe, "kind", "clustered");
        ctx->trace->Attr(probe, "column", index_column);
        ctx->trace->Attr(probe, "rows", static_cast<uint64_t>(range.size()));
        ctx->trace->Close(probe, cost->total());
      }
    } else if (uc != nullptr) {
      // Adaptive unclustered path (§3.5 semantics): the dense index yields
      // the exact qualifying row ids for the key column, in key order —
      // i.e. random block order, each hit its own random access. Sort them
      // ascending so reconstruction cursors stay sequential.
      std::vector<uint32_t> candidates = uc->Lookup(*key_range);
      if (static_cast<double>(candidates.size()) >
          c.unclustered_max_selectivity *
              static_cast<double>(pax.num_records())) {
        // Too many hits: the random accesses would cost more than one
        // sequential pass. Scan instead — billed as index read + full
        // scan, and reported as a fallback so the planner's regret keeps
        // pushing toward a real re-sort.
        uc_abandoned = true;
        ctx->stats.fallback_scan = true;
      } else {
        std::sort(candidates.begin(), candidates.end());
        uc_candidates = candidates.size();
        selection.mutable_rows() = std::move(candidates);
        uc_scan = true;
        use_selection = true;
      }
      if (ctx->trace != nullptr) {
        const size_t probe =
            ctx->trace->Open("index_probe", "index", cost->total());
        ctx->trace->Attr(probe, "kind", "unclustered");
        ctx->trace->Attr(probe, "column", index_column);
        ctx->trace->Attr(probe, "rows", uc_candidates);
        if (uc_abandoned) ctx->trace->Attr(probe, "abandoned", 1);
        ctx->trace->Close(probe, cost->total());
      }
    }

    // ---- functional: batched column filter -> selection vector ----
    // The plan's filter was compiled against the job's schema: a block
    // that stores a filter column as another type is InvalidArgument.
    const CompiledPredicate& filter = ctx->plan->filter;
    const uint32_t clamped_end = std::min(range.end, pax.num_records());
    if (!filter.empty()) {
      if (uc_scan) {
        // Every term is conservatively re-applied to the candidate rows —
        // including the key-range terms the index already satisfied
        // (redundant but O(candidates), and it keeps the probe correct if
        // an index ever returns a superset).
        HAIL_RETURN_NOT_OK(filter.RefineCandidates(pax, &selection));
      } else {
        HAIL_RETURN_NOT_OK(filter.FilterBlock(pax, range, &selection));
        use_selection = true;
      }
    }
    // Without a filter every row of the range qualifies; iterate it
    // directly rather than materialising a dense selection vector.
    const uint64_t qualifying =
        use_selection ? selection.size()
                      : (clamped_end > range.begin ? clamped_end - range.begin
                                                   : 0);

    // Tuple reconstruction of the projected attributes (§4.3), only for
    // qualifying rows: one ColumnReader per projected column, plain or
    // encoded. Selection vectors are ascending, so each string partition
    // is decoded at most once and each RLE run found once.
    uint64_t encoded_projected = 0;  // of the readers opened here
    if (qualifying > 0) {
      std::vector<ColumnReader> readers;
      readers.reserve(proj.size());
      for (int colm : proj) {
        HAIL_ASSIGN_OR_RETURN(ColumnReader reader, pax.OpenColumn(colm));
        encoded_projected += reader.encoded() ? 1 : 0;
        readers.push_back(reader);
      }
      for (uint64_t i = 0; i < qualifying; ++i) {
        const uint32_t r = use_selection
                               ? selection[static_cast<size_t>(i)]
                               : range.begin + static_cast<uint32_t>(i);
        std::vector<Value> values;
        values.reserve(proj.size());
        for (ColumnReader& reader : readers) {
          HAIL_ASSIGN_OR_RETURN(Value v, reader.Get(r));
          values.push_back(std::move(v));
        }
        InvokeMap(*ctx, HailRecord::Projected(proj, std::move(values)));
      }
    }
    // Bad records are handed to the map function with a flag (§4.3);
    // the cursor walks the bad section once instead of O(n^2) re-skips.
    HAIL_ASSIGN_OR_RETURN(BadRecordCursor bad, pax.OpenBadRecords());
    while (!bad.Done()) {
      HAIL_ASSIGN_OR_RETURN(std::string_view raw, bad.Next());
      InvokeMap(*ctx, HailRecord::BadRecord(std::string(raw)));
      ++ctx->stats.bad_records;
    }
    ctx->stats.records_seen += uc_scan ? uc_candidates : range.size();
    ctx->stats.records_qualifying += qualifying;
    if (index_scan) ctx->stats.index_scan = true;
    if (uc_scan) ctx->stats.unclustered_scan = true;
    const uint64_t rows_touched = uc_scan ? uc_candidates : range.size();
    if ((index_scan || uc_scan) && rows_touched == 0) {
      ++ctx->stats.blocks_skipped;
    } else {
      ++ctx->stats.blocks_scanned;
    }
    if (index_scan || uc_scan) {
      ctx->stats.rows_skipped += pax.num_records() - rows_touched;
    }

    // ---- cost: the read just executed, priced by the planner's model ----
    const double scale = ctx->dfs->config().scale_factor;
    const sim::CostModel& node_cost =
        ctx->dfs->cluster().node(ctx->task_node).cost();
    planner::BlockRead read;
    read.path = index_scan ? planner::AccessPath::kClusteredIndex
                : uc_scan  ? planner::AccessPath::kUnclusteredIndex
                           : planner::AccessPath::kFullScan;
    read.abandoned_probe = uc_abandoned;
    if (read.path != planner::AccessPath::kFullScan || uc_abandoned) {
      read.key_type = pax.schema().field(index_column).type;
    }
    read.column_bytes.reserve(static_cast<size_t>(pax.num_columns()));
    for (int colm = 0; colm < pax.num_columns(); ++colm) {
      read.column_bytes.push_back(static_cast<uint64_t>(
          static_cast<double>(pax.column_value_bytes(colm)) * scale));
    }
    read.records = static_cast<uint64_t>(
        static_cast<double>(pax.num_records()) * scale);
    // Records the CPU actually looked at: the index range for (full/index)
    // scans, only the index's candidate rows for unclustered probes.
    read.range_records = static_cast<uint64_t>(
        static_cast<double>(rows_touched) * scale);
    read.qualifying =
        static_cast<uint64_t>(static_cast<double>(qualifying) * scale);
    read.range_fraction = pax.num_records() == 0
                              ? 0.0
                              : static_cast<double>(range.size()) /
                                    static_cast<double>(pax.num_records());
    const planner::ReadCost billed = planner::CostBlockRead(
        read, shape, ctx->dfs->cluster().node(dn).cost(), node_cost, c);
    const uint64_t bytes_read = billed.bytes;

    cost->disk_seconds += billed.seek_s + billed.transfer_s;
    cost->ledger.Bill(obs::CostBucket::kSeek, billed.seek_s);
    cost->ledger.Bill(obs::CostBucket::kTransfer, billed.transfer_s);
    cost->cpu_seconds += billed.cpu_s;
    cost->ledger.Bill(obs::CostBucket::kCpu, billed.cpu_s);
    // Scan-on-compressed (format v3): the filter ran on the encoded form,
    // so only qualifying rows pay the per-value decode, once per encoded
    // projected column. Zero for v1/v2 blocks and when no row qualifies.
    if (encoded_projected > 0) {
      const double decode_s =
          node_cost.DecodeValues(read.qualifying * encoded_projected);
      cost->cpu_seconds += decode_s;
      cost->ledger.Bill(obs::CostBucket::kDecode, decode_s);
    }
    if (read.path == planner::AccessPath::kFullScan) {
      cost->cpu_seconds += billed.scan_cpu_s;
      cost->ledger.Bill(obs::CostBucket::kCpu, billed.scan_cpu_s);
    }
    if (dn != ctx->task_node) {
      const double net_s = node_cost.NetTransfer(bytes_read);
      cost->net_seconds += net_s;
      cost->ledger.Bill(obs::CostBucket::kNetwork, net_s);
    }
    cost->logical_bytes_read += bytes_read;
    if (ctx->trace != nullptr) {
      ctx->trace->Attr(bspan, "block", loc.block_id);
      ctx->trace->Attr(bspan, "datanode", dn);
      ctx->trace->Attr(bspan, "generation",
                       ctx->dfs->datanode(dn).block_generation(loc.block_id));
      ctx->trace->Attr(
          bspan, "replica",
          replica_path == planner::AccessPath::kClusteredIndex
              ? "clustered"
              : (replica_path == planner::AccessPath::kUnclusteredIndex
                     ? "unclustered"
                     : "plain"));
      ctx->trace->Attr(bspan, "bytes", bytes_read);
      ctx->trace->Attr(bspan, "rows", rows_touched);
      ctx->trace->Attr(bspan, "qualifying", qualifying);
      ctx->trace->Close(bspan, cost->total());
    }
    return Status::OK();
  }
};

}  // namespace

std::unique_ptr<RecordReader> MakeHailRecordReader() {
  return std::make_unique<HailRecordReader>();
}

}  // namespace mapreduce
}  // namespace hail
