#include "hadooppp/trojan_block.h"
#include "mapreduce/cached_block.h"
#include "mapreduce/record_reader.h"

namespace hail {
namespace mapreduce {

namespace {

/// \brief Once-per-block-version decode state shared via the BlockCache:
/// parsed trojan layout + row view, and the lazily decoded trojan index
/// (the dense directory the paper sizes at ~304 KB per 64 MB block —
/// worth decoding once, not once per task).
struct CachedTrojanBlock
    : CachedIndexedBlock<hadooppp::TrojanBlockView, TrojanIndex> {
  RowBinaryBlockView rows;
};

Result<std::shared_ptr<const CachedTrojanBlock>> OpenCachedTrojanBlock(
    const ReadContext& ctx, int dn, uint64_t block_id,
    std::string_view bytes) {
  return OpenCachedArtifact<CachedTrojanBlock>(
      ctx, dn, block_id,
      [&]() -> Result<std::shared_ptr<const hdfs::BlockArtifact>> {
        auto cached = std::make_shared<CachedTrojanBlock>();
        HAIL_ASSIGN_OR_RETURN(cached->view,
                              hadooppp::TrojanBlockView::Open(bytes));
        HAIL_ASSIGN_OR_RETURN(cached->rows, cached->view.OpenRows());
        return std::shared_ptr<const hdfs::BlockArtifact>(std::move(cached));
      });
}

/// \brief Hadoop++ RecordReader: trojan-index scan over binary rows.
///
/// All replicas are identical, so replica choice is locality-only. An
/// index scan reads the (dense) trojan directory plus a contiguous byte
/// range of *full rows* — reading any attribute drags the whole row, the
/// structural disadvantage vs HAIL's PAX minipages.
class TrojanRecordReader : public RecordReader {
 private:
  Status ReadBlock(uint32_t block_index, ReadContext* ctx,
                   TaskCost* cost) override {
    const hdfs::BlockLocation& loc = ctx->plan->file_blocks[block_index];
    const size_t bspan =
        ctx->trace != nullptr
            ? ctx->trace->Open("block_read", "read", cost->total())
            : 0;
    // All replicas are identical: the failover order is locality-only.
    const std::vector<planner::ReplicaCandidate> candidates =
        planner::OrderReplicas(ctx->dfs->namenode(), loc, /*index_column=*/-1,
                               /*with_unclustered=*/false, ctx->task_node);
    const hdfs::DfsConfig& cfg = ctx->dfs->config();
    std::string_view bytes;
    HAIL_ASSIGN_OR_RETURN(
        size_t winner,
        ReadReplicaWithFailover(ctx, loc.block_id, loc.logical_bytes,
                                candidates, cost, &bytes));
    const int dn = candidates[winner].datanode;
    HAIL_ASSIGN_OR_RETURN(
        std::shared_ptr<const CachedTrojanBlock> cached,
        OpenCachedTrojanBlock(*ctx, dn, loc.block_id, bytes));
    const hadooppp::TrojanBlockView& view = cached->view;
    const RowBinaryBlockView& rows = cached->rows;

    const double scale = cfg.scale_factor;
    const uint64_t logical_records = static_cast<uint64_t>(
        static_cast<double>(rows.num_records()) * scale);
    const sim::CostModel& node_cost =
        ctx->dfs->cluster().node(ctx->task_node).cost();
    const sim::CostModel& disk_cost = ctx->dfs->cluster().node(dn).cost();
    const sim::CostConstants& c = ctx->dfs->cluster().constants();
    const int index_column = ctx->plan->index_column;

    // Index scan only when the (single) trojan index matches the filter.
    uint32_t first_row = 0;
    uint32_t end_row = rows.num_records();
    uint64_t range_bytes_real = rows.total_bytes() - rows.data_start();
    uint64_t range_start_offset = 0;
    bool index_scan = false;
    if (index_column >= 0 && view.has_index() &&
        view.sort_column() == index_column) {
      const std::optional<KeyRange>& key_range = ctx->plan->shape.index_range;
      if (key_range.has_value()) {
        HAIL_ASSIGN_OR_RETURN(const TrojanIndex* index,
                              cached->Index(&ctx->dfs->block_cache()));
        const TrojanIndex::LookupResult hit = index->Lookup(*key_range);
        first_row = hit.first_row;
        end_row = hit.end_row;
        range_bytes_real = hit.bytes.empty() ? 0 : hit.bytes.end - hit.bytes.begin;
        range_start_offset = hit.bytes.begin;
        index_scan = true;
        ctx->stats.index_scan = true;
        if (ctx->trace != nullptr) {
          const size_t probe =
              ctx->trace->Open("index_probe", "index", cost->total());
          ctx->trace->Attr(probe, "kind", "trojan");
          ctx->trace->Attr(probe, "column", index_column);
          ctx->trace->Attr(probe, "rows",
                           static_cast<uint64_t>(end_row - first_row));
          ctx->trace->Close(probe, cost->total());
        }
      }
    } else if (index_column >= 0) {
      ctx->stats.fallback_scan = true;
    }

    // ---- functional: decode the row range, filter, map ----
    uint64_t qualifying = 0;
    // Skip to the range start via the index's byte offset.
    uint64_t pos = rows.data_start() + range_start_offset;
    for (uint32_t r = first_row; r < end_row; ++r) {
      HAIL_ASSIGN_OR_RETURN(std::vector<Value> row, rows.DecodeRowAt(&pos));
      if (!ctx->plan->filter.MatchesRow(row)) continue;
      ++qualifying;
      InvokeMap(*ctx, HailRecord::FullRow(std::move(row)));
    }
    ctx->stats.records_seen += end_row - first_row;
    ctx->stats.records_qualifying += qualifying;
    if (index_scan && end_row == first_row) {
      ++ctx->stats.blocks_skipped;
    } else {
      ++ctx->stats.blocks_scanned;
    }
    if (index_scan) {
      ctx->stats.rows_skipped += rows.num_records() - (end_row - first_row);
    }

    // ---- cost ----
    const uint64_t logical_range_records = static_cast<uint64_t>(
        static_cast<double>(end_row - first_row) * scale);
    const uint64_t logical_qualifying =
        static_cast<uint64_t>(static_cast<double>(qualifying) * scale);
    uint64_t bytes_read = static_cast<uint64_t>(
        static_cast<double>(range_bytes_real) * scale);
    double disk_s = c.block_open_ms / 1000.0;
    // The block header is read before anything else (§6.4.1).
    disk_s += c.header_read_ms / 1000.0;
    if (index_scan) {
      // The trojan directory is dense: ~304 KB at 64 MB blocks vs HAIL's
      // 2 KB (§6.4.2) — noticeably slower to load.
      const uint64_t index_logical = LogicalSparseIndexBytes(
          logical_records, c.trojan_rows_per_entry_logical,
          ctx->spec->schema.field(index_column).type, /*pointer_bytes=*/8);
      bytes_read += index_logical;
      disk_s += 2 * disk_cost.DiskSeek();  // index + row range
    } else {
      disk_s += disk_cost.DiskSeek();
    }
    const double transfer_s = disk_cost.DiskTransfer(bytes_read);
    disk_s += transfer_s;
    cost->disk_seconds += disk_s;
    cost->ledger.Bill(obs::CostBucket::kSeek, disk_s - transfer_s);
    cost->ledger.Bill(obs::CostBucket::kTransfer, transfer_s);
    const double cpu_s = node_cost.Crc(bytes_read) +
                         node_cost.BinaryDeserialize(logical_range_records) +
                         node_cost.PredicateEval(logical_range_records) +
                         node_cost.MapCalls(logical_qualifying);
    cost->cpu_seconds += cpu_s;
    cost->ledger.Bill(obs::CostBucket::kCpu, cpu_s);
    if (dn != ctx->task_node) {
      const double net_s = node_cost.NetTransfer(bytes_read);
      cost->net_seconds += net_s;
      cost->ledger.Bill(obs::CostBucket::kNetwork, net_s);
    }
    cost->logical_bytes_read += bytes_read;
    if (ctx->trace != nullptr) {
      ctx->trace->Attr(bspan, "block", loc.block_id);
      ctx->trace->Attr(bspan, "datanode", dn);
      ctx->trace->Attr(bspan, "replica", index_scan ? "trojan" : "plain");
      ctx->trace->Attr(bspan, "bytes", bytes_read);
      ctx->trace->Attr(bspan, "rows",
                       static_cast<uint64_t>(end_row - first_row));
      ctx->trace->Attr(bspan, "qualifying", qualifying);
      ctx->trace->Close(bspan, cost->total());
    }
    return Status::OK();
  }
};

}  // namespace

std::unique_ptr<RecordReader> MakeTrojanRecordReader() {
  return std::make_unique<TrojanRecordReader>();
}

}  // namespace mapreduce
}  // namespace hail
