#include "mapreduce/record_reader.h"
#include "schema/row_parser.h"

namespace hail {
namespace mapreduce {

namespace {

/// Replica order to try: local first ("it is the local HDFS client ...
/// that decides from which datanode a map task will read", §4.2), then
/// the remaining alive holders — failover walks this list.
std::vector<planner::ReplicaCandidate> ReplicaOrder(
    const ReadContext& ctx, const hdfs::BlockLocation& loc) {
  return planner::OrderReplicas(ctx.dfs->namenode(), loc, /*index_column=*/-1,
                                /*with_unclustered=*/false, ctx.task_node);
}

/// \brief Stock Hadoop: full scan over text blocks.
///
/// Reproduces LineRecordReader's boundary rules in the "line belongs to
/// the split containing its first byte" formulation: a reader skips a
/// partial first line (the previous block's reader finishes it) and reads
/// past its block's end to complete its own last line.
class TextRecordReader : public RecordReader {
 private:
  Status ReadBlock(uint32_t block_index, ReadContext* ctx,
                   TaskCost* cost) override {
    const hdfs::BlockLocation& loc =
        ctx->plan->file_blocks[block_index];
    const size_t bspan =
        ctx->trace != nullptr
            ? ctx->trace->Open("block_read", "read", cost->total())
            : 0;
    std::string_view data;
    const std::vector<planner::ReplicaCandidate> candidates =
        ReplicaOrder(*ctx, loc);
    HAIL_ASSIGN_OR_RETURN(
        size_t winner,
        ReadReplicaWithFailover(ctx, loc.block_id, loc.logical_bytes,
                                candidates, cost, &data));
    const int dn = candidates[winner].datanode;

    // Boundary rule part 1: if the previous block (of the *same* part
    // file) does not end in a newline, our first line fragment belongs to
    // the previous reader. Boundary reads are verified with failover too:
    // a silently corrupt neighbour would split rows differently and break
    // result equivalence (the happy-path read itself stays unbilled, as
    // the split accounting already charges each block to its own task).
    size_t begin = 0;
    if (block_index > 0 &&
        ctx->plan->file_blocks[block_index - 1].file_id == loc.file_id) {
      const hdfs::BlockLocation& prev =
          ctx->plan->file_blocks[block_index - 1];
      std::string_view prev_data;
      TaskCost boundary_cost;  // wasted boundary attempts are negligible
      HAIL_RETURN_NOT_OK(
          ReadReplicaWithFailover(ctx, prev.block_id, prev.logical_bytes,
                                  ReplicaOrder(*ctx, prev), &boundary_cost,
                                  &prev_data)
              .status());
      if (!prev_data.empty() && prev_data.back() != '\n') {
        const size_t nl = data.find('\n');
        begin = (nl == std::string_view::npos) ? data.size() : nl + 1;
      }
    }

    // Boundary rule part 2: finish our last line from following blocks.
    std::string content(data.substr(begin));
    if (!content.empty() && content.back() != '\n') {
      for (uint32_t next = block_index + 1;
           next < ctx->plan->file_blocks.size(); ++next) {
        const hdfs::BlockLocation& nloc = ctx->plan->file_blocks[next];
        if (nloc.file_id != loc.file_id) break;  // never cross part files
        std::string_view ndata;
        TaskCost boundary_cost;
        HAIL_RETURN_NOT_OK(
            ReadReplicaWithFailover(ctx, nloc.block_id, nloc.logical_bytes,
                                    ReplicaOrder(*ctx, nloc), &boundary_cost,
                                    &ndata)
                .status());
        const size_t nl = ndata.find('\n');
        if (nl == std::string_view::npos) {
          content.append(ndata);  // a row spanning >1 whole block
          continue;
        }
        content.append(ndata.substr(0, nl));
        break;
      }
    }

    // Parse, filter and hand every qualifying row to the map function
    // (stock Hadoop: Bob's map code string-splits the row and filters by
    // hand, §4.1). Bad records reach the map function unfiltered.
    const RowParser parser(ctx->spec->schema);
    uint64_t records = 0;
    for (std::string_view row : SplitRows(content)) {
      if (row.empty()) continue;
      ++records;
      ParsedRow parsed = parser.Parse(row);
      if (!parsed.ok) {
        ++ctx->stats.bad_records;
        InvokeMap(*ctx, HailRecord::BadRecord(std::string(row)));
        continue;
      }
      if (!ctx->plan->filter.MatchesRow(parsed.values)) continue;
      ++ctx->stats.records_qualifying;
      InvokeMap(*ctx, HailRecord::FullRow(std::move(parsed.values)));
    }
    ctx->stats.records_seen += records;

    // ---- cost ----
    const double scale = ctx->dfs->config().scale_factor;
    const uint64_t logical_bytes = loc.logical_bytes;
    const uint64_t logical_records =
        static_cast<uint64_t>(static_cast<double>(records) * scale);
    const sim::CostModel& disk_cost = ctx->dfs->cluster().node(dn).cost();
    const sim::CostModel& cpu_cost =
        ctx->dfs->cluster().node(ctx->task_node).cost();
    const double open_s =
        ctx->dfs->cluster().constants().block_open_ms / 1000.0;
    cost->disk_seconds += open_s;
    cost->disk_seconds += disk_cost.DiskAccess(logical_bytes);
    // Attribution splits the fused DiskAccess term back into its seek and
    // transfer components (same arithmetic, booked separately).
    cost->ledger.Bill(obs::CostBucket::kSeek, open_s + disk_cost.DiskSeek());
    cost->ledger.Bill(obs::CostBucket::kTransfer,
                      disk_cost.DiskTransfer(logical_bytes));
    const double cpu_s = cpu_cost.Crc(logical_bytes) +
                         cpu_cost.ScanParse(logical_records) +
                         cpu_cost.MapCalls(logical_records);
    cost->cpu_seconds += cpu_s;
    cost->ledger.Bill(obs::CostBucket::kCpu, cpu_s);
    if (dn != ctx->task_node) {
      const double net_s = cpu_cost.NetTransfer(logical_bytes);
      cost->net_seconds += net_s;
      cost->ledger.Bill(obs::CostBucket::kNetwork, net_s);
    }
    cost->logical_bytes_read += logical_bytes;
    ++ctx->stats.blocks_scanned;
    if (ctx->trace != nullptr) {
      ctx->trace->Attr(bspan, "block", loc.block_id);
      ctx->trace->Attr(bspan, "datanode", dn);
      ctx->trace->Attr(bspan, "replica", "text");
      ctx->trace->Attr(bspan, "bytes", logical_bytes);
      ctx->trace->Attr(bspan, "rows", records);
      ctx->trace->Close(bspan, cost->total());
    }
    return Status::OK();
  }
};

}  // namespace

// Defined in readers_common.cc-adjacent factory; see MakeRecordReader in
// reader_factory.cc.
std::unique_ptr<RecordReader> MakeTextRecordReader() {
  return std::make_unique<TextRecordReader>();
}

}  // namespace mapreduce
}  // namespace hail
