#include "mapreduce/record_reader.h"

namespace hail {
namespace mapreduce {

namespace {

/// Default map function: emit the projected attributes (all when none
/// was annotated) as a delimited row (used when the job does not install
/// its own map). Matches what the equivalence tests compare across systems.
void DefaultMap(const JobSpec& spec, const std::vector<int>& proj,
                const HailRecord& record, MapOutput* out) {
  if (record.bad()) return;  // default behaviour: ignore bad records
  std::string row;
  for (size_t i = 0; i < proj.size(); ++i) {
    if (i > 0) row += spec.schema.delimiter();
    const int attr = proj[i];
    row += record.Get(attr + 1).ToText(spec.schema.field(attr).type);
  }
  out->Emit(std::move(row));
}

}  // namespace

Result<TaskCost> RecordReader::ReadSplit(const InputSplit& split,
                                         ReadContext* ctx) {
  TaskCost cost;
  for (uint32_t block_index : split.block_indexes) {
    HAIL_RETURN_NOT_OK(ReadBlock(block_index, ctx, &cost));
  }
  return cost;
}

void BillCorruptRead(ReadContext* ctx, uint64_t block_id,
                     uint64_t logical_bytes, int dn, TaskCost* cost) {
  // The bytes were transferred and checksummed before the problem
  // surfaced: the whole wasted read is billed. The sighting is recorded
  // for the engine to report.
  const sim::CostConstants& c = ctx->dfs->cluster().constants();
  const sim::CostModel& node_cost =
      ctx->dfs->cluster().node(ctx->task_node).cost();
  ctx->bad_replicas.push_back({block_id, dn});
  const double waste_start = cost->total();
  const double disk =
      c.block_open_ms / 1000.0 +
      ctx->dfs->cluster().node(dn).cost().DiskAccess(logical_bytes);
  const double cpu = node_cost.Crc(logical_bytes);
  double net = 0.0;
  cost->disk_seconds += disk;
  cost->cpu_seconds += cpu;
  if (dn != ctx->task_node) {
    net = node_cost.NetTransfer(logical_bytes);
    cost->net_seconds += net;
  }
  cost->logical_bytes_read += logical_bytes;
  cost->ledger.Bill(obs::CostBucket::kFailoverReread, disk + cpu + net);
  if (ctx->trace != nullptr) {
    const size_t span =
        ctx->trace->Open("failover_reread", "failover", waste_start);
    ctx->trace->Attr(span, "block", block_id);
    ctx->trace->Attr(span, "datanode", dn);
    ctx->trace->Attr(span, "bytes", logical_bytes);
    ctx->trace->Attr(span, "error", "corruption");
    ctx->trace->Close(span, cost->total());
  }
}

Result<size_t> ReadReplicaWithFailover(
    ReadContext* ctx, uint64_t block_id, uint64_t logical_bytes,
    const std::vector<planner::ReplicaCandidate>& candidates, TaskCost* cost,
    std::string_view* bytes_out, size_t first) {
  const hdfs::DfsConfig& cfg = ctx->dfs->config();
  const sim::CostConstants& c = ctx->dfs->cluster().constants();
  for (size_t i = first; i < candidates.size(); ++i) {
    const int dn = candidates[i].datanode;
    Result<std::string_view> read =
        ctx->dfs->datanode(dn).ReadBlockVerified(block_id, cfg.chunk_bytes);
    if (read.ok()) {
      *bytes_out = *read;
      return i;
    }
    const Status& st = read.status();
    if (st.IsCorruption()) {
      BillCorruptRead(ctx, block_id, logical_bytes, dn, cost);
    } else if (st.IsUnavailable() || st.IsNotFound()) {
      // Dead node, or a replica deleted after an earlier corruption
      // report: only the connection attempt is paid.
      const double open = c.block_open_ms / 1000.0;
      cost->disk_seconds += open;
      cost->ledger.Bill(obs::CostBucket::kFailoverReread, open);
    } else {
      return st;
    }
  }
  return Status::Unavailable("no readable replica for block " +
                             std::to_string(block_id));
}

void InvokeMap(const ReadContext& ctx, const HailRecord& record) {
  const JobSpec& spec = *ctx.spec;
  if (spec.map) {
    spec.map(record, ctx.out);
  } else {
    DefaultMap(spec, ctx.plan->shape.proj, record, ctx.out);
  }
}

}  // namespace mapreduce
}  // namespace hail
