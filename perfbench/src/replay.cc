#include "replay.h"

#include <algorithm>
#include <future>
#include <optional>

#include "hail/hail_block.h"
#include "hdfs/replica_transform.h"
#include "mapreduce/input_format.h"
#include "mapreduce/record_reader.h"
#include "planner/access_planner.h"
#include "planner/block_stats.h"
#include "query/vectorized.h"
#include "util/crc32c.h"
#include "util/macros.h"

namespace perfbench {

using hail::Result;
using hail::Status;
namespace hdfs = hail::hdfs;
namespace mapreduce = hail::mapreduce;

Status ReplayUpload(SpanLog* log, uint64_t parent, uint64_t op,
                    const hdfs::MiniDfs& dfs,
                    const hail::HailUploadConfig& config,
                    const std::vector<hdfs::ParallelUploadSpec>& specs,
                    IngestTally* tally) {
  const hdfs::DfsConfig& cfg = dfs.config();
  const hail::sim::SimCluster& cluster = dfs.cluster();
  for (const hdfs::ParallelUploadSpec& spec : specs) {
    std::vector<std::string_view> blocks;
    {
      ScopedSpan s(log, "CutRowAlignedBlocks", parent, op);
      blocks = hail::CutRowAlignedBlocks(spec.text, cfg.block_size);
    }
    for (std::string_view text_block : blocks) {
      std::optional<hail::PaxBlock> pax;
      {
        ScopedSpan s(log, "BuildPaxBlockFromText", parent, op);
        pax.emplace(
            hail::BuildPaxBlockFromText(config.schema, text_block, cfg.format));
      }
      std::string client_block;
      {
        ScopedSpan s(log, "PaxBlock::Serialize", parent, op);
        client_block = pax->Serialize();
      }
      // The same logical sizes the upload bills (hail_client.cc): encoded
      // blocks are sized by their stored payload.
      uint64_t stored_payload = pax->PayloadBytes();
      if (cfg.format.enable_encoding) {
        ScopedSpan s(log, "PaxBlockView::Open", parent, op);
        HAIL_ASSIGN_OR_RETURN(hail::PaxBlockView view,
                              hail::PaxBlockView::Open(client_block));
        stored_payload = view.stored_payload_bytes();
      }
      if (config.build_stats) {
        ScopedSpan s(log, "planner::BlockStats::Build", parent, op);
        const std::string stats =
            hail::planner::BlockStats::Build(*pax).Serialize();
        if (stats.empty()) return Status::Corruption("empty block stats");
      }
      const double scale = cfg.scale_factor;
      hail::HailTransformParams params;
      params.sort_columns = config.sort_columns;
      params.build_stats = false;  // replayed above as its own span
      params.chunk_bytes = cfg.chunk_bytes;
      params.varlen_partition_size = cfg.format.varlen_partition_size;
      params.index_partition_logical =
          cluster.constants().index_partition_logical;
      params.logical_pax_bytes =
          static_cast<uint64_t>(static_cast<double>(stored_payload) * scale) +
          hdfs::kLogicalBlockOverhead;
      params.logical_fixed_bytes = static_cast<uint64_t>(
          static_cast<double>(pax->FixedPayloadBytes()) * scale);
      params.logical_varlen_bytes = static_cast<uint64_t>(
          static_cast<double>(pax->VarlenPayloadBytes()) * scale);
      params.logical_records = static_cast<uint64_t>(
          static_cast<double>(pax->num_records()) * scale);
      hail::HailReplicaTransformer transformer(std::move(params));
      {
        ScopedSpan s(log, "HailReplicaTransformer::BeginBlock", parent, op);
        HAIL_RETURN_NOT_OK(transformer.BeginBlock(client_block));
      }
      hdfs::ReplicaWorkContext ctx;
      ctx.cost = &cluster.node(spec.client_node).cost();
      for (int r = 0; r < cfg.replication; ++r) {
        ctx.is_tail = r + 1 == cfg.replication;
        std::optional<hdfs::ReplicaBlock> replica;
        {
          ScopedSpan s(log, "HailReplicaTransformer::BuildReplica", parent, op);
          HAIL_ASSIGN_OR_RETURN(hdfs::ReplicaBlock built,
                                transformer.BuildReplica(
                                    static_cast<size_t>(r), ctx));
          replica.emplace(std::move(built));
        }
        {
          ScopedSpan s(log, "crc32c::Value", parent, op, /*probe=*/true);
          (void)hail::crc32c::Value(replica->bytes.data(),
                                    replica->bytes.size());
        }
        tally->replica_bytes += replica->bytes.size();
      }
      tally->text_bytes += text_block.size();
      tally->serialized_bytes += client_block.size();
      tally->bad_records += pax->bad_records().size();
    }
  }
  return Status::OK();
}

Status ProbeStoredReplicas(SpanLog* log, uint64_t parent, uint64_t op,
                           const hdfs::MiniDfs& dfs,
                           const std::vector<std::string>& files,
                           StoredTally* tally) {
  // Spans only when logging; the output check calls this without a log.
  auto timed = [&](const char* name, auto&& fn) {
    if (log == nullptr) return fn();
    ScopedSpan s(log, name, parent, op, /*probe=*/true);
    return fn();
  };
  const uint32_t chunk = dfs.config().chunk_bytes;
  for (const std::string& file : files) {
    HAIL_ASSIGN_OR_RETURN(std::vector<hdfs::BlockLocation> blocks,
                          dfs.namenode().GetFileBlocks(file));
    auto& per_block = tally->records[file];
    per_block.assign(blocks.size(), {});
    for (size_t b = 0; b < blocks.size(); ++b) {
      const hdfs::BlockLocation& loc = blocks[b];
      for (int dn : loc.datanodes) {
        HAIL_ASSIGN_OR_RETURN(
            std::string_view bytes,
            timed("Datanode::ReadBlockVerified", [&] {
              return dfs.datanode(dn).ReadBlockVerified(loc.block_id, chunk);
            }));
        if (log != nullptr) {
          ScopedSpan s(log, "crc32c::Value", parent, op, /*probe=*/true);
          (void)hail::crc32c::Value(bytes.data(), bytes.size());
        }
        HAIL_ASSIGN_OR_RETURN(
            hail::HailBlockView view,
            timed("HailBlockView::Open",
                  [&] { return hail::HailBlockView::Open(bytes); }));
        HAIL_ASSIGN_OR_RETURN(
            hail::PaxBlockView pax,
            timed("HailBlockView::OpenPax", [&] { return view.OpenPax(); }));
        if (view.has_index()) {
          HAIL_ASSIGN_OR_RETURN(
              hail::ClusteredIndex index,
              timed("HailBlockView::ReadIndex", [&] { return view.ReadIndex(); }));
          if (index.num_records() != pax.num_records()) {
            return Status::Corruption("index and block disagree on rows");
          }
        }
        per_block[b].push_back(pax.num_records());
        tally->replicas += 1;
        tally->replica_bytes += bytes.size();
      }
    }
  }
  return Status::OK();
}

Result<mapreduce::JobPlan> ReplayPlan(SpanLog* log, uint64_t parent,
                                      uint64_t op, hdfs::MiniDfs* dfs,
                                      const mapreduce::JobSpec& spec,
                                      QueryTally* tally) {
  const double start = log->NowMs();
  const uint64_t plan_span = log->Reserve("ComputeJobPlan", parent, op);
  HAIL_ASSIGN_OR_RETURN(mapreduce::JobPlan plan,
                        mapreduce::ComputeJobPlan(dfs, spec));
  log->Finish(plan_span, start, log->NowMs());
  if (plan.planned && spec.annotation.has_value()) {
    ScopedSpan s(log, "planner::PlanAccessPaths", plan_span, op);
    const hail::planner::FilePlan replanned = hail::planner::PlanAccessPaths(
        *dfs, spec.schema, *spec.annotation, plan.index_column,
        plan.file_blocks);
    if (replanned.decisions.size() != plan.file_blocks.size()) {
      return Status::Corruption("planner returned a partial plan");
    }
    tally->plan_blocks += plan.file_blocks.size();
  }
  tally->plans += 1;
  tally->split_phase_s += plan.split_phase_seconds;
  tally->planner_s += plan.planner_seconds;
  return plan;
}

namespace {

struct SplitRead {
  Status status;
  double start = 0.0;
  double end = 0.0;
};

SplitRead ReadOneSplit(SpanLog* log, hdfs::MiniDfs* dfs,
                       const mapreduce::JobSpec& spec,
                       const mapreduce::JobPlan& plan,
                       const mapreduce::InputSplit& split) {
  SplitRead out;
  mapreduce::MapOutput sink(false);
  mapreduce::ReadContext ctx;
  ctx.dfs = dfs;
  ctx.spec = &spec;
  ctx.plan = &plan;
  ctx.task_node = split.preferred_nodes.empty() ? 0 : split.preferred_nodes[0];
  ctx.out = &sink;
  out.start = log->NowMs();
  Result<mapreduce::TaskCost> cost =
      mapreduce::MakeRecordReader(spec.system)->ReadSplit(split, &ctx);
  out.end = log->NowMs();
  out.status = cost.status();
  return out;
}

/// The HAIL reader's per-block probe + filter, replayed outside it.
Status ReplayBlock(SpanLog* log, uint64_t parent, uint64_t op,
                   const hdfs::MiniDfs& dfs, const mapreduce::JobSpec& spec,
                   const mapreduce::JobPlan& plan, uint32_t block_index,
                   int task_node, QueryTally* tally) {
  const hdfs::BlockLocation& loc = plan.file_blocks[block_index];
  if (block_index < plan.decisions.size() &&
      plan.decisions[block_index].path ==
          hail::planner::AccessPath::kSkipZoneMap) {
    return Status::OK();
  }
  const int index_column = plan.index_column;
  std::vector<int> hosts;
  if (index_column >= 0) {
    hosts = dfs.namenode().GetHostsWithIndex(loc.block_id, index_column);
  }
  if (hosts.empty()) hosts = loc.datanodes;
  if (hosts.empty()) return Status::Unavailable("no replica to replay");
  int dn = hosts.front();
  for (int h : hosts) {
    if (h == task_node) dn = h;
  }
  HAIL_ASSIGN_OR_RETURN(std::string_view bytes,
                        dfs.datanode(dn).ReadBlockRaw(loc.block_id));
  std::optional<hail::HailBlockView> view;
  {
    ScopedSpan s(log, "HailBlockView::Open", parent, op, /*probe=*/true);
    HAIL_ASSIGN_OR_RETURN(hail::HailBlockView opened,
                          hail::HailBlockView::Open(bytes));
    view.emplace(opened);
  }
  std::optional<hail::PaxBlockView> pax;
  {
    ScopedSpan s(log, "HailBlockView::OpenPax", parent, op, /*probe=*/true);
    HAIL_ASSIGN_OR_RETURN(hail::PaxBlockView opened, view->OpenPax());
    pax.emplace(std::move(opened));
  }
  tally->blocks_opened += 1;
  tally->block_rows += pax->num_records();
  hail::RowRange range{0, pax->num_records()};
  const std::optional<hail::KeyRange> key_range =
      index_column >= 0 && spec.annotation.has_value()
          ? spec.annotation->filter.KeyRangeFor(index_column)
          : std::nullopt;
  if (view->has_index() && view->sort_column() == index_column &&
      key_range.has_value()) {
    std::optional<hail::ClusteredIndex> index;
    {
      ScopedSpan s(log, "HailBlockView::ReadIndex", parent, op, /*probe=*/true);
      HAIL_ASSIGN_OR_RETURN(hail::ClusteredIndex decoded, view->ReadIndex());
      index.emplace(std::move(decoded));
    }
    {
      ScopedSpan s(log, "ClusteredIndex::Lookup", parent, op);
      range = index->Lookup(*key_range);
    }
    tally->range_rows += range.size();
    if (range.empty()) tally->blocks_pruned += 1;
  }
  if (!spec.annotation.has_value() || spec.annotation->filter.empty()) {
    return Status::OK();
  }
  std::optional<hail::CompiledPredicate> compiled;
  {
    ScopedSpan s(log, "CompiledPredicate::Compile", parent, op);
    HAIL_ASSIGN_OR_RETURN(hail::CompiledPredicate c,
                          hail::CompiledPredicate::Compile(
                              spec.annotation->filter, pax->schema()));
    compiled.emplace(std::move(c));
  }
  hail::SelectionVector selection;
  {
    ScopedSpan s(log, "CompiledPredicate::FilterBlock", parent, op);
    HAIL_RETURN_NOT_OK(compiled->FilterBlock(*pax, range, &selection));
  }
  const uint32_t end = std::min(range.end, pax->num_records());
  tally->rows_filtered += end > range.begin ? end - range.begin : 0;
  tally->rows_qualifying += selection.size();
  return Status::OK();
}

}  // namespace

Status ReplayReads(SpanLog* log, uint64_t parent, uint64_t op,
                   hdfs::MiniDfs* dfs, const mapreduce::JobSpec& spec,
                   const mapreduce::JobPlan& plan, hail::ThreadPool* pool,
                   bool blocks, QueryTally* tally) {
  // Reads first, on as many workers as the engine has, so the union of
  // the ReadSplit spans resembles the engine's overlapped reads.
  std::vector<SplitRead> reads(plan.splits.size());
  if (pool != nullptr) {
    std::vector<std::future<SplitRead>> pending;
    pending.reserve(plan.splits.size());
    for (const mapreduce::InputSplit& split : plan.splits) {
      pending.push_back(pool->Submit(
          [&, split_ptr = &split] {
            return ReadOneSplit(log, dfs, spec, plan, *split_ptr);
          }));
    }
    for (size_t i = 0; i < pending.size(); ++i) reads[i] = pending[i].get();
  } else {
    for (size_t i = 0; i < plan.splits.size(); ++i) {
      reads[i] = ReadOneSplit(log, dfs, spec, plan, plan.splits[i]);
    }
  }
  const bool replay_blocks = blocks && spec.system == mapreduce::System::kHail;
  if (replay_blocks) tally->block_jobs += 1;
  for (size_t i = 0; i < plan.splits.size(); ++i) {
    HAIL_RETURN_NOT_OK(reads[i].status);
    const mapreduce::InputSplit& split = plan.splits[i];
    const uint64_t read_span =
        log->Add("ReadSplit", parent, op, reads[i].start, reads[i].end);
    tally->splits += 1;
    tally->split_blocks += split.blocks.size();
    if (!replay_blocks) continue;
    tally->block_read_spans.push_back(read_span);
    const int node =
        split.preferred_nodes.empty() ? 0 : split.preferred_nodes[0];
    for (uint32_t block_index : split.block_indexes) {
      HAIL_RETURN_NOT_OK(ReplayBlock(log, read_span, op, *dfs, spec, plan,
                                     block_index, node, tally));
    }
  }
  return Status::OK();
}

Status ProbeFullScan(SpanLog* log, uint64_t parent, uint64_t op,
                     const hdfs::MiniDfs& dfs, const std::string& file,
                     const mapreduce::JobSpec& spec, QueryTally* tally) {
  if (!spec.annotation.has_value()) return Status::OK();
  HAIL_ASSIGN_OR_RETURN(std::vector<hdfs::BlockLocation> blocks,
                        dfs.namenode().GetFileBlocks(file));
  for (const hdfs::BlockLocation& loc : blocks) {
    if (loc.datanodes.empty()) continue;
    HAIL_ASSIGN_OR_RETURN(
        std::string_view bytes,
        dfs.datanode(loc.datanodes.front()).ReadBlockRaw(loc.block_id));
    HAIL_ASSIGN_OR_RETURN(hail::HailBlockView view,
                          hail::HailBlockView::Open(bytes));
    HAIL_ASSIGN_OR_RETURN(hail::PaxBlockView pax, view.OpenPax());
    std::optional<hail::CompiledPredicate> compiled;
    {
      ScopedSpan s(log, "CompiledPredicate::Compile", parent, op, true);
      HAIL_ASSIGN_OR_RETURN(hail::CompiledPredicate c,
                            hail::CompiledPredicate::Compile(
                                spec.annotation->filter, pax.schema()));
      compiled.emplace(std::move(c));
    }
    hail::SelectionVector selection;
    {
      ScopedSpan s(log, "CompiledPredicate::FilterBlock", parent, op, true);
      HAIL_RETURN_NOT_OK(compiled->FilterBlock(
          pax, hail::RowRange{0, pax.num_records()}, &selection));
    }
    tally->rows_filtered += pax.num_records();
    tally->rows_qualifying += selection.size();
  }
  return Status::OK();
}

}  // namespace perfbench
