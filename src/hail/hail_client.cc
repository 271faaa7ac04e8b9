#include "hail/hail_client.h"

#include <algorithm>
#include <deque>
#include <future>
#include <optional>

#include "hdfs/replica_transform.h"
#include "hdfs/upload_pipeline.h"
#include "layout/pax_block.h"
#include "schema/row_parser.h"
#include "util/thread_pool.h"

namespace hail {

std::vector<std::string_view> CutRowAlignedBlocks(std::string_view text,
                                                  uint64_t block_size) {
  std::vector<std::string_view> blocks;
  size_t block_start = 0;
  size_t pos = 0;
  size_t last_row_end = 0;  // one past the newline of the last complete row
  while (pos < text.size()) {
    size_t nl = text.find('\n', pos);
    const size_t row_end = (nl == std::string_view::npos) ? text.size() : nl + 1;
    if (row_end - block_start > block_size && last_row_end > block_start) {
      // Adding this row would overflow: close the block at the previous
      // row boundary ("we never split a row between two blocks", §3.1).
      blocks.push_back(text.substr(block_start, last_row_end - block_start));
      block_start = last_row_end;
    }
    last_row_end = row_end;
    pos = row_end;
  }
  if (block_start < text.size()) {
    blocks.push_back(text.substr(block_start));
  }
  return blocks;
}

namespace {

/// State for one client uploading one file (mirrors hdfs::ClientCursor but
/// with the HAIL conversion steps).
struct HailCursor {
  int client_node;
  std::string dfs_path;
  std::vector<std::string_view> blocks;
  sim::SimTime ready;  // client disk/CPU chain readiness
  sim::SimTime completed = 0.0;
  HailUploadReport stats;
};

/// One block's upload work that reads no cluster state: the client's
/// parse, PAX build and v3 encode, and the datanodes' single decode, stats
/// sidecar and node-independent replica bytes + chunk CRCs.
struct PreparedBlock {
  /// The serialised PAX block the client sends down the chain.
  std::string client_block;
  uint64_t bad_records = 0;
  uint64_t logical_records = 0;
  uint64_t logical_pax_bytes = 0;
  /// Begun and prepared, its decoded columns already freed on the worker:
  /// the pipeline's BuildReplica calls only bill and copy, and the commit
  /// thread frees only bytes it had to read.
  std::optional<HailReplicaTransformer> transformer;
};

/// Runs on a pool worker. Everything it reads is passed in and outlives
/// the call: UploadBlocks joins every prepare before it returns.
Result<PreparedBlock> PrepareBlock(const HailUploadConfig& config,
                                   const hdfs::DfsConfig& cfg,
                                   uint32_t index_partition_logical,
                                   std::string_view text_block) {
  const auto scaled = [&cfg](uint64_t real) {
    return static_cast<uint64_t>(static_cast<double>(real) * cfg.scale_factor);
  };
  // ---- client side: parse rows, build PAX (steps 1-2);
  // BuildPaxBlockFromText parses straight into typed columns ----
  const PaxBlock pax =
      BuildPaxBlockFromText(config.schema, text_block, cfg.format);
  PreparedBlock out;
  out.client_block = pax.Serialize();
  // Logical sizes come from the values-only payload: the real serialised
  // block carries offset side-cars at scaled-down density, which must not
  // be multiplied back up (DESIGN.md §2). With format-v3 encoding on, the
  // payload billed for transfer is the *stored* (compressed) extent of the
  // block just serialised.
  uint64_t stored_payload = pax.PayloadBytes();
  if (cfg.format.enable_encoding) {
    HAIL_ASSIGN_OR_RETURN(PaxBlockView encoded_view,
                          PaxBlockView::Open(out.client_block));
    stored_payload = encoded_view.stored_payload_bytes();
  }
  out.bad_records = pax.bad_records().size();
  out.logical_records = scaled(pax.num_records());
  out.logical_pax_bytes = scaled(stored_payload) + hdfs::kLogicalBlockOverhead;

  // ---- datanode side, the node-independent part of steps 6-9: one
  // decode, the stats sidecar, every replica's sort/index/serialise/CRC.
  // Padding the sort columns to the replication factor prepares the
  // arrival-order replicas here too. ----
  HailTransformParams params;
  params.sort_columns = config.sort_columns;
  params.sort_columns.resize(static_cast<size_t>(cfg.replication), -1);
  params.build_stats = config.build_stats;
  params.chunk_bytes = cfg.chunk_bytes;
  params.varlen_partition_size = cfg.format.varlen_partition_size;
  params.index_partition_logical = index_partition_logical;
  params.logical_pax_bytes = out.logical_pax_bytes;
  params.logical_fixed_bytes = scaled(pax.FixedPayloadBytes());
  params.logical_varlen_bytes = scaled(pax.VarlenPayloadBytes());
  params.logical_records = out.logical_records;
  out.transformer.emplace(std::move(params));
  HAIL_RETURN_NOT_OK(out.transformer->BeginBlock(out.client_block));
  HAIL_RETURN_NOT_OK(out.transformer->PrepareReplicas());
  return out;
}

/// Runs on the calling thread in the serial block order: books the
/// client's read and parse, allocates the block, and writes it through
/// the shared pipeline, which bills, stores and registers every replica.
Status CommitBlock(hdfs::MiniDfs* dfs, const HailUploadConfig& config,
                   std::string_view text_block, PreparedBlock* block,
                   HailCursor* cur) {
  const hdfs::DfsConfig& cfg = dfs->config();
  const uint64_t logical_text_bytes = static_cast<uint64_t>(
      static_cast<double>(text_block.size()) * cfg.scale_factor);

  // ---- client side: read source, parse rows, build PAX (steps 1-2);
  // with format v3 the client also pays an explicit per-value encode term
  // for the sampling + code-emission pass ----
  sim::SimNode& client = dfs->cluster().node(cur->client_node);
  const sim::Interval read = client.src_disk().Schedule(
      cur->ready, client.cost().DiskTransfer(logical_text_bytes));
  const double encode_cpu =
      cfg.format.enable_encoding
          ? client.cost().EncodeValues(
                block->logical_records *
                static_cast<uint64_t>(config.schema.num_fields()))
          : 0.0;
  const sim::Interval parse = client.cpu().Schedule(
      read.end, client.cost().TextParse(logical_text_bytes) +
                    client.cost().PaxBuild(block->logical_pax_bytes) +
                    encode_cpu);

  // ---- namenode: allocate block + targets (step 3) ----
  HAIL_ASSIGN_OR_RETURN(hdfs::BlockAllocation alloc,
                        dfs->namenode().AllocateBlock(
                            cur->dfs_path, cur->client_node, cfg.replication));

  // ---- steps 4-15 live in the shared transport: packets, ACKs, chain
  // timing, then per-replica billing and flush of the prepared replicas
  // on the datanodes ----
  HAIL_ASSIGN_OR_RETURN(
      hdfs::BlockWriteResult result,
      dfs->pipeline().WriteBlock(cur->client_node, parse.end, alloc.block_id,
                                 block->client_block, block->logical_pax_bytes,
                                 alloc.datanodes, &*block->transformer));

  // Client may start preparing the next block once its CPU freed up;
  // pipeline back-pressure is enforced by the resource queues.
  cur->ready = read.end;
  cur->completed = std::max(cur->completed, result.completed);
  cur->stats.blocks += 1;
  if (text_block.size() > cfg.block_size) {
    // A single row longer than the block size: CutRowAlignedBlocks
    // isolates it in its own oversized block (see hail_client.h).
    cur->stats.oversized_blocks += 1;
  }
  cur->stats.text_real_bytes += text_block.size();
  cur->stats.pax_real_bytes += block->client_block.size();
  cur->stats.replica_real_bytes += result.replica_bytes_total;
  cur->stats.bad_records += block->bad_records;
  return Status::OK();
}

HailUploadReport MergeReports(const std::vector<HailCursor>& cursors,
                              sim::SimTime start_time) {
  HailUploadReport report;
  report.started = start_time;
  for (const HailCursor& cur : cursors) {
    report.completed = std::max(report.completed, cur.completed);
    report.blocks += cur.stats.blocks;
    report.text_real_bytes += cur.stats.text_real_bytes;
    report.pax_real_bytes += cur.stats.pax_real_bytes;
    report.replica_real_bytes += cur.stats.replica_real_bytes;
    report.bad_records += cur.stats.bad_records;
    report.oversized_blocks += cur.stats.oversized_blocks;
  }
  return report;
}

/// The one HAIL ingest loop. Commits blocks on the calling thread in
/// round-robin order — one block per client per round, the order every
/// simulated number depends on — while the next blocks prepare on the
/// shared worker pool, about two per worker. Must not run on a pool
/// worker (it waits on the pool's futures). Every prepare is joined before
/// it returns, also on error, since prepares borrow \p config, the
/// uploaded texts and this frame.
Result<HailUploadReport> UploadBlocks(hdfs::MiniDfs* dfs,
                                      const HailUploadConfig& config,
                                      std::vector<HailCursor> cursors,
                                      sim::SimTime start_time) {
  struct Step {
    HailCursor* cur;
    std::string_view text_block;
  };
  std::vector<Step> order;
  for (size_t round = 0, added = 1; added > 0; ++round) {
    added = 0;
    for (HailCursor& cur : cursors) {
      if (round < cur.blocks.size()) {
        order.push_back({&cur, cur.blocks[round]});
        ++added;
      }
    }
  }

  const hdfs::DfsConfig cfg = dfs->config();
  const uint32_t index_partition_logical =
      dfs->cluster().constants().index_partition_logical;
  ThreadPool* pool = SharedPool();
  const size_t depth = 2 * pool->num_threads();
  using Window = std::deque<std::future<Result<PreparedBlock>>>;
  Window window;
  // Waits out every prepare still in flight when this frame unwinds,
  // including early error returns.
  struct JoinWindow {
    explicit JoinWindow(Window* w) : window(w) {}
    JoinWindow(const JoinWindow&) = delete;
    JoinWindow& operator=(const JoinWindow&) = delete;
    ~JoinWindow() {
      for (auto& prepare : *window) prepare.wait();
    }
    Window* window;
  } join(&window);

  size_t submitted = 0;
  for (const Step& step : order) {
    for (; submitted < order.size() && window.size() < depth; ++submitted) {
      const std::string_view text_block = order[submitted].text_block;
      window.push_back(
          pool->Submit([&config, &cfg, index_partition_logical, text_block] {
            return PrepareBlock(config, cfg, index_partition_logical,
                                text_block);
          }));
    }
    Window::value_type next = std::move(window.front());
    window.pop_front();
    HAIL_ASSIGN_OR_RETURN(PreparedBlock block, next.get());
    HAIL_RETURN_NOT_OK(
        CommitBlock(dfs, config, step.text_block, &block, step.cur));
  }
  return MergeReports(cursors, start_time);
}

}  // namespace

Result<HailUploadReport> HailUploadTextFile(hdfs::MiniDfs* dfs,
                                            const HailUploadConfig& config,
                                            int client_node,
                                            const std::string& dfs_path,
                                            std::string_view text,
                                            sim::SimTime start_time) {
  return HailParallelUpload(dfs, config, {{client_node, dfs_path, text}},
                            start_time);
}

Result<HailUploadReport> HailParallelUpload(
    hdfs::MiniDfs* dfs, const HailUploadConfig& config,
    const std::vector<hdfs::ParallelUploadSpec>& specs,
    sim::SimTime start_time) {
  if (static_cast<int>(config.sort_columns.size()) >
      dfs->config().replication) {
    return Status::InvalidArgument(
        "more sort columns than replicas: HAIL creates at most one index "
        "per replica");
  }
  std::vector<HailCursor> cursors;
  cursors.reserve(specs.size());
  for (const hdfs::ParallelUploadSpec& spec : specs) {
    HailCursor cur;
    cur.client_node = spec.client_node;
    cur.dfs_path = spec.dfs_path;
    cur.blocks = CutRowAlignedBlocks(spec.text, dfs->config().block_size);
    cur.ready = start_time;
    cursors.push_back(std::move(cur));
  }
  return UploadBlocks(dfs, config, std::move(cursors), start_time);
}

}  // namespace hail
