#include <algorithm>

#include "hail/hail_block.h"
#include "mapreduce/cached_block.h"
#include "mapreduce/record_reader.h"
#include "planner/access_path.h"
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

  /// Lazily deserialises the adaptive unclustered index (same protocol as
  /// the clustered Index(): decode once, count once, cache the error too).
  /// An index that does not cover exactly this block's rows is Corruption:
  /// its row ids become the read's selection vector.
  Result<const UnclusteredIndex*> Unclustered(hdfs::BlockCache* cache) const {
    std::lock_guard<std::mutex> lock(uc_mu_);
    if (!uc_ready_) {
      uc_ready_ = true;
      cache->NoteIndexDecode();
      Result<UnclusteredIndex> decoded = view.ReadUnclusteredIndex();
      if (decoded.ok()) {
        uc_status_ = decoded->CheckRowsOf(pax.num_records());
      } else {
        uc_status_ = decoded.status();
      }
      if (uc_status_.ok()) uc_.emplace(std::move(*decoded));
    }
    HAIL_RETURN_NOT_OK(uc_status_);
    return &*uc_;
  }

 private:
  mutable std::mutex uc_mu_;
  mutable bool uc_ready_ = false;
  mutable Status uc_status_;
  mutable std::optional<UnclusteredIndex> uc_;
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

/// \brief One projected column's typed batch accessor, opened once per
/// block so tuple reconstruction never goes through the per-value
/// GetAnyValue dispatch (and string columns decode sequentially instead of
/// re-scanning their partition per access).
struct ProjectedColumn {
  FieldType type = FieldType::kInt32;
  MiniPageEncoding enc = MiniPageEncoding::kPlain;
  ColumnSpan<int32_t> i32;
  ColumnSpan<int64_t> i64;
  ColumnSpan<double> f64;
  VarlenCursor varlen;
  // Encoded minipages (format v3): qualifying rows decode here, one value
  // at a time — the scan itself ran on the encoded form.
  ForSpan forspan;
  RleSpan<int32_t> rle_i32;
  RleSpan<int64_t> rle_i64;
  RleSpan<double> rle_f64;
  DictSpan dict;
  uint32_t rle_run = 0;  // sequential run cursor (selections are ascending)
};

Result<ProjectedColumn> OpenProjectedColumn(const PaxBlockView& pax,
                                            int column) {
  if (column < 0 || column >= pax.num_columns()) {
    return Status::InvalidArgument("projection references attribute @" +
                                   std::to_string(column + 1) +
                                   " outside the block");
  }
  ProjectedColumn out;
  out.type = pax.schema().field(column).type;
  out.enc = pax.column_encoding(column);
  switch (out.enc) {
    case MiniPageEncoding::kFor: {
      HAIL_ASSIGN_OR_RETURN(out.forspan, pax.ForSpanOf(column));
      return out;
    }
    case MiniPageEncoding::kRle: {
      switch (out.type) {
        case FieldType::kInt32:
        case FieldType::kDate: {
          HAIL_ASSIGN_OR_RETURN(out.rle_i32, pax.RleInt32Span(column));
          break;
        }
        case FieldType::kInt64: {
          HAIL_ASSIGN_OR_RETURN(out.rle_i64, pax.RleInt64Span(column));
          break;
        }
        default: {
          HAIL_ASSIGN_OR_RETURN(out.rle_f64, pax.RleDoubleSpan(column));
          break;
        }
      }
      return out;
    }
    case MiniPageEncoding::kDict: {
      HAIL_ASSIGN_OR_RETURN(out.dict, pax.DictSpanOf(column));
      return out;
    }
    case MiniPageEncoding::kPlain:
      break;
  }
  switch (out.type) {
    case FieldType::kInt32:
    case FieldType::kDate: {
      HAIL_ASSIGN_OR_RETURN(out.i32, pax.Int32Span(column));
      break;
    }
    case FieldType::kInt64: {
      HAIL_ASSIGN_OR_RETURN(out.i64, pax.Int64Span(column));
      break;
    }
    case FieldType::kDouble: {
      HAIL_ASSIGN_OR_RETURN(out.f64, pax.DoubleSpan(column));
      break;
    }
    case FieldType::kString: {
      HAIL_ASSIGN_OR_RETURN(out.varlen, pax.OpenVarlenCursor(column));
      break;
    }
  }
  return out;
}

/// Run-cursor access: ascending rows advance the remembered run index in
/// amortised O(1); a backward jump (new block range) re-seeks via the
/// branchless binary search.
template <typename T>
T RleAt(const RleSpan<T>& span, uint32_t* run, uint32_t row) {
  if (row < span.run_start(*run)) *run = span.RunContaining(row);
  while (span.run_end(*run) <= row) ++*run;
  return span.run_value(*run);
}

Result<Value> ReadProjectedValue(ProjectedColumn* col, uint32_t row) {
  switch (col->enc) {
    case MiniPageEncoding::kFor: {
      const int64_t v = col->forspan.Value(row);
      return col->type == FieldType::kInt64
                 ? Value(v)
                 : Value(static_cast<int32_t>(v));
    }
    case MiniPageEncoding::kRle:
      switch (col->type) {
        case FieldType::kInt32:
        case FieldType::kDate:
          return Value(RleAt(col->rle_i32, &col->rle_run, row));
        case FieldType::kInt64:
          return Value(RleAt(col->rle_i64, &col->rle_run, row));
        default:
          return Value(RleAt(col->rle_f64, &col->rle_run, row));
      }
    case MiniPageEncoding::kDict:
      return Value(std::string(col->dict.Value(row)));
    case MiniPageEncoding::kPlain:
      break;
  }
  switch (col->type) {
    case FieldType::kInt32:
    case FieldType::kDate:
      return Value(col->i32[row]);
    case FieldType::kInt64:
      return Value(col->i64[row]);
    case FieldType::kDouble:
      return Value(col->f64[row]);
    case FieldType::kString: {
      HAIL_ASSIGN_OR_RETURN(std::string_view s, col->varlen.Get(row));
      return Value(std::string(s));
    }
  }
  return Status::Corruption("unknown column type");
}

/// \brief HAIL RecordReader (§4.3): index scan + vectorized post-filter +
/// PAX->row tuple reconstruction; falls back to a full scan of a PAX
/// replica when no suitable index is alive.
///
/// The read path is index-range -> batched column filter (typed kernels
/// over zero-copy minipage spans) -> selection vector -> tuple
/// reconstruction only for qualifying rows.
class HailRecordReader : public RecordReader {
 public:
  Result<TaskCost> ReadSplit(const InputSplit& split,
                             ReadContext* ctx) override {
    TaskCost cost;
    for (size_t b = 0; b < split.blocks.size(); ++b) {
      HAIL_RETURN_NOT_OK(
          ReadOneBlock(split.block_indexes[b], ctx, &cost));
    }
    return cost;
  }

 private:
  Status ReadOneBlock(uint32_t block_index, ReadContext* ctx,
                      TaskCost* cost) {
    const hdfs::BlockLocation& loc = ctx->plan->file_blocks[block_index];
    const hdfs::DfsConfig& cfg = ctx->dfs->config();
    const int index_column = ctx->plan->index_column;

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

    // Replica choice via getHostsWithIndex (§4.3): prefer the local node,
    // then any node whose replica has the matching clustered index. When
    // no clustered replica matches, probe for an adaptive *unclustered*
    // index on the filter column (installed online by the reorganizer)
    // before falling back to a full scan. All eligible replicas form one
    // ordered failover list (indexed > unclustered > plain, local first
    // within each class): a dead or corrupt replica costs a wasted
    // attempt, not the task.
    const std::optional<KeyRange> key_range =
        (index_column >= 0 && ctx->spec->annotation.has_value())
            ? ctx->spec->annotation->filter.KeyRangeFor(index_column)
            : std::nullopt;
    enum : uint8_t { kIndexed = 0, kUnclustered = 1, kPlain = 2 };
    std::vector<int> candidates;
    std::vector<uint8_t> klass;
    auto add_hosts = [&](const std::vector<int>& hosts, uint8_t k) {
      auto add_one = [&](int h) {
        if (std::find(candidates.begin(), candidates.end(), h) ==
            candidates.end()) {
          candidates.push_back(h);
          klass.push_back(k);
        }
      };
      for (int h : hosts) {
        if (h == ctx->task_node) add_one(h);
      }
      for (int h : hosts) add_one(h);
    };
    // A planned full scan (fresh stats predicted an unclustered probe
    // would be abandoned, or no index exists) goes straight to the plain
    // replicas: no dense-index read is wasted before the inevitable pass.
    // Advisory only — with a clustered replica alive the planner never
    // chooses kFullScan, and missing stats leave the dynamic path intact.
    const bool planned_scan = decision != nullptr && decision->stats_fresh &&
                              decision->path == planner::AccessPath::kFullScan;
    if (index_column >= 0 && !planned_scan) {
      add_hosts(ctx->dfs->namenode().GetHostsWithIndex(loc.block_id,
                                                       index_column),
                kIndexed);
      if (key_range.has_value()) {
        add_hosts(ctx->dfs->namenode().GetHostsWithUnclusteredIndex(
                      loc.block_id, index_column),
                  kUnclustered);
      }
    }
    add_hosts(loc.datanodes, kPlain);

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
      HAIL_ASSIGN_OR_RETURN(cached, OpenCachedHailBlock(*ctx, candidates[winner],
                                                        loc.block_id, bytes));
      const HailBlockView& view = cached->view;
      Status probe;
      if (klass[winner] == kIndexed && view.has_index() &&
          view.sort_column() == index_column && key_range.has_value()) {
        Result<const ClusteredIndex*> decoded =
            cached->Index(&ctx->dfs->block_cache());
        probe = decoded.ok()
                    ? (*decoded)->CheckRowsOf(cached->pax.num_records())
                    : decoded.status();
        if (probe.ok()) index = *decoded;
      } else if (klass[winner] == kUnclustered &&
                 view.unclustered_column() == index_column) {
        Result<const UnclusteredIndex*> decoded =
            cached->Unclustered(&ctx->dfs->block_cache());
        probe = decoded.status();
        if (probe.ok()) uc = *decoded;
      }
      if (probe.ok()) break;
      if (!probe.IsCorruption()) return probe;
      BillCorruptRead(ctx, loc.block_id, loc.logical_bytes,
                      candidates[winner], cost);
    }
    const int dn = candidates[winner];
    const bool indexed = klass[winner] == kIndexed;
    const bool unclustered = klass[winner] == kUnclustered;
    if (klass[winner] == kPlain && index_column >= 0) {
      ctx->stats.fallback_scan = true;
    }
    const PaxBlockView& pax = cached->pax;

    const double scale = cfg.scale_factor;
    const uint64_t logical_records = static_cast<uint64_t>(
        static_cast<double>(pax.num_records()) * scale);
    const sim::CostModel& node_cost =
        ctx->dfs->cluster().node(ctx->task_node).cost();
    const sim::CostModel& disk_cost = ctx->dfs->cluster().node(dn).cost();
    const sim::CostConstants& c = ctx->dfs->cluster().constants();

    // Columns the task touches: filter columns + projection (all when no
    // projection was annotated, §4.3).
    std::vector<int> proj;
    if (ctx->spec->annotation.has_value() &&
        !ctx->spec->annotation->projection.empty()) {
      proj = ctx->spec->annotation->projection;
    } else {
      for (int i = 0; i < pax.num_columns(); ++i) proj.push_back(i);
    }
    std::vector<int> filter_cols;
    if (ctx->spec->annotation.has_value()) {
      filter_cols = ctx->spec->annotation->filter.ReferencedColumns();
    }

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
    const Predicate* filter = ctx->spec->annotation.has_value()
                                  ? &ctx->spec->annotation->filter
                                  : nullptr;
    const bool has_filter = filter != nullptr && !filter->empty();
    const uint32_t clamped_end = std::min(range.end, pax.num_records());
    if (has_filter) {
      HAIL_ASSIGN_OR_RETURN(CompiledPredicate compiled,
                            CompiledPredicate::Compile(*filter, pax.schema()));
      if (uc_scan) {
        // Every term is conservatively re-applied to the candidate rows —
        // including the key-range terms the index already satisfied
        // (redundant but O(candidates), and it keeps the probe correct if
        // an index ever returns a superset).
        HAIL_RETURN_NOT_OK(compiled.RefineCandidates(pax, &selection));
      } else {
        HAIL_RETURN_NOT_OK(compiled.FilterBlock(pax, range, &selection));
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
    // qualifying rows: typed spans for fixed columns, one sequential
    // varlen cursor per projected string column (selection vectors are
    // ascending, so each string partition is decoded at most once).
    if (qualifying > 0) {
      std::vector<ProjectedColumn> accessors;
      accessors.reserve(proj.size());
      for (int colm : proj) {
        HAIL_ASSIGN_OR_RETURN(ProjectedColumn accessor,
                              OpenProjectedColumn(pax, colm));
        accessors.push_back(std::move(accessor));
      }
      for (uint64_t i = 0; i < qualifying; ++i) {
        const uint32_t r = use_selection
                               ? selection[static_cast<size_t>(i)]
                               : range.begin + static_cast<uint32_t>(i);
        std::vector<Value> values;
        values.reserve(proj.size());
        for (ProjectedColumn& accessor : accessors) {
          HAIL_ASSIGN_OR_RETURN(Value v, ReadProjectedValue(&accessor, r));
          values.push_back(std::move(v));
        }
        InvokeMap(*ctx, HailRecord::Projected(proj, std::move(values)),
                  /*already_filtered=*/true);
      }
    }
    // Bad records are handed to the map function with a flag (§4.3);
    // the cursor walks the bad section once instead of O(n^2) re-skips.
    HAIL_ASSIGN_OR_RETURN(BadRecordCursor bad, pax.OpenBadRecords());
    while (!bad.Done()) {
      HAIL_ASSIGN_OR_RETURN(std::string_view raw, bad.Next());
      InvokeMap(*ctx, HailRecord::BadRecord(std::string(raw)),
                /*already_filtered=*/true);
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

    // ---- cost ----
    const double fraction =
        pax.num_records() == 0
            ? 0.0
            : static_cast<double>(range.size()) /
                  static_cast<double>(pax.num_records());
    // Records the CPU actually looked at: the index range for (full/index)
    // scans, only the index's candidate rows for unclustered probes.
    const uint64_t logical_range_records = static_cast<uint64_t>(
        static_cast<double>(uc_scan ? uc_candidates : range.size()) * scale);
    const uint64_t logical_qualifying = static_cast<uint64_t>(
        static_cast<double>(qualifying) * scale);

    // Columns the scan touches beyond the index itself.
    std::vector<int> accessed_cols = filter_cols;
    for (int colm : proj) {
      if (std::find(accessed_cols.begin(), accessed_cols.end(), colm) ==
          accessed_cols.end()) {
        accessed_cols.push_back(colm);
      }
    }

    uint64_t bytes_read = 0;
    int column_seeks = 0;
    if (uc_scan) {
      // §3.5's unclustered economics: the dense index (one key+rowid entry
      // per record) is read in full, then every qualifying record costs a
      // random partition-granular access per touched column. Pays off only
      // for very selective queries — exactly the paper's argument.
      bytes_read += LogicalDenseIndexBytes(
          logical_records, pax.schema().field(index_column).type);
      column_seeks += 1;
      const uint64_t logical_candidates = static_cast<uint64_t>(
          static_cast<double>(uc_candidates) * scale);
      const uint64_t logical_partitions =
          logical_records / c.index_partition_logical + 1;
      // Candidates land in random partitions; with n candidates over P
      // partitions at most min(n, P) distinct partitions are touched.
      const uint64_t partitions_touched =
          std::min<uint64_t>(logical_candidates, logical_partitions);
      for (int colm : accessed_cols) {
        const uint64_t col_logical = static_cast<uint64_t>(
            static_cast<double>(pax.column_value_bytes(colm)) * scale);
        bytes_read += partitions_touched * (col_logical / logical_partitions);
        column_seeks += static_cast<int>(partitions_touched);
      }
    } else if (index_scan) {
      // Header + index root: read in full, a few KB at paper scale.
      bytes_read += LogicalSparseIndexBytes(
          logical_records, c.index_partition_logical,
          pax.schema().field(index_column).type, /*pointer_bytes=*/4);
      column_seeks += 1;
      if (!range.empty()) {
        for (int colm : accessed_cols) {
          const uint64_t col_logical = static_cast<uint64_t>(
              static_cast<double>(pax.column_value_bytes(colm)) * scale);
          bytes_read +=
              static_cast<uint64_t>(fraction * static_cast<double>(col_logical));
          column_seeks += 1;  // each minipage slice is a separate extent
        }
      }
    } else {
      // Full scan of the PAX replica: every minipage, one pass. Billed on
      // values-only bytes (the real offset side-cars are scaled-down
      // dense; at paper scale they are negligible).
      uint64_t value_bytes = 0;
      for (int colm = 0; colm < pax.num_columns(); ++colm) {
        value_bytes += pax.column_value_bytes(colm);
      }
      bytes_read =
          static_cast<uint64_t>(static_cast<double>(value_bytes) * scale);
      column_seeks = 1;
      if (uc_abandoned) {
        // The probe read the dense index before deciding to scan.
        bytes_read += LogicalDenseIndexBytes(
            logical_records, pax.schema().field(index_column).type);
        column_seeks += 1;
      }
    }

    const double seek_s =
        c.block_open_ms / 1000.0 + column_seeks * disk_cost.DiskSeek();
    const double transfer_s = disk_cost.DiskTransfer(bytes_read);
    cost->disk_seconds += seek_s + transfer_s;
    cost->ledger.Bill(obs::CostBucket::kSeek, seek_s);
    cost->ledger.Bill(obs::CostBucket::kTransfer, transfer_s);
    const double cpu_s = node_cost.Crc(bytes_read) +
                         node_cost.PredicateEval(logical_range_records) +
                         node_cost.Reconstruct(logical_qualifying,
                                               static_cast<int>(proj.size())) +
                         node_cost.MapCalls(logical_qualifying);
    cost->cpu_seconds += cpu_s;
    cost->ledger.Bill(obs::CostBucket::kCpu, cpu_s);
    // Scan-on-compressed (format v3): the filter ran on the encoded form,
    // so only qualifying rows pay the per-value decode, once per encoded
    // projected column. Zero for v1/v2 blocks (every column reads kPlain).
    uint64_t encoded_projected = 0;
    for (int colm : proj) {
      if (pax.column_encoding(colm) != MiniPageEncoding::kPlain) {
        ++encoded_projected;
      }
    }
    if (encoded_projected > 0) {
      const double decode_s =
          node_cost.DecodeValues(logical_qualifying * encoded_projected);
      cost->cpu_seconds += decode_s;
      cost->ledger.Bill(obs::CostBucket::kDecode, decode_s);
    }
    if (!index_scan && !uc_scan) {
      // Full scans decode every record, not just qualifying ones.
      const double scan_cpu_s =
          node_cost.Reconstruct(logical_range_records, pax.num_columns());
      cost->cpu_seconds += scan_cpu_s;
      cost->ledger.Bill(obs::CostBucket::kCpu, scan_cpu_s);
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
      ctx->trace->Attr(bspan, "replica",
                       indexed ? "clustered"
                               : (unclustered ? "unclustered" : "plain"));
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
