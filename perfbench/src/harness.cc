/// \file harness.cc
/// \brief The benchmark harness: one workload per process.
///
///   perfbench_harness --workload upload|bob-queries|shared-session
///                     --seed N --seconds S --trace 0|1
///                     [--exec default|serial|parallel]
///                     [--blocks-per-node N] [--setups N] [--trace-dir DIR]
///
/// Set-up (generation, set-up uploads, warm-up) runs --setups times
/// (default 5) and is reported as its median. The timed phase then
/// repeats the workload's end-to-end call for --seconds. Every simulated
/// output is checked against a layout-free reference and folded into a
/// %.17g digest that must not depend on wall time, thread count or
/// execution mode. --exec, --blocks-per-node and --setups exist for the
/// benchmark's own tests, which make small runs with them; the benchmark
/// command leaves them at their defaults.
///
/// --trace 0 prints the end-to-end metrics; --trace 1 replays the last
/// call through each layer's entry points and prints the per-layer
/// metrics. On the query workloads it alternates untraced and traced
/// calls (the traced ones turn on the program's simulated-clock tracer and
/// EXPLAIN profiles) and replays the last traced one; the upload path
/// takes no tracer, so there its tracing overhead is 0. Output: a
/// summary table, one `PERFBENCH_DETAIL {...}` line, and the result JSON
/// as the last line. A failed check prints no result and exits 1.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "adaptive/adaptive_manager.h"
#include "mapreduce/scheduler.h"
#include "obs/trace.h"
#include "planner/plan_cache.h"
#include "replay.h"
#include "schema/row_parser.h"
#include "spans.h"
#include "stats.h"
#include "util/macros.h"
#include "util/thread_pool.h"
#include "workload/testbed.h"

namespace perfbench {
namespace {

namespace hdfs = hail::hdfs;
namespace mapreduce = hail::mapreduce;
namespace workload = hail::workload;
using hail::Result;
using hail::Status;

// ---------------------------------------------------------------------------
// Metric catalogue. The gated end-to-end metrics are defined on every
// workload and steady across runs; wall-clock throughput and latency are
// reported beside them (Report::Extra) but not gated, because the CPU
// speed of a shared machine drifts by more than any bound over minutes.
// The per-layer list is printed in full by every traced run, with 0 for a
// layer the workload bypasses.
// ---------------------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"job_sim_p50_s", "s"},
    {"stored_bytes_per_input_byte", "ratio"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"workload.generate_ms", "ms"},
    {"schema.parse_build_ms", "ms"},
    {"schema.parse_mb_s", "MB/s"},
    {"schema.bad_records", "count"},
    {"layout.serialize_ms", "ms"},
    {"layout.pax_bytes_per_text_byte", "ratio"},
    {"layout.text_bytes", "bytes"},
    {"layout.view_open_us", "us"},
    {"hail.decode_block_ms", "ms"},
    {"hail.replica_build_ms", "ms"},
    {"hail.block_open_us", "us"},
    {"hail.index_decode_us", "us"},
    {"hail.repairs_completed", "count"},
    {"planner.stats_build_ms", "ms"},
    {"planner.plan_us_per_block", "us"},
    {"planner.cache_hits", "count"},
    {"planner.cache_misses", "count"},
    {"planner.zone_skipped_blocks", "count"},
    {"planner.prediction_error", "ratio"},
    {"planner.planned_jobs", "count"},
    {"util.crc32c_gb_s", "GB/s"},
    {"hdfs.upload_self_ms", "ms"},
    {"hdfs.verify_ms", "ms"},
    {"hdfs.cache_verify_hits", "count"},
    {"hdfs.cache_verify_misses", "count"},
    {"hdfs.cache_artifact_hits", "count"},
    {"hdfs.cache_artifact_misses", "count"},
    {"hdfs.cache_index_decodes", "count"},
    {"hdfs.cache_evicted_entries", "count"},
    {"hdfs.cache_invalidated_entries", "count"},
    {"hdfs.replica_bytes", "bytes"},
    {"index.probe_us", "us"},
    {"index.range_rows_frac", "ratio"},
    {"index.block_rows", "count"},
    {"index.blocks_pruned", "count"},
    {"query.filter_ns_per_row", "ns"},
    {"query.rows_filtered", "count"},
    {"query.selectivity", "ratio"},
    {"mapreduce.compute_plan_ms", "ms"},
    {"mapreduce.read_split_us_per_block", "us"},
    {"mapreduce.reader_self_ms", "ms"},
    {"mapreduce.engine_self_ms", "ms"},
    {"mapreduce.engine_us_per_task", "us"},
    {"mapreduce.map_tasks", "count"},
    {"mapreduce.records_seen", "count"},
    {"mapreduce.records_qualifying", "count"},
    {"mapreduce.task_retries", "count"},
    {"mapreduce.speculative_attempts", "count"},
    {"mapreduce.speculative_wins", "count"},
    {"mapreduce.preemptions", "count"},
    {"mapreduce.jobs_shed", "count"},
    {"mapreduce.slo_violations", "count"},
    {"mapreduce.maintenance_while_foreground_pending", "count"},
    {"mapreduce.queue_wait_sim_p50_s", "s"},
    {"mapreduce.queue_wait_sim_p99_s", "s"},
    {"adaptive.maintenance_completed", "count"},
    {"adaptive.replicas_added", "count"},
    {"adaptive.replicas_evicted", "count"},
    {"sim.seek_s", "s"},
    {"sim.transfer_s", "s"},
    {"sim.network_s", "s"},
    {"sim.cpu_s", "s"},
    {"sim.decode_s", "s"},
    {"sim.encode_s", "s"},
    {"sim.failover_reread_s", "s"},
    {"sim.wasted_preemption_s", "s"},
    {"sim.wasted_speculation_s", "s"},
    {"sim.split_phase_s", "s"},
    {"sim.planner_s", "s"},
    {"obs.tracing_overhead_frac", "ratio"},
    {"obs.untraced_root_ms", "ms"},
    {"obs.negative_residuals", "count"},
};

// ---------------------------------------------------------------------------
// Arguments, clocks, output.
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  mapreduce::ExecutionMode exec = mapreduce::ExecutionMode::kDefault;
  uint32_t blocks_per_node = 0;  // 0 = the workload's own size
  int setups = 5;
  std::string trace_dir;
};

double NowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// A metric as printed: value, unit, the clock it was read on and how
/// many samples it summarises.
struct Metric {
  double value = 0.0;
  std::string unit;
  std::string clock;
  size_t samples = 1;
};

std::string Num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

/// Everything one run measured and checked.
struct Report {
  Outcomes outcomes;
  /// Gated end-to-end metrics (kEndToEnd).
  std::map<std::string, Metric> e2e;
  /// End-to-end metrics defined only on this workload (summary + detail).
  std::map<std::string, Metric> workload_e2e;
  /// Per-layer values by kPerLayer name (traced runs).
  std::map<std::string, double> layers;
  /// Raw counts behind reported ratios and self times.
  std::map<std::string, double> bases;
  std::vector<std::string> failures;
  std::string digest;
  std::string dumps;  // the canonical simulated dump the digest hashes

  void Fail(const std::string& why) { failures.push_back(why); }
  void Check(bool ok, const std::string& why) {
    if (!ok) Fail(why);
  }
  void CheckOk(const Status& st, const std::string& what) {
    if (!st.ok()) Fail(what + ": " + st.ToString());
  }
  void E2e(const char* name, double value, size_t samples, const char* clock) {
    std::string unit;
    for (const MetricDef& d : kEndToEnd) {
      if (std::strcmp(d.name, name) == 0) unit = d.unit;
    }
    e2e[name] = Metric{value, unit, clock, samples};
  }
  void Extra(const char* name, double value, const char* unit, size_t samples,
             const char* clock) {
    workload_e2e[name] = Metric{value, unit, clock, samples};
  }
};

// ---------------------------------------------------------------------------
// Datasets and references.
// ---------------------------------------------------------------------------

/// Paper-scale UserVisits: 10 nodes x 320 blocks of 32 KB real (64 MB
/// logical) per node, every node uploading the same generated text.
workload::TestbedConfig PaperConfig(const Args& args, uint32_t blocks) {
  workload::TestbedConfig config;
  config.num_nodes = 10;
  config.real_block_bytes = 32 * 1024;
  config.logical_block_bytes = 64ull * 1024 * 1024;
  config.blocks_per_node = args.blocks_per_node > 0 ? args.blocks_per_node
                                                    : blocks;
  config.seed = args.seed;
  return config;
}

/// The text Testbed::LoadUserVisits generates for every node (the config
/// shares one text across nodes). The upload report cross-checks it.
std::string NodeText(const workload::TestbedConfig& config) {
  workload::UserVisitsConfig uv;
  uv.rows = static_cast<uint64_t>(
      static_cast<double>(config.blocks_per_node) *
      static_cast<double>(config.real_block_bytes) /
      workload::UserVisitsAvgRowBytes());
  uv.seed = config.seed;
  uv.scale_factor = static_cast<double>(config.logical_block_bytes) /
                    static_cast<double>(config.real_block_bytes);
  uv.time_ordered = config.time_ordered_uservisits;
  return workload::GenerateUserVisitsText(uv);
}

std::string PartPath(const std::string& dir, int node) {
  char part[32];
  std::snprintf(part, sizeof(part), "/part-%05d", node);
  return dir + part;
}

std::vector<hdfs::ParallelUploadSpec> UploadSpecs(const std::string& text,
                                                  int nodes,
                                                  const std::string& dir) {
  std::vector<hdfs::ParallelUploadSpec> specs;
  for (int i = 0; i < nodes; ++i) {
    specs.push_back(hdfs::ParallelUploadSpec{i, PartPath(dir, i), text});
  }
  return specs;
}

std::vector<std::string> PartFiles(const std::string& dir, int nodes) {
  std::vector<std::string> files;
  for (int i = 0; i < nodes; ++i) files.push_back(PartPath(dir, i));
  return files;
}

std::string DumpUpload(const hail::HailUploadReport& r) {
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "upload start=%.17g done=%.17g blocks=%u text=%llu pax=%llu "
                "replicas=%llu bad=%llu oversized=%u",
                r.started, r.completed, r.blocks,
                static_cast<unsigned long long>(r.text_real_bytes),
                static_cast<unsigned long long>(r.pax_real_bytes),
                static_cast<unsigned long long>(r.replica_real_bytes),
                static_cast<unsigned long long>(r.bad_records),
                r.oversized_blocks);
  return buf;
}

/// Rows the row-at-a-time parser accepts in each row-aligned block.
std::vector<uint32_t> GoodRowsPerBlock(const std::string& text,
                                       uint64_t block_size,
                                       const hail::Schema& schema) {
  hail::RowParser parser(schema);
  std::vector<uint32_t> out;
  for (std::string_view block : hail::CutRowAlignedBlocks(text, block_size)) {
    uint32_t good = 0;
    for (std::string_view row : hail::SplitRows(block)) {
      if (!row.empty() && row.back() == '\n') row.remove_suffix(1);
      if (parser.Parse(row).ok) ++good;
    }
    out.push_back(good);
  }
  return out;
}

/// Layout-free reference: rows of \p text matching \p query's filter,
/// row at a time through RowParser + Predicate::Matches.
Result<uint64_t> ReferenceCount(const std::string& text,
                                const hail::Schema& schema,
                                const workload::QueryDef& query) {
  HAIL_ASSIGN_OR_RETURN(
      hail::QueryAnnotation annotation,
      hail::ParseAnnotation(schema, query.filter, query.projection));
  hail::RowParser parser(schema);
  uint64_t matches = 0;
  for (std::string_view row : hail::SplitRows(text)) {
    if (!row.empty() && row.back() == '\n') row.remove_suffix(1);
    const hail::ParsedRow parsed = parser.Parse(row);
    if (parsed.ok && annotation.filter.Matches(parsed.values)) ++matches;
  }
  return matches;
}

/// Checks a finished upload's replicas: each passes ReadBlockVerified
/// and opens, and holds exactly the rows the reference parser accepted.
void CheckStoredUpload(const hdfs::MiniDfs& dfs, const std::string& dir,
                       int nodes, const std::vector<uint32_t>& good_rows,
                       int replication, Report* report) {
  StoredTally stored;
  const Status st = ProbeStoredReplicas(nullptr, 0, 0, dfs,
                                        PartFiles(dir, nodes), &stored);
  report->CheckOk(st, "stored replicas of " + dir);
  if (!st.ok()) return;
  for (const auto& [file, blocks] : stored.records) {
    report->Check(blocks.size() == good_rows.size(),
                  file + ": block count differs from the reference cut");
    for (size_t b = 0; b < blocks.size() && b < good_rows.size(); ++b) {
      report->Check(blocks[b].size() == static_cast<size_t>(replication),
                    file + ": block " + std::to_string(b) +
                        " is under-replicated");
      for (uint32_t records : blocks[b]) {
        report->Check(records == good_rows[b],
                      file + ": block " + std::to_string(b) +
                          " replica row count differs from the parser's");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Traced-run helpers.
// ---------------------------------------------------------------------------

/// Block-cache counters of the DFS metrics registry.
struct CacheCounters {
  static constexpr const char* kNames[] = {
      "verify_hits",   "verify_misses",   "artifact_hits",
      "artifact_misses", "index_decodes", "evicted_entries",
      "invalidated_entries"};
  std::map<std::string, uint64_t> values;
  static CacheCounters Zero() {
    CacheCounters out;
    for (const char* name : kNames) out.values[name] = 0;
    return out;
  }
  static CacheCounters Read(const hdfs::MiniDfs& dfs) {
    CacheCounters out;
    for (const char* name : kNames) {
      out.values[name] =
          dfs.metrics().counter(std::string("cache.") + name)->Value();
    }
    return out;
  }
  void StoreDelta(const CacheCounters& before, Report* report) const {
    for (const auto& [name, value] : values) {
      report->layers["hdfs.cache_" + name] =
          static_cast<double>(value - before.values.at(name));
    }
  }
};

/// Simulated queue wait of each job in a program trace: job span start to
/// its first map task.
std::vector<double> QueueWaits(const hail::obs::Tracer& tracer) {
  std::map<uint64_t, double> job_start;
  std::map<uint64_t, double> first_task;
  for (const hail::obs::TraceSpan& s : tracer.spans()) {
    if (s.name == "job") job_start[s.id] = s.start;
  }
  for (const hail::obs::TraceSpan& s : tracer.spans()) {
    if (s.name != "map_task" || job_start.count(s.parent) == 0) continue;
    auto [it, inserted] = first_task.emplace(s.parent, s.start);
    if (!inserted) it->second = std::min(it->second, s.start);
  }
  std::vector<double> waits;
  for (const auto& [job, start] : first_task) {
    waits.push_back(start - job_start[job]);
  }
  return waits;
}

/// Sums the billed ledgers of finished jobs into the sim.* buckets.
void AddLedgers(const std::vector<const mapreduce::JobResult*>& jobs,
                Report* report) {
  hail::obs::CostLedger total;
  for (const mapreduce::JobResult* job : jobs) total.Add(job->cost);
  for (int b = 0; b < hail::obs::kNumCostBuckets; ++b) {
    const auto bucket = static_cast<hail::obs::CostBucket>(b);
    report->layers[std::string("sim.") + hail::obs::CostBucketName(bucket) +
                   "_s"] = static_cast<double>(total.bucket(bucket)) * 1e-9;
  }
}

double MeanUs(const std::vector<Span>& spans, const char* name) {
  const uint64_t n = SpanLog::Count(spans, name);
  return n == 0 ? 0.0 : SpanLog::TotalMs(spans, name) * 1000.0 /
                            static_cast<double>(n);
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Per-layer figures every replay yields the same way.
void StoreReplayLayers(const std::vector<Span>& spans,
                       const IngestTally& ingest, const StoredTally& stored,
                       const QueryTally& query, Report* report) {
  auto& L = report->layers;
  const double parse_ms = SpanLog::TotalMs(spans, "BuildPaxBlockFromText");
  L["schema.parse_build_ms"] = parse_ms;
  L["schema.parse_mb_s"] =
      Ratio(static_cast<double>(ingest.text_bytes) / 1e6, parse_ms / 1e3);
  L["schema.bad_records"] = static_cast<double>(ingest.bad_records);
  L["layout.serialize_ms"] = SpanLog::TotalMs(spans, "PaxBlock::Serialize");
  L["layout.pax_bytes_per_text_byte"] =
      Ratio(static_cast<double>(ingest.serialized_bytes),
            static_cast<double>(ingest.text_bytes));
  L["layout.text_bytes"] = static_cast<double>(ingest.text_bytes);
  L["layout.view_open_us"] = MeanUs(spans, "HailBlockView::OpenPax");
  L["hail.decode_block_ms"] =
      SpanLog::TotalMs(spans, "HailReplicaTransformer::BeginBlock");
  L["hail.replica_build_ms"] =
      SpanLog::TotalMs(spans, "HailReplicaTransformer::BuildReplica");
  L["hail.block_open_us"] = MeanUs(spans, "HailBlockView::Open");
  L["hail.index_decode_us"] = MeanUs(spans, "HailBlockView::ReadIndex");
  L["planner.stats_build_ms"] =
      SpanLog::TotalMs(spans, "planner::BlockStats::Build");
  L["planner.plan_us_per_block"] =
      Ratio(SpanLog::TotalMs(spans, "planner::PlanAccessPaths") * 1e3,
            static_cast<double>(query.plan_blocks));
  const double crc_bytes =
      static_cast<double>(ingest.replica_bytes + stored.replica_bytes);
  L["util.crc32c_gb_s"] =
      Ratio(crc_bytes / 1e9, SpanLog::TotalMs(spans, "crc32c::Value") / 1e3);
  L["hdfs.verify_ms"] = SpanLog::TotalMs(spans, "Datanode::ReadBlockVerified");
  L["index.probe_us"] = MeanUs(spans, "ClusteredIndex::Lookup");
  L["index.range_rows_frac"] = Ratio(static_cast<double>(query.range_rows),
                                     static_cast<double>(query.block_rows));
  L["index.block_rows"] = static_cast<double>(query.block_rows);
  L["index.blocks_pruned"] = static_cast<double>(query.blocks_pruned);
  L["query.filter_ns_per_row"] =
      Ratio(SpanLog::TotalMs(spans, "CompiledPredicate::FilterBlock") * 1e6,
            static_cast<double>(query.rows_filtered));
  L["query.rows_filtered"] = static_cast<double>(query.rows_filtered);
  L["query.selectivity"] = Ratio(static_cast<double>(query.rows_qualifying),
                                 static_cast<double>(query.rows_filtered));
  L["sim.split_phase_s"] = query.split_phase_s;
  L["sim.planner_s"] = query.planner_s;

  // ReadSplit minus the probe and filter replayed under it, per job whose
  // blocks were replayed (ReadSplit spans of other jobs have no children).
  const std::vector<SelfTime> self = SpanLog::SelfTimes(spans);
  double reader_self = 0.0;
  for (uint64_t id : query.block_read_spans) reader_self += self[id - 1].self;
  L["mapreduce.reader_self_ms"] =
      Ratio(reader_self, static_cast<double>(query.block_jobs));
  L["mapreduce.read_split_us_per_block"] =
      Ratio(SpanLog::TotalMs(spans, "ReadSplit") * 1e3,
            static_cast<double>(query.split_blocks));
  L["mapreduce.compute_plan_ms"] =
      Ratio(SpanLog::TotalMs(spans, "ComputeJobPlan"),
            static_cast<double>(query.plans));
  report->bases["reader_self_total_ms"] = reader_self;
  report->bases["block_replayed_jobs"] = static_cast<double>(query.block_jobs);
  report->bases["replayed_splits"] = static_cast<double>(query.splits);
  report->bases["replayed_plans"] = static_cast<double>(query.plans);
  report->bases["stored_replicas_probed"] =
      static_cast<double>(stored.replicas);
  report->bases["crc_bytes"] = crc_bytes;
}

/// Root self times: sum of the uncovered remainders of the root spans,
/// counting negative residuals instead of clamping them.
double RootSelfMs(const std::vector<Span>& spans,
                  const std::vector<uint64_t>& roots, Report* report) {
  const std::vector<SelfTime> self_times = SpanLog::SelfTimes(spans);
  double self = 0.0;
  uint64_t negative = 0;
  for (const Span& s : spans) {
    if (s.parent != 0 && s.name == "ReadSplit" &&
        self_times[s.id - 1].negative) {
      ++negative;
    }
  }
  for (uint64_t root : roots) {
    const SelfTime& t = self_times[root - 1];
    self += t.self;
    if (t.negative) {
      ++negative;
      std::fprintf(stderr,
                   "perfbench: negative residual under %s: %.3f ms of "
                   "children in a %.3f ms call\n",
                   spans[root - 1].name.c_str(), t.covered, t.duration);
    }
  }
  report->layers["obs.negative_residuals"] = static_cast<double>(negative);
  return self;
}

void StoreOverhead(const std::vector<double>& untraced_ms,
                   const std::vector<double>& traced_ms, Report* report) {
  const double base = Median(untraced_ms);
  report->layers["obs.untraced_root_ms"] = base;
  report->layers["obs.tracing_overhead_frac"] =
      Ratio(Median(traced_ms) - base, base);
  report->bases["untraced_calls"] = static_cast<double>(untraced_ms.size());
  report->bases["traced_calls"] = static_cast<double>(traced_ms.size());
}

void WriteSpans(const Args& args, const std::vector<Span>& spans) {
  if (args.trace_dir.empty()) return;
  const std::string path = args.trace_dir + "/spans-" + args.workload +
                           "-seed" + std::to_string(args.seed) + ".json";
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"id\":%llu,\"parent\":%llu,\"op\":%llu,\"name\":%s,"
                 "\"start_ms\":%s,\"end_ms\":%s,\"probe\":%s}%s\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.op), Quote(s.name).c_str(),
                 Num(s.start_ms).c_str(), Num(s.end_ms).c_str(),
                 s.probe ? "true" : "false", i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
}

/// Records the size of a workload's dataset beside its figures.
void StoreDatasetSize(const hail::HailUploadReport& upload, int replication,
                      Report* report) {
  report->bases["dataset_text_bytes"] =
      static_cast<double>(upload.text_real_bytes);
  report->bases["dataset_blocks"] = upload.blocks;
  report->bases["dataset_replicas"] =
      static_cast<double>(upload.blocks) * replication;
}

/// One workload's set-up, repeated --setups times: the median is
/// `setup_s`, and the other set-up figures are medians too.
struct SetupSamples {
  std::vector<double> setup_s;
  std::vector<double> generate_ms;
  void Store(Report* report) const {
    report->E2e("setup_s", Median(setup_s), setup_s.size(), "wall");
    report->layers["workload.generate_ms"] = Median(generate_ms);
  }
};

/// The closed-loop deadline: at least \p min_calls calls, then until
/// --seconds of wall time have passed. Traced runs alternate untraced
/// and traced calls and always end on a traced one.
struct Deadline {
  double end;
  size_t min_calls;
  bool traced_run;
  bool Done(size_t calls) const {
    return calls >= min_calls && NowS() >= end &&
           (!traced_run || calls % 2 == 0);
  }
};

// ---------------------------------------------------------------------------
// upload: HailParallelUpload of paper-scale UserVisits into a fresh
// cluster, v3 encoding + block stats, three sorted replicas.
// ---------------------------------------------------------------------------

void RunUpload(const Args& args, Report* report) {
  workload::TestbedConfig config = PaperConfig(args, 320);
  config.encode_blocks = true;
  config.build_stats = true;
  const std::vector<int> sort = {workload::kVisitDate, workload::kSourceIP,
                                 workload::kAdRevenue};
  const std::string text = NodeText(config);
  const hail::Schema schema = workload::UserVisitsSchema();
  const std::vector<uint32_t> good_rows =
      GoodRowsPerBlock(text, config.real_block_bytes, schema);
  const double text_mb =
      static_cast<double>(text.size()) * config.num_nodes / 1e6;

  // Set-up: generation plus one untimed upload (the first upload of a
  // process runs slower).
  SetupSamples setup;
  for (int i = 0; i < args.setups; ++i) {
    const double t0 = NowS();
    workload::Testbed bed(config);
    bed.LoadUserVisits();
    const double t1 = NowS();
    auto warm = bed.UploadHail("/uv", sort);
    setup.setup_s.push_back(NowS() - t0);
    setup.generate_ms.push_back((t1 - t0) * 1e3);
    report->CheckOk(warm.status(), "set-up upload");
    if (!warm.ok()) return;
  }
  setup.Store(report);

  // HailParallelUpload takes no tracer, so a traced run times the same
  // calls as an untraced one and replays the last of them.
  std::vector<double> call_ms;
  std::vector<double> sim_s;
  std::optional<hail::HailUploadReport> last;
  SpanLog log;
  const Deadline deadline{NowS() + args.seconds, 1, /*traced_run=*/false};
  size_t calls = 0;
  while (!deadline.Done(calls)) {
    workload::Testbed bed(config);
    bed.LoadUserVisits();
    const uint64_t op = log.NewOp();
    const double t0 = log.NowMs();
    auto result = bed.UploadHail("/uv", sort);
    const double t1 = log.NowMs();
    ++calls;
    report->outcomes.attempted += 1;
    if (!result.ok()) {
      report->outcomes.errored += 1;
      report->Fail("upload: " + result.status().ToString());
      return;
    }
    report->outcomes.completed += 1;
    call_ms.push_back(t1 - t0);
    sim_s.push_back(result->duration());
    const std::string dump = DumpUpload(*result);
    if (report->dumps.empty()) report->dumps = dump;
    report->Check(dump == report->dumps,
                  "upload: repeated uploads of the same input differ");
    report->Check(result->text_real_bytes ==
                      static_cast<uint64_t>(text.size()) * config.num_nodes,
                  "upload: reference text differs from the uploaded text");
    last = *result;
    if (!deadline.Done(calls)) continue;
    if (args.trace) {
      // Replay the last upload through the ingest layers, then probe its
      // replicas while the block cache is still cold.
      const uint64_t root = log.Add("HailParallelUpload", 0, op, t0, t1);
      hail::HailUploadConfig upload_config;
      upload_config.schema = schema;
      upload_config.sort_columns = sort;
      upload_config.build_stats = config.build_stats;
      IngestTally ingest;
      report->CheckOk(
          ReplayUpload(&log, root, op, bed.dfs(), upload_config,
                       UploadSpecs(text, config.num_nodes, "/uv"), &ingest),
          "upload replay");
      StoredTally stored;
      report->CheckOk(
          ProbeStoredReplicas(&log, root, op, bed.dfs(),
                              PartFiles("/uv", config.num_nodes), &stored),
          "stored-replica probe");
      // A fresh cluster per upload: its counters cover exactly this call
      // and the probe.
      CacheCounters::Read(bed.dfs()).StoreDelta(CacheCounters::Zero(), report);
      const std::vector<Span> spans = log.Snapshot();
      StoreReplayLayers(spans, ingest, stored, QueryTally{}, report);
      report->layers["hdfs.upload_self_ms"] = RootSelfMs(spans, {root}, report);
      report->layers["hdfs.replica_bytes"] =
          static_cast<double>(result->replica_real_bytes);
      WriteSpans(args, spans);
    }
    CheckStoredUpload(bed.dfs(), "/uv", config.num_nodes, good_rows,
                      config.replication, report);
  }
  if (args.trace) {
    // Nothing traces inside the upload path and the replay runs after the
    // call, so tracing costs the upload nothing.
    report->layers["obs.untraced_root_ms"] = Median(call_ms);
    report->layers["obs.tracing_overhead_frac"] = 0.0;
    report->bases["untraced_calls"] = static_cast<double>(call_ms.size());
  }
  const double upload_s = Median(call_ms) / 1e3;
  report->Extra("jobs_per_s", Ratio(1.0, upload_s), "1/s", call_ms.size(),
                "wall");
  report->Extra("ingest_mb_s", Ratio(text_mb, upload_s), "MB/s",
                call_ms.size(), "wall");
  // The upload is this workload's job: one simulated time, gated once.
  report->E2e("job_sim_p50_s", Median(sim_s), sim_s.size(), "sim");
  report->Extra("upload_sim_s", Median(sim_s), "s", sim_s.size(), "sim");
  report->E2e("stored_bytes_per_input_byte",
              Ratio(static_cast<double>(last->replica_real_bytes),
                    static_cast<double>(last->text_real_bytes)),
              1, "-");
  StoreDatasetSize(*last, config.replication, report);
}

// ---------------------------------------------------------------------------
// bob-queries: Bob-Q1..Q5 on HAIL with HailSplitting over the paper's
// plain v1 layout, hot block cache, one client.
// ---------------------------------------------------------------------------

struct LoadedDataset {
  std::unique_ptr<workload::Testbed> bed;
  hail::HailUploadReport upload;
};

void RunBobQueries(const Args& args, Report* report) {
  const workload::TestbedConfig config = PaperConfig(args, 320);
  const std::vector<int> sort = {workload::kVisitDate, workload::kSourceIP,
                                 workload::kAdRevenue};
  const std::vector<workload::QueryDef> queries = workload::BobQueries();
  const std::string text = NodeText(config);
  const hail::Schema schema = workload::UserVisitsSchema();
  std::vector<uint64_t> expected;
  for (const workload::QueryDef& q : queries) {
    auto count = ReferenceCount(text, schema, q);
    report->CheckOk(count.status(), "reference count for " + q.name);
    if (!count.ok()) return;
    expected.push_back(*count * static_cast<uint64_t>(config.num_nodes));
  }

  auto run_pass = [&](workload::Testbed* bed,
                      const mapreduce::RunOptions& options,
                      std::vector<mapreduce::JobResult>* results,
                      std::vector<std::pair<double, double>>* wall) {
    for (size_t q = 0; q < queries.size(); ++q) {
      const double t0 = NowS();
      auto r = bed->RunQuery(mapreduce::System::kHail, "/uv", queries[q],
                             /*hail_splitting=*/true, options);
      const double t1 = NowS();
      report->outcomes.attempted += 1;
      if (!r.ok()) {
        report->outcomes.errored += 1;
        report->Fail(queries[q].name + ": " + r.status().ToString());
        return false;
      }
      report->outcomes.completed += 1;
      report->Check(r->records_qualifying == expected[q] &&
                        r->output_count == expected[q],
                    queries[q].name + ": " +
                        std::to_string(r->records_qualifying) +
                        " qualifying / " + std::to_string(r->output_count) +
                        " output rows, reference says " +
                        std::to_string(expected[q]));
      results->push_back(std::move(*r));
      if (wall != nullptr) wall->push_back({t0, t1});
    }
    return true;
  };

  mapreduce::RunOptions plain;
  plain.execution = args.exec;

  // Set-up: generation, upload, one warm-up pass (cold verify, open and
  // index decode happen here, so the timed passes run hot).
  SetupSamples setup;
  LoadedDataset data;
  for (int i = 0; i < args.setups; ++i) {
    data = LoadedDataset{};
    const double t0 = NowS();
    data.bed = std::make_unique<workload::Testbed>(config);
    data.bed->LoadUserVisits();
    const double t1 = NowS();
    auto up = data.bed->UploadHail("/uv", sort);
    report->CheckOk(up.status(), "set-up upload");
    if (!up.ok()) return;
    data.upload = *up;
    data.bed->FreeSourceTexts();
    std::vector<mapreduce::JobResult> warm;
    if (!run_pass(data.bed.get(), plain, &warm, nullptr)) return;
    setup.setup_s.push_back(NowS() - t0);
    setup.generate_ms.push_back((t1 - t0) * 1e3);
  }
  setup.Store(report);
  report->Check(data.upload.text_real_bytes ==
                    static_cast<uint64_t>(text.size()) * config.num_nodes,
                "bob-queries: reference text differs from the uploaded text");
  report->Extra("upload_sim_s", data.upload.duration(), "s", 1, "sim");
  report->E2e("stored_bytes_per_input_byte",
              Ratio(static_cast<double>(data.upload.replica_real_bytes),
                    static_cast<double>(data.upload.text_real_bytes)),
              1, "-");
  report->layers["hdfs.replica_bytes"] =
      static_cast<double>(data.upload.replica_real_bytes);
  StoreDatasetSize(data.upload, config.replication, report);

  // Timed passes (closed loop). Traced runs alternate untraced and traced
  // passes; the traced ones turn on the program's tracer and profiles.
  std::vector<double> job_ms;
  std::vector<double> job_sim;
  std::vector<double> pass_billed;
  std::vector<double> pass_rate;
  std::vector<double> untraced_ms;
  std::vector<double> traced_ms;
  std::string first_dump;
  const size_t kMinJobs = 200;
  const Deadline deadline{NowS() + args.seconds,
                          (kMinJobs + queries.size() - 1) / queries.size(),
                          args.trace};
  size_t passes = 0;
  hail::obs::Tracer tracer;
  std::vector<mapreduce::JobResult> traced_results;
  std::vector<std::pair<double, double>> traced_wall;
  CacheCounters before_traced;
  CacheCounters after_traced;
  while (!deadline.Done(passes)) {
    const bool traced = args.trace && passes % 2 == 1;
    mapreduce::RunOptions options = plain;
    if (traced) {
      tracer.Clear();
      options.tracer = &tracer;
      options.profile = true;
      before_traced = CacheCounters::Read(data.bed->dfs());
    }
    std::vector<mapreduce::JobResult> results;
    std::vector<std::pair<double, double>> wall;
    if (!run_pass(data.bed.get(), options, &results, &wall)) return;
    ++passes;
    std::string dump;
    double billed = 0.0;
    pass_rate.push_back(Ratio(static_cast<double>(results.size()),
                              wall.back().second - wall.front().first));
    for (size_t q = 0; q < results.size(); ++q) {
      const double ms = (wall[q].second - wall[q].first) * 1e3;
      job_ms.push_back(ms);
      (traced ? traced_ms : untraced_ms).push_back(ms);
      job_sim.push_back(results[q].end_to_end_seconds);
      billed += results[q].billed_cost_seconds;
      dump += workload::DumpResult(results[q]) + "\n" +
              workload::DumpCost(results[q].cost) + "\n";
    }
    pass_billed.push_back(billed);
    if (first_dump.empty()) first_dump = dump;
    report->Check(dump == first_dump,
                  "bob-queries: a timed pass differs from the first");
    if (traced) {
      after_traced = CacheCounters::Read(data.bed->dfs());
      traced_results = std::move(results);
      traced_wall = std::move(wall);
    }
  }
  report->dumps = first_dump;

  report->Extra("jobs_per_s", Median(pass_rate), "1/s", pass_rate.size(),
                "wall");
  report->E2e("job_sim_p50_s", NearestRank(job_sim, 50), job_sim.size(),
              "sim");
  report->Extra("job_wall_p50_ms", NearestRank(job_ms, 50), "ms",
                job_ms.size(), "wall");
  if (PercentileResolved(job_ms.size(), 95)) {
    report->Extra("job_wall_p95_ms", NearestRank(job_ms, 95), "ms",
                  job_ms.size(), "wall");
  }
  if (PercentileResolved(job_sim.size(), 99)) {
    report->Extra("job_sim_p99_s", NearestRank(job_sim, 99), "s",
                  job_sim.size(), "sim");
  }
  report->Extra("billed_cost_s", Median(pass_billed), "s", pass_billed.size(),
                "sim");

  if (!args.trace) return;
  StoreOverhead(untraced_ms, traced_ms, report);
  // Replay the last traced pass: one root span per RunQuery.
  SpanLog log;
  std::vector<uint64_t> roots;
  std::vector<uint64_t> ops;
  const double shift = log.NowMs() - traced_wall.front().first * 1e3;
  for (const auto& [t0, t1] : traced_wall) {
    const uint64_t op = log.NewOp();
    ops.push_back(op);
    roots.push_back(log.Add("Testbed::RunQuery", 0, op, t0 * 1e3 + shift,
                            t1 * 1e3 + shift));
  }
  hail::ThreadPool pool(hail::ThreadPool::DefaultThreads());
  QueryTally query;
  for (size_t q = 0; q < queries.size(); ++q) {
    auto spec = workload::MakeQueryJob(schema, "/uv", mapreduce::System::kHail,
                                       queries[q], /*hail_splitting=*/true);
    report->CheckOk(spec.status(), "replay spec");
    if (!spec.ok()) return;
    auto plan = ReplayPlan(&log, roots[q], ops[q], &data.bed->dfs(), *spec,
                           &query);
    report->CheckOk(plan.status(), "replay plan " + queries[q].name);
    if (!plan.ok()) return;
    report->CheckOk(ReplayReads(&log, roots[q], ops[q], &data.bed->dfs(),
                                *spec, *plan, &pool, /*blocks=*/true, &query),
                    "replay reads " + queries[q].name);
  }
  StoredTally stored;
  report->CheckOk(ProbeStoredReplicas(&log, 0, log.NewOp(), data.bed->dfs(),
                                      PartFiles("/uv", config.num_nodes),
                                      &stored),
                  "stored-replica probe");
  const std::vector<Span> spans = log.Snapshot();
  StoreReplayLayers(spans, IngestTally{}, stored, query, report);
  after_traced.StoreDelta(before_traced, report);
  const double engine_self = RootSelfMs(spans, roots, report);
  uint64_t tasks = 0;
  uint64_t seen = 0;
  uint64_t qualifying = 0;
  std::vector<const mapreduce::JobResult*> jobs;
  for (const mapreduce::JobResult& r : traced_results) {
    tasks += r.map_tasks;
    seen += r.records_seen;
    qualifying += r.records_qualifying;
    jobs.push_back(&r);
  }
  auto& L = report->layers;
  L["mapreduce.engine_self_ms"] =
      Ratio(engine_self, static_cast<double>(roots.size()));
  L["mapreduce.engine_us_per_task"] =
      Ratio(engine_self * 1e3, static_cast<double>(tasks));
  L["mapreduce.map_tasks"] = static_cast<double>(tasks);
  L["mapreduce.records_seen"] = static_cast<double>(seen);
  L["mapreduce.records_qualifying"] = static_cast<double>(qualifying);
  const std::vector<double> waits = QueueWaits(tracer);
  L["mapreduce.queue_wait_sim_p50_s"] = NearestRank(waits, 50);
  L["mapreduce.queue_wait_sim_p99_s"] = NearestRank(waits, 99);
  AddLedgers(jobs, report);
  for (const mapreduce::JobResult& r : traced_results) {
    report->Check(r.profile.has_value() &&
                      r.profile->cost == r.cost,
                  "bob-queries: EXPLAIN profile disagrees with the ledger");
  }
  WriteSpans(args, spans);
}

// ---------------------------------------------------------------------------
// shared-session: one ClusterSession::Run of three tenants on an open
// arrival schedule (simulated clock), with faults, adaptation and a plan
// cache.
// ---------------------------------------------------------------------------

// Arrival schedule on the simulated clock, fixed whatever the
// completions (open loop). Short Bob-Q1 jobs arrive every kShortSpacingS
// over the session's span; the heavy tenant floods kFloodJobs scans at
// the start, then streams kSustainedJobs across the span; kIngestFiles
// uploads of fresh part files are spread across it too, each followed
// by a dependent Bob-Q2 on the new file. The spacing sits just below the
// short tenant's saturation point: its p99 starts to climb at 4 s and
// its median at 3.5 s.
constexpr int kShortJobs = 1000;
constexpr double kShortSpacingS = 5.0;
constexpr double kSpanS = kShortJobs * kShortSpacingS;
constexpr int kFloodJobs = 8;
constexpr double kFloodSpacingS = 15.0;
constexpr int kSustainedJobs = 24;
constexpr int kIngestFiles = 12;
constexpr uint64_t kIngestRows = 4000;
constexpr double kShortSloS = 120.0;
constexpr double kKillAtS = 0.4 * kSpanS;
constexpr double kReviveAfterS = 120.0;

struct SessionPlanItem {
  enum class Kind { kShort, kHeavy, kIngest } kind;
  double time;
  int order;
  int ingest_file = -1;
};

std::vector<SessionPlanItem> SessionSchedule() {
  std::vector<SessionPlanItem> items;
  int order = 0;
  for (int i = 0; i < kShortJobs; ++i) {
    items.push_back({SessionPlanItem::Kind::kShort, kShortSpacingS * i,
                     order++});
  }
  for (int i = 0; i < kFloodJobs; ++i) {
    items.push_back({SessionPlanItem::Kind::kHeavy, kFloodSpacingS * i,
                     order++});
  }
  for (int i = 0; i < kSustainedJobs; ++i) {
    items.push_back({SessionPlanItem::Kind::kHeavy,
                     kSpanS * (i + 1) / (kSustainedJobs + 1), order++});
  }
  for (int i = 0; i < kIngestFiles; ++i) {
    items.push_back({SessionPlanItem::Kind::kIngest,
                     kSpanS * (i + 0.5) / kIngestFiles, order++, i});
  }
  std::sort(items.begin(), items.end(),
            [](const SessionPlanItem& a, const SessionPlanItem& b) {
              return a.time != b.time ? a.time < b.time : a.order < b.order;
            });
  return items;
}

/// The heavy tenant: adRevenue scans no base replica is sorted on.
const workload::QueryDef& HeavyScan() {
  static const workload::QueryDef q{"Heavy-Scan", "@4 between(1,10)",
                                    "{@1,@4}", 1.7e-2};
  return q;
}

struct SessionInputs {
  workload::TestbedConfig config;
  std::vector<std::string> ingest_texts;
  std::vector<uint64_t> ingest_expected;  // Bob-Q2 reference per file
  uint64_t short_expected = 0;            // Bob-Q1 reference on the base
  uint64_t heavy_expected = 0;
  hail::sim::FaultPlan faults;
};

/// One session, built on a fresh cluster: the session mutates the DFS
/// (uploads, kills, repairs, extra replicas), so every run starts over.
struct SessionRun {
  std::unique_ptr<workload::Testbed> bed;
  std::unique_ptr<hail::adaptive::AdaptiveManager> manager;
  std::unique_ptr<hail::planner::PlanCache> cache;
  std::unique_ptr<mapreduce::ClusterSession> session;
  /// Per submitted job: its kind, its query spec (queries) and the ingest
  /// file it uploads or reads (-1 for none).
  std::vector<SessionPlanItem::Kind> kinds;
  std::vector<std::optional<mapreduce::JobSpec>> specs;
  std::vector<int> ingest_file;
  std::vector<mapreduce::UploadJobSpec> uploads;
  hail::HailUploadReport base;
  double generate_ms = 0.0;

  /// Tears down users of the DFS before the DFS itself.
  void Clear() {
    session.reset();
    cache.reset();
    manager.reset();
    bed.reset();
    kinds.clear();
    specs.clear();
    ingest_file.clear();
    uploads.clear();
  }
};

Result<SessionInputs> MakeSessionInputs(const Args& args) {
  SessionInputs in;
  in.config = PaperConfig(args, 16);
  in.config.encode_blocks = true;
  in.config.build_stats = true;
  const double scale = static_cast<double>(in.config.logical_block_bytes) /
                       static_cast<double>(in.config.real_block_bytes);
  const hail::Schema schema = workload::UserVisitsSchema();
  const auto bob = workload::BobQueries();
  for (int i = 0; i < kIngestFiles; ++i) {
    workload::UserVisitsConfig uv;
    uv.rows = kIngestRows;
    uv.seed = args.seed * 7919 + 101 + static_cast<uint64_t>(i);
    uv.scale_factor = scale;
    in.ingest_texts.push_back(workload::GenerateUserVisitsText(uv));
    HAIL_ASSIGN_OR_RETURN(uint64_t q2,
                          ReferenceCount(in.ingest_texts.back(), schema, bob[1]));
    in.ingest_expected.push_back(q2);
  }
  const std::string base = NodeText(in.config);
  const uint64_t nodes = static_cast<uint64_t>(in.config.num_nodes);
  HAIL_ASSIGN_OR_RETURN(uint64_t q1, ReferenceCount(base, schema, bob[0]));
  HAIL_ASSIGN_OR_RETURN(uint64_t heavy,
                        ReferenceCount(base, schema, HeavyScan()));
  in.short_expected = q1 * nodes;
  in.heavy_expected = heavy * nodes;
  // One seeded node kill (revived two minutes later) and one slow node.
  const int n = in.config.num_nodes;
  hail::sim::FaultPlan::Kill kill;
  kill.node = static_cast<int>(args.seed % static_cast<uint64_t>(n));
  kill.at_time = kKillAtS;
  kill.revive_after = kReviveAfterS;
  in.faults.kills.push_back(kill);
  hail::sim::FaultPlan::Slow slow;
  slow.node =
      (kill.node + 1 + static_cast<int>(args.seed / static_cast<uint64_t>(n) %
                                        static_cast<uint64_t>(n - 1))) %
      n;
  slow.factor = 2.0;
  in.faults.slow_nodes.push_back(slow);
  return in;
}

Status BuildSession(const Args& args, const SessionInputs& in,
                    hail::obs::Tracer* tracer, SessionRun* run) {
  const double t0 = NowS();
  run->bed = std::make_unique<workload::Testbed>(in.config);
  run->bed->LoadUserVisits();
  const double t1 = NowS();
  HAIL_ASSIGN_OR_RETURN(run->base,
                        run->bed->UploadHail("/uv", {workload::kVisitDate}));
  run->generate_ms = (t1 - t0) * 1e3;
  run->bed->FreeSourceTexts();
  const hail::Schema& schema = run->bed->schema();

  // Aggressive replication under a 16-block budget, online, with the
  // planner's default regret thresholds.
  hail::adaptive::AdaptiveConfig acfg;
  acfg.planner.aggressive_replication = true;
  acfg.planner.replication_budget_bytes = 16 * in.config.real_block_bytes;
  run->manager = std::make_unique<hail::adaptive::AdaptiveManager>(
      &run->bed->dfs(), schema, "/uv", acfg);
  run->cache = std::make_unique<hail::planner::PlanCache>();

  mapreduce::SessionOptions opt;
  opt.execution = args.exec;
  opt.policy = mapreduce::SchedulerPolicy::kFair;
  opt.queue_weights = {{"short", 6.0}, {"heavy", 2.0}, {"ingest", 2.0}};
  opt.queue_slo_s = {{"short", kShortSloS}};
  opt.queue_admission["heavy"].max_backlog_jobs = 16;
  opt.queue_admission["heavy"].shed_wait_s = 3600.0;
  opt.preemption = true;
  opt.preemption_catchup_s = 20.0;
  opt.adaptive = run->manager.get();
  opt.online_adaptation = true;
  opt.plan_cache = run->cache.get();
  opt.fault_plan = in.faults;
  opt.self_heal = true;
  opt.speculative_execution = true;
  opt.tracer = tracer;
  run->session =
      std::make_unique<mapreduce::ClusterSession>(&run->bed->dfs(), opt);

  const auto bob = workload::BobQueries();
  auto query = [&](const std::string& file,
                   const workload::QueryDef& q) -> Result<mapreduce::JobSpec> {
    HAIL_ASSIGN_OR_RETURN(mapreduce::JobSpec spec,
                          workload::MakeQueryJob(schema, file,
                                                 mapreduce::System::kHail, q,
                                                 /*hail_splitting=*/true));
    spec.use_planner = q.name != HeavyScan().name;
    return spec;
  };
  HAIL_ASSIGN_OR_RETURN(mapreduce::JobSpec short_spec, query("/uv", bob[0]));
  HAIL_ASSIGN_OR_RETURN(mapreduce::JobSpec heavy_spec,
                        query("/uv", HeavyScan()));
  auto note = [&](SessionPlanItem::Kind kind,
                  std::optional<mapreduce::JobSpec> spec, int file) {
    run->kinds.push_back(kind);
    run->specs.push_back(std::move(spec));
    run->ingest_file.push_back(file);
  };
  for (const SessionPlanItem& item : SessionSchedule()) {
    switch (item.kind) {
      case SessionPlanItem::Kind::kShort:
        run->session->Submit(short_spec, "short", item.time);
        note(item.kind, short_spec, -1);
        break;
      case SessionPlanItem::Kind::kHeavy:
        run->session->Submit(heavy_spec, "heavy", item.time);
        note(item.kind, heavy_spec, -1);
        break;
      case SessionPlanItem::Kind::kIngest: {
        const int i = item.ingest_file;
        const std::string file = "/ingest/part-" + std::to_string(i);
        mapreduce::UploadJobSpec up;
        up.name = "ingest-" + std::to_string(i);
        up.system = mapreduce::System::kHail;
        up.hail.schema = schema;
        up.hail.sort_columns = {workload::kVisitDate, workload::kSourceIP,
                                workload::kAdRevenue};
        up.hail.build_stats = true;
        up.files.push_back({i % in.config.num_nodes, file,
                            in.ingest_texts[static_cast<size_t>(i)]});
        run->uploads.push_back(up);
        const int upload_id = run->session->SubmitUpload(up, "ingest", item.time);
        note(item.kind, std::nullopt, i);
        HAIL_ASSIGN_OR_RETURN(mapreduce::JobSpec fresh, query(file, bob[1]));
        run->session->Submit(fresh, "short", item.time, upload_id);
        note(SessionPlanItem::Kind::kShort, fresh, i);
        break;
      }
    }
  }
  return Status::OK();
}

/// Checks a finished session and folds its outcome into the report.
/// Returns the completed job count.
uint64_t CheckSession(const SessionInputs& in, const SessionRun& run,
                      const mapreduce::SessionResult& result, Report* report) {
  report->Check(result.jobs.size() == run.kinds.size(),
                "shared-session: job count differs from submissions");
  report->Check(result.maintenance_while_foreground_pending == 0,
                "shared-session: maintenance ran while foreground work was "
                "pending");
  uint64_t completed = 0;
  for (size_t j = 0; j < result.jobs.size() && j < run.kinds.size(); ++j) {
    const auto& job = result.jobs[j];
    report->outcomes.attempted += 1;
    if (!job.ok()) {
      if (job.status().IsOverloaded()) {
        report->outcomes.shed += 1;
      } else {
        report->outcomes.errored += 1;
        report->Fail("shared-session job " + std::to_string(j) + ": " +
                     job.status().ToString());
      }
      continue;
    }
    report->outcomes.completed += 1;
    ++completed;
    if (!run.specs[j].has_value()) continue;  // an upload
    uint64_t expected = in.heavy_expected;
    if (run.kinds[j] == SessionPlanItem::Kind::kShort) {
      expected = run.ingest_file[j] >= 0
                     ? in.ingest_expected[static_cast<size_t>(run.ingest_file[j])]
                     : in.short_expected;
    }
    report->Check(job->records_qualifying == expected &&
                      job->output_count == expected,
                  "shared-session job " + std::to_string(j) + " (" +
                      job->job_name + "): " +
                      std::to_string(job->records_qualifying) +
                      " qualifying rows, reference says " +
                      std::to_string(expected));
  }
  return completed;
}

void RunSharedSession(const Args& args, Report* report) {
  auto inputs = MakeSessionInputs(args);
  report->CheckOk(inputs.status(), "shared-session inputs");
  if (!inputs.ok()) return;
  const SessionInputs& in = *inputs;

  // Set-up: generation, base upload and one warm-up session.
  SetupSamples setup;
  SessionRun run;
  std::optional<mapreduce::SessionResult> sim;
  for (int i = 0; i < args.setups; ++i) {
    run.Clear();
    const double t0 = NowS();
    report->CheckOk(BuildSession(args, in, nullptr, &run), "session set-up");
    if (!report->failures.empty()) return;
    auto warm = run.session->Run();
    setup.setup_s.push_back(NowS() - t0);
    report->CheckOk(warm.status(), "warm-up session");
    if (!warm.ok()) return;
    CheckSession(in, run, *warm, report);
    sim = std::move(*warm);
    setup.generate_ms.push_back(run.generate_ms);
  }
  setup.Store(report);
  report->Extra("upload_sim_s", run.base.duration(), "s", 1, "sim");
  report->E2e("stored_bytes_per_input_byte",
              Ratio(static_cast<double>(run.base.replica_real_bytes),
                    static_cast<double>(run.base.text_real_bytes)),
              1, "-");
  report->layers["hdfs.replica_bytes"] =
      static_cast<double>(run.base.replica_real_bytes);
  StoreDatasetSize(run.base, in.config.replication, report);
  report->dumps = workload::DumpSession(*sim);
  const std::vector<SessionPlanItem::Kind> kinds = run.kinds;

  // Timed sessions: each on a fresh cluster (rebuilt untimed); only
  // ClusterSession::Run is timed.
  std::vector<double> untraced_ms;
  std::vector<double> traced_ms;
  std::vector<double> session_rate;
  std::optional<mapreduce::SessionResult> traced_result;
  hail::obs::Tracer tracer;
  SpanLog log;
  uint64_t root = 0;
  uint64_t root_op = 0;
  CacheCounters before_traced;
  CacheCounters after_traced;
  const Deadline deadline{NowS() + args.seconds, 1, args.trace};
  size_t sessions = 0;
  while (!deadline.Done(sessions)) {
    const bool traced = args.trace && sessions % 2 == 1;
    run.Clear();
    tracer.Clear();
    report->CheckOk(BuildSession(args, in, traced ? &tracer : nullptr, &run),
                    "session set-up");
    if (!report->failures.empty()) return;
    if (traced) before_traced = CacheCounters::Read(run.bed->dfs());
    const uint64_t op = log.NewOp();
    const double t0 = log.NowMs();
    auto result = run.session->Run();
    const double t1 = log.NowMs();
    ++sessions;
    report->CheckOk(result.status(), "session");
    if (!result.ok()) return;
    const uint64_t completed = CheckSession(in, run, *result, report);
    session_rate.push_back(
        Ratio(static_cast<double>(completed), (t1 - t0) / 1e3));
    (traced ? traced_ms : untraced_ms).push_back(t1 - t0);
    report->Check(workload::DumpSession(*result) == report->dumps,
                  "shared-session: a timed session differs from the "
                  "warm-up session");
    if (traced) {
      after_traced = CacheCounters::Read(run.bed->dfs());
      root_op = op;
      root = log.Add("ClusterSession::Run", 0, op, t0, t1);
      traced_result = std::move(*result);
    }
  }
  std::vector<double> all_ms = untraced_ms;
  all_ms.insert(all_ms.end(), traced_ms.begin(), traced_ms.end());
  report->Extra("jobs_per_s", Median(session_rate), "1/s",
                session_rate.size(), "wall");

  // Simulated figures: every session is identical (checked above).
  const mapreduce::QueueUsage* short_q = nullptr;
  for (const mapreduce::QueueUsage& q : sim->queues) {
    if (q.queue == "short") short_q = &q;
  }
  report->Check(short_q != nullptr, "shared-session: no short queue");
  if (short_q == nullptr) return;
  uint64_t short_submitted = 0;
  uint64_t short_failed = 0;
  double billed = 0.0;
  for (size_t j = 0; j < sim->jobs.size(); ++j) {
    if (sim->jobs[j].ok()) billed += sim->jobs[j]->billed_cost_seconds;
    if (kinds[j] != SessionPlanItem::Kind::kShort) continue;
    ++short_submitted;
    if (!sim->jobs[j].ok()) ++short_failed;
  }
  report->E2e("job_sim_p50_s", short_q->latency_p50_s, short_q->jobs_completed,
              "sim");
  if (PercentileResolved(short_q->jobs_completed, 99)) {
    report->Extra("job_sim_p99_s", short_q->latency_p99_s, "s",
                  short_q->jobs_completed, "sim");
  }
  report->Extra("slo_miss_frac",
                Ratio(static_cast<double>(short_q->slo_violations + short_failed),
                      static_cast<double>(short_submitted)),
                "ratio", short_submitted, "sim");
  report->Extra("billed_cost_s", billed, "s", sim->jobs.size(), "sim");
  report->Extra("session_wall_p50_ms", Median(all_ms), "ms", all_ms.size(),
                "wall");

  if (!args.trace || !traced_result.has_value()) return;
  StoreOverhead(untraced_ms, traced_ms, report);
  const mapreduce::SessionResult& tr = *traced_result;
  auto& L = report->layers;
  after_traced.StoreDelta(before_traced, report);
  L["planner.cache_hits"] = static_cast<double>(tr.plan_cache_hits);
  L["planner.cache_misses"] = static_cast<double>(tr.plan_cache_misses);
  L["planner.planned_jobs"] = static_cast<double>(tr.jobs_planned);
  L["planner.prediction_error"] = run.manager->observer().PredictionError();
  L["hail.repairs_completed"] = tr.repairs_completed;
  L["mapreduce.task_retries"] = tr.task_retries;
  L["mapreduce.speculative_attempts"] = tr.speculative_attempts;
  L["mapreduce.speculative_wins"] = tr.speculative_wins;
  L["mapreduce.preemptions"] = tr.preemptions;
  L["mapreduce.jobs_shed"] = tr.jobs_shed;
  L["mapreduce.slo_violations"] = static_cast<double>(tr.slo_violations_total);
  L["mapreduce.maintenance_while_foreground_pending"] =
      static_cast<double>(tr.maintenance_while_foreground_pending);
  L["adaptive.maintenance_completed"] = tr.maintenance_completed;
  L["adaptive.replicas_added"] = tr.replicas_added;
  L["adaptive.replicas_evicted"] = tr.replicas_evicted;
  uint64_t tasks = 0;
  uint64_t seen = 0;
  uint64_t qualifying = 0;
  uint64_t zone_skipped = 0;
  std::vector<const mapreduce::JobResult*> jobs;
  for (const auto& job : tr.jobs) {
    if (!job.ok()) continue;
    tasks += job->map_tasks;
    seen += job->records_seen;
    qualifying += job->records_qualifying;
    zone_skipped += job->zone_skipped_blocks;
    jobs.push_back(&*job);
  }
  L["mapreduce.map_tasks"] = static_cast<double>(tasks);
  L["mapreduce.records_seen"] = static_cast<double>(seen);
  L["mapreduce.records_qualifying"] = static_cast<double>(qualifying);
  L["planner.zone_skipped_blocks"] = static_cast<double>(zone_skipped);
  AddLedgers(jobs, report);
  const std::vector<double> waits = QueueWaits(tracer);
  L["mapreduce.queue_wait_sim_p50_s"] = NearestRank(waits, 50);
  L["mapreduce.queue_wait_sim_p99_s"] = NearestRank(waits, 99);

  // Replay the traced session: every ingest file through the ingest
  // layers, one plan per distinct query, every query job's reads (the
  // first job of each distinct query also through probe + filter).
  hail::ThreadPool pool(hail::ThreadPool::DefaultThreads());
  IngestTally ingest;
  for (const mapreduce::UploadJobSpec& up : run.uploads) {
    std::vector<hdfs::ParallelUploadSpec> specs;
    for (const auto& f : up.files) {
      specs.push_back({f.client_node, f.dfs_path, f.text});
    }
    report->CheckOk(ReplayUpload(&log, root, root_op, run.bed->dfs(), up.hail,
                                 specs, &ingest),
                    "ingest replay");
  }
  QueryTally query;
  std::map<std::string, mapreduce::JobPlan> plans;
  for (size_t j = 0; j < run.specs.size(); ++j) {
    if (!run.specs[j].has_value() || !tr.jobs[j].ok()) continue;
    const mapreduce::JobSpec& spec = *run.specs[j];
    const std::string key = hail::planner::PlanCache::KeyFor(spec);
    auto it = plans.find(key);
    const bool first_of_key = it == plans.end();
    if (first_of_key) {
      auto plan = ReplayPlan(&log, root, root_op, &run.bed->dfs(), spec, &query);
      report->CheckOk(plan.status(), "replay plan");
      if (!plan.ok()) return;
      it = plans.emplace(key, std::move(*plan)).first;
    }
    report->CheckOk(ReplayReads(&log, root, root_op, &run.bed->dfs(), spec,
                                it->second, &pool, first_of_key, &query),
                    "replay reads");
  }
  // Split-phase time is billed per job; planning CPU only on cache misses.
  double split_phase = 0.0;
  for (size_t j = 0; j < run.specs.size(); ++j) {
    if (!run.specs[j].has_value() || !tr.jobs[j].ok()) continue;
    split_phase +=
        plans[hail::planner::PlanCache::KeyFor(*run.specs[j])]
            .split_phase_seconds;
  }
  // The heavy tenant's predicate over every base block, unnarrowed: the
  // encoded-domain kernels the heavy scans ran before any adaptive index
  // existed.
  for (size_t j = 0; j < run.specs.size(); ++j) {
    if (run.kinds[j] != SessionPlanItem::Kind::kHeavy) continue;
    for (const std::string& file : PartFiles("/uv", in.config.num_nodes)) {
      report->CheckOk(ProbeFullScan(&log, root, root_op, run.bed->dfs(), file,
                                    *run.specs[j], &query),
                      "full-scan probe");
    }
    break;
  }
  StoredTally stored;
  report->CheckOk(ProbeStoredReplicas(&log, 0, log.NewOp(), run.bed->dfs(),
                                      PartFiles("/uv", in.config.num_nodes),
                                      &stored),
                  "stored-replica probe");
  const std::vector<Span> spans = log.Snapshot();
  StoreReplayLayers(spans, ingest, stored, query, report);
  L["sim.split_phase_s"] = split_phase;
  L["sim.planner_s"] =
      Ratio(query.planner_s, static_cast<double>(query.plans)) *
      static_cast<double>(tr.plan_cache_misses);
  const double engine_self = RootSelfMs(spans, {root}, report);
  L["mapreduce.engine_self_ms"] =
      Ratio(engine_self, static_cast<double>(jobs.size()));
  L["mapreduce.engine_us_per_task"] =
      Ratio(engine_self * 1e3, static_cast<double>(tasks));
  WriteSpans(args, spans);
}

// ---------------------------------------------------------------------------

void PrintResult(const Args& args, const Report& report) {
  // Human-readable summary.
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d threads=%zu\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, hail::ThreadPool::DefaultThreads());
  std::printf("| metric | value | unit | clock | samples |\n|---|---|---|---|---|\n");
  for (const auto* table : {&report.e2e, &report.workload_e2e}) {
    for (const auto& [name, m] : *table) {
      std::printf("| %s | %.6g | %s | %s | %zu |\n", name.c_str(), m.value,
                  m.unit.c_str(), m.clock.c_str(), m.samples);
    }
  }
  std::printf("| failed_frac | %.6g | ratio | - | %llu |\n",
              report.outcomes.failed_frac(),
              static_cast<unsigned long long>(report.outcomes.attempted));
  if (args.trace) {
    for (const MetricDef& d : kPerLayer) {
      auto it = report.layers.find(d.name);
      std::printf("| %s | %.6g | %s | layer | 1 |\n", d.name,
                  it == report.layers.end() ? 0.0 : it->second, d.unit);
    }
  }

  // Detail line: every metric with clock and sample count, the digest,
  // the thread cap and the bases of the ratios.
  std::string detail = "{\"workload\":" + Quote(args.workload) +
                       ",\"seed\":" + std::to_string(args.seed) +
                       ",\"trace\":" + (args.trace ? "1" : "0") +
                       ",\"hail_threads\":" +
                       std::to_string(hail::ThreadPool::DefaultThreads()) +
                       ",\"digest\":" + Quote(report.digest) +
                       ",\"failed_frac\":" + Num(report.outcomes.failed_frac()) +
                       ",\"shed\":" + std::to_string(report.outcomes.shed) +
                       ",\"metrics\":{";
  bool first = true;
  for (const auto* table : {&report.e2e, &report.workload_e2e}) {
    for (const auto& [name, m] : *table) {
      detail += std::string(first ? "" : ",") + Quote(name) +
                ":{\"value\":" + Num(m.value) + ",\"unit\":" + Quote(m.unit) +
                ",\"clock\":" + Quote(m.clock) +
                ",\"samples\":" + std::to_string(m.samples) + "}";
      first = false;
    }
  }
  detail += "},\"bases\":{";
  first = true;
  for (const auto& [name, v] : report.bases) {
    detail += std::string(first ? "" : ",") + Quote(name) + ":" + Num(v);
    first = false;
  }
  detail += "}}";
  std::printf("PERFBENCH_DETAIL %s\n", detail.c_str());

  // The result line.
  std::string metrics;
  first = true;
  auto add = [&](const char* name, double value, const char* unit) {
    metrics += std::string(first ? "" : ", ") + Quote(name) +
               ": {\"value\": " + Num(value) + ", \"unit\": " + Quote(unit) +
               "}";
    first = false;
  };
  if (args.trace) {
    for (const MetricDef& d : kPerLayer) {
      auto it = report.layers.find(d.name);
      add(d.name, it == report.layers.end() ? 0.0 : it->second, d.unit);
    }
  } else {
    for (const MetricDef& d : kEndToEnd) {
      add(d.name, report.e2e.at(d.name).value, d.unit);
    }
  }
  std::printf(
      "{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      static_cast<unsigned long long>(report.outcomes.attempted),
      static_cast<unsigned long long>(report.outcomes.failed()),
      metrics.c_str());
  std::fflush(stdout);
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--list-metrics") {
      for (const MetricDef& d : kEndToEnd) std::printf("e2e %s %s\n", d.name, d.unit);
      for (const MetricDef& d : kPerLayer) std::printf("layer %s %s\n", d.name, d.unit);
      std::exit(0);
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args->seconds = std::stod(value);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--exec") {
      if (value == "serial") {
        args->exec = mapreduce::ExecutionMode::kSerial;
      } else if (value == "parallel") {
        args->exec = mapreduce::ExecutionMode::kParallel;
      } else if (value != "default") {
        return false;
      }
    } else if (flag == "--blocks-per-node") {
      args->blocks_per_node = static_cast<uint32_t>(std::stoul(value));
    } else if (flag == "--setups") {
      args->setups = std::max(1, std::stoi(value));
    } else if (flag == "--trace-dir") {
      args->trace_dir = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty();
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_harness --workload upload|bob-queries|"
                 "shared-session --seed N --seconds S --trace 0|1 "
                 "[--exec default|serial|parallel] [--blocks-per-node N] "
                 "[--setups N] [--trace-dir DIR]\n");
    return 2;
  }
  Report report;
  if (args.workload == "upload") {
    RunUpload(args, &report);
  } else if (args.workload == "bob-queries") {
    RunBobQueries(args, &report);
  } else if (args.workload == "shared-session") {
    RunSharedSession(args, &report);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  report.E2e("peak_rss_mb", PeakRssMb(), 1, "-");
  report.Check(report.outcomes.attempted > 0, "no operation was attempted");
  if (!report.failures.empty()) {
    for (const std::string& f : report.failures) {
      std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", f.c_str());
    }
    return 1;
  }
  report.digest = Hex64(Fnv1a(report.dumps));
  PrintResult(args, report);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
