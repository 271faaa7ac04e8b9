#include "workload/testbed.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace hail {
namespace workload {

namespace {

hdfs::DfsConfig MakeDfsConfig(const TestbedConfig& tb) {
  hdfs::DfsConfig cfg;
  cfg.block_size = tb.real_block_bytes;
  cfg.replication = tb.replication;
  cfg.scale_factor = static_cast<double>(tb.logical_block_bytes) /
                     static_cast<double>(tb.real_block_bytes);
  // Keep the number of index partitions per block at the paper's density:
  // 1024 logical values per partition, scaled down with the block.
  const double real_partition =
      1024.0 / cfg.scale_factor;
  cfg.format.varlen_partition_size = static_cast<uint32_t>(
      std::clamp(std::lround(real_partition), 1l, 1024l));
  cfg.format.enable_encoding = tb.encode_blocks;
  return cfg;
}

}  // namespace

Testbed::Testbed(const TestbedConfig& config) : config_(config) {
  sim::ClusterConfig cc;
  cc.num_nodes = config.num_nodes;
  cc.profile = config.profile;
  cc.constants = config.constants;
  cc.hardware_variance = config.hardware_variance;
  cc.seed = config.seed;
  cluster_ = std::make_unique<sim::SimCluster>(cc);
  dfs_ = std::make_unique<hdfs::MiniDfs>(cluster_.get(), MakeDfsConfig(config));
}

uint64_t Testbed::RowsPerNode(double avg_row_bytes) const {
  const double bytes = static_cast<double>(config_.blocks_per_node) *
                       static_cast<double>(config_.real_block_bytes);
  return static_cast<uint64_t>(bytes / avg_row_bytes);
}

void Testbed::LoadUserVisits() {
  schema_ = UserVisitsSchema();
  text_.reset();
  UserVisitsConfig uv;
  uv.rows = RowsPerNode(UserVisitsAvgRowBytes());
  uv.seed = config_.seed;
  uv.scale_factor = scale_factor();
  uv.time_ordered = config_.time_ordered_uservisits;
  text_ = GenerateUserVisitsText(uv);
}

void Testbed::LoadSynthetic() {
  schema_ = SyntheticSchema();
  text_.reset();
  SyntheticConfig syn;
  syn.rows = RowsPerNode(SyntheticAvgRowBytes());
  syn.seed = config_.seed;
  text_ = GenerateSyntheticText(syn);
}

std::vector<hdfs::ParallelUploadSpec> Testbed::MakeSpecs(
    const std::string& path) {
  std::vector<hdfs::ParallelUploadSpec> specs;
  specs.reserve(static_cast<size_t>(config_.num_nodes));
  for (int i = 0; i < config_.num_nodes; ++i) {
    // Each node writes its own part file under the dataset directory
    // (queries read the whole directory), like a distributed generator.
    char part[32];
    std::snprintf(part, sizeof(part), "/part-%05d", i);
    specs.push_back(hdfs::ParallelUploadSpec{i, path + part, *text_});
  }
  return specs;
}

Result<hdfs::UploadReport> Testbed::UploadHadoop(const std::string& dfs_path) {
  if (!text_) return Status::FailedPrecondition("no dataset loaded");
  return hdfs::ParallelUploadText(dfs_.get(), MakeSpecs(dfs_path));
}

Result<HailUploadReport> Testbed::UploadHail(const std::string& dfs_path,
                                             std::vector<int> sort_columns) {
  if (!text_) return Status::FailedPrecondition("no dataset loaded");
  HailUploadConfig config;
  config.schema = schema_;
  config.sort_columns = std::move(sort_columns);
  config.build_stats = config_.build_stats;
  return HailParallelUpload(dfs_.get(), config, MakeSpecs(dfs_path));
}

Result<hadooppp::HadoopPPUploadReport> Testbed::UploadHadoopPP(
    const std::string& dfs_path, int index_column) {
  if (!text_) return Status::FailedPrecondition("no dataset loaded");
  hadooppp::HadoopPPUploadConfig config;
  config.schema = schema_;
  config.index_column = index_column;
  return hadooppp::HadoopPPUpload(dfs_.get(), config, MakeSpecs(dfs_path));
}

void Testbed::FreeSourceTexts() {
  text_.reset();
}

std::string DumpResult(const mapreduce::JobResult& r) {
  char buf[640];
  std::snprintf(
      buf, sizeof(buf),
      "e2e=%.17g rr=%.17g ideal=%.17g ovh=%.17g mt=%u resch=%u fb=%u "
      "idx=%u uc=%u ms=%u mc=%u mf=%u seen=%llu qual=%llu out=%llu bad=%llu",
      r.end_to_end_seconds, r.avg_record_reader_seconds, r.ideal_seconds,
      r.overhead_seconds, r.map_tasks, r.rescheduled_tasks, r.fallback_scans,
      r.index_scan_tasks, r.unclustered_scan_tasks, r.maintenance_scheduled,
      r.maintenance_completed, r.maintenance_failed,
      static_cast<unsigned long long>(r.records_seen),
      static_cast<unsigned long long>(r.records_qualifying),
      static_cast<unsigned long long>(r.output_count),
      static_cast<unsigned long long>(r.bad_records_seen));
  std::string out(buf);
  for (const std::string& row : r.output_rows) {
    out += '|';
    out += row;
  }
  return out;
}

std::string DumpCost(const obs::CostLedger& ledger) {
  std::string out;
  for (int b = 0; b < obs::kNumCostBuckets; ++b) {
    out += obs::CostBucketName(static_cast<obs::CostBucket>(b));
    out += '=';
    out += std::to_string(ledger.nanos[b]);
    out += ' ';
  }
  out += "total=";
  out += std::to_string(ledger.total_nanos);
  return out;
}

std::string DumpPlan(const mapreduce::JobPlan& plan) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "plan idx=%d planned=%d psec=%.17g pred=%.17g skip=%llu "
                "fresh=%llu",
                plan.index_column, plan.planned ? 1 : 0, plan.planner_seconds,
                plan.predicted_cost_seconds,
                static_cast<unsigned long long>(plan.planner_blocks_skipped),
                static_cast<unsigned long long>(
                    plan.planner_fresh_stats_blocks));
  std::string out(buf);
  for (const mapreduce::InputSplit& split : plan.splits) {
    out += "\nsplit b=";
    for (uint64_t b : split.blocks) {
      out += std::to_string(b);
      out += ',';
    }
    out += " n=";
    for (int n : split.preferred_nodes) {
      out += std::to_string(n);
      out += ',';
    }
    std::snprintf(buf, sizeof(buf), " lb=%llu",
                  static_cast<unsigned long long>(split.logical_bytes));
    out += buf;
  }
  for (const planner::AccessDecision& d : plan.decisions) {
    const std::string_view path = planner::AccessPathName(d.path);
    std::snprintf(buf, sizeof(buf),
                  "\ndec %.*s fresh=%d sel=%.17g est=%.17g rows=%u",
                  static_cast<int>(path.size()), path.data(),
                  d.stats_fresh ? 1 : 0, d.est_selectivity, d.est_cost_seconds,
                  d.block_records);
    out += buf;
  }
  return out;
}

std::string DumpSession(const mapreduce::SessionResult& r) {
  char buf[640];
  std::snprintf(buf, sizeof(buf),
                "session=%.17g ms=%u mc=%u mf=%u viol=%llu "
                "rs=%u rc=%u ra=%u ur=%llu retry=%u spec=%u specw=%u "
                "pre=%u pss=%.17g shed=%u sviol=%llu radd=%u revt=%u",
                r.session_seconds, r.maintenance_scheduled,
                r.maintenance_completed, r.maintenance_failed,
                static_cast<unsigned long long>(
                    r.maintenance_while_foreground_pending),
                r.repairs_scheduled, r.repairs_completed, r.repairs_abandoned,
                static_cast<unsigned long long>(r.under_replicated_remaining),
                r.task_retries, r.speculative_attempts, r.speculative_wins,
                r.preemptions, r.preempted_slot_seconds, r.jobs_shed,
                static_cast<unsigned long long>(r.slo_violations_total),
                r.replicas_added, r.replicas_evicted);
  std::string out(buf);
  for (const auto& job : r.jobs) {
    out += '\n';
    out += job.ok() ? DumpResult(*job) : job.status().ToString();
  }
  for (const mapreduce::QueueUsage& q : r.queues) {
    std::snprintf(buf, sizeof(buf),
                  "\nqueue %s w=%.17g tasks=%llu ss=%.17g ct=%llu css=%.17g "
                  "slo=%.17g done=%llu shedq=%llu qviol=%llu "
                  "p50=%.17g p95=%.17g p99=%.17g qpre=%llu qpss=%.17g",
                  q.queue.c_str(), q.weight,
                  static_cast<unsigned long long>(q.tasks), q.slot_seconds,
                  static_cast<unsigned long long>(q.contended_tasks),
                  q.contended_slot_seconds, q.slo_target_s,
                  static_cast<unsigned long long>(q.jobs_completed),
                  static_cast<unsigned long long>(q.jobs_shed),
                  static_cast<unsigned long long>(q.slo_violations),
                  q.latency_p50_s, q.latency_p95_s, q.latency_p99_s,
                  static_cast<unsigned long long>(q.preemptions),
                  q.preempted_slot_seconds);
    out += buf;
  }
  return out;
}

Result<mapreduce::JobResult> Testbed::RunQuery(
    mapreduce::System system, const std::string& dfs_path,
    const QueryDef& query, bool hail_splitting,
    const mapreduce::RunOptions& options, bool collect_output) {
  HAIL_ASSIGN_OR_RETURN(
      mapreduce::JobSpec spec,
      MakeQueryJob(schema_, dfs_path, system, query, hail_splitting,
                   collect_output));
  mapreduce::JobRunner runner(dfs_.get());
  return runner.Run(spec, options);
}

}  // namespace workload
}  // namespace hail
