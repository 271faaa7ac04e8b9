/// \file testbed.h
/// \brief Shared experiment scaffolding for tests, benches and examples.
///
/// A Testbed bundles a simulated cluster, a MiniDfs, and per-node source
/// datasets, and exposes the three systems' ingestion paths plus query
/// execution. Benches configure it at paper scale (20 GB/node logical via
/// the scale model); tests at toy scale.

#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "hadooppp/hadooppp_upload.h"
#include "hail/hail_client.h"
#include "hdfs/dfs_client.h"
#include "mapreduce/input_format.h"
#include "mapreduce/job_runner.h"
#include "mapreduce/scheduler.h"
#include "workload/queries.h"
#include "workload/synthetic.h"
#include "workload/uservisits.h"

namespace hail {
namespace workload {

struct TestbedConfig {
  int num_nodes = 10;
  sim::NodeProfile profile = sim::NodeProfile::Physical();
  int replication = 3;
  /// Paper-scale block size (64 MB default).
  uint64_t logical_block_bytes = 64ull * 1024 * 1024;
  /// Real bytes per block in this process; scale = logical/real.
  uint64_t real_block_bytes = 32 * 1024;
  /// Logical blocks generated per node (paper: 20 GB/node / 64 MB = 320).
  uint32_t blocks_per_node = 320;
  double hardware_variance = 0.0;
  uint64_t seed = 42;
  /// Serialise PAX blocks as format v3 (encoded minipages) cluster-wide.
  /// Off by default so golden byte streams are unchanged.
  bool encode_blocks = false;
  /// Build per-column block statistics during HAIL uploads (the input of
  /// the cost-based access-path planner). Off by default.
  bool build_stats = false;
  /// Generate UserVisits with visitDate in event-time order (disjoint
  /// per-block date ranges — what zone-map skipping prunes).
  bool time_ordered_uservisits = false;
  sim::CostConstants constants;
};

/// \brief One experiment environment (cluster + DFS + datasets).
class Testbed {
 public:
  explicit Testbed(const TestbedConfig& config);

  sim::SimCluster& cluster() { return *cluster_; }
  hdfs::MiniDfs& dfs() { return *dfs_; }
  const TestbedConfig& config() const { return config_; }
  const Schema& schema() const { return schema_; }
  double scale_factor() const {
    return static_cast<double>(config_.logical_block_bytes) /
           static_cast<double>(config_.real_block_bytes);
  }

  /// Generates the UserVisits / Synthetic source texts for every node.
  void LoadUserVisits();
  void LoadSynthetic();

  /// Upload paths (one per system). `sort_columns` holds HAIL's per-replica
  /// index attributes; `index_column` the single trojan attribute.
  Result<hdfs::UploadReport> UploadHadoop(const std::string& dfs_path);
  Result<HailUploadReport> UploadHail(const std::string& dfs_path,
                                      std::vector<int> sort_columns);
  Result<hadooppp::HadoopPPUploadReport> UploadHadoopPP(
      const std::string& dfs_path, int index_column);

  /// Frees the generated source texts (after upload, to cap memory).
  void FreeSourceTexts();

  /// Runs one catalogue query as a MapReduce job.
  Result<mapreduce::JobResult> RunQuery(
      mapreduce::System system, const std::string& dfs_path,
      const QueryDef& query, bool hail_splitting = false,
      const mapreduce::RunOptions& options = {},
      bool collect_output = false);

 private:
  std::vector<hdfs::ParallelUploadSpec> MakeSpecs(const std::string& path);
  uint64_t RowsPerNode(double avg_row_bytes) const;

  TestbedConfig config_;
  std::unique_ptr<sim::SimCluster> cluster_;
  std::unique_ptr<hdfs::MiniDfs> dfs_;
  Schema schema_;
  /// The generated source text. Every node uploads this one text, to its
  /// own part file: one copy in memory instead of one per node.
  std::optional<std::string> text_;
};

/// Exact textual dump of every simulated number in a JobResult — doubles
/// rendered with %.17g, output rows appended in emitted order — so two
/// dumps compare equal iff the results are bit-identical. The single
/// source of truth for the serial==parallel determinism checks (tests and
/// benches share it so the field list cannot drift between copies).
std::string DumpResult(const mapreduce::JobResult& result);

/// Same contract for a whole multi-job session: session clock, per-job
/// dumps (submission order; errors dump their status), per-queue
/// slot-second usage and the maintenance counters/invariant.
std::string DumpSession(const mapreduce::SessionResult& result);

/// Exact textual dump of a per-query cost ledger (integer nanoseconds per
/// bucket + total), same bit-identity contract as DumpResult. Used by the
/// cost-attribution determinism tests; deliberately NOT part of
/// DumpResult so the pre-existing golden dumps stay byte-stable.
std::string DumpCost(const obs::CostLedger& ledger);

/// Exact textual dump of a computed JobPlan — splits with block ids and
/// preferred nodes, index column, and (when planned) every per-block
/// access decision with %.17g estimates. Two dumps compare equal iff the
/// plans are bit-identical; the serial==parallel plan-identity gate in
/// bench_planner rests on it.
std::string DumpPlan(const mapreduce::JobPlan& plan);

}  // namespace workload
}  // namespace hail
