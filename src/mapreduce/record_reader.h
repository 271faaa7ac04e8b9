/// \file record_reader.h
/// \brief RecordReader UDF interface (paper §4.2/§4.3).
///
/// A record reader consumes one input split: it reads (part of) each
/// block from the first readable replica of the planner's replica order
/// (planner::OrderReplicas), executes the query the job plan resolved
/// (its compiled filter and query shape), produces HailRecords for the map
/// function, and returns the I/O + CPU cost the task incurred. The three
/// concrete readers mirror the paper's systems:
///  - TextRecordReader: stock Hadoop full scan over text blocks, with
///    LineRecordReader boundary semantics;
///  - HailRecordReader: index scan over HAIL blocks with post-filtering
///    and PAX->row reconstruction (full scan fallback when no suitable
///    index survives);
///  - TrojanRecordReader: Hadoop++ index scan over trojan blocks.

#pragma once

#include <memory>

#include "hdfs/dfs_client.h"
#include "mapreduce/input_format.h"
#include "mapreduce/job.h"
#include "obs/cost_attribution.h"
#include "obs/trace.h"
#include "planner/access_planner.h"

namespace hail {
namespace mapreduce {

/// \brief Simulated cost of one map task's data access.
///
/// The three double fields drive the simulated clock and are billed
/// exactly as before; `ledger` is side-band attribution bookkeeping —
/// every billing site also books the same seconds into one typed bucket,
/// so the per-query breakdown sums to the billed total without ever
/// perturbing the doubles (see obs/cost_attribution.h).
struct TaskCost {
  double disk_seconds = 0.0;
  double cpu_seconds = 0.0;
  double net_seconds = 0.0;
  uint64_t logical_bytes_read = 0;
  obs::CostLedger ledger;

  double total() const { return disk_seconds + cpu_seconds + net_seconds; }
  void Add(const TaskCost& other) {
    disk_seconds += other.disk_seconds;
    cpu_seconds += other.cpu_seconds;
    net_seconds += other.net_seconds;
    logical_bytes_read += other.logical_bytes_read;
    ledger.Add(other.ledger);
  }
};

/// \brief A CRC failure a reader observed on one replica.
///
/// Readers are const over the DFS, so they cannot revoke the replica
/// themselves; they record the sighting here and the engine reports it to
/// the namenode at the completion event (serialised against in-flight
/// reads, so serial and parallel execution observe identical directories).
struct BadReplicaReport {
  uint64_t block_id = 0;
  int datanode = -1;
};

/// \brief Per-task read statistics, filled in by the reader and moved
/// whole to the engine's task state at the completion event.
struct ReadStats {
  uint64_t records_seen = 0;
  uint64_t records_qualifying = 0;
  uint64_t bad_records = 0;
  /// True when any block of the split had to be scanned without an index.
  bool fallback_scan = false;
  /// True when any block was read through a clustered/trojan index scan.
  bool index_scan = false;
  /// True when any block was served by an adaptive unclustered index
  /// (no clustered replica matched, but a lazy index did).
  bool unclustered_scan = false;

  // -- profile counters (EXPLAIN surface; cheap plain increments) --
  /// Blocks whose rows were actually touched.
  uint64_t blocks_scanned = 0;
  /// Blocks an index probe pruned entirely (empty qualifying range).
  uint64_t blocks_skipped = 0;
  /// Rows an index scan never had to touch (block rows minus the
  /// qualifying range the probe returned).
  uint64_t rows_skipped = 0;
  /// Blocks never opened because the plan's zone map proved them empty
  /// (binding kSkipZoneMap decisions; subset of blocks_skipped).
  uint64_t zone_skipped_blocks = 0;
};

/// \brief Everything a reader needs, plus per-task statistics it fills in.
///
/// Readers run concurrently on pool threads under the parallel execution
/// engine, so they see the DFS strictly const: replica stores, namenode
/// directories and cost models are read-only during a job (the only
/// mid-job mutation — failure injection — is serialised against in-flight
/// reads by the engine). All mutable per-task state lives here.
struct ReadContext {
  const hdfs::MiniDfs* dfs = nullptr;
  const JobSpec* spec = nullptr;
  const JobPlan* plan = nullptr;
  /// Node the map task runs on (locality decisions + cost model).
  int task_node = 0;
  MapOutput* out = nullptr;

  /// Statistics the reader reports back.
  ReadStats stats;
  /// Replicas whose CRC verification failed during this task (each was
  /// skipped over by failover; the engine reports them afterwards).
  std::vector<BadReplicaReport> bad_replicas;

  /// When non-null, readers record block-read / index-probe / failover
  /// spans here at billed-cost offsets; the engine splices them onto the
  /// simulated timeline at the completion event (see obs/trace.h).
  obs::TraceBuffer* trace = nullptr;
};

/// \brief Abstract reader: one ReadSplit call per map task.
class RecordReader {
 public:
  virtual ~RecordReader() = default;

  /// Reads the split's blocks in order, summing their billed cost.
  Result<TaskCost> ReadSplit(const InputSplit& split, ReadContext* ctx);

 private:
  /// Reads ctx->plan->file_blocks[block_index], executing the plan's
  /// query, and adds the read's billed cost to \p cost.
  virtual Status ReadBlock(uint32_t block_index, ReadContext* ctx,
                           TaskCost* cost) = 0;
};

/// Creates the reader matching the job's system.
std::unique_ptr<RecordReader> MakeRecordReader(System system);

/// Reads one block through the replica order of planner::OrderReplicas,
/// from index \p first on, failing over on Unavailable (dead node), NotFound
/// (replica deleted after a corruption report) and Corruption (CRC
/// mismatch, handled by BillCorruptRead before the next candidate is
/// tried). Returns the index of the winning candidate and sets
/// \p bytes_out; Unavailable when every candidate failed (retryable — a
/// repair may restore a replica).
Result<size_t> ReadReplicaWithFailover(
    ReadContext* ctx, uint64_t block_id, uint64_t logical_bytes,
    const std::vector<planner::ReplicaCandidate>& candidates, TaskCost* cost,
    std::string_view* bytes_out, size_t first = 0);

/// Books a replica read that turned out corrupt: records it in
/// ctx->bad_replicas and bills the wasted transfer + checksum work to
/// \p cost as a failover reread.
void BillCorruptRead(ReadContext* ctx, uint64_t block_id,
                     uint64_t logical_bytes, int dn, TaskCost* cost);

/// Invokes the job's map function (or the default projector, which emits
/// the plan's projected columns) on a record the reader already filtered.
void InvokeMap(const ReadContext& ctx, const HailRecord& record);

}  // namespace mapreduce
}  // namespace hail
