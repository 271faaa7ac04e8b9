/// \file hail_client.h
/// \brief The HAIL upload pipeline (paper §3, Figure 1).
///
/// Differences from the stock HDFS client, all implemented here:
///  1. content-aware block cutting — rows never straddle blocks (§3.1);
///  2. rows are parsed against the user schema; non-conforming rows go to
///     the block's bad-record section;
///  3. blocks are converted to binary PAX *before* hitting the network;
///  4. datanodes do NOT flush packets on arrival: they reassemble the
///     block in memory, sort it by their replica's sort key, build a
///     clustered index, recompute all chunk checksums (each replica has
///     different bytes!), and only then flush data + checksums (§3.2);
///  5. the ACK semantics change from "received, validated and flushed" to
///     "received and validated", with the block's last ACK gated on flush;
///  6. every datanode registers its replica with the namenode's Dir_rep,
///     recording sort order and index (§3.3).

#pragma once

#include <string>
#include <vector>

#include "hail/hail_block.h"
#include "hdfs/dfs_client.h"
#include "schema/schema.h"

namespace hail {

/// \brief Per-upload configuration: what to index on each replica.
struct HailUploadConfig {
  Schema schema;
  /// sort_columns[i] is the attribute replica i is sorted/indexed by
  /// (-1 = keep arrival order, no index). Size must not exceed the
  /// replication factor; missing entries default to -1. "As manually
  /// specified by Bob in a configuration file or as computed by a
  /// physical design algorithm" (§2.2).
  std::vector<int> sort_columns;
  /// Build per-column block statistics (planner/block_stats.h) during the
  /// upload and register the sidecar with the namenode. Default off:
  /// uploads without cost-based planning are bit-identical to before.
  bool build_stats = false;
};

/// \brief Upload statistics (extends the HDFS report with conversion info).
struct HailUploadReport {
  sim::SimTime started = 0.0;
  sim::SimTime completed = 0.0;
  uint32_t blocks = 0;
  uint64_t text_real_bytes = 0;
  uint64_t pax_real_bytes = 0;       // serialised PAX payload (pre-index)
  uint64_t replica_real_bytes = 0;   // stored bytes across all replicas
  uint64_t bad_records = 0;
  /// Blocks whose text exceeded the configured block size because a
  /// single row was longer than the block (see CutRowAlignedBlocks).
  uint32_t oversized_blocks = 0;
  double duration() const { return completed - started; }
  /// Binary/text size ratio: < 1 when PAX conversion shrinks the data
  /// (Synthetic), ~1 when it does not (UserVisits).
  double binary_ratio() const {
    return text_real_bytes == 0
               ? 0.0
               : static_cast<double>(pax_real_bytes) /
                     static_cast<double>(text_real_bytes);
  }
};

/// \brief Uploads a text file the HAIL way from one client node.
///
/// Each block's cluster-independent work (parse, PAX build, decode,
/// replica sort/index/serialise) is prepared on SharedPool() while the
/// calling thread commits blocks in serial order, so results do not
/// depend on the pool size. Must not be called from a SharedPool() worker.
Result<HailUploadReport> HailUploadTextFile(hdfs::MiniDfs* dfs,
                                            const HailUploadConfig& config,
                                            int client_node,
                                            const std::string& dfs_path,
                                            std::string_view text,
                                            sim::SimTime start_time = 0.0);

/// \brief One HailUploadTextFile per (client, file), run concurrently:
/// blocks commit round-robin, one per client per round.
Result<HailUploadReport> HailParallelUpload(
    hdfs::MiniDfs* dfs, const HailUploadConfig& config,
    const std::vector<hdfs::ParallelUploadSpec>& specs,
    sim::SimTime start_time = 0.0);

/// \brief Content-aware block cutting: greedily packs whole rows into
/// blocks of at most \p block_size text bytes (§3.1: "we never split a
/// row between two blocks").
///
/// Defined behaviour for rows longer than \p block_size: the over-long
/// row is emitted as its **own oversized block** — it is never split and
/// never merged with neighbouring rows (the preceding block closes at the
/// previous row boundary; the following row starts a fresh block). Every
/// returned block therefore either fits in \p block_size or consists of
/// exactly one row; a missing trailing newline does not change the
/// cutting. Uploads surface the case via
/// HailUploadReport::oversized_blocks instead of silently absorbing it.
std::vector<std::string_view> CutRowAlignedBlocks(std::string_view text,
                                                  uint64_t block_size);

}  // namespace hail
