/// \file cost_model.h
/// \brief Converts logical work (bytes, records) into simulated seconds.
///
/// Every functional operation in the repository really executes on real
/// (scaled-down) data; the cost model is consulted with *logical*
/// (paper-scale) quantities to decide how long that operation takes on a
/// given node. See DESIGN.md §2 for the real/logical split.

#pragma once

#include <cstdint>

#include "sim/node_profile.h"

namespace hail {
namespace sim {

/// \brief Stateless duration calculator for one node type.
class CostModel {
 public:
  CostModel(NodeProfile profile, CostConstants constants)
      : p_(profile), c_(constants) {}

  const NodeProfile& profile() const { return p_; }
  const CostConstants& constants() const { return c_; }

  // ---- CPU (seconds; scaled by the node's cpu_factor) ----

  /// Parsing text into typed fields at upload (HAIL client / MR conversion).
  double TextParse(uint64_t logical_bytes) const {
    return CpuMs(MB(logical_bytes) * c_.text_parse_ms_per_mb);
  }

  /// Building PAX minipages out of parsed fields.
  double PaxBuild(uint64_t logical_binary_bytes) const {
    return CpuMs(MB(logical_binary_bytes) * c_.pax_build_ms_per_mb);
  }

  /// In-memory sort of one block by one key: n log2 n comparisons plus a
  /// full reorganisation pass over all columns. Fixed-width and varlen
  /// payload bytes are billed at different rates (string gathers dominate
  /// the paper's 2-3 s per 64 MB block, §3.5).
  double SortBlock(uint64_t logical_records, uint64_t logical_fixed_bytes,
                   uint64_t logical_varlen_bytes, bool string_key) const;

  /// Sparse clustered index + varlen offset lists for one block replica.
  double IndexBuild(uint64_t logical_records) const {
    return CpuUs(static_cast<double>(logical_records) *
                 c_.index_build_us_per_record);
  }

  /// Dense unclustered index over one block (adaptive incremental path).
  double UnclusteredBuild(uint64_t logical_records) const {
    return CpuUs(static_cast<double>(logical_records) *
                 c_.unclustered_build_us_per_record);
  }

  /// CRC32C over a byte range (compute or verify).
  double Crc(uint64_t logical_bytes) const {
    return CpuMs(MB(logical_bytes) * c_.crc_ms_per_mb);
  }

  /// Standard Hadoop RecordReader CPU: split text rows into attributes.
  double ScanParse(uint64_t logical_records) const {
    return CpuUs(static_cast<double>(logical_records) *
                 c_.scan_parse_us_per_record);
  }

  /// Hadoop++ binary row deserialisation.
  double BinaryDeserialize(uint64_t logical_records) const {
    return CpuUs(static_cast<double>(logical_records) *
                 c_.binary_deser_us_per_record);
  }

  /// Predicate evaluation over PAX values (HAIL post-filtering).
  double PredicateEval(uint64_t logical_records) const {
    return CpuUs(static_cast<double>(logical_records) *
                 c_.predicate_us_per_record);
  }

  /// PAX -> row reconstruction of qualifying tuples.
  double Reconstruct(uint64_t logical_records, int projected_fields) const {
    return CpuUs(static_cast<double>(logical_records) * projected_fields *
                 c_.reconstruct_us_per_field);
  }

  /// Decoding encoded minipage values at reconstruction (format v3):
  /// qualifying records × encoded projected columns.
  double DecodeValues(uint64_t logical_values) const {
    return CpuUs(static_cast<double>(logical_values) * c_.decode_us_per_value);
  }

  /// Choosing/emitting minipage encodings while serialising (format v3):
  /// records × columns, per block build.
  double EncodeValues(uint64_t logical_values) const {
    return CpuUs(static_cast<double>(logical_values) * c_.encode_us_per_value);
  }

  /// Calling the user's map function once per record.
  double MapCalls(uint64_t logical_records) const {
    return CpuUs(static_cast<double>(logical_records) * c_.map_call_us);
  }

  /// Building the per-column block-stats sidecar at upload:
  /// records × columns summarized.
  double StatsBuild(uint64_t logical_values) const {
    return CpuUs(static_cast<double>(logical_values) *
                 c_.stats_build_us_per_value);
  }

  // ---- disk ----

  /// One random seek.
  double DiskSeek() const { return p_.disk_seek_ms / 1000.0; }

  /// Sequential transfer of the given bytes (no seek).
  double DiskTransfer(uint64_t logical_bytes) const {
    return MB(logical_bytes) / p_.disk_mbps;
  }

  /// Seek + sequential read/write.
  double DiskAccess(uint64_t logical_bytes) const {
    return DiskSeek() + DiskTransfer(logical_bytes);
  }

  // ---- network ----

  /// One-hop transfer of the given bytes plus per-packet handling.
  double NetTransfer(uint64_t logical_bytes) const {
    const double packets =
        static_cast<double>(logical_bytes) / static_cast<double>(c_.packet_bytes);
    return MB(logical_bytes) / p_.net_mbps +
           packets * c_.packet_overhead_us * 1e-6;
  }

 private:
  static double MB(uint64_t bytes) {
    return static_cast<double>(bytes) / (1024.0 * 1024.0);
  }
  double CpuMs(double ms) const { return ms / 1000.0 / p_.cpu_factor; }
  double CpuUs(double us) const { return us / 1e6 / p_.cpu_factor; }

  NodeProfile p_;
  CostConstants c_;
};

}  // namespace sim
}  // namespace hail
