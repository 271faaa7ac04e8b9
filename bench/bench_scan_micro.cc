/// \file bench_scan_micro.cc
/// \brief Microbenchmark for the vectorized zero-copy scan engine.
///
/// Compares, over one >=100k-row mixed-type PAX block:
///   1. a filtered full scan: the pre-refactor row-at-a-time hot loop
///      (per-row Value materialisation + type-dispatched term evaluation +
///      per-access varlen partition re-scans) vs the vectorized path
///      (compiled predicate -> typed column kernels -> selection vector ->
///      reconstruction only for qualifying rows);
///   2. sequential string point-access: GetString's O(partition)-per-access
///      §3.5 path vs the VarlenCursor's O(n)-total sequential decode,
///      verified with the cursor's decode_steps counter.
///
/// Writes machine-readable results to BENCH_scan.json (or argv[1]).

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "layout/pax_block.h"
#include "query/predicate.h"
#include "query/vectorized.h"
#include "util/random.h"
#include "workload/uservisits.h"

namespace hail {
namespace {

constexpr uint32_t kRows = 120000;
constexpr uint32_t kPartition = 1024;  // the paper's 64 MB-block setting
constexpr int kRepetitions = 5;

Schema MixedSchema() {
  return Schema({{"k", FieldType::kInt32},
                 {"url", FieldType::kString},
                 {"rev", FieldType::kDouble},
                 {"d", FieldType::kDate},
                 {"cnt", FieldType::kInt64},
                 {"tag", FieldType::kString}});
}

std::string MakeText(uint32_t rows, uint64_t seed) {
  Random rng(seed);
  std::string out;
  out.reserve(static_cast<size_t>(rows) * 48);
  for (uint32_t i = 0; i < rows; ++i) {
    out += std::to_string(rng.UniformRange(-1000, 1000));
    out += ",";
    out += rng.NextString(8 + rng.Uniform(24));
    out += ",";
    out += std::to_string(static_cast<double>(rng.Uniform(10000)) / 100.0);
    out += ",2015-06-1";
    out += std::to_string(rng.UniformRange(0, 9));
    out += ",";
    out += std::to_string(rng.UniformRange(-1000000000LL, 1000000000LL));
    out += ",";
    out += rng.NextString(2 + rng.Uniform(6));
    out += "\n";
  }
  return out;
}

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Cheap order-sensitive digest so both paths provably produce the same
/// reconstructed tuples.
uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

uint64_t DigestValue(uint64_t h, const Value& v) {
  if (v.is_string()) {
    for (char c : v.as_string()) h = Mix(h, static_cast<uint8_t>(c));
    return h;
  }
  if (v.is_double()) {
    const double d = v.as_double();
    uint64_t bits;
    std::memcpy(&bits, &d, sizeof(bits));
    return Mix(h, bits);
  }
  return Mix(h, static_cast<uint64_t>(v.is_int32() ? v.as_int32()
                                                   : v.as_int64()));
}

struct ScanResult {
  uint64_t qualifying = 0;
  uint64_t digest = 0;
  double best_ms = 1e300;
};

/// The pre-refactor HailRecordReader hot loop, verbatim shape: per row,
/// per term GetAnyValue + Matches; full-row Value reconstruction for
/// matches.
ScanResult RowAtATimeScan(const PaxBlockView& view, const Predicate& pred) {
  ScanResult result;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    uint64_t qualifying = 0, digest = 0;
    for (uint32_t r = 0; r < view.num_records(); ++r) {
      bool match = true;
      for (const PredicateTerm& term : pred.terms()) {
        auto v = view.GetAnyValue(term.column, r);
        if (!v.ok() || !term.Matches(*v)) {
          match = false;
          break;
        }
      }
      if (!match) continue;
      ++qualifying;
      std::vector<Value> values;
      values.reserve(static_cast<size_t>(view.num_columns()));
      for (int c = 0; c < view.num_columns(); ++c) {
        auto v = view.GetAnyValue(c, r);
        if (!v.ok()) continue;
        digest = DigestValue(digest, *v);
        values.push_back(std::move(*v));
      }
    }
    result.qualifying = qualifying;
    result.digest = digest;
    result.best_ms = std::min(result.best_ms, MsSince(start));
  }
  return result;
}

/// The vectorized engine: compiled predicate -> selection vector -> typed
/// reconstruction only for qualifying rows.
ScanResult VectorizedScan(const PaxBlockView& view, const Predicate& pred) {
  ScanResult result;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    auto compiled = CompiledPredicate::Compile(pred, view.schema());
    if (!compiled.ok()) return result;
    SelectionVector sel;
    if (!compiled->FilterBlock(view, RowRange{0, view.num_records()}, &sel)
             .ok()) {
      return result;
    }
    uint64_t digest = 0;
    std::vector<ColumnReader> readers;
    for (int c = 0; c < view.num_columns(); ++c) {
      auto reader = view.OpenColumn(c);
      if (!reader.ok()) return result;
      readers.push_back(*reader);
    }
    for (uint32_t r : sel.rows()) {
      std::vector<Value> values;
      values.reserve(readers.size());
      for (ColumnReader& reader : readers) {
        auto v = reader.Get(r);
        if (!v.ok()) return result;
        values.push_back(std::move(*v));
        digest = DigestValue(digest, values.back());
      }
    }
    result.qualifying = sel.size();
    result.digest = digest;
    result.best_ms = std::min(result.best_ms, MsSince(start));
  }
  return result;
}

/// A copy of the VarlenCursor that plain string column \p column's
/// reader holds (invalid for any other column).
VarlenCursor CursorOf(const PaxBlockView& view, int column) {
  VarlenCursor cursor;
  auto reader = view.OpenColumn(column);
  if (reader.ok()) {
    reader->Visit([&cursor](const auto& span) {
      if constexpr (std::is_same_v<std::decay_t<decltype(span)>,
                                   VarlenCursor>) {
        cursor = span;
      }
    });
  }
  return cursor;
}

/// Filtered scan over a UserVisits-shaped block: compiled filter on the
/// (possibly encoded) view, then per-qualifying-row projection of
/// adRevenue + countryCode through the encoding-aware accessors. The same
/// code runs on the plain and the v3 view, so timing differences isolate
/// scan-on-compressed.
ScanResult UserVisitsFilteredScan(const PaxBlockView& view,
                                  const Predicate& pred) {
  ScanResult result;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    auto compiled = CompiledPredicate::Compile(pred, view.schema());
    if (!compiled.ok()) return result;
    SelectionVector sel;
    if (!compiled->FilterBlock(view, RowRange{0, view.num_records()}, &sel)
             .ok()) {
      return result;
    }
    uint64_t digest = 0;
    for (uint32_t r : sel.rows()) {
      auto rev = view.GetAnyValue(workload::kAdRevenue, r);
      auto cc = view.GetAnyValue(workload::kCountryCode, r);
      if (!rev.ok() || !cc.ok()) return result;
      digest = DigestValue(digest, *rev);
      digest = DigestValue(digest, *cc);
    }
    result.qualifying = sel.size();
    result.digest = digest;
    result.best_ms = std::min(result.best_ms, MsSince(start));
  }
  return result;
}

}  // namespace
}  // namespace hail

int main(int argc, char** argv) {
  using namespace hail;
  const std::string json_path = argc > 1 ? argv[1] : "BENCH_scan.json";

  std::printf("building %u-row mixed-type PAX block (partition %u)...\n",
              kRows, kPartition);
  const Schema schema = MixedSchema();
  BlockFormatOptions options;
  options.varlen_partition_size = kPartition;
  PaxBlock block = BuildPaxBlockFromText(schema, MakeText(kRows, 42), options);
  const std::string bytes = block.Serialize();
  auto view_or = PaxBlockView::Open(bytes);
  if (!view_or.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 view_or.status().ToString().c_str());
    return 1;
  }
  const PaxBlockView& view = *view_or;

  // ~5% selectivity on the int column times ~30% on the double column.
  auto ann = ParseAnnotation(schema, "@1 between(-50,50) and @3 > 70.0", "");
  if (!ann.ok()) {
    std::fprintf(stderr, "annotation: %s\n", ann.status().ToString().c_str());
    return 1;
  }
  const Predicate& pred = ann->filter;

  // ---- 1. filtered full scan ----
  const ScanResult base = RowAtATimeScan(view, pred);
  const ScanResult vec = VectorizedScan(view, pred);
  if (base.qualifying != vec.qualifying || base.digest != vec.digest) {
    std::fprintf(stderr,
                 "MISMATCH: row-at-a-time %llu rows (digest %llx) vs "
                 "vectorized %llu rows (digest %llx)\n",
                 static_cast<unsigned long long>(base.qualifying),
                 static_cast<unsigned long long>(base.digest),
                 static_cast<unsigned long long>(vec.qualifying),
                 static_cast<unsigned long long>(vec.digest));
    return 1;
  }
  const double speedup = base.best_ms / vec.best_ms;
  const double mrows_s_base = kRows / base.best_ms / 1000.0;
  const double mrows_s_vec = kRows / vec.best_ms / 1000.0;

  std::printf("\n=== filtered full scan (%llu/%u qualifying) ===\n",
              static_cast<unsigned long long>(base.qualifying), kRows);
  std::printf("%-28s %10.2f ms   %8.2f Mrows/s\n", "row-at-a-time",
              base.best_ms, mrows_s_base);
  std::printf("%-28s %10.2f ms   %8.2f Mrows/s\n", "vectorized", vec.best_ms,
              mrows_s_vec);
  std::printf("%-28s %10.2fx  (target >= 5x)\n", "speedup", speedup);

  // ---- 2. sequential string point-access ----
  double scan_ms = 1e300, cursor_ms = 1e300;
  uint64_t scan_len = 0, cursor_len = 0, cursor_steps = 0;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    auto start = std::chrono::steady_clock::now();
    uint64_t len = 0;
    for (uint32_t r = 0; r < view.num_records(); ++r) {
      len += view.GetString(1, r)->size();
    }
    scan_ms = std::min(scan_ms, MsSince(start));
    scan_len = len;
  }
  for (int rep = 0; rep < kRepetitions; ++rep) {
    VarlenCursor cursor = CursorOf(view, 1);
    auto start = std::chrono::steady_clock::now();
    uint64_t len = 0;
    for (uint32_t r = 0; r < view.num_records(); ++r) {
      len += cursor.Get(r)->size();
    }
    cursor_ms = std::min(cursor_ms, MsSince(start));
    cursor_len = len;
    cursor_steps = cursor.decode_steps();
  }
  if (scan_len != cursor_len) {
    std::fprintf(stderr, "MISMATCH: string byte totals differ\n");
    return 1;
  }
  // GetString walks (r % partition) values before reading row r.
  uint64_t rescan_steps = 0;
  for (uint32_t r = 0; r < view.num_records(); ++r) {
    rescan_steps += r % kPartition + 1;
  }
  const double string_speedup = scan_ms / cursor_ms;
  std::printf("\n=== sequential string access, %u rows ===\n", kRows);
  std::printf("%-28s %10.2f ms   %12llu decode steps\n",
              "GetString (partition rescan)", scan_ms,
              static_cast<unsigned long long>(rescan_steps));
  std::printf("%-28s %10.2f ms   %12llu decode steps\n",
              "VarlenCursor (sequential)", cursor_ms,
              static_cast<unsigned long long>(cursor_steps));
  std::printf("%-28s %10.2fx\n", "speedup", string_speedup);
  const bool linear = cursor_steps == view.num_records();
  std::printf("cursor decode steps == n: %s (O(n) total access)\n",
              linear ? "yes" : "NO");

  // ---- 3. scan-on-compressed (format v3), UserVisits-shaped block ----
  constexpr uint32_t kUvRows = 60000;
  workload::UserVisitsConfig uv_cfg;
  uv_cfg.rows = kUvRows;
  uv_cfg.seed = 7;
  const Schema uv_schema = workload::UserVisitsSchema();
  const std::string uv_text = workload::GenerateUserVisitsText(uv_cfg);
  BlockFormatOptions plain_opts;
  plain_opts.varlen_partition_size = kPartition;
  BlockFormatOptions enc_opts = plain_opts;
  enc_opts.enable_encoding = true;
  PaxBlock uv_plain_block =
      BuildPaxBlockFromText(uv_schema, uv_text, plain_opts);
  PaxBlock uv_enc_block = BuildPaxBlockFromText(uv_schema, uv_text, enc_opts);
  const std::string uv_plain_bytes = uv_plain_block.Serialize();
  const std::string uv_enc_bytes = uv_enc_block.Serialize();
  auto uv_plain_or = PaxBlockView::Open(uv_plain_bytes);
  auto uv_enc_or = PaxBlockView::Open(uv_enc_bytes);
  if (!uv_plain_or.ok() || !uv_enc_or.ok()) {
    std::fprintf(stderr, "uservisits open failed\n");
    return 1;
  }
  const double stored_plain =
      static_cast<double>(uv_plain_or->stored_payload_bytes());
  const double stored_enc =
      static_cast<double>(uv_enc_or->stored_payload_bytes());
  const double compression_ratio = stored_plain / stored_enc;

  // Equality on the dictionary-encoded low-cardinality countryCode column
  // (~10% selectivity): the encoded path compares 1-byte codes against one
  // pre-resolved dictionary code; the plain path walks varlen strings.
  auto uv_ann = ParseAnnotation(uv_schema, "@6 = 'DEU'", "");
  if (!uv_ann.ok()) {
    std::fprintf(stderr, "annotation: %s\n",
                 uv_ann.status().ToString().c_str());
    return 1;
  }
  const ScanResult uv_plain_scan =
      UserVisitsFilteredScan(*uv_plain_or, uv_ann->filter);
  const ScanResult uv_enc_scan =
      UserVisitsFilteredScan(*uv_enc_or, uv_ann->filter);
  if (uv_plain_scan.qualifying != uv_enc_scan.qualifying ||
      uv_plain_scan.digest != uv_enc_scan.digest) {
    std::fprintf(stderr,
                 "MISMATCH: plain %llu rows (digest %llx) vs encoded %llu "
                 "rows (digest %llx)\n",
                 static_cast<unsigned long long>(uv_plain_scan.qualifying),
                 static_cast<unsigned long long>(uv_plain_scan.digest),
                 static_cast<unsigned long long>(uv_enc_scan.qualifying),
                 static_cast<unsigned long long>(uv_enc_scan.digest));
    return 1;
  }
  const double encoded_speedup = uv_plain_scan.best_ms / uv_enc_scan.best_ms;
  std::printf("\n=== scan-on-compressed, %u-row UserVisits block "
              "(%llu/%u qualifying) ===\n",
              kUvRows,
              static_cast<unsigned long long>(uv_enc_scan.qualifying),
              kUvRows);
  std::printf("%-28s %10.2f ms   %12.0f stored bytes\n", "plain scan",
              uv_plain_scan.best_ms, stored_plain);
  std::printf("%-28s %10.2f ms   %12.0f stored bytes\n", "encoded scan",
              uv_enc_scan.best_ms, stored_enc);
  std::printf("%-28s %10.2fx  (target >= 1.5x)\n", "speedup",
              encoded_speedup);
  std::printf("%-28s %10.2fx  (target >= 2x)\n", "compression ratio",
              compression_ratio);

  FILE* json = std::fopen(json_path.c_str(), "w");
  if (json != nullptr) {
    std::fprintf(
        json,
        "{\n"
        "  \"rows\": %u,\n"
        "  \"varlen_partition\": %u,\n"
        "  \"qualifying\": %llu,\n"
        "  \"filtered_scan\": {\n"
        "    \"row_at_a_time_ms\": %.3f,\n"
        "    \"vectorized_ms\": %.3f,\n"
        "    \"speedup\": %.2f\n"
        "  },\n"
        "  \"sequential_string_access\": {\n"
        "    \"getstring_ms\": %.3f,\n"
        "    \"cursor_ms\": %.3f,\n"
        "    \"speedup\": %.2f,\n"
        "    \"getstring_decode_steps\": %llu,\n"
        "    \"cursor_decode_steps\": %llu,\n"
        "    \"cursor_is_linear\": %s\n"
        "  },\n"
        "  \"scan_on_compressed\": {\n"
        "    \"uservisits_rows\": %u,\n"
        "    \"qualifying\": %llu,\n"
        "    \"plain_scan_ms\": %.3f,\n"
        "    \"encoded_scan_ms\": %.3f,\n"
        "    \"encoded_speedup\": %.2f,\n"
        "    \"stored_bytes_plain\": %.0f,\n"
        "    \"stored_bytes_encoded\": %.0f,\n"
        "    \"compression_ratio\": %.2f,\n"
        "    \"encoded_matches_plain\": true\n"
        "  }\n"
        "}\n",
        kRows, kPartition, static_cast<unsigned long long>(vec.qualifying),
        base.best_ms, vec.best_ms, speedup, scan_ms, cursor_ms,
        string_speedup, static_cast<unsigned long long>(rescan_steps),
        static_cast<unsigned long long>(cursor_steps),
        linear ? "true" : "false", kUvRows,
        static_cast<unsigned long long>(uv_enc_scan.qualifying),
        uv_plain_scan.best_ms, uv_enc_scan.best_ms, encoded_speedup,
        stored_plain, stored_enc, compression_ratio);
    std::fclose(json);
    std::printf("\nwrote %s\n", json_path.c_str());
  } else {
    std::fprintf(stderr, "warning: could not write %s\n", json_path.c_str());
  }

  if (!linear) return 1;
  return 0;
}
