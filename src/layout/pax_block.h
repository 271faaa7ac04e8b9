/// \file pax_block.h
/// \brief The PAX block format HAIL stores on datanodes (paper §3.1, §3.5).
///
/// A PAX block keeps all records of one HDFS block, column-major: one
/// "minipage" per attribute, preceded by a Block Metadata header (schema,
/// record counts, minipage directory) and followed by the bad-record
/// section. Variable-size attributes are stored as zero-terminated values
/// with a *sparse* offset list — one offset per logical partition of n
/// values — enabling the partition-scan access path of §3.5.
///
/// Two representations exist:
///   - PaxBlock: mutable in-memory columns (build, sort, reorganise);
///   - PaxBlockView: zero-copy reader over the serialised bytes that tracks
///     which byte ranges were touched, so the simulator can bill exactly
///     the I/O a column scan performs. Its ColumnReader is the one reader
///     of a minipage's values, whatever the encoding.

#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <variant>
#include <vector>

#include "layout/column_vector.h"
#include "layout/minipage_encoding.h"
#include "schema/row_parser.h"
#include "schema/schema.h"
#include "util/io.h"
#include "util/result.h"

namespace hail {

/// Serialisation constants.
inline constexpr uint32_t kPaxMagic = 0x4C494148;  // "HAIL" little-endian
inline constexpr uint32_t kDefaultVarlenPartition = 64;
/// Layout-kind byte: 0 = plain PAX (v1), 3 = encoded minipages (v3).
inline constexpr uint8_t kPaxLayoutPlain = 0;
inline constexpr uint8_t kPaxLayoutEncoded = 3;

/// \brief Options controlling the physical block format.
struct BlockFormatOptions {
  /// Values per logical partition for sparse varlen offsets (and for the
  /// clustered index built on top). The paper uses 1024 at 64 MB blocks;
  /// scaled-down tests use smaller partitions to keep granularity.
  uint32_t varlen_partition_size = kDefaultVarlenPartition;
  /// Write format v3: Serialize() picks NONE / dictionary / RLE /
  /// frame-of-reference per minipage by comparing encoded sizes. Off by
  /// default, so existing v1 bytes (and every golden digest over them)
  /// are unchanged. Deserialize() preserves the flag, so a replica
  /// written from a decoded block in its own row order is v3 as well.
  bool enable_encoding = false;
};

/// \brief The dictionary pass of a format-v3 string minipage.
///
/// A v3 dictionary is sorted and distinct, so it depends only on the set
/// of a column's values, never on their row order: every replica of a
/// block writes the same dictionary, each with the codes of its own row
/// order. Entries view the column's string bytes, so the block must
/// outlive the dictionary and append no row meanwhile; moving the block
/// keeps them valid.
struct StringDictionary {
  /// Sorted, distinct values.
  std::vector<std::string_view> values;
  /// Bytes of the NUL-terminated entries.
  uint64_t value_bytes = 0;
  /// codes[r] is row r's index into values, in the column's row order.
  std::vector<uint32_t> codes;
};

/// Entry c is column c's dictionary pass when the block is v3 and
/// column c is a string column the dictionary encodes (it stores fewer
/// bytes than the plain layout), else empty.
using BlockDictionaries = std::vector<std::optional<StringDictionary>>;

/// \brief Mutable, in-memory PAX block (one column vector per attribute).
class PaxBlock {
 public:
  PaxBlock(Schema schema, BlockFormatOptions options = {});

  const Schema& schema() const { return schema_; }
  const BlockFormatOptions& options() const { return options_; }
  uint32_t num_records() const {
    return columns_.empty() ? 0
                            : static_cast<uint32_t>(columns_[0].size());
  }
  int num_columns() const { return static_cast<int>(columns_.size()); }
  const ColumnVector& column(int i) const {
    return columns_[static_cast<size_t>(i)];
  }
  const std::vector<std::string>& bad_records() const { return bad_records_; }

  /// Appends a successfully parsed row.
  void AppendRow(const std::vector<Value>& values);
  /// Appends a row that failed schema validation (raw text preserved).
  void AppendBadRecord(std::string_view raw);

  /// Reconstructs row \p row as values in schema order.
  std::vector<Value> GetRow(uint32_t row) const;

  /// Sorts all columns by the given key column (stable). Returns the
  /// permutation that was applied (new[i] = old[perm[i]]).
  std::vector<uint32_t> SortByColumn(int key_column);

  /// Direct access to the typed columns for bulk ingest paths
  /// (ColumnarAppender); callers must keep all columns at equal length.
  /// The caller may reorder rows, so the received dictionaries are
  /// dropped.
  std::vector<ColumnVector>& mutable_columns() {
    received_.clear();
    return columns_;
  }

  /// The dictionary pass of every column (see BlockDictionaries). It
  /// views this block's strings. A column Deserialize decoded from a
  /// dictionary minipage gets that dictionary back, with no pass, when
  /// it is the one the pass would pick.
  BlockDictionaries BuildDictionaries() const;

  /// Serialises header + minipages + bad section. Row i of the written
  /// block is row (*order)[i] of this one, or row i when \p order is
  /// null; bad records keep their order. A v3 block's string minipages
  /// are written from \p dictionaries (BuildDictionaries of this block)
  /// when given, else from BuildDictionaries run here: the bytes are the
  /// same. So a block's replicas, each in its own sort order, share one
  /// dictionary pass and copy no column.
  std::string Serialize(const std::vector<uint32_t>* order = nullptr,
                        const BlockDictionaries* dictionaries = nullptr) const;

  /// Parses a serialised block back into mutable columns, keeping the
  /// codes of every dictionary minipage for BuildDictionaries.
  static Result<PaxBlock> Deserialize(std::string_view data);

  /// Process-wide count of Deserialize calls. Upload tests assert the
  /// multi-replica build decodes each uploaded block exactly once,
  /// regardless of replication factor (the PR-1 decode_steps() idea at
  /// block granularity).
  static uint64_t deserialize_count();

  /// Bytes of the values-only payload (no header); used to size blocks.
  uint64_t PayloadBytes() const;
  /// Values-only bytes of the fixed-width columns.
  uint64_t FixedPayloadBytes() const;
  /// Values-only bytes of the variable-size (string) columns.
  uint64_t VarlenPayloadBytes() const;

 private:
  /// A dictionary minipage as Deserialize decoded it: its entry count and
  /// each row's code. Its entries are the column's values of those codes.
  struct ReceivedDictionary {
    uint32_t dict_size = 0;
    std::vector<uint32_t> codes;
  };

  Schema schema_;
  BlockFormatOptions options_;
  std::vector<ColumnVector> columns_;
  std::vector<std::string> bad_records_;
  /// Per column, its ReceivedDictionary when Deserialize decoded one;
  /// empty once rows are reordered or appended (SortByColumn, AppendRow,
  /// mutable_columns).
  std::vector<std::optional<ReceivedDictionary>> received_;
};

/// \brief Zero-copy typed view over one fixed-size minipage.
///
/// Wraps the serialised value bytes directly — no decode, no copy. Loads
/// go through memcpy so they stay well-defined even when the block buffer
/// is not aligned for T (the serialiser pads minipages to 8 bytes, but a
/// view may sit inside a larger HAIL-block buffer); GCC/Clang compile the
/// 4/8-byte memcpy to a single unaligned load, so the filter kernels in
/// query/vectorized.cc auto-vectorise over these spans.
///
/// Alignment contract: the serialiser starts every value array at an
/// 8-byte offset *within the block* (v1 minipages and v3 plain/encoded
/// arrays alike), so whenever the enclosing buffer is 8-byte aligned the
/// memcpy loads hit naturally aligned addresses and compile to aligned
/// vector loads. The static_asserts below pin the widths that contract
/// serves; 8 must remain a multiple of every span element size.
template <typename T>
class ColumnSpan {
  static_assert(sizeof(T) == 4 || sizeof(T) == 8,
                "ColumnSpan serves 4/8-byte fixed-width minipage values; "
                "the 8-byte serialisation alignment must cover sizeof(T)");
  static_assert(8 % sizeof(T) == 0,
                "minipage 8-byte alignment would not align element loads");
  static_assert(std::is_trivially_copyable_v<T>,
                "ColumnSpan loads values with memcpy");

 public:
  ColumnSpan() = default;
  ColumnSpan(const char* base, uint32_t size) : base_(base), size_(size) {}

  uint32_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  T operator[](uint32_t i) const {
    T v;
    std::memcpy(&v, base_ + static_cast<size_t>(i) * sizeof(T), sizeof(T));
    return v;
  }

  /// Start of the serialised values (for bulk memcpy decode).
  const char* raw_bytes() const { return base_; }

 private:
  const char* base_ = nullptr;
  uint32_t size_ = 0;
};

/// \brief Sequential decoder for one varlen (string) minipage.
///
/// GetString() on the view re-scans the partition from its sparse offset
/// on *every* call — O(partition) per access, O(n * partition) for a full
/// column scan. The cursor instead remembers where the last decode ended:
/// monotonically non-decreasing row accesses (the scan engine's selection
/// vectors are always ascending) decode each value at most once, O(n)
/// total. Random jumps re-seek via the sparse partition offsets, so worst
/// case still matches the §3.5 path. `decode_steps()` counts values
/// walked, which the property tests and bench_scan_micro use to verify
/// the O(n) claim.
class VarlenCursor {
 public:
  VarlenCursor() = default;

  bool valid() const { return values_ != nullptr; }
  uint32_t num_records() const { return num_records_; }

  /// Returns the value of \p row; the view's buffer must stay alive.
  Result<std::string_view> Get(uint32_t row);

  /// Total zero-terminated values walked (skips + reads) since creation.
  uint64_t decode_steps() const { return decode_steps_; }
  /// Times the cursor had to jump via a sparse partition offset.
  uint64_t partition_seeks() const { return partition_seeks_; }

 private:
  friend class ColumnReader;
  friend class PaxBlockView;

  const char* values_ = nullptr;   // start of the value bytes
  const char* end_ = nullptr;      // one past the value bytes
  const char* offsets_ = nullptr;  // sparse u64 offset array
  uint32_t num_offsets_ = 0;
  uint32_t partition_size_ = 1;
  uint32_t num_records_ = 0;

  const char* cursor_ = nullptr;   // start of value `current_row_`
  uint32_t current_row_ = 0;
  uint64_t decode_steps_ = 0;
  uint64_t partition_seeks_ = 0;
};

/// \brief Reader over one column's minipage, of any encoding and type.
///
/// The one reader of a minipage: the filter kernels (query/vectorized),
/// tuple reconstruction (the HAIL RecordReader, §4.3), the view's row
/// accessors and PaxBlock::Deserialize all read through it, so no other
/// module knows the minipage formats. PaxBlockView::Open resolves each
/// column once into a reader over its one span: a ColumnSpan (int32 and
/// date share ColumnSpan<int32_t>) or a VarlenCursor for a plain
/// minipage, a ForSpan, an RleSpan or a DictSpan for an encoded one.
/// OpenColumn hands out a copy, so each caller has its own cursor
/// position and RLE run, and a view is never written after Open. Visit
/// hands the span to a kernel. Get() costs amortised O(1) for ascending
/// rows: an RLE column remembers its run and steps to the next one, a
/// plain string column keeps its VarlenCursor. Any other row re-seeks by
/// binary search over the run starts, or by the sparse partition offset.
/// The block's buffer must outlive the reader; the view need not.
class ColumnReader {
 public:
  FieldType type() const { return type_; }
  /// Physical encoding of the minipage (kPlain for v1 blocks).
  MiniPageEncoding encoding() const { return encoding_; }
  /// True when the minipage is stored FOR, RLE or dictionary encoded.
  bool encoded() const { return encoding_ != MiniPageEncoding::kPlain; }

  /// Value of \p row; OutOfRange past the block's last row.
  Result<Value> Get(uint32_t row);
  /// String value of \p row, viewing the block's buffer; InvalidArgument
  /// on a fixed-size column.
  Result<std::string_view> GetString(uint32_t row);

  /// Appends every value to \p out, whose type must be type(): one memcpy
  /// for a plain fixed-size minipage, one fill per RLE run, one pass for
  /// the others.
  Status AppendTo(ColumnVector* out) const;

  /// Calls \p f with the minipage's span, by reference (a VarlenCursor
  /// advances as \p f reads it), and returns what \p f returns.
  template <typename F>
  decltype(auto) Visit(F&& f) {
    return std::visit(std::forward<F>(f), span_);
  }

 private:
  friend class PaxBlockView;

  using Span = std::variant<ColumnSpan<int32_t>, ColumnSpan<int64_t>,
                            ColumnSpan<double>, VarlenCursor, ForSpan,
                            RleSpan<int32_t>, RleSpan<int64_t>,
                            RleSpan<double>, DictSpan>;

  template <typename T>
  T ValueAt(const ColumnSpan<T>& span, uint32_t row) {
    return span[row];
  }

  /// Value of \p row (< num_records) in an RLE column: the run of the
  /// last row read or the next one for ascending rows, else a binary
  /// search, never a walk over the runs in between.
  template <typename T>
  T ValueAt(const RleSpan<T>& span, uint32_t row) {
    if (row < span.run_start(run_) || row >= span.run_end(run_)) {
      // row >= run_end(run_) means run_ is not the last run.
      run_ = row >= span.run_end(run_) && row < span.run_end(run_ + 1)
                 ? run_ + 1
                 : span.RunContaining(row);
    }
    return span.run_value(run_);
  }

  FieldType type_ = FieldType::kInt32;
  MiniPageEncoding encoding_ = MiniPageEncoding::kPlain;
  uint32_t num_records_ = 0;
  uint32_t run_ = 0;  // RLE: run of the last row read
  Span span_;
};

// Inline: tuple reconstruction calls these once per value.
inline Result<Value> ColumnReader::Get(uint32_t row) {
  if (row >= num_records_) return Status::OutOfRange("row out of range");
  return std::visit(
      [this, row](auto& span) -> Result<Value> {
        using S = std::decay_t<decltype(span)>;
        if constexpr (std::is_same_v<S, VarlenCursor>) {
          HAIL_ASSIGN_OR_RETURN(std::string_view s, span.Get(row));
          return Value(std::string(s));
        } else if constexpr (std::is_same_v<S, DictSpan>) {
          return Value(std::string(span.Value(row)));
        } else if constexpr (std::is_same_v<S, ForSpan>) {
          return type_ == FieldType::kInt64
                     ? Value(span.Value(row))
                     : Value(static_cast<int32_t>(span.Value(row)));
        } else {
          return Value(ValueAt(span, row));
        }
      },
      span_);
}

inline Result<std::string_view> ColumnReader::GetString(uint32_t row) {
  if (type_ != FieldType::kString) {
    return Status::InvalidArgument("GetString on fixed-size column");
  }
  if (row >= num_records_) return Status::OutOfRange("row out of range");
  // A dictionary row is one code load and one offset lookup; a plain
  // string row is the §3.5 partition scan, done by the cursor.
  if (const DictSpan* dict = std::get_if<DictSpan>(&span_)) {
    return dict->Value(row);
  }
  return std::get_if<VarlenCursor>(&span_)->Get(row);
}

/// \brief Sequential reader over the bad-record section.
///
/// GetBadRecord(i) re-skips records 0..i-1 on every call — O(i) each,
/// O(n^2) for the "hand every bad record to the map function" loop. The
/// cursor walks the section once.
class BadRecordCursor {
 public:
  BadRecordCursor() = default;

  uint32_t remaining() const { return remaining_; }
  bool Done() const { return remaining_ == 0; }

  /// Raw text of the next bad record; Done() must be false.
  Result<std::string_view> Next();

 private:
  friend class PaxBlockView;
  BadRecordCursor(std::string_view section, uint32_t count)
      : reader_(section), remaining_(count) {}

  ByteReader reader_{std::string_view()};
  uint32_t remaining_ = 0;
};

/// \brief Zero-copy reader over a serialised PAX block.
///
/// Random access to fixed-size values is O(1); string access follows the
/// paper's §3.5 path: jump to the partition's stored offset and scan the
/// zero-terminated values to the requested row. `bytes_touched` accumulates
/// the byte ranges a caller read (header, index partitions, minipage
/// slices) for I/O billing.
class PaxBlockView {
 public:
  /// Parses the header; data must outlive the view.
  static Result<PaxBlockView> Open(std::string_view data);

  const Schema& schema() const { return schema_; }
  uint32_t num_records() const { return num_records_; }
  uint32_t num_bad_records() const { return num_bad_records_; }
  uint32_t varlen_partition_size() const { return varlen_partition_; }
  int num_columns() const { return static_cast<int>(cols_.size()); }

  /// Total serialised size of the block.
  uint64_t total_bytes() const { return data_.size(); }
  /// Bytes of column \p i's minipage (values + offset list). Unchecked:
  /// callers loop over [0, num_columns()).
  uint64_t column_bytes(int i) const {
    return cols_[static_cast<size_t>(i)].minipage_bytes;
  }
  /// Values-only bytes of column \p i — what the column occupies at paper
  /// scale, where the sparse offset side-car is negligible. Cost billing
  /// uses this; the real (scaled-down) offset lists are denser and must
  /// not be scaled up (DESIGN.md §2). For an *encoded* minipage this is
  /// the stored (compressed) extent — codes, runs, dictionary — so the
  /// datanode transfer terms automatically bill compressed bytes.
  /// Unchecked: callers loop over [0, num_columns()).
  uint64_t column_value_bytes(int i) const {
    return cols_[static_cast<size_t>(i)].value_bytes;
  }

  /// True when the block was serialised as format v3 (encoded minipages).
  bool encoded_format() const { return layout_kind_ == kPaxLayoutEncoded; }
  /// Number of columns stored under a non-plain encoding.
  int num_encoded_columns() const;
  /// Stored payload bytes: sum of column_value_bytes over all columns plus
  /// the bad-record tail. With encoding on this is the compressed size the
  /// cost model bills for transfer (PaxBlock::PayloadBytes() stays the
  /// uncompressed logical payload).
  uint64_t stored_payload_bytes() const;

  /// Sequential reader over the bad-record section (O(n) total).
  Result<BadRecordCursor> OpenBadRecords() const;

  /// Reader over column \p column's minipage, whatever its encoding; the
  /// only way to read a minipage's values. A copy of the reader Open
  /// resolved, positioned at row 0. InvalidArgument when the block has no
  /// such column.
  Result<ColumnReader> OpenColumn(int column) const;

  // -- Row-at-a-time accessors (parse/reconstruct boundary, tests) --
  // Each opens a throwaway ColumnReader; a column outside the block is
  // InvalidArgument.

  /// Reads one fixed-size value.
  Result<Value> GetFixedValue(int column, uint32_t row) const;
  /// Reads one string value via the partition-scan path (§3.5).
  Result<std::string_view> GetString(int column, uint32_t row) const;
  /// Reads any value (dispatches on type).
  Result<Value> GetAnyValue(int column, uint32_t row) const;

  /// Reconstructs a full row (all columns).
  Result<std::vector<Value>> GetRow(uint32_t row) const;

  /// Raw text of bad record \p i (0 <= i < num_bad_records()).
  Result<std::string_view> GetBadRecord(uint32_t i) const;

 private:
  /// One column as Open resolved it.
  struct Column {
    uint64_t minipage_bytes = 0;
    uint64_t value_bytes = 0;  // column_value_bytes
    ColumnReader reader;       // OpenColumn hands out copies
  };

  Status ResolveColumn(FieldType type, uint64_t offset, Column* column);

  std::string_view data_;
  Schema schema_;
  uint8_t layout_kind_ = kPaxLayoutPlain;
  uint32_t num_records_ = 0;
  uint32_t num_bad_records_ = 0;
  uint32_t varlen_partition_ = kDefaultVarlenPartition;
  uint64_t bad_section_offset_ = 0;
  std::vector<Column> cols_;
};

/// \brief Parses text rows into a PAX block (the HAIL client's conversion
/// step 2 in Figure 1). Rows failing the schema go to the bad section.
PaxBlock BuildPaxBlockFromText(const Schema& schema, std::string_view text,
                               BlockFormatOptions options = {});

}  // namespace hail
