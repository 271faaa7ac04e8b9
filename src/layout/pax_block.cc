#include "layout/pax_block.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <cstring>
#include <functional>
#include <limits>
#include <numeric>
#include <optional>

namespace hail {

namespace {

constexpr uint64_t Align8(uint64_t pos) { return (pos + 7) & ~uint64_t{7}; }

void PadTo8(ByteWriter& w) {
  while (w.size() % 8 != 0) w.PutU8(0);
}

/// Narrowest unsigned code width covering [0, range]; 0 when > 4 bytes.
uint8_t CodeWidthForRange(uint64_t range) {
  if (range <= 0xFF) return 1;
  if (range <= 0xFFFF) return 2;
  if (range <= 0xFFFFFFFFull) return 4;
  return 0;
}

/// Writes \p n codes of \p width bytes (1, 2 or 4), code i being the low
/// bytes of \p code_of(i), into \p out (n * width bytes).
template <typename CodeOf>
void WriteCodes(char* out, uint32_t n, uint8_t width, CodeOf code_of) {
  switch (width) {
    case 1:
      for (uint32_t i = 0; i < n; ++i) {
        out[i] = static_cast<char>(static_cast<uint8_t>(code_of(i)));
      }
      return;
    case 2:
      for (uint32_t i = 0; i < n; ++i) {
        const uint16_t code = static_cast<uint16_t>(code_of(i));
        std::memcpy(out + 2ull * i, &code, 2);
      }
      return;
    default:
      for (uint32_t i = 0; i < n; ++i) {
        const uint32_t code = static_cast<uint32_t>(code_of(i));
        std::memcpy(out + 4ull * i, &code, 4);
      }
      return;
  }
}

/// Row orders a minipage is written in: row i of the minipage is row
/// rows(i) of the column.
struct ArrivalRows {
  static constexpr bool kArrival = true;
  uint32_t operator()(uint32_t i) const { return i; }
};
struct OrderedRows {
  static constexpr bool kArrival = false;
  const uint32_t* order;
  uint32_t operator()(uint32_t i) const { return order[i]; }
};

/// Writes \p n fixed-width values in row order: one copy in arrival
/// order, a gather otherwise.
template <typename T, typename Rows>
void PutValues(ByteWriter& w, const std::vector<T>& vals, Rows rows,
               uint32_t n) {
  if constexpr (Rows::kArrival) {
    w.PutBytes(std::string_view(reinterpret_cast<const char*>(vals.data()),
                                uint64_t{n} * sizeof(T)));
  } else {
    char* out = w.Extend(uint64_t{n} * sizeof(T));
    for (uint32_t i = 0; i < n; ++i) {
      std::memcpy(out + uint64_t{i} * sizeof(T), &vals[rows(i)], sizeof(T));
    }
  }
}

/// Writes the RLE body (run count, run starts, run values) of \p n
/// values, a run being a maximal stretch of rows where \p same holds
/// between neighbours.
template <typename T, typename Rows, typename Same>
void WriteRuns(ByteWriter& w, const std::vector<T>& vals, Rows rows,
               uint32_t n, uint32_t runs, Same same) {
  w.PutU8(static_cast<uint8_t>(MiniPageEncoding::kRle));
  w.PutU32(runs);
  PadTo8(w);
  for (uint32_t i = 0; i < n; ++i) {
    if (i == 0 || !same(vals[rows(i)], vals[rows(i - 1)])) w.PutU32(i);
  }
  PadTo8(w);
  for (uint32_t i = 0; i < n; ++i) {
    if (i == 0 || !same(vals[rows(i)], vals[rows(i - 1)])) {
      const T v = vals[rows(i)];
      w.PutBytes(std::string_view(reinterpret_cast<const char*>(&v), sizeof(T)));
    }
  }
}

/// Serialises one integer minipage (format v3), choosing the encoding by
/// comparing estimated stored sizes: NONE beats an encoding on ties, FOR
/// beats RLE (cheaper random access).
template <typename T, typename Rows>
void WriteEncodedIntMiniPage(ByteWriter& w, const std::vector<T>& vals,
                             Rows rows) {
  const uint32_t n = static_cast<uint32_t>(vals.size());
  if (n == 0) {
    w.PutU8(static_cast<uint8_t>(MiniPageEncoding::kPlain));
    PadTo8(w);
    return;
  }
  // One sampling pass: min, max, run count.
  T prev = vals[rows(0)];
  T mn = prev, mx = prev;
  uint32_t runs = 1;
  for (uint32_t i = 1; i < n; ++i) {
    const T v = vals[rows(i)];
    mn = std::min(mn, v);
    mx = std::max(mx, v);
    runs += v != prev ? 1u : 0u;
    prev = v;
  }
  const uint64_t range = static_cast<uint64_t>(static_cast<int64_t>(mx)) -
                         static_cast<uint64_t>(static_cast<int64_t>(mn));
  uint8_t for_width = CodeWidthForRange(range);
  if (for_width >= sizeof(T)) for_width = 0;  // no win over plain
  const uint64_t plain_est = 8 + uint64_t{n} * sizeof(T);
  const uint64_t for_est =
      for_width ? 16 + uint64_t{n} * for_width
                : std::numeric_limits<uint64_t>::max();
  const uint64_t rle_est = 16 + uint64_t{runs} * (4 + sizeof(T));
  if (plain_est <= for_est && plain_est <= rle_est) {
    w.PutU8(static_cast<uint8_t>(MiniPageEncoding::kPlain));
    PadTo8(w);
    PutValues(w, vals, rows, n);
    return;
  }
  if (for_est <= rle_est) {
    w.PutU8(static_cast<uint8_t>(MiniPageEncoding::kFor));
    w.PutU8(for_width);
    PadTo8(w);
    const uint64_t frame = static_cast<uint64_t>(static_cast<int64_t>(mn));
    w.PutU64(frame);
    WriteCodes(w.Extend(uint64_t{n} * for_width), n, for_width,
               [&vals, rows, frame](uint32_t i) {
                 return static_cast<uint64_t>(
                            static_cast<int64_t>(vals[rows(i)])) -
                        frame;
               });
    return;
  }
  WriteRuns(w, vals, rows, n, runs, [](T a, T b) { return a == b; });
}

/// Doubles only get RLE, and run detection is *bitwise* so -0.0 / 0.0 and
/// NaN payloads survive a round trip exactly (value equality would merge
/// -0.0 into a 0.0 run and re-materialise the wrong bits).
template <typename Rows>
void WriteEncodedDoubleMiniPage(ByteWriter& w, const std::vector<double>& vals,
                                Rows rows) {
  const uint32_t n = static_cast<uint32_t>(vals.size());
  auto same_bits = [](double a, double b) {
    return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
  };
  uint32_t runs = n > 0 ? 1 : 0;
  for (uint32_t i = 1; i < n; ++i) {
    runs += same_bits(vals[rows(i)], vals[rows(i - 1)]) ? 0u : 1u;
  }
  const uint64_t plain_est = 8 + uint64_t{n} * sizeof(double);
  const uint64_t rle_est = 16 + uint64_t{runs} * (4 + sizeof(double));
  if (n == 0 || plain_est <= rle_est) {
    w.PutU8(static_cast<uint8_t>(MiniPageEncoding::kPlain));
    PadTo8(w);
    PutValues(w, vals, rows, n);
    return;
  }
  WriteRuns(w, vals, rows, n, runs, same_bits);
}

/// Copies \p s to \p out. A column's view of an empty value may have a
/// null data pointer, which memcpy must not be handed.
void CopyBytes(char* out, std::string_view s) {
  if (!s.empty()) std::memcpy(out, s.data(), s.size());
}

/// Sparse offsets of a varlen minipage of \p n values, one per partition
/// of \p part values.
uint32_t NumVarlenOffsets(uint32_t n, uint32_t part) {
  return n == 0 ? 0 : (n + part - 1) / part;
}

/// Writes the v1 sparse-offset varlen body (sans tag) — shared between the
/// v1 string path and the v3 plain-string fallback.
template <typename Rows>
void WriteVarlenBody(ByteWriter& w, const ColumnVector& col, Rows rows,
                     uint32_t n, uint32_t part) {
  const uint32_t num_offsets = NumVarlenOffsets(n, part);
  w.PutU32(num_offsets);
  const uint64_t total = col.SerializedValueBytes();
  char* out = w.Extend(8ull * num_offsets + 8 + total);
  char* values = out + 8ull * num_offsets + 8;
  std::memcpy(values - 8, &total, sizeof(total));  // total value bytes
  uint64_t pos = 0;
  for (uint32_t r = 0; r < n; ++r) {
    if (r % part == 0) std::memcpy(out + 8ull * (r / part), &pos, sizeof(pos));
    // Extend zero-filled the NUL terminator.
    const std::string_view s = col.str(rows(r));
    CopyBytes(values + pos, s);
    pos += s.size() + 1;
  }
}

/// Stored size of string column \p col as a plain v3 minipage of \p part
/// values per sparse offset: tag, offset count, offsets, byte count and
/// the NUL-terminated values.
uint64_t PlainEstimate(const ColumnVector& col, uint32_t part) {
  const uint32_t n = static_cast<uint32_t>(col.size());
  return 1 + 4 + 8ull * NumVarlenOffsets(n, part) + 8 +
         col.SerializedValueBytes();
}

/// Stored size of a dictionary minipage of \p dict_size >= 1 entries:
/// header, pads, offsets, entries and one code per row.
uint64_t DictEstimate(uint64_t dict_size, uint64_t dict_bytes, uint32_t n) {
  return 14 + 8 /* pads */ + 4 * dict_size + dict_bytes +
         uint64_t{n} * CodeWidthForRange(dict_size - 1);
}

/// String minipage (format v3): \p dict's entries and its codes in row
/// order, or the plain sparse-offset layout when there is no dictionary.
template <typename Rows>
void WriteEncodedStringMiniPage(ByteWriter& w, const ColumnVector& col,
                                const StringDictionary* dict, Rows rows,
                                uint32_t n, uint32_t part) {
  if (dict == nullptr) {
    w.PutU8(static_cast<uint8_t>(MiniPageEncoding::kPlain));
    WriteVarlenBody(w, col, rows, n, part);
    return;
  }
  const uint32_t dict_size = static_cast<uint32_t>(dict->values.size());
  const uint8_t width = CodeWidthForRange(dict_size - 1);
  w.PutU8(static_cast<uint8_t>(MiniPageEncoding::kDict));
  w.PutU8(width);
  w.PutU32(dict_size);
  w.PutU64(dict->value_bytes);
  PadTo8(w);
  char* offsets = w.Extend(4ull * dict_size + dict->value_bytes);
  char* values = offsets + 4ull * dict_size;
  uint32_t off = 0;
  for (uint32_t c = 0; c < dict_size; ++c) {
    const std::string_view s = dict->values[c];
    std::memcpy(offsets + 4ull * c, &off, 4);
    CopyBytes(values + off, s);  // NUL from Extend
    off += static_cast<uint32_t>(s.size()) + 1;
  }
  PadTo8(w);
  const uint32_t* codes = dict->codes.data();
  WriteCodes(w.Extend(uint64_t{n} * width), n, width,
             [codes, rows](uint32_t r) { return codes[rows(r)]; });
}

/// Writes column \p col's minipage body in row order \p rows; \p dict is
/// a v3 string column's dictionary (null: plain).
template <typename Rows>
void WriteMiniPage(ByteWriter& w, const ColumnVector& col, bool encoded,
                   const StringDictionary* dict, Rows rows, uint32_t n,
                   uint32_t part) {
  switch (col.type()) {
    case FieldType::kInt32:
    case FieldType::kDate:
      if (encoded) {
        WriteEncodedIntMiniPage(w, col.i32(), rows);
      } else {
        PutValues(w, col.i32(), rows, n);
      }
      return;
    case FieldType::kInt64:
      if (encoded) {
        WriteEncodedIntMiniPage(w, col.i64(), rows);
      } else {
        PutValues(w, col.i64(), rows, n);
      }
      return;
    case FieldType::kDouble:
      if (encoded) {
        WriteEncodedDoubleMiniPage(w, col.f64(), rows);
      } else {
        PutValues(w, col.f64(), rows, n);
      }
      return;
    case FieldType::kString:
      if (encoded) {
        WriteEncodedStringMiniPage(w, col, dict, rows, n, part);
      } else {
        // Sparse offsets: one per partition of `part` values, relative
        // to the start of the value bytes ("we only store every n-th
        // offset", §3.5).
        WriteVarlenBody(w, col, rows, n, part);
      }
      return;
  }
}

/// Dictionary pass of a v3 string minipage of \p part values per sparse
/// offset; empty when the plain layout stores no more bytes.
///
/// One pass over a flat open-addressing table of value ids finds the
/// distinct values in first-seen order. The dictionary estimate never
/// shrinks as values are added, so the pass stops once it reaches the
/// plain size: a high-entropy column gives up early and nothing is
/// sorted. Only a winning dictionary is sorted, so codes follow string
/// order, and each row's first-seen id is then replaced by its rank.
std::optional<StringDictionary> BuildStringDictionary(const ColumnVector& col,
                                                      uint32_t part) {
  const uint32_t n = static_cast<uint32_t>(col.size());
  if (n == 0) return std::nullopt;
  const uint64_t plain_est = PlainEstimate(col, part);

  std::vector<std::string_view> distinct;  // first-seen order
  distinct.reserve(n);
  std::vector<uint32_t> ids(n);  // row -> index into distinct
  uint64_t dict_bytes = 0;
  // Power-of-two table of at least 2n slots; 0 marks an empty slot, else
  // the slot holds a distinct index + 1.
  uint64_t capacity = 16;
  while (capacity < 2ull * n) capacity *= 2;
  const uint64_t mask = capacity - 1;
  std::vector<uint32_t> slots(capacity, 0);
  for (uint32_t r = 0; r < n; ++r) {
    const std::string_view s = col.str(r);
    // The dictionary is sorted before it is written, so the hash affects
    // speed only, never the bytes.
    uint64_t slot = std::hash<std::string_view>{}(s) & mask;
    while (slots[slot] != 0 && distinct[slots[slot] - 1] != s) {
      slot = (slot + 1) & mask;
    }
    if (slots[slot] == 0) {
      distinct.push_back(s);
      slots[slot] = static_cast<uint32_t>(distinct.size());
      dict_bytes += s.size() + 1;
      if (dict_bytes > std::numeric_limits<uint32_t>::max() ||
          DictEstimate(distinct.size(), dict_bytes, n) >= plain_est) {
        return std::nullopt;
      }
    }
    ids[r] = slots[slot] - 1;
  }

  const uint32_t dict_size = static_cast<uint32_t>(distinct.size());
  std::vector<uint32_t> sorted(dict_size);  // code -> first-seen id
  std::iota(sorted.begin(), sorted.end(), 0u);
  std::sort(sorted.begin(), sorted.end(), [&distinct](uint32_t a, uint32_t b) {
    return distinct[a] < distinct[b];
  });
  StringDictionary dict;
  dict.values.reserve(dict_size);
  std::vector<uint32_t> code_of(dict_size);  // first-seen id -> code
  for (uint32_t c = 0; c < dict_size; ++c) {
    dict.values.push_back(distinct[sorted[c]]);
    code_of[sorted[c]] = c;
  }
  dict.value_bytes = dict_bytes;
  for (uint32_t& id : ids) id = code_of[id];
  dict.codes = std::move(ids);
  return dict;
}

/// The dictionary a v3 minipage stored for \p col (\p dict_size entries,
/// row r coded \p codes[r]) when it is the one BuildStringDictionary
/// picks, else empty. PaxBlockView::Open checked that the entries are
/// sorted and distinct and every code is in range, so it is the pass's
/// exactly when every entry is used by some row (the entries are then the
/// column's distinct values and the codes their ranks) and it stores
/// fewer bytes than the plain layout (the pass's give-up test). The
/// entries view the column's own strings, not the stored block.
std::optional<StringDictionary> ReceivedStringDictionary(
    const ColumnVector& col, uint32_t dict_size,
    const std::vector<uint32_t>& codes, uint32_t part) {
  const uint32_t n = static_cast<uint32_t>(col.size());
  std::vector<uint32_t> first(dict_size, n);  // first row of each code
  uint32_t unused = dict_size;
  for (uint32_t r = 0; r < n && unused > 0; ++r) {
    uint32_t& row = first[codes[r]];
    if (row == n) {
      row = r;
      --unused;
    }
  }
  if (unused > 0) return std::nullopt;
  StringDictionary dict;
  dict.values.reserve(dict_size);
  for (const uint32_t row : first) {
    dict.values.push_back(col.str(row));
    dict.value_bytes += dict.values.back().size() + 1;
  }
  if (dict.value_bytes > std::numeric_limits<uint32_t>::max() ||
      DictEstimate(dict_size, dict.value_bytes, n) >=
          PlainEstimate(col, part)) {
    return std::nullopt;
  }
  dict.codes = codes;
  return dict;
}

}  // namespace

PaxBlock::PaxBlock(Schema schema, BlockFormatOptions options)
    : schema_(std::move(schema)), options_(options) {
  columns_.reserve(static_cast<size_t>(schema_.num_fields()));
  for (int i = 0; i < schema_.num_fields(); ++i) {
    columns_.emplace_back(schema_.field(i).type);
  }
}

void PaxBlock::AppendRow(const std::vector<Value>& values) {
  assert(values.size() == columns_.size());
  received_.clear();
  for (size_t i = 0; i < columns_.size(); ++i) {
    columns_[i].Append(values[i]);
  }
}

void PaxBlock::AppendBadRecord(std::string_view raw) {
  bad_records_.emplace_back(raw);
}

std::vector<Value> PaxBlock::GetRow(uint32_t row) const {
  std::vector<Value> out;
  out.reserve(columns_.size());
  for (const ColumnVector& col : columns_) {
    out.push_back(col.GetValue(row));
  }
  return out;
}

std::vector<uint32_t> PaxBlock::SortByColumn(int key_column) {
  received_.clear();
  std::vector<uint32_t> perm =
      ArgSortColumn(columns_[static_cast<size_t>(key_column)]);
  for (ColumnVector& col : columns_) {
    col.ApplyPermutation(perm);
  }
  return perm;
}

uint64_t PaxBlock::PayloadBytes() const {
  uint64_t bytes = 0;
  for (const ColumnVector& col : columns_) {
    bytes += col.SerializedValueBytes();
  }
  for (const std::string& bad : bad_records_) {
    bytes += bad.size();
  }
  return bytes;
}

uint64_t PaxBlock::FixedPayloadBytes() const {
  uint64_t bytes = 0;
  for (const ColumnVector& col : columns_) {
    if (IsFixedSize(col.type())) bytes += col.SerializedValueBytes();
  }
  return bytes;
}

uint64_t PaxBlock::VarlenPayloadBytes() const {
  uint64_t bytes = 0;
  for (const ColumnVector& col : columns_) {
    if (!IsFixedSize(col.type())) bytes += col.SerializedValueBytes();
  }
  return bytes;
}

BlockDictionaries PaxBlock::BuildDictionaries() const {
  BlockDictionaries out(columns_.size());
  if (!options_.enable_encoding) return out;
  const uint32_t part = options_.varlen_partition_size;
  for (size_t i = 0; i < columns_.size(); ++i) {
    const ColumnVector& col = columns_[i];
    if (col.type() != FieldType::kString) continue;
    if (i < received_.size() && received_[i].has_value()) {
      out[i] = ReceivedStringDictionary(col, received_[i]->dict_size,
                                        received_[i]->codes, part);
      if (out[i].has_value()) continue;
    }
    out[i] = BuildStringDictionary(col, part);
  }
  return out;
}

std::string PaxBlock::Serialize(const std::vector<uint32_t>* order,
                                const BlockDictionaries* dictionaries) const {
  ByteWriter w;
  const uint32_t n = num_records();
  const int ncols = num_columns();
  assert(order == nullptr || order->size() == n);
  assert(dictionaries == nullptr || dictionaries->size() == columns_.size());

  w.PutU32(kPaxMagic);
  // Layout kind: plain PAX (v1) or encoded minipages (v3). The header and
  // directory are identical; only the minipage bodies differ.
  w.PutU8(options_.enable_encoding ? kPaxLayoutEncoded : kPaxLayoutPlain);
  w.PutLengthPrefixed(schema_.ToString());
  w.PutU32(n);
  w.PutU32(options_.varlen_partition_size);
  w.PutU32(static_cast<uint32_t>(bad_records_.size()));
  w.PutU32(static_cast<uint32_t>(ncols));
  // Back-patched directory: per column (type, offset, bytes); then the
  // bad-section offset.
  const size_t dir_pos = w.size();
  for (int i = 0; i < ncols; ++i) {
    w.PutU8(static_cast<uint8_t>(schema_.field(i).type));
    w.PutU64(0);  // minipage offset
    w.PutU64(0);  // minipage bytes
  }
  const size_t bad_off_pos = w.size();
  w.PutU64(0);

  std::vector<uint64_t> col_offsets(static_cast<size_t>(ncols));
  std::vector<uint64_t> col_bytes(static_cast<size_t>(ncols));

  const uint32_t part = options_.varlen_partition_size;
  const bool encoded = options_.enable_encoding;
  BlockDictionaries own;
  if (encoded && dictionaries == nullptr) {
    own = BuildDictionaries();
    dictionaries = &own;
  }
  for (int i = 0; i < ncols; ++i) {
    const ColumnVector& col = columns_[static_cast<size_t>(i)];
    // Align each minipage to 8 bytes so typed batch accessors read aligned
    // values whenever the enclosing buffer is itself aligned. The pad lives
    // between the recorded extents of adjacent minipages, so per-column
    // byte accounting is unchanged.
    while (w.size() % 8 != 0) w.PutU8(0);
    col_offsets[static_cast<size_t>(i)] = w.size();
    const StringDictionary* dict = nullptr;
    if (encoded && col.type() == FieldType::kString) {
      const std::optional<StringDictionary>& pass =
          (*dictionaries)[static_cast<size_t>(i)];
      if (pass.has_value()) dict = &*pass;
    }
    if (order != nullptr) {
      WriteMiniPage(w, col, encoded, dict, OrderedRows{order->data()}, n, part);
    } else {
      WriteMiniPage(w, col, encoded, dict, ArrivalRows{}, n, part);
    }
    col_bytes[static_cast<size_t>(i)] =
        w.size() - col_offsets[static_cast<size_t>(i)];
  }

  const uint64_t bad_offset = w.size();
  for (const std::string& bad : bad_records_) {
    w.PutLengthPrefixed(bad);
  }

  // Patch the directory.
  size_t cursor = dir_pos;
  for (int i = 0; i < ncols; ++i) {
    cursor += 1;  // type byte
    std::memcpy(w.buffer().data() + cursor, &col_offsets[static_cast<size_t>(i)],
                sizeof(uint64_t));
    cursor += 8;
    std::memcpy(w.buffer().data() + cursor, &col_bytes[static_cast<size_t>(i)],
                sizeof(uint64_t));
    cursor += 8;
  }
  std::memcpy(w.buffer().data() + bad_off_pos, &bad_offset, sizeof(uint64_t));

  return w.Take();
}

namespace {
std::atomic<uint64_t> g_pax_deserialize_count{0};
}  // namespace

uint64_t PaxBlock::deserialize_count() {
  return g_pax_deserialize_count.load(std::memory_order_relaxed);
}

Result<PaxBlock> PaxBlock::Deserialize(std::string_view data) {
  g_pax_deserialize_count.fetch_add(1, std::memory_order_relaxed);
  HAIL_ASSIGN_OR_RETURN(PaxBlockView view, PaxBlockView::Open(data));
  BlockFormatOptions options;
  options.varlen_partition_size = view.varlen_partition_size();
  // Carrying the flag means a replica serialised from the decoded block
  // in its own row order (the replica transformer, adaptive re-sorts,
  // repairs) is v3 too, its minipages chosen and encoded for that order.
  options.enable_encoding = view.encoded_format();
  PaxBlock block(view.schema(), options);
  block.received_.resize(static_cast<size_t>(view.num_columns()));
  // Bulk per-column decode, no per-row Value round trip.
  for (int c = 0; c < view.num_columns(); ++c) {
    HAIL_ASSIGN_OR_RETURN(ColumnReader reader, view.OpenColumn(c));
    HAIL_RETURN_NOT_OK(reader.AppendTo(&block.columns_[static_cast<size_t>(c)]));
    reader.Visit([&block, c](const auto& span) {
      if constexpr (std::is_same_v<std::decay_t<decltype(span)>, DictSpan>) {
        ReceivedDictionary& kept =
            block.received_[static_cast<size_t>(c)].emplace();
        kept.dict_size = span.dict_size();
        kept.codes.resize(span.num_records());
        for (uint32_t r = 0; r < span.num_records(); ++r) {
          kept.codes[r] = span.Code(r);
        }
      }
    });
  }
  HAIL_ASSIGN_OR_RETURN(BadRecordCursor bad, view.OpenBadRecords());
  while (!bad.Done()) {
    HAIL_ASSIGN_OR_RETURN(std::string_view raw, bad.Next());
    block.AppendBadRecord(raw);
  }
  return block;
}

// ---------------------------------------------------------------------------
// PaxBlockView
// ---------------------------------------------------------------------------

Result<PaxBlockView> PaxBlockView::Open(std::string_view data) {
  PaxBlockView view;
  view.data_ = data;
  ByteReader r(data);
  HAIL_ASSIGN_OR_RETURN(uint32_t magic, r.GetU32());
  if (magic != kPaxMagic) {
    return Status::Corruption("not a PAX block (bad magic)");
  }
  HAIL_ASSIGN_OR_RETURN(uint8_t kind, r.GetU8());
  if (kind != kPaxLayoutPlain && kind != kPaxLayoutEncoded) {
    return Status::Corruption("unsupported layout kind");
  }
  view.layout_kind_ = kind;
  HAIL_ASSIGN_OR_RETURN(std::string_view schema_text, r.GetLengthPrefixed());
  HAIL_ASSIGN_OR_RETURN(view.schema_, Schema::Parse(schema_text));
  HAIL_ASSIGN_OR_RETURN(view.num_records_, r.GetU32());
  HAIL_ASSIGN_OR_RETURN(view.varlen_partition_, r.GetU32());
  if (view.varlen_partition_ == 0) {
    return Status::Corruption("zero varlen partition size");
  }
  HAIL_ASSIGN_OR_RETURN(view.num_bad_records_, r.GetU32());
  HAIL_ASSIGN_OR_RETURN(uint32_t ncols, r.GetU32());
  if (ncols != static_cast<uint32_t>(view.schema_.num_fields())) {
    return Status::Corruption("column count does not match schema");
  }
  view.cols_.resize(ncols);
  for (uint32_t i = 0; i < ncols; ++i) {
    Column& col = view.cols_[i];
    HAIL_ASSIGN_OR_RETURN(uint8_t type_byte, r.GetU8());
    const auto type = static_cast<FieldType>(type_byte);
    // The directory repeats the schema's types; a reader decodes by the
    // directory's, so the two must agree (and the type is a known one).
    if (type != view.schema_.field(static_cast<int>(i)).type) {
      return Status::Corruption("column type does not match schema");
    }
    HAIL_ASSIGN_OR_RETURN(uint64_t offset, r.GetU64());
    HAIL_ASSIGN_OR_RETURN(col.minipage_bytes, r.GetU64());
    // Overflow-safe form of offset + bytes > size: a crafted directory
    // must not wrap past the bulk-decode memcpy bounds.
    if (col.minipage_bytes > data.size() ||
        offset > data.size() - col.minipage_bytes) {
      return Status::Corruption("minipage out of bounds");
    }
    HAIL_RETURN_NOT_OK(view.ResolveColumn(type, offset, &col));
  }
  HAIL_ASSIGN_OR_RETURN(view.bad_section_offset_, r.GetU64());
  if (view.bad_section_offset_ > data.size()) {
    return Status::Corruption("bad-record section out of bounds");
  }
  // The bad-record tail is the final section and is written with no
  // trailing padding, so its length-prefixed entries must account for
  // every remaining byte. Walking it up front keeps a truncated buffer
  // from parsing as a shorter-but-valid block: the v1 HAIL container
  // derives the PAX extent from the buffer end, so without this check a
  // block missing its tail bytes would open (and scan) silently.
  ByteReader tail(data);
  HAIL_RETURN_NOT_OK(tail.SeekTo(view.bad_section_offset_));
  for (uint32_t i = 0; i < view.num_bad_records_; ++i) {
    HAIL_RETURN_NOT_OK(tail.GetLengthPrefixed().status());
  }
  if (tail.remaining() != 0) {
    return Status::Corruption("trailing bytes after bad-record section");
  }
  return view;
}

/// Parses and validates the minipage at [offset, offset + minipage_bytes)
/// (inside the buffer, as Open checked) into the column's reader. A v1
/// minipage is the plain layout with no tag; a v3 minipage starts with
/// its encoding's tag, and its plain layout is v1's. Every section's
/// extent is checked against the minipage's, and every structural
/// invariant the zero-copy spans rely on is verified here ONCE — RLE run
/// starts strictly increasing from 0, dictionary entries NUL-terminated,
/// sorted and distinct, every code inside the dictionary — so that no
/// truncation parses as a shorter-valid block and no bit flip can push a
/// span load out of bounds.
Status PaxBlockView::ResolveColumn(FieldType type, uint64_t offset,
                                   Column* column) {
  const uint64_t extent_end = offset + column->minipage_bytes;
  auto within = [&](uint64_t pos, uint64_t bytes) {
    return pos >= offset && pos <= extent_end && bytes <= extent_end - pos;
  };
  const uint32_t n = num_records_;
  const char* base = data_.data();
  ColumnReader& reader = column->reader;
  reader.type_ = type;
  reader.num_records_ = n;
  column->value_bytes = column->minipage_bytes;
  ByteReader r(data_);
  HAIL_RETURN_NOT_OK(r.SeekTo(offset));
  if (encoded_format()) {
    if (column->minipage_bytes == 0) {
      return Status::Corruption("encoded minipage has no tag");
    }
    HAIL_ASSIGN_OR_RETURN(uint8_t tag, r.GetU8());
    if (tag > static_cast<uint8_t>(MiniPageEncoding::kFor)) {
      return Status::Corruption("unknown minipage encoding");
    }
    reader.encoding_ = static_cast<MiniPageEncoding>(tag);
  }
  switch (reader.encoding_) {
    case MiniPageEncoding::kPlain: {
      if (type == FieldType::kString) {
        // Sparse offsets, then the value bytes (§3.5).
        VarlenCursor cursor;
        HAIL_ASSIGN_OR_RETURN(cursor.num_offsets_, r.GetU32());
        const uint64_t offsets_pos = r.position();
        HAIL_RETURN_NOT_OK(r.SeekTo(offsets_pos + 8ull * cursor.num_offsets_));
        HAIL_ASSIGN_OR_RETURN(column->value_bytes, r.GetU64());
        if (!within(r.position(), column->value_bytes)) {
          return Status::Corruption("varlen values out of bounds");
        }
        cursor.values_ = base + r.position();
        cursor.end_ = cursor.values_ + column->value_bytes;
        cursor.offsets_ = base + offsets_pos;
        cursor.partition_size_ = varlen_partition_;
        cursor.num_records_ = n;
        cursor.cursor_ = cursor.values_;
        reader.span_ = cursor;
        return Status::OK();
      }
      // A v3 array follows its tag at the next 8-byte boundary; a v1
      // array starts the minipage.
      const uint64_t pos = encoded_format() ? Align8(r.position()) : offset;
      if (!within(pos, uint64_t{n} * FieldTypeWidth(type))) {
        return Status::Corruption("fixed minipage truncated");
      }
      if (type == FieldType::kInt64) {
        reader.span_ = ColumnSpan<int64_t>(base + pos, n);
      } else if (type == FieldType::kDouble) {
        reader.span_ = ColumnSpan<double>(base + pos, n);
      } else {
        reader.span_ = ColumnSpan<int32_t>(base + pos, n);
      }
      return Status::OK();
    }
    case MiniPageEncoding::kFor: {
      if (type == FieldType::kDouble || type == FieldType::kString) {
        return Status::Corruption("FOR encoding on non-integer column");
      }
      HAIL_ASSIGN_OR_RETURN(uint8_t code_width, r.GetU8());
      if (code_width != 1 && code_width != 2 && code_width != 4) {
        return Status::Corruption("bad FOR code width");
      }
      if (code_width >= FieldTypeWidth(type)) {
        return Status::Corruption("FOR code width not narrower than type");
      }
      HAIL_RETURN_NOT_OK(r.SeekTo(Align8(r.position())));
      HAIL_ASSIGN_OR_RETURN(uint64_t frame_bits, r.GetU64());
      if (!within(r.position(), uint64_t{n} * code_width)) {
        return Status::Corruption("FOR codes out of bounds");
      }
      reader.span_ = ForSpan(base + r.position(), n, code_width,
                             static_cast<int64_t>(frame_bits));
      return Status::OK();
    }
    case MiniPageEncoding::kRle: {
      if (type == FieldType::kString) {
        return Status::Corruption("RLE encoding on string column");
      }
      HAIL_ASSIGN_OR_RETURN(uint32_t num_runs, r.GetU32());
      if (n == 0 ? num_runs != 0 : (num_runs == 0 || num_runs > n)) {
        return Status::Corruption("bad RLE run count");
      }
      const uint64_t starts_pos = Align8(r.position());
      if (!within(starts_pos, 4ull * num_runs)) {
        return Status::Corruption("RLE run starts out of bounds");
      }
      const uint64_t values_pos = Align8(starts_pos + 4ull * num_runs);
      if (!within(values_pos, uint64_t{num_runs} * FieldTypeWidth(type))) {
        return Status::Corruption("RLE run values out of bounds");
      }
      const char* starts = base + starts_pos;
      uint32_t prev = 0;
      for (uint32_t j = 0; j < num_runs; ++j) {
        uint32_t start;
        std::memcpy(&start, starts + 4ull * j, 4);
        if (j == 0 ? start != 0 : start <= prev) {
          return Status::Corruption("RLE run starts not strictly increasing");
        }
        if (start >= n) return Status::Corruption("RLE run start out of range");
        prev = start;
      }
      const char* values = base + values_pos;
      if (type == FieldType::kInt64) {
        reader.span_ = RleSpan<int64_t>(starts, values, num_runs, n);
      } else if (type == FieldType::kDouble) {
        reader.span_ = RleSpan<double>(starts, values, num_runs, n);
      } else {
        reader.span_ = RleSpan<int32_t>(starts, values, num_runs, n);
      }
      return Status::OK();
    }
    case MiniPageEncoding::kDict: {
      if (type != FieldType::kString) {
        return Status::Corruption("dictionary encoding on fixed-size column");
      }
      HAIL_ASSIGN_OR_RETURN(uint8_t code_width, r.GetU8());
      if (code_width != 1 && code_width != 2 && code_width != 4) {
        return Status::Corruption("bad dictionary code width");
      }
      HAIL_ASSIGN_OR_RETURN(uint32_t dict_size, r.GetU32());
      HAIL_ASSIGN_OR_RETURN(uint64_t dict_bytes, r.GetU64());
      if (n == 0 || dict_size == 0 || dict_size > n || dict_bytes < dict_size) {
        return Status::Corruption("bad dictionary shape");
      }
      const uint64_t offsets_pos = Align8(r.position());
      if (!within(offsets_pos, 4ull * dict_size)) {
        return Status::Corruption("dictionary offsets out of bounds");
      }
      const uint64_t values_pos = offsets_pos + 4ull * dict_size;
      if (!within(values_pos, dict_bytes)) {
        return Status::Corruption("dictionary values out of bounds");
      }
      const uint64_t codes_pos = Align8(values_pos + dict_bytes);
      if (!within(codes_pos, uint64_t{n} * code_width)) {
        return Status::Corruption("dictionary codes out of bounds");
      }
      const char* offsets = base + offsets_pos;
      const char* dict_vals = base + values_pos;
      if (dict_vals[dict_bytes - 1] != '\0') {
        return Status::Corruption("dictionary not NUL-terminated");
      }
      uint32_t prev_off = 0;
      for (uint32_t j = 0; j < dict_size; ++j) {
        uint32_t off;
        std::memcpy(&off, offsets + 4ull * j, 4);
        if (j == 0 ? off != 0 : off <= prev_off) {
          return Status::Corruption("dictionary offsets not increasing");
        }
        if (off >= dict_bytes) {
          return Status::Corruption("dictionary offset out of bounds");
        }
        if (j > 0 && dict_vals[off - 1] != '\0') {
          return Status::Corruption("dictionary entry not NUL-terminated");
        }
        prev_off = off;
      }
      // The scan engine's predicate rewrite binary-searches the entries,
      // so order (and distinctness) is a structural invariant, not a hint.
      const DictSpan& span = reader.span_.emplace<DictSpan>(
          base + codes_pos, code_width, n, offsets, dict_vals, dict_bytes,
          dict_size);
      for (uint32_t j = 1; j < dict_size; ++j) {
        if (!(span.DictEntry(j - 1) < span.DictEntry(j))) {
          return Status::Corruption("dictionary entries not sorted");
        }
      }
      for (uint32_t row = 0; row < n; ++row) {
        if (span.Code(row) >= dict_size) {
          return Status::Corruption("dictionary code out of range");
        }
      }
      return Status::OK();
    }
  }
  return Status::Corruption("unknown minipage encoding");
}

int PaxBlockView::num_encoded_columns() const {
  int count = 0;
  for (const Column& col : cols_) count += col.reader.encoded() ? 1 : 0;
  return count;
}

uint64_t PaxBlockView::stored_payload_bytes() const {
  uint64_t bytes = data_.size() - bad_section_offset_;
  for (int i = 0; i < num_columns(); ++i) bytes += column_value_bytes(i);
  return bytes;
}

Result<std::string_view> VarlenCursor::Get(uint32_t row) {
  if (row >= num_records_) return Status::OutOfRange("row out of range");
  const uint32_t partition = row / partition_size_;
  if (row < current_row_ || partition != current_row_ / partition_size_) {
    // Backward or cross-partition jump: re-seek via the sparse offset.
    if (partition >= num_offsets_) {
      return Status::Corruption("varlen partition offset missing");
    }
    uint64_t offset;
    std::memcpy(&offset, offsets_ + 8ull * partition, sizeof(offset));
    if (offset > static_cast<uint64_t>(end_ - values_)) {
      return Status::Corruption("varlen partition offset out of bounds");
    }
    cursor_ = values_ + offset;
    current_row_ = partition * partition_size_;
    ++partition_seeks_;
  }
  while (current_row_ < row) {
    // Skip one zero-terminated value.
    while (cursor_ < end_ && *cursor_ != '\0') ++cursor_;
    if (cursor_ >= end_) return Status::Corruption("varlen scan out of bounds");
    ++cursor_;  // NUL
    ++current_row_;
    ++decode_steps_;
  }
  const char* value_start = cursor_;
  while (cursor_ < end_ && *cursor_ != '\0') ++cursor_;
  if (cursor_ >= end_) {
    // Well-formed minipages NUL-terminate every value, including the last;
    // running off the end is corruption, same as in the skip loop above.
    return Status::Corruption("varlen value not terminated");
  }
  std::string_view out(value_start,
                       static_cast<size_t>(cursor_ - value_start));
  ++cursor_;  // NUL
  ++current_row_;
  ++decode_steps_;
  return out;
}

Result<BadRecordCursor> PaxBlockView::OpenBadRecords() const {
  // bad_section_offset_ was bounds-checked in Open().
  return BadRecordCursor(data_.substr(bad_section_offset_), num_bad_records_);
}

Result<std::string_view> BadRecordCursor::Next() {
  if (remaining_ == 0) return Status::OutOfRange("no bad records left");
  --remaining_;
  return reader_.GetLengthPrefixed();
}

Result<ColumnReader> PaxBlockView::OpenColumn(int column) const {
  if (column < 0 || column >= num_columns()) {
    return Status::InvalidArgument("column " + std::to_string(column) +
                                   " outside the block's " +
                                   std::to_string(num_columns()) + " columns");
  }
  return cols_[static_cast<size_t>(column)].reader;
}

namespace {

template <typename T>
void AppendValues(const ColumnSpan<T>& span, std::vector<T>* out) {
  const size_t old = out->size();
  out->resize(old + span.size());
  if (!span.empty()) {
    std::memcpy(out->data() + old, span.raw_bytes(), span.size() * sizeof(T));
  }
}

template <typename T>
void AppendRuns(const RleSpan<T>& span, std::vector<T>* out) {
  const size_t old = out->size();
  out->resize(old + span.num_records());
  for (uint32_t j = 0; j < span.num_runs(); ++j) {
    std::fill(out->begin() + old + span.run_start(j),
              out->begin() + old + span.run_end(j), span.run_value(j));
  }
}

template <typename T, typename ValueAt>
void AppendEach(uint32_t n, std::vector<T>* out, ValueAt value_at) {
  out->reserve(out->size() + n);
  for (uint32_t r = 0; r < n; ++r) out->emplace_back(value_at(r));
}

}  // namespace

Status ColumnReader::AppendTo(ColumnVector* out) const {
  if (out->type() != type_) {
    return Status::InvalidArgument("AppendTo a column of another type");
  }
  const uint32_t n = num_records_;
  return std::visit(
      [out, n](const auto& span) -> Status {
        using S = std::decay_t<decltype(span)>;
        if constexpr (std::is_same_v<S, ColumnSpan<int32_t>>) {
          AppendValues(span, &out->mutable_i32());
        } else if constexpr (std::is_same_v<S, ColumnSpan<int64_t>>) {
          AppendValues(span, &out->mutable_i64());
        } else if constexpr (std::is_same_v<S, ColumnSpan<double>>) {
          AppendValues(span, &out->mutable_f64());
        } else if constexpr (std::is_same_v<S, ForSpan>) {
          if (out->type() == FieldType::kInt64) {
            AppendEach(n, &out->mutable_i64(),
                       [span](uint32_t r) { return span.Value(r); });
          } else {
            AppendEach(n, &out->mutable_i32(), [span](uint32_t r) {
              return static_cast<int32_t>(span.Value(r));
            });
          }
        } else if constexpr (std::is_same_v<S, RleSpan<int32_t>>) {
          AppendRuns(span, &out->mutable_i32());
        } else if constexpr (std::is_same_v<S, RleSpan<int64_t>>) {
          AppendRuns(span, &out->mutable_i64());
        } else if constexpr (std::is_same_v<S, RleSpan<double>>) {
          AppendRuns(span, &out->mutable_f64());
        } else if constexpr (std::is_same_v<S, DictSpan>) {
          std::vector<std::string_view> entries(span.dict_size());
          for (uint32_t c = 0; c < span.dict_size(); ++c) {
            entries[c] = span.DictEntry(c);
          }
          uint64_t bytes = 0;
          for (uint32_t r = 0; r < n; ++r) bytes += entries[span.Code(r)].size();
          out->Reserve(n, bytes);
          for (uint32_t r = 0; r < n; ++r) {
            out->AppendString(entries[span.Code(r)]);
          }
        } else {
          // Well-formed value bytes hold n NUL terminators; a corrupt
          // count fails in the cursor below.
          const uint64_t bytes =
              static_cast<uint64_t>(span.end_ - span.values_);
          out->Reserve(n, bytes > n ? bytes - n : 0);
          VarlenCursor cursor = span;
          for (uint32_t r = 0; r < n; ++r) {
            HAIL_ASSIGN_OR_RETURN(std::string_view s, cursor.Get(r));
            out->AppendString(s);
          }
        }
        return Status::OK();
      },
      span_);
}

Result<Value> PaxBlockView::GetFixedValue(int column, uint32_t row) const {
  HAIL_ASSIGN_OR_RETURN(ColumnReader reader, OpenColumn(column));
  if (reader.type() == FieldType::kString) {
    return Status::InvalidArgument("GetFixedValue on string column");
  }
  return reader.Get(row);
}

Result<std::string_view> PaxBlockView::GetString(int column,
                                                 uint32_t row) const {
  // §3.5: "we scan the partition floor(rowID / n) entirely from disk...
  // then, in main memory we post-filter the partition". A throwaway
  // reader performs exactly that: one partition-offset seek plus a
  // forward scan.
  HAIL_ASSIGN_OR_RETURN(ColumnReader reader, OpenColumn(column));
  return reader.GetString(row);
}

Result<Value> PaxBlockView::GetAnyValue(int column, uint32_t row) const {
  HAIL_ASSIGN_OR_RETURN(ColumnReader reader, OpenColumn(column));
  return reader.Get(row);
}

Result<std::vector<Value>> PaxBlockView::GetRow(uint32_t row) const {
  std::vector<Value> out;
  out.reserve(cols_.size());
  for (int i = 0; i < num_columns(); ++i) {
    HAIL_ASSIGN_OR_RETURN(Value v, GetAnyValue(i, row));
    out.push_back(std::move(v));
  }
  return out;
}

Result<std::string_view> PaxBlockView::GetBadRecord(uint32_t i) const {
  if (i >= num_bad_records_) return Status::OutOfRange("bad record index");
  ByteReader r(data_);
  HAIL_RETURN_NOT_OK(r.SeekTo(bad_section_offset_));
  for (uint32_t k = 0; k < i; ++k) {
    HAIL_ASSIGN_OR_RETURN(std::string_view skip, r.GetLengthPrefixed());
    (void)skip;
  }
  return r.GetLengthPrefixed();
}

PaxBlock BuildPaxBlockFromText(const Schema& schema, std::string_view text,
                               BlockFormatOptions options) {
  PaxBlock block(schema, options);
  // Size the typed columns once from the average row width instead of
  // growing them row by row.
  const size_t estimated_rows =
      text.size() / std::max<size_t>(1, schema.EstimatedRowWidth());
  for (ColumnVector& col : block.mutable_columns()) {
    col.Reserve(estimated_rows);
  }
  ColumnarAppender appender(block.schema(), &block.mutable_columns());
  // Walk newline-terminated rows in place (same row semantics as
  // SplitRows, without materialising the row list).
  size_t start = 0;
  while (start < text.size()) {
    size_t pos = text.find('\n', start);
    if (pos == std::string_view::npos) pos = text.size();
    const std::string_view row = text.substr(start, pos - start);
    start = pos + 1;
    if (row.empty()) continue;
    if (!appender.AppendRow(row)) {
      block.AppendBadRecord(row);
    }
  }
  return block;
}

}  // namespace hail
