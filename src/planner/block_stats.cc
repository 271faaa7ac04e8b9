#include "planner/block_stats.h"

#include <algorithm>
#include <optional>

#include "util/io.h"

namespace hail {
namespace planner {

namespace {

void PutValue(ByteWriter* w, FieldType type, const Value& v) {
  switch (type) {
    case FieldType::kInt32:
    case FieldType::kDate:
      w->PutI32(v.as_int32());
      return;
    case FieldType::kInt64:
      w->PutI64(v.as_int64());
      return;
    case FieldType::kDouble:
      w->PutF64(v.as_double());
      return;
    case FieldType::kString:
      w->PutLengthPrefixed(v.as_string());
      return;
  }
}

Result<Value> GetValue(ByteReader* r, FieldType type) {
  switch (type) {
    case FieldType::kInt32:
    case FieldType::kDate: {
      HAIL_ASSIGN_OR_RETURN(int32_t v, r->GetI32());
      return Value(v);
    }
    case FieldType::kInt64: {
      HAIL_ASSIGN_OR_RETURN(int64_t v, r->GetI64());
      return Value(v);
    }
    case FieldType::kDouble: {
      HAIL_ASSIGN_OR_RETURN(double v, r->GetF64());
      return Value(v);
    }
    case FieldType::kString: {
      HAIL_ASSIGN_OR_RETURN(std::string_view v, r->GetLengthPrefixed());
      return Value(std::string(v));
    }
  }
  return Status::Corruption("unknown stats value type");
}

template <typename T>
Value MakeValue(T v) {
  return Value(v);
}
Value MakeValue(std::string_view v) { return Value(std::string(v)); }

/// Sorts one column's values (a copy of a fixed-width column, views of a
/// string column) and summarizes them into the column stats: zone map
/// endpoints, exact distinct count, and equi-depth bucket upper bounds.
template <typename T>
void Summarize(std::vector<T> sorted, uint32_t buckets, ColumnStats* out) {
  std::sort(sorted.begin(), sorted.end());
  const size_t n = sorted.size();
  out->valid = n > 0;
  out->num_values = n;
  if (n == 0) return;
  out->min_value = MakeValue(sorted.front());
  out->max_value = MakeValue(sorted.back());
  uint64_t distinct = 1;
  for (size_t i = 1; i < n; ++i) {
    if (sorted[i] != sorted[i - 1]) ++distinct;
  }
  out->distinct = distinct;
  out->bucket_bounds.reserve(buckets);
  for (uint32_t b = 0; b < buckets; ++b) {
    const size_t idx = ((static_cast<size_t>(b) + 1) * n) / buckets;
    out->bucket_bounds.push_back(MakeValue(sorted[idx == 0 ? 0 : idx - 1]));
  }
}

/// Summarize's result for a dictionary-encoded string column, from its
/// sorted distinct entries and how many rows hold each: the value at
/// sorted position p is the entry whose run of rows covers p.
void SummarizeDictionary(const StringDictionary& dict, uint32_t buckets,
                         ColumnStats* out) {
  const size_t n = dict.codes.size();
  out->valid = n > 0;
  out->num_values = n;
  if (n == 0) return;
  std::vector<uint64_t> rows(dict.values.size(), 0);
  for (const uint32_t code : dict.codes) ++rows[code];
  out->min_value = MakeValue(dict.values.front());
  out->max_value = MakeValue(dict.values.back());
  out->distinct = dict.values.size();
  out->bucket_bounds.reserve(buckets);
  size_t code = 0;
  uint64_t end = rows[0];  // one past the last sorted position of `code`
  for (uint32_t b = 0; b < buckets; ++b) {
    const size_t idx = ((static_cast<size_t>(b) + 1) * n) / buckets;
    const size_t pos = idx == 0 ? 0 : idx - 1;
    while (pos >= end) end += rows[++code];
    out->bucket_bounds.push_back(MakeValue(dict.values[code]));
  }
  uint64_t bytes = 0;
  for (size_t c = 0; c < rows.size(); ++c) {
    bytes += rows[c] * dict.values[c].size();
  }
  out->value_bytes = bytes;
}

/// Fraction of values strictly below / at-or-below \p v according to the
/// equi-depth histogram: each bucket carries 1/k of the rows and is upper-
/// bounded by its stored bound, so counting bounds gives the CDF at bucket
/// granularity.
double FractionAtMost(const ColumnStats& s, const Value& v, bool inclusive) {
  if (s.bucket_bounds.empty()) return 1.0;
  size_t below = 0;
  for (const Value& bound : s.bucket_bounds) {
    const bool counted = inclusive ? !(v < bound) : bound < v;
    if (counted) ++below;
  }
  return static_cast<double>(below) /
         static_cast<double>(s.bucket_bounds.size());
}

}  // namespace

BlockStats BlockStats::Build(const PaxBlock& block,
                             const BlockDictionaries* dictionaries,
                             uint32_t histogram_buckets) {
  BlockDictionaries own;
  if (dictionaries == nullptr) {
    own = block.BuildDictionaries();
    dictionaries = &own;
  }
  BlockStats stats;
  stats.num_records = block.num_records();
  stats.num_bad_records = static_cast<uint32_t>(block.bad_records().size());
  stats.columns.resize(static_cast<size_t>(block.num_columns()));
  for (int c = 0; c < block.num_columns(); ++c) {
    const ColumnVector& col = block.column(c);
    ColumnStats& out = stats.columns[static_cast<size_t>(c)];
    out.type = col.type();
    switch (col.type()) {
      case FieldType::kInt32:
      case FieldType::kDate:
        Summarize(col.i32(), histogram_buckets, &out);
        out.value_bytes = col.i32().size() * 4;
        break;
      case FieldType::kInt64:
        Summarize(col.i64(), histogram_buckets, &out);
        out.value_bytes = col.i64().size() * 8;
        break;
      case FieldType::kDouble:
        Summarize(col.f64(), histogram_buckets, &out);
        out.value_bytes = col.f64().size() * 8;
        break;
      case FieldType::kString: {
        const std::optional<StringDictionary>& dict =
            (*dictionaries)[static_cast<size_t>(c)];
        if (dict.has_value()) {
          SummarizeDictionary(*dict, histogram_buckets, &out);
          break;
        }
        std::vector<std::string_view> values(col.size());
        uint64_t bytes = 0;
        for (size_t r = 0; r < values.size(); ++r) {
          values[r] = col.str(r);
          bytes += values[r].size();
        }
        Summarize(std::move(values), histogram_buckets, &out);
        out.value_bytes = bytes;
        break;
      }
    }
  }
  return stats;
}

std::string BlockStats::Serialize() const {
  ByteWriter w;
  w.PutU32(kBlockStatsMagic);
  w.PutU8(kBlockStatsVersion);
  w.PutU32(num_records);
  w.PutU32(num_bad_records);
  w.PutU32(static_cast<uint32_t>(columns.size()));
  for (const ColumnStats& c : columns) {
    w.PutU8(static_cast<uint8_t>(c.type));
    w.PutU8(c.valid ? 1 : 0);
    if (!c.valid) continue;
    w.PutU64(c.num_values);
    w.PutU64(c.distinct);
    w.PutU64(c.value_bytes);
    PutValue(&w, c.type, c.min_value);
    PutValue(&w, c.type, c.max_value);
    w.PutU32(static_cast<uint32_t>(c.bucket_bounds.size()));
    for (const Value& b : c.bucket_bounds) PutValue(&w, c.type, b);
  }
  return w.Take();
}

Result<BlockStats> BlockStats::Deserialize(std::string_view data) {
  ByteReader r(data);
  HAIL_ASSIGN_OR_RETURN(uint32_t magic, r.GetU32());
  if (magic != kBlockStatsMagic) {
    return Status::Corruption("bad block-stats magic");
  }
  HAIL_ASSIGN_OR_RETURN(uint8_t version, r.GetU8());
  if (version != kBlockStatsVersion) {
    return Status::Corruption("unsupported block-stats version " +
                              std::to_string(version));
  }
  BlockStats stats;
  HAIL_ASSIGN_OR_RETURN(stats.num_records, r.GetU32());
  HAIL_ASSIGN_OR_RETURN(stats.num_bad_records, r.GetU32());
  HAIL_ASSIGN_OR_RETURN(uint32_t num_columns, r.GetU32());
  // Counts are checked against the bytes left before anything is sized
  // from them: a column takes at least its type and valid bytes.
  if (num_columns > r.remaining() / 2) {
    return Status::Corruption("block-stats column count exceeds data");
  }
  stats.columns.resize(num_columns);
  for (uint32_t i = 0; i < num_columns; ++i) {
    ColumnStats& c = stats.columns[i];
    HAIL_ASSIGN_OR_RETURN(uint8_t type, r.GetU8());
    c.type = static_cast<FieldType>(type);
    HAIL_ASSIGN_OR_RETURN(uint8_t valid, r.GetU8());
    c.valid = valid != 0;
    if (!c.valid) continue;
    HAIL_ASSIGN_OR_RETURN(c.num_values, r.GetU64());
    HAIL_ASSIGN_OR_RETURN(c.distinct, r.GetU64());
    HAIL_ASSIGN_OR_RETURN(c.value_bytes, r.GetU64());
    HAIL_ASSIGN_OR_RETURN(c.min_value, GetValue(&r, c.type));
    HAIL_ASSIGN_OR_RETURN(c.max_value, GetValue(&r, c.type));
    HAIL_ASSIGN_OR_RETURN(uint32_t buckets, r.GetU32());
    // Every bound takes at least 4 bytes (an int32/date, or a string's
    // length prefix).
    if (buckets > r.remaining() / 4) {
      return Status::Corruption("block-stats bucket count exceeds data");
    }
    c.bucket_bounds.reserve(buckets);
    for (uint32_t b = 0; b < buckets; ++b) {
      HAIL_ASSIGN_OR_RETURN(Value bound, GetValue(&r, c.type));
      c.bucket_bounds.push_back(std::move(bound));
    }
  }
  return stats;
}

bool BlockStats::RangeDisjoint(int column, const KeyRange& range) const {
  if (column < 0 || column >= static_cast<int>(columns.size())) return false;
  const ColumnStats& c = columns[static_cast<size_t>(column)];
  if (!c.valid) return false;
  // Disjoint iff the predicate asks for values entirely below the block's
  // minimum or entirely above its maximum (ranges are inclusive).
  if (range.hi && *range.hi < c.min_value) return true;
  if (range.lo && c.max_value < *range.lo) return true;
  return false;
}

double BlockStats::EstimateSelectivity(int column,
                                       const KeyRange& range) const {
  if (column < 0 || column >= static_cast<int>(columns.size())) return 1.0;
  const ColumnStats& c = columns[static_cast<size_t>(column)];
  if (!c.valid) return 1.0;
  if (RangeDisjoint(column, range)) return 0.0;
  // Equality: 1/distinct is sharper than a bucket-width estimate.
  if (range.lo && range.hi && *range.lo == *range.hi) {
    return 1.0 / static_cast<double>(c.distinct == 0 ? 1 : c.distinct);
  }
  const double hi =
      range.hi ? FractionAtMost(c, *range.hi, /*inclusive=*/true) : 1.0;
  const double lo =
      range.lo ? FractionAtMost(c, *range.lo, /*inclusive=*/false) : 0.0;
  double sel = hi - lo;
  // The range intersects the zone map, so at least one bucket may match;
  // never estimate below one row.
  const double floor =
      1.0 / static_cast<double>(c.num_values == 0 ? 1 : c.num_values);
  if (sel < floor) sel = floor;
  if (sel > 1.0) sel = 1.0;
  return sel;
}

}  // namespace planner
}  // namespace hail
