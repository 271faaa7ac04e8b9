#include "query/predicate.h"

#include <algorithm>

#include "util/string_util.h"

namespace hail {

namespace {

/// Three-way comparison of a row value against a literal, with numeric
/// widening (matching index/key_search.h semantics).
int CompareValues(const Value& v, const Value& literal) {
  if (v.is_string() || literal.is_string()) {
    return ThreeWayCompareStrings(v.as_string(), literal.as_string());
  }
  const bool both_int = (v.is_int32() || v.is_int64()) &&
                        (literal.is_int32() || literal.is_int64());
  if (both_int) {
    const int64_t a = v.is_int32() ? v.as_int32() : v.as_int64();
    const int64_t b =
        literal.is_int32() ? literal.as_int32() : literal.as_int64();
    return a < b ? -1 : (a == b ? 0 : 1);
  }
  const double a = v.AsNumeric();
  const double b = literal.AsNumeric();
  return a < b ? -1 : (a == b ? 0 : 1);
}

}  // namespace

bool PredicateTerm::Matches(const Value& v) const {
  const int cmp = CompareValues(v, literal);
  if (op == CompareOp::kBetween) {
    return cmp >= 0 && CompareValues(v, literal_hi) <= 0;
  }
  return OpMatchesCompare(cmp, op);
}

std::optional<KeyRange> PredicateTerm::ToKeyRange() const {
  switch (op) {
    case CompareOp::kEq:
      return KeyRange::Equal(literal);
    case CompareOp::kNe:
      return std::nullopt;
    case CompareOp::kLt:
    case CompareOp::kLe:
      // The sparse index is partition-granular and the reader post-filters,
      // so <= and < share the same conservative range.
      return KeyRange::AtMost(literal);
    case CompareOp::kGt:
    case CompareOp::kGe:
      return KeyRange::AtLeast(literal);
    case CompareOp::kBetween:
      return KeyRange::Between(literal, literal_hi);
  }
  return std::nullopt;
}

bool Predicate::Matches(const std::vector<Value>& row) const {
  for (const PredicateTerm& t : terms_) {
    if (t.column < 0 || t.column >= static_cast<int>(row.size())) return false;
    if (!t.Matches(row[static_cast<size_t>(t.column)])) return false;
  }
  return true;
}

std::vector<int> Predicate::ReferencedColumns() const {
  std::vector<int> out;
  for (const PredicateTerm& t : terms_) {
    if (std::find(out.begin(), out.end(), t.column) == out.end()) {
      out.push_back(t.column);
    }
  }
  return out;
}

std::optional<KeyRange> Predicate::KeyRangeFor(int column) const {
  bool found = false;
  KeyRange merged = KeyRange::All();
  for (const PredicateTerm& t : terms_) {
    if (t.column != column) continue;
    auto range = t.ToKeyRange();
    if (!range.has_value()) continue;
    found = true;
    // Intersect: tighten lo upward, hi downward.
    if (range->lo.has_value()) {
      if (!merged.lo.has_value() ||
          CompareValues(*range->lo, *merged.lo) > 0) {
        merged.lo = range->lo;
      }
    }
    if (range->hi.has_value()) {
      if (!merged.hi.has_value() ||
          CompareValues(*range->hi, *merged.hi) < 0) {
        merged.hi = range->hi;
      }
    }
  }
  if (!found) return std::nullopt;
  return merged;
}

std::string Predicate::ToString(const Schema& schema) const {
  std::string out;
  for (size_t i = 0; i < terms_.size(); ++i) {
    if (i > 0) out += " and ";
    const PredicateTerm& t = terms_[i];
    out += "@" + std::to_string(t.column + 1);
    // A column outside the schema (its job fails in ComputeJobPlan) has no
    // declared type: its literals render as the types they hold.
    const FieldType type = t.column >= 0 && t.column < schema.num_fields()
                               ? schema.field(t.column).type
                               : FieldType::kInt32;
    switch (t.op) {
      case CompareOp::kEq:
        out += " = " + t.literal.ToText(type);
        break;
      case CompareOp::kNe:
        out += " != " + t.literal.ToText(type);
        break;
      case CompareOp::kLt:
        out += " < " + t.literal.ToText(type);
        break;
      case CompareOp::kLe:
        out += " <= " + t.literal.ToText(type);
        break;
      case CompareOp::kGt:
        out += " > " + t.literal.ToText(type);
        break;
      case CompareOp::kGe:
        out += " >= " + t.literal.ToText(type);
        break;
      case CompareOp::kBetween:
        out += " between(" + t.literal.ToText(type) + "," +
               t.literal_hi.ToText(type) + ")";
        break;
    }
  }
  return out;
}

int QueryAnnotation::preferred_index_column() const {
  for (const PredicateTerm& t : filter.terms()) {
    if (t.ToKeyRange().has_value()) return t.column;
  }
  return -1;
}

namespace {

/// Parses "@N" -> 0-based column index.
Result<int> ParseColumnRef(std::string_view token, const Schema& schema) {
  token = TrimWhitespace(token);
  if (token.size() < 2 || token[0] != '@') {
    return Status::InvalidArgument("expected @N attribute reference, got '" +
                                   std::string(token) + "'");
  }
  HAIL_ASSIGN_OR_RETURN(int64_t pos, ParseInt64(token.substr(1)));
  if (pos < 1 || pos > schema.num_fields()) {
    return Status::InvalidArgument("attribute @" + std::to_string(pos) +
                                   " out of range (schema has " +
                                   std::to_string(schema.num_fields()) +
                                   " attributes)");
  }
  return static_cast<int>(pos - 1);
}

/// Types a literal against the column's schema type.
Result<Value> ParseLiteral(std::string_view text, FieldType type) {
  text = TrimWhitespace(text);
  // Strip optional quotes.
  if (text.size() >= 2 &&
      ((text.front() == '\'' && text.back() == '\'') ||
       (text.front() == '"' && text.back() == '"'))) {
    text = text.substr(1, text.size() - 2);
  }
  switch (type) {
    case FieldType::kInt32: {
      HAIL_ASSIGN_OR_RETURN(int64_t v, ParseInt64(text));
      // Match RowParser::Parse: out-of-range INT32 literals are rejected,
      // not silently truncated.
      if (v < INT32_MIN || v > INT32_MAX) {
        return Status::InvalidArgument("INT32 literal out of range: '" +
                                       std::string(text) + "'");
      }
      return Value(static_cast<int32_t>(v));
    }
    case FieldType::kInt64: {
      HAIL_ASSIGN_OR_RETURN(int64_t v, ParseInt64(text));
      return Value(v);
    }
    case FieldType::kDouble: {
      HAIL_ASSIGN_OR_RETURN(double v, ParseDouble(text));
      return Value(v);
    }
    case FieldType::kString:
      return Value(std::string(text));
    case FieldType::kDate: {
      HAIL_ASSIGN_OR_RETURN(int32_t days, ParseDateToDays(text));
      return Value(days);
    }
  }
  return Status::InvalidArgument("unknown field type");
}

/// Splits on a lowercase-insensitive " and " at the top level.
std::vector<std::string_view> SplitConjunction(std::string_view filter) {
  std::vector<std::string_view> parts;
  size_t start = 0;
  int paren_depth = 0;
  // Scan every position: the old `i + 5 <= size` bound stopped short of
  // a conjunction whose right operand ends the string, mis-parsing the
  // whole tail as one term.
  for (size_t i = 0; i < filter.size(); ++i) {
    const char c = filter[i];
    if (c == '(') ++paren_depth;
    if (c == ')') --paren_depth;
    if (paren_depth == 0 && (c == 'a' || c == 'A') && i > 0 &&
        filter[i - 1] == ' ' && i + 3 <= filter.size()) {
      const std::string_view word = filter.substr(i, 3);
      if ((word == "and" || word == "AND" || word == "And") &&
          i + 3 < filter.size() && filter[i + 3] == ' ') {
        parts.push_back(filter.substr(start, i - start));
        start = i + 4;
        i += 3;
      }
    }
  }
  parts.push_back(filter.substr(start));
  return parts;
}

Result<PredicateTerm> ParseTerm(std::string_view term, const Schema& schema) {
  term = TrimWhitespace(term);
  PredicateTerm out;

  // between(a,b)?
  const size_t between_pos = term.find("between");
  if (between_pos != std::string_view::npos) {
    HAIL_ASSIGN_OR_RETURN(out.column,
                          ParseColumnRef(term.substr(0, between_pos), schema));
    const size_t open = term.find('(', between_pos);
    const size_t close = term.rfind(')');
    if (open == std::string_view::npos || close == std::string_view::npos ||
        close < open) {
      return Status::InvalidArgument("malformed between(...): '" +
                                     std::string(term) + "'");
    }
    const std::string_view args = term.substr(open + 1, close - open - 1);
    const auto pieces = SplitString(args, ',');
    if (pieces.size() != 2) {
      return Status::InvalidArgument("between needs two literals: '" +
                                     std::string(term) + "'");
    }
    const FieldType type = schema.field(out.column).type;
    out.op = CompareOp::kBetween;
    HAIL_ASSIGN_OR_RETURN(out.literal, ParseLiteral(pieces[0], type));
    HAIL_ASSIGN_OR_RETURN(out.literal_hi, ParseLiteral(pieces[1], type));
    return out;
  }

  // Comparator terms; test two-char operators before one-char ones.
  static constexpr struct {
    const char* token;
    CompareOp op;
  } kOps[] = {
      {"<=", CompareOp::kLe}, {">=", CompareOp::kGe}, {"!=", CompareOp::kNe},
      {"<", CompareOp::kLt},  {">", CompareOp::kGt},  {"=", CompareOp::kEq},
  };
  for (const auto& candidate : kOps) {
    const size_t pos = term.find(candidate.token);
    if (pos == std::string_view::npos) continue;
    HAIL_ASSIGN_OR_RETURN(out.column,
                          ParseColumnRef(term.substr(0, pos), schema));
    out.op = candidate.op;
    const FieldType type = schema.field(out.column).type;
    HAIL_ASSIGN_OR_RETURN(
        out.literal,
        ParseLiteral(term.substr(pos + std::strlen(candidate.token)), type));
    return out;
  }
  return Status::InvalidArgument("cannot parse predicate term: '" +
                                 std::string(term) + "'");
}

}  // namespace

Result<QueryAnnotation> ParseAnnotation(const Schema& schema,
                                        std::string_view filter,
                                        std::string_view projection) {
  QueryAnnotation out;
  filter = TrimWhitespace(filter);
  if (!filter.empty()) {
    std::vector<PredicateTerm> terms;
    for (std::string_view part : SplitConjunction(filter)) {
      if (TrimWhitespace(part).empty()) continue;
      HAIL_ASSIGN_OR_RETURN(PredicateTerm term, ParseTerm(part, schema));
      terms.push_back(std::move(term));
    }
    out.filter = Predicate(std::move(terms));
  }
  projection = TrimWhitespace(projection);
  if (!projection.empty()) {
    // Accept both "{@1,@5}" and "@1,@5".
    if (projection.front() == '{' && projection.back() == '}') {
      projection = projection.substr(1, projection.size() - 2);
    }
    for (std::string_view part : SplitString(projection, ',')) {
      if (TrimWhitespace(part).empty()) continue;
      HAIL_ASSIGN_OR_RETURN(int col, ParseColumnRef(part, schema));
      out.projection.push_back(col);
    }
  }
  return out;
}

}  // namespace hail
