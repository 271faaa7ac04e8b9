#include "schema/value.h"

#include <cstdio>

namespace hail {

std::string Value::ToText(FieldType type) const {
  // Each value renders as what it holds; \p type only marks an int32 as a
  // date. A value that does not hold its type's storage (a widened literal,
  // a column declared wider than the block stores it) renders as its own
  // type instead of failing.
  char buf[32];
  if (is_string()) return as_string();
  if (is_int32()) {
    if (type == FieldType::kDate) return DaysToDateString(as_int32());
    std::snprintf(buf, sizeof(buf), "%d", as_int32());
  } else if (is_int64()) {
    std::snprintf(buf, sizeof(buf), "%lld",
                  static_cast<long long>(as_int64()));
  } else {
    std::snprintf(buf, sizeof(buf), "%.6g", as_double());
  }
  return buf;
}

bool Value::operator<(const Value& other) const {
  // Values of mixed numeric types compare numerically; strings compare
  // lexicographically and sort after numbers (only same-type comparisons
  // occur in practice).
  const bool a_str = is_string();
  const bool b_str = other.is_string();
  if (a_str != b_str) return !a_str;
  if (a_str) return as_string() < other.as_string();
  return AsNumeric() < other.AsNumeric();
}

}  // namespace hail
