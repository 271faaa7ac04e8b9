/// \file value.h
/// \brief A dynamically typed attribute value (parse/reconstruct boundary).
///
/// Hot paths (sorting, indexing, predicate evaluation) operate on typed
/// column vectors inside PAX blocks; Value is only used where rows cross
/// API boundaries: text parsing, HailRecord handed to the map function,
/// and test assertions.

#pragma once

#include <cstdint>
#include <string>
#include <variant>

#include "schema/schema.h"

namespace hail {

/// \brief One attribute value. DATE is carried as kInt32 day numbers.
class Value {
 public:
  Value() : v_(int64_t{0}) {}
  explicit Value(int32_t v) : v_(v) {}
  explicit Value(int64_t v) : v_(v) {}
  explicit Value(double v) : v_(v) {}
  explicit Value(std::string v) : v_(std::move(v)) {}

  bool is_int32() const { return std::holds_alternative<int32_t>(v_); }
  bool is_int64() const { return std::holds_alternative<int64_t>(v_); }
  bool is_double() const { return std::holds_alternative<double>(v_); }
  bool is_string() const { return std::holds_alternative<std::string>(v_); }

  int32_t as_int32() const { return std::get<int32_t>(v_); }
  int64_t as_int64() const { return std::get<int64_t>(v_); }
  double as_double() const { return std::get<double>(v_); }
  const std::string& as_string() const { return std::get<std::string>(v_); }

  /// Numeric view of any non-string value (int32/int64 widened).
  double AsNumeric() const {
    if (is_int32()) return as_int32();
    if (is_int64()) return static_cast<double>(as_int64());
    return as_double();
  }

  /// Renders the value as it would appear in a text row of a \p type
  /// column; a value of another type renders as its own type.
  std::string ToText(FieldType type) const;

  bool operator==(const Value& other) const { return v_ == other.v_; }
  bool operator<(const Value& other) const;

 private:
  std::variant<int32_t, int64_t, double, std::string> v_;
};

}  // namespace hail
