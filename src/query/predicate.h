/// \file predicate.h
/// \brief Selection predicates and the @HailQuery annotation (paper §4.1).
///
/// Bob annotates his map function with
///   @HailQuery(filter="@3 between(1999-01-01,2000-01-01)", projection={@1})
/// The filter references attributes by 1-based position (@3 = third
/// attribute). Supported comparators: =, !=, <, <=, >, >=, between(a,b);
/// conjunctions with "and". HAIL uses the annotation to pick a replica
/// with a matching clustered index; when no filter is given the job falls
/// back to a full scan, exactly like stock Hadoop.

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "index/clustered_index.h"
#include "schema/schema.h"
#include "schema/value.h"
#include "util/result.h"

namespace hail {

/// \brief Comparison operator of a simple predicate term.
enum class CompareOp : uint8_t {
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kBetween,  // inclusive on both ends
};

/// Applies a non-between comparison operator to a three-way compare
/// result (-1/0/1). kBetween has two literals and is handled by callers
/// via decomposition into kGe + kLe. Shared by the interpreted
/// (PredicateTerm::Matches) and compiled (query/vectorized.cc) paths so
/// the operator semantics exist exactly once.
inline bool OpMatchesCompare(int cmp, CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return cmp == 0;
    case CompareOp::kNe:
      return cmp != 0;
    case CompareOp::kLt:
      return cmp < 0;
    case CompareOp::kLe:
      return cmp <= 0;
    case CompareOp::kGt:
      return cmp > 0;
    case CompareOp::kGe:
      return cmp >= 0;
    case CompareOp::kBetween:
      return false;
  }
  return false;
}

/// Three-way string comparison shared by the interpreted and compiled
/// evaluation paths.
inline int ThreeWayCompareStrings(std::string_view a, std::string_view b) {
  return a < b ? -1 : (a == b ? 0 : 1);
}

/// \brief One term: <attribute> <op> <literal(s)>.
struct PredicateTerm {
  int column = -1;  // 0-based attribute index
  CompareOp op = CompareOp::kEq;
  Value literal;       // lo for kBetween
  Value literal_hi;    // only for kBetween

  /// Evaluates against a single attribute value.
  bool Matches(const Value& v) const;

  /// Key range usable with a clustered index on this term's column;
  /// nullopt for kNe (not index-serviceable).
  std::optional<KeyRange> ToKeyRange() const;
};

/// \brief Conjunction of terms (the only composition §4.1 needs).
class Predicate {
 public:
  Predicate() = default;
  explicit Predicate(std::vector<PredicateTerm> terms)
      : terms_(std::move(terms)) {}

  const std::vector<PredicateTerm>& terms() const { return terms_; }
  bool empty() const { return terms_.empty(); }

  /// True when a full row satisfies every term.
  bool Matches(const std::vector<Value>& row) const;

  /// Columns referenced by any term.
  std::vector<int> ReferencedColumns() const;

  /// The index-serviceable key range for \p column: intersection of all
  /// range-compatible terms on it. nullopt if no term references it.
  std::optional<KeyRange> KeyRangeFor(int column) const;

  /// Renders the filter as annotation text, literals typed by \p schema.
  std::string ToString(const Schema& schema) const;

 private:
  std::vector<PredicateTerm> terms_;
};

/// \brief The @HailQuery annotation: filter + attribute projection.
struct QueryAnnotation {
  Predicate filter;
  /// 0-based attribute indexes to hand to the map function; empty = all
  /// attributes ("in case that no projection was specified ... we
  /// reconstruct all attributes", §4.3).
  std::vector<int> projection;

  bool has_filter() const { return !filter.empty(); }

  /// The column HAIL would like an index on: the first filter column
  /// (query optimizers could be smarter; the paper picks the filter
  /// attribute).
  int preferred_index_column() const;
};

/// Parses the textual annotation:
///   filter:     "@3 between(1999-01-01,2000-01-01) and @1 = 42"
///   projection: "@1,@5" (or empty string for all attributes)
/// Literal typing is resolved against \p schema.
Result<QueryAnnotation> ParseAnnotation(const Schema& schema,
                                        std::string_view filter,
                                        std::string_view projection);

}  // namespace hail
