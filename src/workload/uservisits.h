/// \file uservisits.h
/// \brief The UserVisits dataset of Pavlo et al. [27] (paper §6.2).
///
/// Schema (9 attributes): sourceIP, destURL, visitDate, adRevenue,
/// userAgent, countryCode, languageCode, searchWord, duration.
/// Value distributions are tuned so Bob's five queries hit the paper's
/// selectivities:
///   Q1  visitDate in [1999-01-01, 2000-01-01]   -> 3.1e-2
///   Q2  sourceIP = 172.101.11.46                -> 3.2e-8 (needle rows)
///   Q3  Q2 and visitDate = 1992-12-22           -> 6e-9
///   Q4  adRevenue in [1, 10]                    -> 1.7e-2
///   Q5  adRevenue in [1, 100]                   -> 2.04e-1 (approx)
/// Needles are planted deterministically at the *scaled* frequency so the
/// number of matching blocks matches the paper-scale workload (see
/// DESIGN.md §2).

#pragma once

#include <cstdint>
#include <string>

#include "schema/schema.h"

namespace hail {
namespace workload {

/// The needle sourceIP Bob investigates (§1, §6.2).
inline constexpr const char* kNeedleIP = "172.101.11.46";
/// The needle visit date of Bob-Q3.
inline constexpr const char* kNeedleDate = "1992-12-22";

/// Attribute positions (0-based) in the UserVisits schema.
enum UserVisitsAttr : int {
  kSourceIP = 0,
  kDestURL = 1,
  kVisitDate = 2,
  kAdRevenue = 3,
  kUserAgent = 4,
  kCountryCode = 5,
  kLanguageCode = 6,
  kSearchWord = 7,
  kDuration = 8,
};

Schema UserVisitsSchema();

struct UserVisitsConfig {
  uint64_t rows = 10000;
  uint64_t seed = 1;
  /// Plant the Q2 needle every N rows; 0 derives N from `scale_factor`
  /// so that needle density matches 3.2e-8 at paper scale.
  uint64_t needle_every = 0;
  double scale_factor = 1.0;
  /// Emit visitDate monotonically increasing over the file (log data
  /// arriving in event-time order) instead of uniformly shuffled. Blocks
  /// then cover disjoint date ranges — the workload zone maps are built
  /// for. Off by default: the shuffled generator stays byte-identical.
  bool time_ordered = false;
};

/// Generates delimited text rows (newline-terminated).
std::string GenerateUserVisitsText(const UserVisitsConfig& config);

/// Average text bytes per row for capacity planning (measured: about
/// 171.6 over 70,000 rows); the generator reserves its text from it.
double UserVisitsAvgRowBytes();

}  // namespace workload
}  // namespace hail
