/// \file string_util.h
/// \brief Small string helpers shared across modules.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"

namespace hail {

/// Splits \p input on \p delimiter; keeps empty fields.
std::vector<std::string_view> SplitString(std::string_view input, char delimiter);

/// Joins \p parts with \p separator.
std::string JoinStrings(const std::vector<std::string>& parts,
                        std::string_view separator);

/// Removes leading/trailing ASCII whitespace.
std::string_view TrimWhitespace(std::string_view s);

bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// Strict integer parse of the full string (no trailing garbage).
Result<int64_t> ParseInt64(std::string_view s);

/// Strict double parse of the full string.
Result<double> ParseDouble(std::string_view s);

/// "64.0 MB" etc. for human-readable bench output.
std::string FormatBytes(uint64_t bytes);

}  // namespace hail
