#include "util/string_util.h"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace hail {

std::vector<std::string_view> SplitString(std::string_view input, char delimiter) {
  std::vector<std::string_view> parts;
  size_t start = 0;
  while (true) {
    const size_t pos = input.find(delimiter, start);
    if (pos == std::string_view::npos) {
      parts.push_back(input.substr(start));
      break;
    }
    parts.push_back(input.substr(start, pos - start));
    start = pos + 1;
  }
  return parts;
}

std::string_view TrimWhitespace(std::string_view s) {
  size_t begin = 0;
  size_t end = s.size();
  while (begin < end && (s[begin] == ' ' || s[begin] == '\t' || s[begin] == '\r' ||
                         s[begin] == '\n')) {
    ++begin;
  }
  while (end > begin && (s[end - 1] == ' ' || s[end - 1] == '\t' ||
                         s[end - 1] == '\r' || s[end - 1] == '\n')) {
    --end;
  }
  return s.substr(begin, end - begin);
}

Result<int64_t> ParseInt64(std::string_view s) {
  int64_t value = 0;
  const char* begin = s.data();
  const char* end = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc() || ptr != end || s.empty()) {
    return Status::InvalidArgument("not an integer: '" + std::string(s) + "'");
  }
  return value;
}

Result<double> ParseDouble(std::string_view s) {
  if (s.empty()) return Status::InvalidArgument("empty double");
#if defined(__cpp_lib_to_chars)
  // Fast path for plain normal decimals: from_chars is allocation-free
  // and several times faster than strtod. Anything it does not fully
  // consume (leading '+', whitespace, hex floats) or whose value strtod
  // would flag with errno (inf/nan, overflow, and subnormals — glibc
  // sets ERANGE for those) falls through to the strtod path below, so
  // acceptance and values stay exactly strtod's.
  {
    double value = 0;
    const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(),
                                           value);
    if (ec == std::errc() && ptr == s.data() + s.size() &&
        (std::fpclassify(value) == FP_NORMAL || value == 0.0)) {
      return value;
    }
  }
#endif
  // strtod needs a NUL-terminated buffer. Values are short in practice,
  // so a stack buffer keeps this allocation-free too; anything longer
  // falls back to a heap copy with identical semantics.
  char stack_buf[64];
  std::string heap_buf;
  const char* cstr;
  if (s.size() < sizeof(stack_buf)) {
    std::memcpy(stack_buf, s.data(), s.size());
    stack_buf[s.size()] = '\0';
    cstr = stack_buf;
  } else {
    heap_buf.assign(s);
    cstr = heap_buf.c_str();
  }
  errno = 0;
  char* endptr = nullptr;
  const double value = std::strtod(cstr, &endptr);
  if (errno != 0 || endptr != cstr + s.size()) {
    return Status::InvalidArgument("not a double: '" + std::string(s) + "'");
  }
  return value;
}

std::string FormatBytes(uint64_t bytes) {
  constexpr const char* kUnits[] = {"B", "KB", "MB", "GB", "TB"};
  double value = static_cast<double>(bytes);
  int unit = 0;
  while (value >= 1024.0 && unit < 4) {
    value /= 1024.0;
    ++unit;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f %s", value, kUnits[unit]);
  return buf;
}

}  // namespace hail
