#include "util/random.h"

namespace hail {

std::string Random::NextString(size_t length) {
  std::string out;
  out.reserve(length);
  for (size_t i = 0; i < length; ++i) {
    out.push_back(static_cast<char>('a' + Uniform(26)));
  }
  return out;
}

}  // namespace hail
