#include "util/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace hail {
namespace crc32c {

namespace {

constexpr uint32_t kPolynomial = 0x82f63b78;  // reflected CRC32C polynomial

struct Tables {
  // table[k][b]: CRC of byte b followed by k zero bytes.
  std::array<std::array<uint32_t, 256>, 8> t;
};

const Tables& GetTables() {
  static const Tables tables = [] {
    Tables tb{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int j = 0; j < 8; ++j) {
        crc = (crc >> 1) ^ ((crc & 1) ? kPolynomial : 0);
      }
      tb.t[0][i] = crc;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      for (int k = 1; k < 8; ++k) {
        tb.t[k][i] = (tb.t[k - 1][i] >> 8) ^ tb.t[0][tb.t[k - 1][i] & 0xff];
      }
    }
    return tb;
  }();
  return tables;
}

inline uint32_t LoadU32LE(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) | (static_cast<uint32_t>(p[3]) << 24);
}

#if defined(__x86_64__)
/// The SSE4.2 `crc32` instruction computes CRC32C, 8 bytes per step.
/// Compiled for SSE4.2 alone, so the rest of the build keeps its target;
/// Extend calls it only when the CPU reports the instruction.
__attribute__((target("sse4.2"))) uint32_t ExtendHardware(uint32_t init_crc,
                                                          const void* data,
                                                          size_t size) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint64_t crc = ~init_crc;
  while (size >= 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    crc = _mm_crc32_u64(crc, word);
    p += 8;
    size -= 8;
  }
  uint32_t crc32 = static_cast<uint32_t>(crc);
  while (size > 0) {
    crc32 = _mm_crc32_u8(crc32, *p);
    ++p;
    --size;
  }
  return ~crc32;
}

bool HasHardwareCrc() {
  static const bool has = __builtin_cpu_supports("sse4.2");
  return has;
}
#endif

}  // namespace

uint32_t Extend(uint32_t init_crc, const void* data, size_t size) {
#if defined(__x86_64__)
  if (HasHardwareCrc()) return ExtendHardware(init_crc, data, size);
#endif
  return ExtendTable(init_crc, data, size);
}

uint32_t ExtendTable(uint32_t init_crc, const void* data, size_t size) {
  const Tables& tb = GetTables();
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t crc = ~init_crc;

  // Eight bytes per step while they last, then one byte at a time.
  while (size >= 8) {
    const uint32_t lo = LoadU32LE(p) ^ crc;
    const uint32_t hi = LoadU32LE(p + 4);
    crc = tb.t[7][lo & 0xff] ^ tb.t[6][(lo >> 8) & 0xff] ^
          tb.t[5][(lo >> 16) & 0xff] ^ tb.t[4][lo >> 24] ^
          tb.t[3][hi & 0xff] ^ tb.t[2][(hi >> 8) & 0xff] ^
          tb.t[1][(hi >> 16) & 0xff] ^ tb.t[0][hi >> 24];
    p += 8;
    size -= 8;
  }
  while (size > 0) {
    crc = (crc >> 8) ^ tb.t[0][(crc ^ *p) & 0xff];
    ++p;
    --size;
  }
  return ~crc;
}

}  // namespace crc32c
}  // namespace hail
