/// \file crc32c.h
/// \brief CRC32C (Castagnoli) checksums, the algorithm HDFS uses per chunk.
///
/// Extend uses the SSE4.2 `crc32` instruction when the CPU reports it
/// (checked once) and a software slicing-by-8 table otherwise; the tables
/// are built once at first use. HDFS stores one CRC32C per 512-byte chunk
/// of every block replica (paper §3.2); HAIL recomputes these after
/// per-replica sorting because the physical bytes differ between replicas
/// of the same logical block.

#pragma once

#include <cstddef>
#include <cstdint>

namespace hail {
namespace crc32c {

/// Extends \p init_crc with \p size bytes at \p data and returns the new CRC.
/// Pass 0 as \p init_crc for a fresh checksum.
uint32_t Extend(uint32_t init_crc, const void* data, size_t size);

/// The slicing-by-8 table path Extend falls back to; same result. The
/// tests check the hardware path against it.
uint32_t ExtendTable(uint32_t init_crc, const void* data, size_t size);

/// Computes the CRC32C of the given buffer.
inline uint32_t Value(const void* data, size_t size) {
  return Extend(0, data, size);
}

}  // namespace crc32c
}  // namespace hail
