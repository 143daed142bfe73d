#ifndef FREEHGC_COMMON_CRC32_H_
#define FREEHGC_COMMON_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace freehgc {

/// CRC-32 (IEEE 802.3 polynomial, the zlib/PNG variant) of `n` bytes.
/// `seed` chains incremental computation: pass the previous return value
/// to extend a checksum across multiple buffers. Used as the integrity
/// check of every section of the v3 graph container and the spill files;
/// no external dependency. Slice-by-8 table kernel with a carry-less-multiply
/// (PCLMULQDQ) fast path selected at runtime — mapping a multi-GB v3
/// container verifies every section, so checksum speed is on the
/// zero-copy load path.
uint32_t Crc32(const void* data, size_t n, uint32_t seed = 0);

namespace internal {

/// The portable slice-by-8 kernel, exposed for differential testing
/// against the SIMD path.
uint32_t Crc32Portable(const void* data, size_t n, uint32_t seed);

/// True when this CPU takes the PCLMULQDQ path.
bool Crc32HasSimd();

}  // namespace internal

}  // namespace freehgc

#endif  // FREEHGC_COMMON_CRC32_H_
