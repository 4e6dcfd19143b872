#ifndef DMRPC_APPS_BYTES_H_
#define DMRPC_APPS_BYTES_H_

#include <cstddef>
#include <cstdint>

#include "rpc/wire.h"

namespace dmrpc::apps {

// Host byte kernels for the apps' real payload bytes. They are plain
// functions on purpose: inside a coroutine body GCC keeps loop locals in
// the coroutine frame, and since a uint8_t store may alias the frame it
// reloads and stores the index once per byte and never vectorizes the
// loop. Called from a coroutine, the same loops here vectorize.

/// Writes the request pattern dst[i] = uint8_t(seed + i) for i < n.
inline void FillPattern(uint8_t* dst, size_t n, uint64_t seed) {
  uint8_t b = static_cast<uint8_t>(seed);
  for (size_t i = 0; i < n; ++i) dst[i] = b++;
}

/// The sum of n bytes as a uint64. Full 256-byte blocks are summed in a
/// uint16_t first: 256 * 255 < 2^16, so a block cannot overflow, and
/// 16-bit lanes pack a vector more densely than 64-bit ones.
inline uint64_t SumBytes(const uint8_t* p, size_t n) {
  uint64_t sum = 0;
  for (; n >= 256; p += 256, n -= 256) {
    uint16_t block = 0;
    for (size_t i = 0; i < 256; ++i) block += p[i];
    sum += block;
  }
  for (size_t i = 0; i < n; ++i) sum += p[i];
  return sum;
}

/// Sums a slice chain in place, one slice at a time, without flattening.
inline uint64_t SumBytes(const rpc::MsgBuffer& buf) {
  uint64_t sum = 0;
  for (const sim::BufSlice& seg : buf.segments()) {
    sum += SumBytes(seg.data(), seg.size());
  }
  return sum;
}

}  // namespace dmrpc::apps

#endif  // DMRPC_APPS_BYTES_H_
