#ifndef RSTORE_COMPRESS_COMMON_PREFIX_H_
#define RSTORE_COMPRESS_COMMON_PREFIX_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace rstore {

/// Length of the common prefix of `a` and `b`, at most `limit` bytes. Both
/// ranges must be readable for `limit` bytes; they may overlap (the LZ
/// self-referencing case, a < b). Compares 8 bytes per step: the first
/// differing byte of a word is found from the XOR of the two words.
inline size_t CommonPrefixLength(const unsigned char* a,
                                 const unsigned char* b, size_t limit) {
  size_t len = 0;
  while (len + 8 <= limit) {
    uint64_t x, y;
    std::memcpy(&x, a + len, 8);
    std::memcpy(&y, b + len, 8);
    uint64_t diff = x ^ y;
    if (diff != 0) {
      int bit = std::endian::native == std::endian::little
                    ? std::countr_zero(diff)
                    : std::countl_zero(diff);
      return len + static_cast<size_t>(bit / 8);
    }
    len += 8;
  }
  while (len < limit && a[len] == b[len]) ++len;
  return len;
}

}  // namespace rstore

#endif  // RSTORE_COMPRESS_COMMON_PREFIX_H_
