#ifndef RSTORE_COMMON_CODING_H_
#define RSTORE_COMMON_CODING_H_

#include <cstdint>
#include <string>

#include "common/result.h"
#include "common/slice.h"
#include "common/status.h"

namespace rstore {

/// Low-level binary encoding primitives shared by every serialized structure
/// in RStore (chunks, chunk maps, indexes, deltas). Fixed-width integers are
/// little-endian; variable-width integers use LEB128 varints; signed values
/// use zigzag so small negatives stay small.

void PutFixed32(std::string* dst, uint32_t value);
void PutFixed64(std::string* dst, uint64_t value);
void PutVarint32(std::string* dst, uint32_t value);
void PutVarint64(std::string* dst, uint64_t value);
/// Zigzag-encoded signed varint.
void PutVarsint64(std::string* dst, int64_t value);
/// Varint length prefix followed by the raw bytes.
void PutLengthPrefixed(std::string* dst, Slice value);

/// Multi-byte and malformed varints: the out-of-line continuation of the
/// inline one-byte fast paths below.
Status GetVarint64Slow(Slice* input, uint64_t* value);
Status GetVarint32Slow(Slice* input, uint32_t* value);

/// Each Get* consumes bytes from the front of `input` on success. On failure
/// (truncated/corrupt input) `input` is left unspecified and a kCorruption
/// status is returned. The varint readers decode a one-byte value (the
/// common case: lengths, tokens, versions under 128) inline.
Status GetFixed32(Slice* input, uint32_t* value);
Status GetFixed64(Slice* input, uint64_t* value);
inline Status GetVarint64(Slice* input, uint64_t* value) {
  if (!input->empty() && static_cast<unsigned char>(input->data()[0]) < 0x80) {
    *value = static_cast<unsigned char>(input->data()[0]);
    input->RemovePrefix(1);
    return Status::OK();
  }
  return GetVarint64Slow(input, value);
}
inline Status GetVarint32(Slice* input, uint32_t* value) {
  if (!input->empty() && static_cast<unsigned char>(input->data()[0]) < 0x80) {
    *value = static_cast<unsigned char>(input->data()[0]);
    input->RemovePrefix(1);
    return Status::OK();
  }
  return GetVarint32Slow(input, value);
}
Status GetVarsint64(Slice* input, int64_t* value);
inline Status GetLengthPrefixed(Slice* input, Slice* value) {
  uint64_t len;
  RSTORE_RETURN_IF_ERROR(GetVarint64(input, &len));
  if (input->size() < len) {
    return Status::Corruption("truncated length-prefixed field");
  }
  *value = Slice(input->data(), len);
  input->RemovePrefix(len);
  return Status::OK();
}

/// Pointer form of GetVarint64 for tight decode loops: parses a varint from
/// [p, limit) and returns the byte after it, or nullptr if it is truncated
/// or overlong.
const char* GetVarint64PtrSlow(const char* p, const char* limit,
                               uint64_t* value);
inline const char* GetVarint64Ptr(const char* p, const char* limit,
                                  uint64_t* value) {
  if (p < limit && static_cast<unsigned char>(*p) < 0x80) {
    *value = static_cast<unsigned char>(*p);
    return p + 1;
  }
  return GetVarint64PtrSlow(p, limit, value);
}

/// Little-endian fixed64 at `p`, which must have 8 readable bytes.
inline uint64_t DecodeFixed64(const char* p) {
  const auto* b = reinterpret_cast<const unsigned char*>(p);
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | b[i];
  return v;
}

/// Number of bytes PutVarint64 would emit for `value`.
size_t VarintLength(uint64_t value);

inline uint64_t ZigzagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}
inline int64_t ZigzagDecode(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

}  // namespace rstore

#endif  // RSTORE_COMMON_CODING_H_
