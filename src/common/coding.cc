#include "common/coding.h"

#include <cstring>

namespace rstore {

void PutFixed32(std::string* dst, uint32_t value) {
  char buf[4];
  buf[0] = static_cast<char>(value & 0xff);
  buf[1] = static_cast<char>((value >> 8) & 0xff);
  buf[2] = static_cast<char>((value >> 16) & 0xff);
  buf[3] = static_cast<char>((value >> 24) & 0xff);
  dst->append(buf, 4);
}

void PutFixed64(std::string* dst, uint64_t value) {
  char buf[8];
  for (int i = 0; i < 8; ++i) {
    buf[i] = static_cast<char>((value >> (8 * i)) & 0xff);
  }
  dst->append(buf, 8);
}

void PutVarint32(std::string* dst, uint32_t value) {
  PutVarint64(dst, value);
}

void PutVarint64(std::string* dst, uint64_t value) {
  unsigned char buf[10];
  size_t n = 0;
  while (value >= 0x80) {
    buf[n++] = static_cast<unsigned char>(value) | 0x80;
    value >>= 7;
  }
  buf[n++] = static_cast<unsigned char>(value);
  dst->append(reinterpret_cast<char*>(buf), n);
}

void PutVarsint64(std::string* dst, int64_t value) {
  PutVarint64(dst, ZigzagEncode(value));
}

void PutLengthPrefixed(std::string* dst, Slice value) {
  PutVarint64(dst, value.size());
  dst->append(value.data(), value.size());
}

Status GetFixed32(Slice* input, uint32_t* value) {
  if (input->size() < 4) return Status::Corruption("truncated fixed32");
  const unsigned char* p =
      reinterpret_cast<const unsigned char*>(input->data());
  *value = static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
           (static_cast<uint32_t>(p[2]) << 16) |
           (static_cast<uint32_t>(p[3]) << 24);
  input->RemovePrefix(4);
  return Status::OK();
}

Status GetFixed64(Slice* input, uint64_t* value) {
  if (input->size() < 8) return Status::Corruption("truncated fixed64");
  *value = DecodeFixed64(input->data());
  input->RemovePrefix(8);
  return Status::OK();
}

Status GetVarint32Slow(Slice* input, uint32_t* value) {
  uint64_t v;
  RSTORE_RETURN_IF_ERROR(GetVarint64(input, &v));
  if (v > UINT32_MAX) return Status::Corruption("varint32 overflow");
  *value = static_cast<uint32_t>(v);
  return Status::OK();
}

Status GetVarint64Slow(Slice* input, uint64_t* value) {
  const char* p = input->data();
  const char* q = GetVarint64PtrSlow(p, p + input->size(), value);
  if (q == nullptr) {
    return Status::Corruption("truncated or overlong varint64");
  }
  input->RemovePrefix(static_cast<size_t>(q - p));
  return Status::OK();
}

const char* GetVarint64PtrSlow(const char* p, const char* limit,
                               uint64_t* value) {
  uint64_t result = 0;
  for (uint32_t shift = 0; shift <= 63 && p < limit; shift += 7) {
    uint64_t byte = static_cast<unsigned char>(*p++);
    if (byte & 0x80) {
      result |= (byte & 0x7f) << shift;
    } else {
      result |= byte << shift;
      *value = result;
      return p;
    }
  }
  return nullptr;
}

Status GetVarsint64(Slice* input, int64_t* value) {
  uint64_t v;
  RSTORE_RETURN_IF_ERROR(GetVarint64(input, &v));
  *value = ZigzagDecode(v);
  return Status::OK();
}

size_t VarintLength(uint64_t value) {
  size_t n = 1;
  while (value >= 0x80) {
    value >>= 7;
    ++n;
  }
  return n;
}

}  // namespace rstore
