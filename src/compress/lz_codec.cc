#include "compress/lz_codec.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "common/coding.h"
#include "compress/common_prefix.h"

namespace rstore {
namespace lz {

namespace {

constexpr size_t kMinMatch = 4;
constexpr size_t kMaxDistance = 1u << 20;  // 1 MB window: chunks are ~1 MB.
constexpr int kHashBits = 16;
constexpr int kMaxChainProbes = 32;

inline uint32_t Hash4(const unsigned char* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return (v * 2654435761u) >> (32 - kHashBits);
}

void EmitLiterals(const unsigned char* base, size_t start, size_t end,
                  std::string* out) {
  if (end <= start) return;
  size_t len = end - start;
  PutVarint64(out, (len << 1) | 0);
  out->append(reinterpret_cast<const char*>(base + start), len);
}

// Match tables reused by every Compress call on a thread: allocating and
// zeroing a fresh 2^16-entry head table per call cost more than compressing
// a small input.
//
// An indexed position `pos` is stored as `base + pos + 1`, where `base` is
// the sum of the sizes of the thread's earlier inputs. An entry belongs to
// the current call iff it exceeds the call's base, so entries left by earlier
// calls read as empty without any clearing: the base is a generation stamp
// folded into the stored position. prev[pos] is written when pos is indexed
// and read only for indexed positions, so it is never cleared either.
struct MatchTables {
  std::vector<uint32_t> head;  // most recent position per hash
  std::unique_ptr<uint32_t[]> prev;  // previous position in pos's chain
  size_t prev_capacity = 0;
  uint32_t base = 0;
};

// A prev chain longer than this is freed after the call, so one large input
// does not pin its chain for the life of the thread.
constexpr size_t kMaxRetainedPositions = size_t{1} << 16;

}  // namespace

void Compress(Slice input, std::string* output) {
  output->clear();
  PutVarint64(output, input.size());
  if (input.empty()) return;

  const unsigned char* data =
      reinterpret_cast<const unsigned char*>(input.data());
  const size_t n = input.size();

  if (n < kMinMatch + 4) {
    EmitLiterals(data, 0, n, output);
    return;
  }

  thread_local MatchTables tables;
  if (tables.head.empty() || n > UINT32_MAX - tables.base) {
    tables.head.assign(size_t{1} << kHashBits, 0);
    tables.base = 0;
  }
  if (tables.prev_capacity < n) {
    tables.prev = std::make_unique_for_overwrite<uint32_t[]>(n);
    tables.prev_capacity = n;
  }
  uint32_t* head = tables.head.data();
  uint32_t* prev = tables.prev.get();
  const uint32_t base = tables.base;
  tables.base += static_cast<uint32_t>(n);

  size_t literal_start = 0;
  size_t i = 0;
  const size_t limit = n - kMinMatch;

  auto insert = [&](size_t pos) {
    uint32_t h = Hash4(data + pos);
    prev[pos] = head[h];
    head[h] = base + static_cast<uint32_t>(pos) + 1;
  };

  auto find_match = [&](size_t pos, size_t* match_pos) -> size_t {
    uint32_t h = Hash4(data + pos);
    uint32_t cand = head[h];
    size_t best_len = 0;
    int probes = kMaxChainProbes;
    while (cand > base && probes-- > 0) {
      size_t c = cand - base - 1;
      if (pos - c > kMaxDistance) break;
      // Only a candidate that also agrees at byte best_len can be longer.
      if (best_len < n - pos && data[c + best_len] == data[pos + best_len]) {
        size_t len = CommonPrefixLength(data + c, data + pos, n - pos);
        if (len > best_len) {
          best_len = len;
          *match_pos = c;
        }
      }
      cand = prev[c];
    }
    return best_len;
  };

  while (i <= limit) {
    size_t match_pos = 0;
    size_t len = find_match(i, &match_pos);
    if (len >= kMinMatch) {
      // Lazy evaluation: if the next position has a strictly longer match,
      // emit this byte as a literal and take the later match instead.
      if (i + 1 <= limit) {
        size_t next_pos = 0;
        insert(i);
        size_t next_len = find_match(i + 1, &next_pos);
        if (next_len > len + 1) {
          ++i;
          continue;  // i-1..i stay pending as literals
        }
        EmitLiterals(data, literal_start, i, output);
        PutVarint64(output, (len << 1) | 1);
        PutVarint64(output, i - match_pos);
        // Index positions inside the match (sparsely for long matches).
        size_t match_end = i + len;
        size_t step = len > 64 ? 8 : 1;
        for (size_t p = i + 1; p + kMinMatch <= n && p < match_end;
             p += step) {
          insert(p);
        }
        i = match_end;
        literal_start = i;
        continue;
      }
      EmitLiterals(data, literal_start, i, output);
      PutVarint64(output, (len << 1) | 1);
      PutVarint64(output, i - match_pos);
      i += len;
      literal_start = i;
      continue;
    }
    insert(i);
    ++i;
  }
  EmitLiterals(data, literal_start, n, output);
  if (tables.prev_capacity > kMaxRetainedPositions) {
    tables.prev.reset();
    tables.prev_capacity = 0;
  }
}

namespace {

// Spare bytes kept past the logical end of the output buffer, so short
// literals and matches can be copied as one fixed 16-byte block and
// overlapping matches in whole 8-byte steps, overshooting into the slack.
// The overshoot is always overwritten by later output or trimmed off.
constexpr size_t kOutputSlack = 16;

inline void Copy8(char* dst, const char* src) {
  uint64_t v;
  std::memcpy(&v, src, 8);
  std::memcpy(dst, &v, 8);
}

inline void Copy16(char* dst, const char* src) {
  char v[16];
  std::memcpy(v, src, 16);
  std::memcpy(dst, v, 16);
}

}  // namespace

Status Decompress(Slice input, std::string* output) {
  uint64_t expected;
  RSTORE_RETURN_IF_ERROR(GetVarint64(&input, &expected));
  // The header size is untrusted; cap it (a frame legitimately larger than
  // this would be split upstream — chunks are ~1 MB), start the buffer at
  // no more than 1 MB and grow it geometrically, so a lying header cannot
  // trigger a huge allocation or an unbounded RLE expansion loop.
  constexpr uint64_t kMaxFrameBytes = 1ull << 28;
  if (expected > kMaxFrameBytes) {
    return Status::Corruption("lz: implausible frame size");
  }
  // `output` is a write buffer from here on: its old bytes are overwritten,
  // and keeping its size (rather than clearing it) spares a reused buffer
  // from being zero-filled again.
  size_t capacity = std::min<uint64_t>(expected, 1u << 20);
  if (output->size() < capacity + kOutputSlack) {
    output->resize(capacity + kOutputSlack);
  }
  capacity = output->size() - kOutputSlack;
  char* out = output->data();
  // Ensures room for `need` <= expected bytes of output.
  auto reserve = [&](size_t need) {
    if (need <= capacity) return;
    capacity = std::min<uint64_t>(std::max(need, 2 * capacity), expected);
    output->resize(capacity + kOutputSlack);
    out = output->data();
  };

  const char* ip = input.data();
  const char* const end = ip + input.size();
  size_t pos = 0;
  while (ip < end) {
    uint64_t token;
    ip = GetVarint64Ptr(ip, end, &token);
    if (ip == nullptr) return Status::Corruption("lz: truncated token");
    const uint64_t len = token >> 1;
    if ((token & 1) == 0) {
      const auto available = static_cast<size_t>(end - ip);
      if (available < len) return Status::Corruption("lz: truncated literals");
      if (len > expected - pos) return Status::Corruption("lz: output overrun");
      reserve(pos + len);
      if (len <= 16 && available >= 16) {
        Copy16(out + pos, ip);
      } else {
        std::memcpy(out + pos, ip, len);
      }
      ip += len;
      pos += len;
    } else {
      uint64_t distance;
      ip = GetVarint64Ptr(ip, end, &distance);
      if (ip == nullptr) return Status::Corruption("lz: truncated distance");
      if (distance == 0 || distance > pos) {
        return Status::Corruption("lz: match distance out of range");
      }
      if (len > expected - pos) return Status::Corruption("lz: output overrun");
      reserve(pos + len);
      char* op = out + pos;
      const char* src = op - distance;
      if (len <= 16 && distance >= 16) {
        Copy16(op, src);
      } else if (distance >= len) {
        std::memcpy(op, src, len);
      } else if (distance >= 8) {
        // Overlapping: each 8-byte step reads only bytes already written.
        for (size_t k = 0; k < len; k += 8) Copy8(op + k, src + k);
      } else {
        // distance < 8 replicates a short period byte by byte (RLE).
        for (size_t k = 0; k < len; ++k) op[k] = src[k];
      }
      pos += len;
    }
  }
  if (pos != expected) {
    return Status::Corruption("lz: size mismatch after decompress");
  }
  output->resize(expected);
  return Status::OK();
}

Result<uint64_t> PeekUncompressedSize(Slice input) {
  uint64_t size;
  Status s = GetVarint64(&input, &size);
  if (!s.ok()) return s;
  return size;
}

}  // namespace lz
}  // namespace rstore
