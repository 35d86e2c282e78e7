#include "compress/delta_codec.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <vector>

#include "common/coding.h"
#include "compress/common_prefix.h"

namespace rstore {
namespace delta_codec {

namespace {

constexpr size_t kAnchor = 8;     // bytes hashed per anchor
constexpr size_t kMinCopy = 12;   // below this a COPY costs more than ADD

inline uint64_t Hash8(const unsigned char* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v * 0x9e3779b97f4a7c15ull;
}

void EmitAdd(const unsigned char* data, size_t start, size_t end,
             std::string* out) {
  if (end <= start) return;
  size_t len = end - start;
  PutVarint64(out, (len << 1) | 0);
  out->append(reinterpret_cast<const char*>(data + start), len);
}

// Open-addressing anchor index (anchor hash -> first base position), reused
// by every Encode call on a thread. A slot is live only while its generation
// equals the table's, so starting a new call is one increment rather than a
// clear, and a small base probes only a prefix of the table.
struct AnchorSlot {
  uint64_t hash;
  uint32_t pos;
  uint32_t generation;
};

struct AnchorTable {
  std::vector<AnchorSlot> slots;
  uint32_t generation = 0;
};

// A table larger than this is freed after the call, so one large base does
// not pin its index for the life of the thread.
constexpr size_t kMaxRetainedSlots = size_t{1} << 15;

}  // namespace

void Encode(Slice base, Slice target, std::string* delta) {
  delta->clear();
  PutVarint64(delta, target.size());
  if (target.empty()) return;

  const unsigned char* b = reinterpret_cast<const unsigned char*>(base.data());
  const unsigned char* t =
      reinterpret_cast<const unsigned char*>(target.data());
  const size_t bn = base.size();
  const size_t tn = target.size();

  if (bn < kAnchor) {
    EmitAdd(t, 0, tn, delta);
    return;
  }

  // Index every 4th anchor of the base (dense enough for record-sized
  // payloads, 4x cheaper to build). Capacity is a power of two at least
  // twice the anchor count; slots are picked from the hash's high bits,
  // which are the well-mixed ones of a multiplicative hash.
  const size_t anchors = (bn - kAnchor) / 4 + 1;
  const int bits = std::bit_width(anchors) + 1;
  const size_t capacity = size_t{1} << bits;
  const size_t mask = capacity - 1;
  thread_local AnchorTable table;
  if (table.slots.size() < capacity) {
    table.slots.assign(capacity, AnchorSlot{});
    table.generation = 0;
  }
  if (++table.generation == 0) {
    for (AnchorSlot& slot : table.slots) slot.generation = 0;
    table.generation = 1;
  }
  AnchorSlot* slots = table.slots.data();
  const uint32_t generation = table.generation;
  // The live slot holding `hash`, or the free slot where it would go.
  auto probe = [&](uint64_t hash) {
    size_t s = static_cast<size_t>(hash >> (64 - bits));
    while (slots[s].generation == generation && slots[s].hash != hash) {
      s = (s + 1) & mask;
    }
    return s;
  };
  for (size_t i = 0; i + kAnchor <= bn; i += 4) {
    const uint64_t hash = Hash8(b + i);
    AnchorSlot& slot = slots[probe(hash)];
    // A repeated hash keeps its first base position.
    if (slot.generation != generation) {
      slot = {hash, static_cast<uint32_t>(i), generation};
    }
  }

  size_t add_start = 0;
  size_t i = 0;
  while (i + kAnchor <= tn) {
    const AnchorSlot& slot = slots[probe(Hash8(t + i))];
    bool matched = false;
    if (slot.generation == generation) {
      size_t bp = slot.pos;
      size_t fwd =
          CommonPrefixLength(b + bp, t + i, std::min(bn - bp, tn - i));
      if (fwd >= kAnchor) {
        // Extend backward into the pending ADD region.
        size_t back = 0;
        while (bp > back && i > add_start + back && b[bp - back - 1] == t[i - back - 1]) {
          ++back;
        }
        size_t copy_len = fwd + back;
        if (copy_len >= kMinCopy) {
          EmitAdd(t, add_start, i - back, delta);
          PutVarint64(delta, (copy_len << 1) | 1);
          PutVarint64(delta, bp - back);
          i += fwd;
          add_start = i;
          matched = true;
        }
      }
    }
    if (!matched) ++i;
  }
  EmitAdd(t, add_start, tn, delta);
  if (table.slots.size() > kMaxRetainedSlots) {
    std::vector<AnchorSlot>().swap(table.slots);
  }
}

Status Apply(Slice base, Slice delta, std::string* target) {
  target->clear();
  Slice input = delta;
  uint64_t expected;
  RSTORE_RETURN_IF_ERROR(GetVarint64(&input, &expected));
  // Untrusted header: bound the up-front allocation.
  target->reserve(std::min<uint64_t>(expected, 1u << 20));
  while (!input.empty()) {
    uint64_t token;
    RSTORE_RETURN_IF_ERROR(GetVarint64(&input, &token));
    uint64_t len = token >> 1;
    // Checked before appending, so a short delta cannot expand far past
    // the declared size before the final size check.
    if (len > expected - target->size()) {
      return Status::Corruption("delta: op overruns target size");
    }
    if ((token & 1) == 0) {
      if (input.size() < len) {
        return Status::Corruption("delta: truncated ADD data");
      }
      target->append(input.data(), len);
      input.RemovePrefix(len);
    } else {
      uint64_t offset;
      RSTORE_RETURN_IF_ERROR(GetVarint64(&input, &offset));
      if (offset > base.size() || len > base.size() - offset) {
        return Status::Corruption("delta: COPY out of base range");
      }
      target->append(base.data() + offset, len);
    }
  }
  if (target->size() != expected) {
    return Status::Corruption("delta: size mismatch after apply");
  }
  return Status::OK();
}

}  // namespace delta_codec
}  // namespace rstore
