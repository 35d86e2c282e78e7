#ifndef RSTORE_CORE_SUB_CHUNK_H_
#define RSTORE_CORE_SUB_CHUNK_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "compress/compressor.h"
#include "version/types.h"

namespace rstore {

/// A sub-chunk: up to k records sharing a primary key, stored compressed
/// together (paper §2.4, §3.4). Most sub-chunks hold a single record.
///
/// Members must be "connected" in the version tree; each non-head member is
/// delta-encoded against its parent record ("all the sibling records would
/// be delta-ed against their common parent", §3.4) and the whole blob is
/// then run through the configured block codec. The head member doubles as
/// the sub-chunk's representative composite key.
///
/// Wire format (inside a chunk):
///   varint member_count
///   per member: composite key, varint parent_index (self-index for head)
///   varint blob_size, blob = codec(concat of length-prefixed payload/delta)
class SubChunk {
 public:
  /// Resolves the payload of a record stored elsewhere; needed to extract
  /// members that are delta-encoded against an *external* base record (the
  /// record-level compression of the DELTA baseline, where a version's
  /// updated record deltas against its predecessor in an earlier chunk).
  using PayloadResolver =
      std::function<Result<std::string>(const CompositeKey&)>;

  /// One record going into a sub-chunk.
  struct Member {
    CompositeKey key;
    /// Index (into the member vector) of the record this one is delta-ed
    /// against; must equal the member's own index for the head (index 0),
    /// and reference an earlier member otherwise. Ignored when
    /// external_parent is set.
    uint32_t parent_index = 0;
    std::string payload;
    /// If set, the member is delta-encoded against this record, which lives
    /// OUTSIDE the sub-chunk; extraction then requires a PayloadResolver.
    std::optional<CompositeKey> external_parent;
    /// Build-time only: the external parent's payload (used to compute the
    /// delta; never stored).
    std::string external_parent_payload;
  };

  SubChunk() = default;

  /// Encodes `members` (head first) into a sub-chunk. Payload bytes are
  /// consumed. Fails on malformed parent references.
  static Result<SubChunk> Build(std::vector<Member> members,
                                CompressionType compression);

  /// Representative composite key (the head member's).
  const CompositeKey& id() const { return keys_[0]; }
  size_t num_records() const { return keys_.size(); }
  const std::vector<CompositeKey>& keys() const { return keys_; }
  bool Contains(const CompositeKey& ck) const;

  /// Bytes this sub-chunk occupies inside a chunk: the packing algorithms
  /// budget chunk capacity against this.
  uint64_t serialized_size() const;

  /// Approximate heap footprint of the decoded in-memory form (for cache
  /// charging).
  uint64_t ApproximateMemoryBytes() const {
    uint64_t bytes = sizeof(SubChunk) + blob_.size() +
                     parent_index_.size() * sizeof(uint32_t);
    for (const CompositeKey& ck : keys_) {
      bytes += sizeof(CompositeKey) + ck.key.size();
    }
    for (const CompositeKey& ck : external_parents_) {
      bytes += sizeof(CompositeKey) + ck.key.size();
    }
    return bytes;
  }

  /// True if any member deltas against a record outside this sub-chunk
  /// (extraction then requires a resolver).
  bool HasExternalParents() const;

  /// Appends to `*out` the payloads of the members at `wanted` (indices into
  /// keys(), in any order, repeats allowed), one per entry and in the same
  /// order. The blob is inflated once into per-thread scratch, and only the
  /// deltas on the wanted members' parent chains are applied. On failure
  /// `*out` is left as it was.
  Status ExtractMembers(std::span<const uint32_t> wanted,
                        const PayloadResolver& resolver,
                        std::vector<std::string>* out) const;
  /// Reconstructs the payload of one member.
  Result<std::string> ExtractPayload(
      const CompositeKey& ck, const PayloadResolver& resolver = nullptr) const;
  /// Reconstructs every member payload, in member order.
  Result<std::vector<std::string>> ExtractAllPayloads(
      const PayloadResolver& resolver = nullptr) const;

  /// Sum of the original (uncompressed) payload sizes, for compression-ratio
  /// reporting (paper Fig. 10).
  uint64_t uncompressed_bytes() const { return uncompressed_bytes_; }

  void EncodeTo(std::string* out) const;
  static Status DecodeFrom(Slice* input, SubChunk* out);

 private:
  /// parent_index_ sentinel marking an externally-based member.
  static constexpr uint32_t kExternalParent = UINT32_MAX;

  std::vector<CompositeKey> keys_;
  std::vector<uint32_t> parent_index_;
  /// Parallel to keys_; only meaningful where parent_index_ is
  /// kExternalParent.
  std::vector<CompositeKey> external_parents_;
  std::string blob_;  // compressed concatenation of payload/deltas
  CompressionType compression_ = CompressionType::kNone;
  uint64_t uncompressed_bytes_ = 0;
};

}  // namespace rstore

#endif  // RSTORE_CORE_SUB_CHUNK_H_
