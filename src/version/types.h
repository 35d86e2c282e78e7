#ifndef RSTORE_VERSION_TYPES_H_
#define RSTORE_VERSION_TYPES_H_

#include <cstdint>
#include <functional>
#include <string>
#include <tuple>

#include "common/coding.h"
#include "common/hash.h"
#include "common/slice.h"

namespace rstore {

/// Dense version identifier, assigned in commit order: a version's parents
/// always have smaller ids. kInvalidVersion marks "no version".
using VersionId = uint32_t;
inline constexpr VersionId kInvalidVersion = UINT32_MAX;

/// The global record address: 〈primary key, version-id〉 (paper §2.1,
/// "Composite Keys"). The version component is the version in which this
/// record *originated* — an unchanged record keeps its composite key across
/// all descendant versions, which is what lets RStore store it once.
struct CompositeKey {
  std::string key;
  VersionId version = kInvalidVersion;

  CompositeKey() = default;
  CompositeKey(std::string k, VersionId v) : key(std::move(k)), version(v) {}

  bool operator==(const CompositeKey& other) const {
    return version == other.version && key == other.key;
  }
  bool operator!=(const CompositeKey& other) const {
    return !(*this == other);
  }
  bool operator<(const CompositeKey& other) const {
    return std::tie(key, version) < std::tie(other.key, other.version);
  }

  /// "K3@V1" display form.
  std::string ToString() const {
    return key + "@V" + std::to_string(version);
  }

  /// Binary form usable as a KVS key.
  void EncodeTo(std::string* out) const {
    PutLengthPrefixed(out, Slice(key));
    PutVarint32(out, version);
  }
  /// Bytes EncodeTo appends.
  size_t EncodedSize() const {
    return VarintLength(key.size()) + key.size() + VarintLength(version);
  }
  static Status DecodeFrom(Slice* input, CompositeKey* out) {
    Slice k;
    RSTORE_RETURN_IF_ERROR(GetLengthPrefixed(input, &k));
    uint32_t v;
    RSTORE_RETURN_IF_ERROR(GetVarint32(input, &v));
    out->key.assign(k.data(), k.size());
    out->version = v;
    return Status::OK();
  }

  uint64_t Hash() const {
    return Mix64(Fnv1a64(Slice(key)) ^ (static_cast<uint64_t>(version) << 1));
  }
};

struct CompositeKeyHash {
  size_t operator()(const CompositeKey& ck) const {
    return static_cast<size_t>(ck.Hash());
  }
};

}  // namespace rstore

#endif  // RSTORE_VERSION_TYPES_H_
