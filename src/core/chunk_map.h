#ifndef RSTORE_CORE_CHUNK_MAP_H_
#define RSTORE_CORE_CHUNK_MAP_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "compress/bitmap.h"
#include "version/types.h"

namespace rstore {

/// The per-chunk slice M_Ci of the 3-D key/version/chunk mapping (paper
/// §2.4, Fig. 3): for every version that has records in this chunk, which of
/// the chunk's records belong to it.
///
/// Records are addressed by their index in the chunk's flattened record list
/// (all sub-chunk members in order); per-version membership is a compressed
/// bitmap over those indices ("the adjacency list in each chunk map file is
/// then converted to a bitmap, compressed and stored in the KVS", §3.1).
class ChunkMap {
 public:
  ChunkMap() = default;
  explicit ChunkMap(uint32_t record_count) : record_count_(record_count) {}

  uint32_t record_count() const { return record_count_; }

  /// Marks record `record_index` as belonging to `version`.
  void Add(VersionId version, uint32_t record_index);

  /// Versions with at least one record in this chunk, ascending.
  const std::vector<VersionId>& Versions() const { return versions_; }

  bool HasVersion(VersionId version) const {
    return std::binary_search(versions_.begin(), versions_.end(), version);
  }

  /// Indices of this chunk's records that belong to `version` (empty if the
  /// version has none).
  std::vector<uint32_t> RecordsOf(VersionId version) const;

  /// Writes each version's row in Bitmap's wire format.
  void EncodeTo(std::string* out) const;
  static Status DecodeFrom(Slice* input, ChunkMap* out);

  /// Approximate heap footprint (for cache charging): one fixed-size bitmap
  /// plus per-version overhead for each version touching the chunk. The
  /// 64-byte overhead is the std::map node plus bitmap header of the
  /// map-of-bitmaps layout this replaced; it is kept so cache charges, and
  /// so cache hits and misses, do not depend on the in-memory layout.
  uint64_t ApproximateMemoryBytes() const {
    uint64_t per_bitmap = words_per_row() * 8 + 64;
    return sizeof(ChunkMap) + versions_.size() * per_bitmap;
  }

  bool operator==(const ChunkMap& other) const {
    return record_count_ == other.record_count_ &&
           versions_ == other.versions_ && words_ == other.words_;
  }

 private:
  size_t words_per_row() const { return (record_count_ + 63) / 64; }

  uint32_t record_count_ = 0;
  /// Ascending; row r of words_ is versions_[r]'s membership bitmap.
  std::vector<VersionId> versions_;
  /// versions_.size() rows of words_per_row() words, bit i of a row set iff
  /// record i belongs to that row's version.
  std::vector<uint64_t> words_;
};

}  // namespace rstore

#endif  // RSTORE_CORE_CHUNK_MAP_H_
