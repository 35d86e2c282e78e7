#ifndef RSTORE_CORE_CHUNK_H_
#define RSTORE_CORE_CHUNK_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/chunk_map.h"
#include "core/sub_chunk.h"

namespace rstore {

/// Chunk identifier: generated internally, "not intended to be semantically
/// meaningful" (paper §2.4).
using ChunkId = uint64_t;

/// KVS key under which a chunk is stored.
std::string ChunkKey(ChunkId id);

/// KVS key under which a chunk's map is stored, in the index table (chunks
/// and their maps live "in two distinct tables", paper §2.4).
std::string ChunkMapKey(ChunkId id);

/// The unit of storage in the backend KV store (paper §2.4): a set of
/// sub-chunks plus the chunk map recording which of the contained records
/// belong to which versions.
///
/// The chunk's *record list* is the flattened sequence of all sub-chunk
/// member keys, in sub-chunk order; the chunk map's bitmaps index into it.
class Chunk {
 public:
  Chunk() = default;
  explicit Chunk(ChunkId id) : id_(id) {}

  ChunkId id() const { return id_; }

  /// Appends a sub-chunk; returns the index of its first record in the
  /// flattened record list.
  uint32_t AddSubChunk(SubChunk sub_chunk);

  /// Call after all sub-chunks are added, then populate via chunk_map().
  void InitChunkMap() { map_ = ChunkMap(record_count()); }
  ChunkMap* chunk_map() { return &map_; }
  const ChunkMap& chunk_map() const { return map_; }

  const std::vector<SubChunk>& sub_chunks() const { return sub_chunks_; }
  uint32_t record_count() const {
    return static_cast<uint32_t>(records_.size());
  }
  /// Flattened record list; chunk-map bitmap indices refer to it.
  const std::vector<CompositeKey>& records() const { return records_; }

  /// Payload of one record (searches the record list, then rebuilds the
  /// record's delta chain). kNotFound if absent. A resolver is needed when
  /// the record is delta-encoded against a base outside this chunk.
  Result<std::string> ExtractPayload(
      const CompositeKey& ck,
      const SubChunk::PayloadResolver& resolver = nullptr) const;

  /// Payloads of the records at `record_indices` (as returned by the chunk
  /// map), in request order, repeats allowed. Each run of indices in one
  /// sub-chunk inflates it once and applies only the deltas the run needs,
  /// so ascending indices (a version's) inflate each sub-chunk once.
  Result<std::vector<std::pair<CompositeKey, std::string>>> ExtractRecords(
      const std::vector<uint32_t>& record_indices,
      const SubChunk::PayloadResolver& resolver = nullptr) const;

  /// Total bytes of the sub-chunks' serialized forms — the value the packing
  /// algorithms compare against chunk capacity. Excludes the chunk map.
  uint64_t payload_bytes() const { return payload_bytes_; }
  /// Approximate heap footprint of this decoded chunk (sub-chunk blobs,
  /// member keys, record index, chunk map) — what a ChunkCache entry is
  /// charged against its byte budget.
  uint64_t ApproximateMemoryBytes() const;
  /// Sum of original record sizes, for compression-ratio reporting.
  uint64_t uncompressed_bytes() const;

  /// Encodes the chunk body (id + sub-chunks). The chunk map is encoded
  /// separately (ChunkMap::EncodeTo) and stored under its own KVS key in the
  /// index table, so the online partitioner can rewrite maps without
  /// fetching chunk payloads (paper §4).
  void EncodeTo(std::string* out) const;
  static Status DecodeFrom(Slice* input, Chunk* out);
  /// Installs a chunk map fetched from the index table.
  Status SetChunkMap(ChunkMap map);

  /// Internal-consistency check over the chunk index: the flattened record
  /// list must mirror the sub-chunks' member keys in order, the
  /// record->sub-chunk mapping must be in range and non-decreasing,
  /// payload_bytes() must equal the sum of sub-chunk serialized sizes, and a
  /// populated chunk map must only reference records this chunk holds.
  /// Returns kCorruption with a description of the first violation.
  Status Validate() const;

 private:
  ChunkId id_ = 0;
  std::vector<SubChunk> sub_chunks_;
  std::vector<CompositeKey> records_;        // flattened member keys
  std::vector<uint32_t> sub_chunk_of_record_;  // record idx -> sub-chunk idx
  uint64_t payload_bytes_ = 0;
  ChunkMap map_;
};

}  // namespace rstore

#endif  // RSTORE_CORE_CHUNK_H_
