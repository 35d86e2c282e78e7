#ifndef RSTORE_COMPRESS_BITMAP_H_
#define RSTORE_COMPRESS_BITMAP_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/slice.h"
#include "common/status.h"

namespace rstore {

/// A bitmap over positions [0, size) with a compressed wire format.
///
/// Chunk maps store, per version, which of the chunk's records belong to it
/// (paper §3.1: "the adjacency list in each chunk map file is then converted
/// to a bitmap, compressed and stored in the KVS"). In-memory this is a plain
/// word array for O(1) Set/Test; Serialize emits a WAH-style run-length
/// encoding — a varint stream alternating [run of identical words][literal
/// word count + words] — which collapses the long all-zero / all-one spans
/// typical of version membership.
class Bitmap {
 public:
  Bitmap() : size_(0) {}
  explicit Bitmap(size_t size) : size_(size), words_((size + 63) / 64, 0) {}

  size_t size() const { return size_; }

  void Set(size_t i);
  void Clear(size_t i);
  bool Test(size_t i) const;

  /// Number of set bits.
  size_t Count() const;

  /// Indices of all set bits, ascending.
  std::vector<uint32_t> ToVector() const;

  /// In-place union/intersection; both bitmaps must have equal size.
  void UnionWith(const Bitmap& other);
  void IntersectWith(const Bitmap& other);

  void SerializeTo(std::string* out) const;
  static Status DeserializeFrom(Slice* input, Bitmap* out);

  /// Largest size a serialized bitmap may claim: far above any legitimate
  /// bitmap (chunk maps cover at most a chunk's records), far below memory
  /// exhaustion.
  static constexpr uint64_t kMaxBits = uint64_t{1} << 26;

  /// The wire codec over a bare word array, shared with ChunkMap, which
  /// keeps its rows in one flat array. SerializeWords writes what
  /// SerializeTo writes for a bitmap of `size` bits whose words are
  /// `words[0, ceil(size / 64))`. DeserializeWords parses the token stream
  /// that follows the size header into exactly that many words and clears
  /// the bits past `size`.
  static void SerializeWords(const uint64_t* words, size_t size,
                             std::string* out);
  static Status DeserializeWords(Slice* input, size_t size, uint64_t* words);

  bool operator==(const Bitmap& other) const {
    return size_ == other.size_ && words_ == other.words_;
  }

 private:
  size_t size_;
  std::vector<uint64_t> words_;
};

}  // namespace rstore

#endif  // RSTORE_COMPRESS_BITMAP_H_
