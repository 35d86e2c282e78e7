#include "core/chunk_map.h"

#include <bit>

#include "common/coding.h"
#include "common/logging.h"

namespace rstore {

void ChunkMap::Add(VersionId version, uint32_t record_index) {
  RSTORE_DCHECK(record_index < record_count_);
  const size_t wpr = words_per_row();
  auto it = std::lower_bound(versions_.begin(), versions_.end(), version);
  const auto row = static_cast<size_t>(it - versions_.begin());
  if (it == versions_.end() || *it != version) {
    versions_.insert(it, version);
    words_.insert(words_.begin() + static_cast<ptrdiff_t>(row * wpr), wpr, 0);
  }
  words_[row * wpr + (record_index >> 6)] |= 1ull << (record_index & 63);
}

std::vector<uint32_t> ChunkMap::RecordsOf(VersionId version) const {
  auto it = std::lower_bound(versions_.begin(), versions_.end(), version);
  if (it == versions_.end() || *it != version) return {};
  const size_t wpr = words_per_row();
  const uint64_t* row =
      words_.data() + static_cast<size_t>(it - versions_.begin()) * wpr;
  size_t count = 0;
  for (size_t w = 0; w < wpr; ++w) {
    count += static_cast<size_t>(std::popcount(row[w]));
  }
  std::vector<uint32_t> out;
  out.reserve(count);
  for (size_t w = 0; w < wpr; ++w) {
    for (uint64_t bits = row[w]; bits != 0; bits &= bits - 1) {
      out.push_back(static_cast<uint32_t>(
          w * 64 + static_cast<size_t>(std::countr_zero(bits))));
    }
  }
  return out;
}

void ChunkMap::EncodeTo(std::string* out) const {
  PutVarint32(out, record_count_);
  PutVarint64(out, versions_.size());
  const size_t wpr = words_per_row();
  for (size_t r = 0; r < versions_.size(); ++r) {
    PutVarint32(out, versions_[r]);
    Bitmap::SerializeWords(words_.data() + r * wpr, record_count_, out);
  }
}

Status ChunkMap::DecodeFrom(Slice* input, ChunkMap* out) {
  RSTORE_RETURN_IF_ERROR(GetVarint32(input, &out->record_count_));
  uint64_t count;
  RSTORE_RETURN_IF_ERROR(GetVarint64(input, &count));
  out->versions_.clear();
  out->words_.clear();
  // The count is untrusted: a row costs at least three encoded bytes, so
  // reserve no more rows than the input could hold, and no more words than
  // it has bytes; a map with longer rows grows geometrically from there.
  const size_t wpr = out->words_per_row();
  const size_t rows = std::min<uint64_t>(count, input->size() / 3);
  out->versions_.reserve(rows);
  out->words_.reserve(std::min(rows * wpr, input->size()));
  for (uint64_t i = 0; i < count; ++i) {
    VersionId version;
    RSTORE_RETURN_IF_ERROR(GetVarint32(input, &version));
    if (!out->versions_.empty() && version <= out->versions_.back()) {
      return Status::Corruption("chunk map versions out of order");
    }
    uint64_t size;
    RSTORE_RETURN_IF_ERROR(GetVarint64(input, &size));
    if (size > Bitmap::kMaxBits) {
      return Status::Corruption("bitmap size implausibly large");
    }
    if (size != out->record_count_) {
      return Status::Corruption("chunk map bitmap size mismatch");
    }
    out->versions_.push_back(version);
    out->words_.resize(out->words_.size() + wpr);
    RSTORE_RETURN_IF_ERROR(Bitmap::DeserializeWords(
        input, size, out->words_.data() + out->words_.size() - wpr));
  }
  return Status::OK();
}

}  // namespace rstore
