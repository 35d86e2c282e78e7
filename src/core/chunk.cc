#include "core/chunk.h"

#include <algorithm>

#include "common/coding.h"
#include "common/logging.h"

namespace rstore {

std::string ChunkKey(ChunkId id) {
  std::string key = "c";
  PutVarint64(&key, id);
  return key;
}

std::string ChunkMapKey(ChunkId id) {
  std::string key = "m";
  PutVarint64(&key, id);
  return key;
}

uint32_t Chunk::AddSubChunk(SubChunk sub_chunk) {
  uint32_t first_index = record_count();
  uint32_t sub_index = static_cast<uint32_t>(sub_chunks_.size());
  payload_bytes_ += sub_chunk.serialized_size();
  for (const CompositeKey& ck : sub_chunk.keys()) {
    records_.push_back(ck);
    sub_chunk_of_record_.push_back(sub_index);
  }
  sub_chunks_.push_back(std::move(sub_chunk));
  return first_index;
}

uint64_t Chunk::ApproximateMemoryBytes() const {
  uint64_t bytes = sizeof(Chunk);
  for (const SubChunk& sc : sub_chunks_) bytes += sc.ApproximateMemoryBytes();
  for (const CompositeKey& ck : records_) {
    bytes += sizeof(CompositeKey) + ck.key.size();
  }
  bytes += sub_chunk_of_record_.size() * sizeof(uint32_t);
  bytes += map_.ApproximateMemoryBytes();
  return bytes;
}

Result<std::string> Chunk::ExtractPayload(
    const CompositeKey& ck, const SubChunk::PayloadResolver& resolver) const {
  for (uint32_t i = 0; i < records_.size(); ++i) {
    if (records_[i] == ck) {
      auto extracted = ExtractRecords({i}, resolver);
      if (!extracted.ok()) return extracted.status();
      return std::move(extracted.value()[0].second);
    }
  }
  return Status::NotFound("record " + ck.ToString() + " not in chunk");
}

Result<std::vector<std::pair<CompositeKey, std::string>>>
Chunk::ExtractRecords(const std::vector<uint32_t>& record_indices,
                      const SubChunk::PayloadResolver& resolver) const {
  for (uint32_t idx : record_indices) {
    if (idx >= records_.size()) {
      return Status::InvalidArgument("record index out of range");
    }
  }
  std::vector<std::pair<CompositeKey, std::string>> out;
  out.reserve(record_indices.size());
  std::vector<uint32_t> members;
  std::vector<std::string> payloads;
  // One ExtractMembers call per run of indices in the same sub-chunk. A
  // version's indices ascend, so each sub-chunk it touches is one run.
  for (size_t i = 0; i < record_indices.size();) {
    const uint32_t sub = sub_chunk_of_record_[record_indices[i]];
    // First record index of this sub-chunk in the flattened list.
    uint32_t base = record_indices[i];
    while (base > 0 && sub_chunk_of_record_[base - 1] == sub) --base;
    members.clear();
    size_t j = i;
    for (; j < record_indices.size() &&
           sub_chunk_of_record_[record_indices[j]] == sub;
         ++j) {
      members.push_back(record_indices[j] - base);
    }
    payloads.clear();
    RSTORE_RETURN_IF_ERROR(
        sub_chunks_[sub].ExtractMembers(members, resolver, &payloads));
    for (size_t k = i; k < j; ++k) {
      out.emplace_back(records_[record_indices[k]],
                       std::move(payloads[k - i]));
    }
    i = j;
  }
  return out;
}

uint64_t Chunk::uncompressed_bytes() const {
  uint64_t total = 0;
  for (const SubChunk& sc : sub_chunks_) total += sc.uncompressed_bytes();
  return total;
}

void Chunk::EncodeTo(std::string* out) const {
  PutVarint64(out, id_);
  PutVarint64(out, sub_chunks_.size());
  for (const SubChunk& sc : sub_chunks_) sc.EncodeTo(out);
}

Status Chunk::DecodeFrom(Slice* input, Chunk* out) {
  *out = Chunk();
  RSTORE_RETURN_IF_ERROR(GetVarint64(input, &out->id_));
  uint64_t count;
  RSTORE_RETURN_IF_ERROR(GetVarint64(input, &count));
  // Untrusted count: an encoded sub-chunk takes at least seven bytes (member
  // count, key length, version, parent, codec, raw size, blob length), so
  // reserve no more slots than the input could hold.
  constexpr size_t kMinSubChunkBytes = 7;
  out->sub_chunks_.reserve(
      std::min<uint64_t>(count, input->size() / kMinSubChunkBytes));
  size_t records = 0;
  for (uint64_t i = 0; i < count; ++i) {
    SubChunk& sc = out->sub_chunks_.emplace_back();
    RSTORE_RETURN_IF_ERROR(SubChunk::DecodeFrom(input, &sc));
    records += sc.num_records();
    out->payload_bytes_ += sc.serialized_size();
  }
  out->records_.reserve(records);
  out->sub_chunk_of_record_.reserve(records);
  for (uint32_t s = 0; s < out->sub_chunks_.size(); ++s) {
    for (const CompositeKey& ck : out->sub_chunks_[s].keys()) {
      out->records_.push_back(ck);
      out->sub_chunk_of_record_.push_back(s);
    }
  }
  RSTORE_DCHECK(out->Validate().ok()) << "decoded chunk fails validation";
  return Status::OK();
}

Status Chunk::Validate() const {
  if (records_.size() != sub_chunk_of_record_.size()) {
    return Status::Corruption("record list / sub-chunk mapping size mismatch");
  }
  // The flattened record list must be exactly the sub-chunks' keys in order.
  size_t flat = 0;
  uint64_t expected_payload_bytes = 0;
  for (size_t s = 0; s < sub_chunks_.size(); ++s) {
    expected_payload_bytes += sub_chunks_[s].serialized_size();
    for (const CompositeKey& ck : sub_chunks_[s].keys()) {
      if (flat >= records_.size()) {
        return Status::Corruption("record list shorter than sub-chunk keys");
      }
      if (!(records_[flat] == ck)) {
        return Status::Corruption("record list diverges from sub-chunk keys");
      }
      if (sub_chunk_of_record_[flat] != s) {
        return Status::Corruption("record maps to wrong sub-chunk");
      }
      ++flat;
    }
  }
  if (flat != records_.size()) {
    return Status::Corruption("record list longer than sub-chunk keys");
  }
  if (payload_bytes_ != expected_payload_bytes) {
    return Status::Corruption("payload byte accounting drifted");
  }
  if (map_.record_count() != 0 && map_.record_count() != record_count()) {
    return Status::Corruption("chunk map record count mismatch");
  }
  for (VersionId v : map_.Versions()) {
    for (uint32_t idx : map_.RecordsOf(v)) {
      if (idx >= records_.size()) {
        return Status::Corruption("chunk map references record out of range");
      }
    }
  }
  return Status::OK();
}

Status Chunk::SetChunkMap(ChunkMap map) {
  if (map.record_count() != record_count()) {
    return Status::Corruption("chunk map does not cover chunk records");
  }
  map_ = std::move(map);
  return Status::OK();
}

}  // namespace rstore
