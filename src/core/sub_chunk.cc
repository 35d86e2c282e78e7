#include "core/sub_chunk.h"

#include <algorithm>

#include "common/coding.h"
#include "compress/delta_codec.h"

namespace rstore {

Result<SubChunk> SubChunk::Build(std::vector<Member> members,
                                 CompressionType compression) {
  if (members.empty()) {
    return Status::InvalidArgument("sub-chunk needs at least one member");
  }
  if (members[0].parent_index != 0 && !members[0].external_parent) {
    return Status::InvalidArgument("head member must be its own parent");
  }
  SubChunk sc;
  sc.compression_ = compression;
  sc.keys_.reserve(members.size());
  sc.parent_index_.reserve(members.size());
  sc.external_parents_.resize(members.size());

  std::string raw;
  std::string delta;
  for (uint32_t i = 0; i < members.size(); ++i) {
    const Member& m = members[i];
    if (i > 0 && m.key.key != members[0].key.key) {
      return Status::InvalidArgument(
          "sub-chunk members must share a primary key");
    }
    sc.keys_.push_back(m.key);
    sc.uncompressed_bytes_ += m.payload.size();
    if (m.external_parent) {
      sc.parent_index_.push_back(kExternalParent);
      sc.external_parents_[i] = *m.external_parent;
      delta_codec::Encode(Slice(m.external_parent_payload), Slice(m.payload),
                          &delta);
      PutLengthPrefixed(&raw, Slice(delta));
      continue;
    }
    if (i > 0 && m.parent_index >= i) {
      return Status::InvalidArgument(
          "member " + std::to_string(i) + " references non-earlier parent");
    }
    sc.parent_index_.push_back(m.parent_index);
    if (i == 0) {
      PutLengthPrefixed(&raw, Slice(m.payload));
    } else {
      delta_codec::Encode(Slice(members[m.parent_index].payload),
                          Slice(m.payload), &delta);
      PutLengthPrefixed(&raw, Slice(delta));
    }
  }
  GetCompressor(compression)->Compress(Slice(raw), &sc.blob_);
  return sc;
}

bool SubChunk::HasExternalParents() const {
  for (uint32_t parent : parent_index_) {
    if (parent == kExternalParent) return true;
  }
  return false;
}

bool SubChunk::Contains(const CompositeKey& ck) const {
  return std::find(keys_.begin(), keys_.end(), ck) != keys_.end();
}

uint64_t SubChunk::serialized_size() const {
  // Field for field what EncodeTo writes.
  uint64_t size = VarintLength(keys_.size());
  for (size_t i = 0; i < keys_.size(); ++i) {
    size += keys_[i].EncodedSize() + VarintLength(parent_index_[i]);
    if (parent_index_[i] == kExternalParent) {
      size += external_parents_[i].EncodedSize();
    }
  }
  return size + 1 + VarintLength(uncompressed_bytes_) +
         VarintLength(blob_.size()) + blob_.size();
}

Result<std::vector<std::string>> SubChunk::ExtractAllPayloads(
    const PayloadResolver& resolver) const {
  std::string raw;
  RSTORE_RETURN_IF_ERROR(
      GetCompressor(compression_)->Decompress(Slice(blob_), &raw));
  Slice input(raw);
  std::vector<std::string> payloads(keys_.size());
  for (size_t i = 0; i < keys_.size(); ++i) {
    Slice piece;
    RSTORE_RETURN_IF_ERROR(GetLengthPrefixed(&input, &piece));
    if (parent_index_[i] == kExternalParent) {
      if (!resolver) {
        return Status::InvalidArgument(
            "sub-chunk member " + keys_[i].ToString() +
            " needs an external base record but no resolver was given");
      }
      auto base = resolver(external_parents_[i]);
      if (!base.ok()) return base.status();
      RSTORE_RETURN_IF_ERROR(
          delta_codec::Apply(Slice(*base), piece, &payloads[i]));
    } else if (i == 0) {
      payloads[0] = piece.ToString();
    } else {
      RSTORE_RETURN_IF_ERROR(delta_codec::Apply(
          Slice(payloads[parent_index_[i]]), piece, &payloads[i]));
    }
  }
  return payloads;
}

Result<std::string> SubChunk::ExtractPayload(
    const CompositeKey& ck, const PayloadResolver& resolver) const {
  auto it = std::find(keys_.begin(), keys_.end(), ck);
  if (it == keys_.end()) {
    return Status::NotFound("record " + ck.ToString() + " not in sub-chunk");
  }
  // Reconstruct only the chain head..target (parents always precede).
  auto payloads = ExtractAllPayloads(resolver);
  if (!payloads.ok()) return payloads.status();
  return std::move(
      payloads.value()[static_cast<size_t>(it - keys_.begin())]);
}

void SubChunk::EncodeTo(std::string* out) const {
  PutVarint64(out, keys_.size());
  for (size_t i = 0; i < keys_.size(); ++i) {
    keys_[i].EncodeTo(out);
    PutVarint32(out, parent_index_[i]);
    if (parent_index_[i] == kExternalParent) {
      external_parents_[i].EncodeTo(out);
    }
  }
  out->push_back(static_cast<char>(compression_));
  PutVarint64(out, uncompressed_bytes_);
  PutLengthPrefixed(out, Slice(blob_));
}

Status SubChunk::DecodeFrom(Slice* input, SubChunk* out) {
  uint64_t count;
  RSTORE_RETURN_IF_ERROR(GetVarint64(input, &count));
  if (count == 0) return Status::Corruption("empty sub-chunk");
  if (count > input->size()) {
    // Untrusted count: each member costs >= 2 encoded bytes, so never
    // allocate more slots than the input could possibly hold.
    return Status::Corruption("sub-chunk member count exceeds input");
  }
  out->keys_.clear();
  out->parent_index_.clear();
  out->external_parents_.clear();
  out->keys_.reserve(count);
  out->parent_index_.reserve(count);
  out->external_parents_.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    CompositeKey key;
    uint32_t parent;
    RSTORE_RETURN_IF_ERROR(CompositeKey::DecodeFrom(input, &key));
    RSTORE_RETURN_IF_ERROR(GetVarint32(input, &parent));
    CompositeKey external;
    if (parent == kExternalParent) {
      RSTORE_RETURN_IF_ERROR(CompositeKey::DecodeFrom(input, &external));
    } else if (i == 0 && parent != 0) {
      return Status::Corruption("sub-chunk head parent must be 0");
    } else if (i > 0 && parent >= i) {
      return Status::Corruption("sub-chunk parent index out of order");
    }
    out->keys_.push_back(std::move(key));
    out->parent_index_.push_back(parent);
    out->external_parents_.push_back(std::move(external));
  }
  if (input->empty()) return Status::Corruption("truncated sub-chunk");
  // Any other byte would otherwise reach GetCompressor and be decoded with
  // the wrong codec.
  const auto compression = static_cast<CompressionType>((*input)[0]);
  if (compression != CompressionType::kNone &&
      compression != CompressionType::kLZ) {
    return Status::Corruption("sub-chunk: unknown compression type");
  }
  out->compression_ = compression;
  input->RemovePrefix(1);
  RSTORE_RETURN_IF_ERROR(GetVarint64(input, &out->uncompressed_bytes_));
  Slice blob;
  RSTORE_RETURN_IF_ERROR(GetLengthPrefixed(input, &blob));
  out->blob_ = blob.ToString();
  return Status::OK();
}

}  // namespace rstore
