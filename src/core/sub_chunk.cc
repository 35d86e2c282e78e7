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

namespace {

/// Per-thread buffers of ExtractMembers, reused across calls so a warm
/// extraction allocates only the returned payloads.
struct ExtractScratch {
  std::string raw;              // the inflated blob
  std::vector<Slice> pieces;    // member i's stored payload or delta
  std::vector<Slice> payloads;  // member i's rebuilt payload
  std::vector<uint32_t> slot;   // member i's first position in `wanted`
  std::vector<uint8_t> needed;  // member i is wanted or an ancestor of one
  std::vector<std::string> ancestors;  // rebuilt needed-but-unwanted members
  bool busy = false;
};

constexpr uint32_t kNotWanted = UINT32_MAX;
// A buffer grown past this by one large sub-chunk is freed after the call,
// so it is not pinned for the life of the thread.
constexpr size_t kMaxRetainedBytes = size_t{1} << 18;

/// The thread's scratch, or a fresh one if a resolver re-enters
/// ExtractMembers on the same thread while the thread's is in use.
class ScratchLease {
 public:
  ScratchLease() : scratch_(tls_.busy ? &local_ : &tls_) {
    scratch_->busy = true;
  }
  ~ScratchLease() {
    scratch_->busy = false;
    if (scratch_->raw.capacity() > kMaxRetainedBytes) {
      std::string().swap(scratch_->raw);
    }
    for (std::string& s : scratch_->ancestors) {
      if (s.capacity() > kMaxRetainedBytes) std::string().swap(s);
    }
  }
  ScratchLease(const ScratchLease&) = delete;
  ScratchLease& operator=(const ScratchLease&) = delete;
  ExtractScratch& operator*() { return *scratch_; }

 private:
  static thread_local ExtractScratch tls_;
  ExtractScratch local_;
  ExtractScratch* scratch_;
};

thread_local ExtractScratch ScratchLease::tls_;

}  // namespace

Status SubChunk::ExtractMembers(std::span<const uint32_t> wanted,
                                const PayloadResolver& resolver,
                                std::vector<std::string>* out) const {
  const auto n = static_cast<uint32_t>(keys_.size());
  for (uint32_t m : wanted) {
    if (m >= n) {
      return Status::InvalidArgument("sub-chunk member index out of range");
    }
  }
  ScratchLease lease;
  ExtractScratch& s = *lease;
  RSTORE_RETURN_IF_ERROR(
      GetCompressor(compression_)->Decompress(Slice(blob_), &s.raw));
  s.pieces.resize(n);
  Slice input(s.raw);
  for (uint32_t i = 0; i < n; ++i) {
    RSTORE_RETURN_IF_ERROR(GetLengthPrefixed(&input, &s.pieces[i]));
  }

  // Mark the wanted members and their ancestors inside this sub-chunk.
  s.slot.assign(n, kNotWanted);
  s.needed.assign(n, 0);
  for (size_t k = 0; k < wanted.size(); ++k) {
    uint32_t i = wanted[k];
    if (s.slot[i] == kNotWanted) s.slot[i] = static_cast<uint32_t>(k);
    while (!s.needed[i]) {
      s.needed[i] = 1;
      if (i == 0 || parent_index_[i] == kExternalParent) break;
      i = parent_index_[i];
    }
  }

  // Rebuild the marked members; parents precede children. A wanted member
  // is built straight into its output string, the others into scratch. `out`
  // is not resized again below, so slices of its strings stay valid.
  const size_t first = out->size();
  out->resize(first + wanted.size());
  s.payloads.resize(n);
  if (s.ancestors.size() < n) s.ancestors.resize(n);
  Status status;
  for (uint32_t i = 0; i < n && status.ok(); ++i) {
    if (!s.needed[i]) continue;
    std::string* dst = s.slot[i] != kNotWanted ? &(*out)[first + s.slot[i]]
                                               : &s.ancestors[i];
    if (parent_index_[i] == kExternalParent) {
      if (!resolver) {
        status = Status::InvalidArgument(
            "sub-chunk member " + keys_[i].ToString() +
            " needs an external base record but no resolver was given");
        break;
      }
      auto base = resolver(external_parents_[i]);
      status = base.ok() ? delta_codec::Apply(Slice(*base), s.pieces[i], dst)
                         : base.status();
      s.payloads[i] = Slice(*dst);
    } else if (i == 0) {
      // The head is stored whole: a slice of the inflated blob.
      s.payloads[0] = s.pieces[0];
      if (s.slot[0] != kNotWanted) {
        dst->assign(s.pieces[0].data(), s.pieces[0].size());
      }
    } else {
      status = delta_codec::Apply(s.payloads[parent_index_[i]], s.pieces[i],
                                  dst);
      s.payloads[i] = Slice(*dst);
    }
  }
  if (!status.ok()) {
    out->resize(first);
    return status;
  }
  // Repeated entries copy the payload built for the first.
  for (size_t k = 0; k < wanted.size(); ++k) {
    const uint32_t i = wanted[k];
    if (s.slot[i] != k) {
      (*out)[first + k].assign(s.payloads[i].data(), s.payloads[i].size());
    }
  }
  return Status::OK();
}

Result<std::vector<std::string>> SubChunk::ExtractAllPayloads(
    const PayloadResolver& resolver) const {
  std::vector<uint32_t> all(keys_.size());
  for (uint32_t i = 0; i < all.size(); ++i) all[i] = i;
  std::vector<std::string> payloads;
  payloads.reserve(all.size());
  RSTORE_RETURN_IF_ERROR(ExtractMembers(all, resolver, &payloads));
  return payloads;
}

Result<std::string> SubChunk::ExtractPayload(
    const CompositeKey& ck, const PayloadResolver& resolver) const {
  auto it = std::find(keys_.begin(), keys_.end(), ck);
  if (it == keys_.end()) {
    return Status::NotFound("record " + ck.ToString() + " not in sub-chunk");
  }
  const auto member = static_cast<uint32_t>(it - keys_.begin());
  std::vector<std::string> payload;
  RSTORE_RETURN_IF_ERROR(
      ExtractMembers(std::span(&member, 1), resolver, &payload));
  return std::move(payload[0]);
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
    RSTORE_RETURN_IF_ERROR(
        CompositeKey::DecodeFrom(input, &out->keys_.emplace_back()));
    uint32_t parent;
    RSTORE_RETURN_IF_ERROR(GetVarint32(input, &parent));
    CompositeKey& external = out->external_parents_.emplace_back();
    if (parent == kExternalParent) {
      RSTORE_RETURN_IF_ERROR(CompositeKey::DecodeFrom(input, &external));
    } else if (i == 0 && parent != 0) {
      return Status::Corruption("sub-chunk head parent must be 0");
    } else if (i > 0 && parent >= i) {
      return Status::Corruption("sub-chunk parent index out of order");
    }
    out->parent_index_.push_back(parent);
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
