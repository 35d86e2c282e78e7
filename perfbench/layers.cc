#include "layers.h"

#include <chrono>
#include <vector>

#include "common/coding.h"
#include "compress/delta_codec.h"
#include "compress/lz_codec.h"
#include "core/chunk.h"

namespace perfbench {

using rstore::Slice;
using rstore::Status;

double SpanTotals::Wall(const std::string& name) const {
  auto it = wall_us.find(name);
  return it == wall_us.end() ? 0.0 : it->second;
}

uint64_t SpanTotals::Count(const std::string& name) const {
  auto it = count.find(name);
  return it == count.end() ? 0 : it->second;
}

SpanTotals SumSpans(const rstore::TraceContext& trace) {
  SpanTotals out;
  for (const rstore::TraceSpan& span : trace.spans()) {
    const double us = static_cast<double>(span.wall_duration_us());
    if (span.depth == 0) out.root_us += us;
    out.wall_us[span.name] += us;
    ++out.count[span.name];
  }
  return out;
}

double CodecReplay::lz_mb_per_s() const {
  return lz_seconds > 0 ? static_cast<double>(lz_output_bytes) / 1e6 /
                              lz_seconds
                        : 0.0;
}

double CodecReplay::delta_mb_per_s() const {
  return delta_seconds > 0 ? static_cast<double>(delta_output_bytes) / 1e6 /
                                 delta_seconds
                           : 0.0;
}

namespace {

/// Marks a member whose base record lives outside its sub-chunk.
constexpr uint32_t kExternalParent = UINT32_MAX;

/// One sub-chunk split along its wire format (SubChunk::EncodeTo).
struct WireSubChunk {
  std::vector<uint32_t> parents;
  rstore::CompressionType compression = rstore::CompressionType::kNone;
  std::string blob;
};

Status ParseSubChunk(const std::string& wire, WireSubChunk* out) {
  Slice in(wire);
  uint64_t count = 0;
  RSTORE_RETURN_IF_ERROR(rstore::GetVarint64(&in, &count));
  for (uint64_t i = 0; i < count; ++i) {
    rstore::CompositeKey key;
    uint32_t parent = 0;
    RSTORE_RETURN_IF_ERROR(rstore::CompositeKey::DecodeFrom(&in, &key));
    RSTORE_RETURN_IF_ERROR(rstore::GetVarint32(&in, &parent));
    if (parent == kExternalParent) {
      RSTORE_RETURN_IF_ERROR(rstore::CompositeKey::DecodeFrom(&in, &key));
    }
    out->parents.push_back(parent);
  }
  if (in.empty()) return Status::Corruption("truncated sub-chunk");
  out->compression = static_cast<rstore::CompressionType>(in[0]);
  in.RemovePrefix(1);
  uint64_t uncompressed = 0;
  RSTORE_RETURN_IF_ERROR(rstore::GetVarint64(&in, &uncompressed));
  Slice blob;
  RSTORE_RETURN_IF_ERROR(rstore::GetLengthPrefixed(&in, &blob));
  out->blob = blob.ToString();
  return Status::OK();
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

Status ReplayCodecs(const std::map<std::string, std::string>& bodies,
                    int repetitions, CodecReplay* out) {
  std::vector<WireSubChunk> subs;
  for (const auto& [key, body] : bodies) {
    rstore::Chunk chunk;
    Slice in(body);
    RSTORE_RETURN_IF_ERROR(rstore::Chunk::DecodeFrom(&in, &chunk));
    for (const rstore::SubChunk& sc : chunk.sub_chunks()) {
      std::string wire;
      sc.EncodeTo(&wire);
      WireSubChunk parsed;
      RSTORE_RETURN_IF_ERROR(ParseSubChunk(wire, &parsed));
      if (parsed.compression != rstore::CompressionType::kLZ) continue;
      subs.push_back(std::move(parsed));
    }
  }
  out->sub_chunks = subs.size();

  // Stage 1: LZ inflate every blob.
  std::vector<std::string> raw(subs.size());
  for (int rep = 0; rep < repetitions; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    for (size_t i = 0; i < subs.size(); ++i) {
      raw[i].clear();
      RSTORE_RETURN_IF_ERROR(rstore::lz::Decompress(subs[i].blob, &raw[i]));
    }
    out->lz_seconds += SecondsSince(start);
    for (const std::string& r : raw) out->lz_output_bytes += r.size();
  }

  // Stage 2: split each inflated blob into its length-prefixed pieces (a
  // head payload, then deltas), outside the clock.
  struct Chain {
    std::vector<uint32_t> parents;
    std::vector<Slice> pieces;
  };
  std::vector<Chain> chains(subs.size());
  for (size_t i = 0; i < subs.size(); ++i) {
    Slice in(raw[i]);
    chains[i].parents = subs[i].parents;
    for (size_t m = 0; m < subs[i].parents.size(); ++m) {
      Slice piece;
      RSTORE_RETURN_IF_ERROR(rstore::GetLengthPrefixed(&in, &piece));
      chains[i].pieces.push_back(piece);
    }
  }

  // Stage 3: delta-apply each member against its in-chunk parent.
  for (int rep = 0; rep < repetitions; ++rep) {
    uint64_t applied = 0;
    uint64_t bytes = 0;
    const auto start = std::chrono::steady_clock::now();
    for (const Chain& chain : chains) {
      std::vector<std::string> payloads(chain.pieces.size());
      std::vector<bool> known(chain.pieces.size(), false);
      for (size_t m = 0; m < chain.pieces.size(); ++m) {
        const uint32_t parent = chain.parents[m];
        if (m == 0 && parent == 0) {
          payloads[0] = chain.pieces[0].ToString();
          known[0] = true;
          continue;
        }
        if (parent == kExternalParent || !known[parent]) continue;
        RSTORE_RETURN_IF_ERROR(rstore::delta_codec::Apply(
            payloads[parent], chain.pieces[m], &payloads[m]));
        known[m] = true;
        ++applied;
        bytes += payloads[m].size();
      }
    }
    out->delta_seconds += SecondsSince(start);
    out->deltas_applied += applied;
    out->delta_output_bytes += bytes;
  }
  return Status::OK();
}

}  // namespace perfbench
