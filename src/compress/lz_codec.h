#ifndef RSTORE_COMPRESS_LZ_CODEC_H_
#define RSTORE_COMPRESS_LZ_CODEC_H_

#include <string>

#include "common/result.h"
#include "common/slice.h"
#include "common/status.h"

namespace rstore {

/// A self-contained LZ77-style byte compressor.
///
/// RStore stores sub-chunks "in a compressed fashion" (paper §2.4); the paper
/// uses an off-the-shelf tool, this repo implements the equivalent from
/// scratch so the whole substrate is buildable offline. The format is a
/// varint-framed token stream:
///
///   [varint uncompressed_size] then tokens until exhausted:
///     literal run: varint (len << 1 | 0), followed by len raw bytes
///     match:       varint (len << 1 | 1), varint distance  (len >= 4)
///
/// Match finding uses a 4-byte hash table with chained probing, greedy with
/// one-byte lazy evaluation — roughly LZ4-class ratios on JSON text, which is
/// what the compression-ratio experiments (paper Fig. 10) need.
namespace lz {

/// Compresses `input`, appending to `*output` (which is cleared first).
/// Never fails; incompressible data degrades to one literal run with ~1.01x
/// expansion plus the header. The match tables are per-thread and reused
/// across calls.
void Compress(Slice input, std::string* output);

/// Decompresses a buffer produced by Compress into `*output`, replacing its
/// contents (a reused output string keeps its capacity, so decoding into it
/// again allocates nothing). Returns kCorruption on any malformed framing
/// (bad varint, out-of-range match, overrun, size mismatch); `*output` is
/// then unspecified.
Status Decompress(Slice input, std::string* output);

/// Uncompressed size recorded in the frame header (cheap peek).
Result<uint64_t> PeekUncompressedSize(Slice input);

}  // namespace lz
}  // namespace rstore

#endif  // RSTORE_COMPRESS_LZ_CODEC_H_
