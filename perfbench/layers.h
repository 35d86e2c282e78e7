#ifndef RSTORE_PERFBENCH_LAYERS_H_
#define RSTORE_PERFBENCH_LAYERS_H_

#include <cstdint>
#include <map>
#include <string>

#include "common/status.h"
#include "common/trace.h"

namespace perfbench {

/// Wall time of a trace's spans, summed by span name, plus the roots.
struct SpanTotals {
  /// Sum of the depth-0 spans (one per traced call).
  double root_us = 0;
  std::map<std::string, double> wall_us;
  std::map<std::string, uint64_t> count;

  double Wall(const std::string& name) const;
  uint64_t Count(const std::string& name) const;
};
SpanTotals SumSpans(const rstore::TraceContext& trace);

/// Throughput of the read-side codecs on real chunk bodies.
struct CodecReplay {
  uint64_t sub_chunks = 0;
  uint64_t lz_output_bytes = 0;
  double lz_seconds = 0;
  uint64_t deltas_applied = 0;
  uint64_t delta_output_bytes = 0;
  double delta_seconds = 0;

  double lz_mb_per_s() const;
  double delta_mb_per_s() const;
};

/// Decodes chunk bodies captured at the kvstore boundary through the public
/// decode functions: Chunk::DecodeFrom splits a body into sub-chunks, each
/// sub-chunk's wire form yields its LZ blob, lz::Decompress inflates it, and
/// delta_codec::Apply rebuilds every member stored as a delta against an
/// earlier member of its sub-chunk. The two codecs are timed separately,
/// over `repetitions` passes. Members whose base lives outside the
/// sub-chunk (online ingest) are skipped.
rstore::Status ReplayCodecs(const std::map<std::string, std::string>& bodies,
                            int repetitions, CodecReplay* out);

}  // namespace perfbench

#endif  // RSTORE_PERFBENCH_LAYERS_H_
