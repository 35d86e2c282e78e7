// Component microbenchmarks (google-benchmark): the building blocks whose
// costs the system-level experiments aggregate — codecs, bitmaps, chunk
// decode and record extraction, min-hash, backend MultiGet, and the
// partitioning algorithms themselves.

#include <benchmark/benchmark.h>

#include <cctype>

#include "bench_util.h"
#include "common/hash.h"
#include "common/random.h"
#include "compress/bitmap.h"
#include "compress/delta_codec.h"
#include "compress/lz_codec.h"
#include "core/chunk.h"
#include "kvstore/cluster.h"
#include "workload/dataset_catalog.h"
#include "workload/record_generator.h"

namespace rstore {
namespace {

std::string MakeJsonPayload(size_t approx_bytes) {
  workload::RecordGenerator gen(static_cast<uint32_t>(approx_bytes), 42);
  return gen.Generate("bench-key");
}

void BM_LzCompressJson(benchmark::State& state) {
  std::string input = MakeJsonPayload(static_cast<size_t>(state.range(0)));
  std::string out;
  for (auto _ : state) {
    lz::Compress(Slice(input), &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          input.size());
}
BENCHMARK(BM_LzCompressJson)->Arg(256)->Arg(4096)->Arg(65536);

void BM_LzDecompressJson(benchmark::State& state) {
  std::string input = MakeJsonPayload(static_cast<size_t>(state.range(0)));
  std::string compressed, out;
  lz::Compress(Slice(input), &compressed);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lz::Decompress(Slice(compressed), &out).ok());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          input.size());
}
BENCHMARK(BM_LzDecompressJson)->Arg(4096)->Arg(65536);

void BM_DeltaEncode(benchmark::State& state) {
  workload::RecordGenerator gen(static_cast<uint32_t>(state.range(0)), 7);
  std::string base = gen.Generate("k");
  std::string target = gen.Mutate(base, 0.05);
  std::string delta;
  for (auto _ : state) {
    delta_codec::Encode(Slice(base), Slice(target), &delta);
    benchmark::DoNotOptimize(delta.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          base.size());
}
BENCHMARK(BM_DeltaEncode)->Arg(1024)->Arg(16384);

void BM_DeltaApply(benchmark::State& state) {
  workload::RecordGenerator gen(static_cast<uint32_t>(state.range(0)), 7);
  std::string base = gen.Generate("k");
  std::string target = gen.Mutate(base, 0.05);
  std::string delta, out;
  delta_codec::Encode(Slice(base), Slice(target), &delta);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        delta_codec::Apply(Slice(base), Slice(delta), &out).ok());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          base.size());
}
BENCHMARK(BM_DeltaApply)->Arg(1024)->Arg(16384);

void BM_BitmapSerialize(benchmark::State& state) {
  Random rng(3);
  Bitmap bitmap(static_cast<size_t>(state.range(0)));
  for (int i = 0; i < state.range(0) / 10; ++i) {
    bitmap.Set(rng.Uniform(static_cast<uint64_t>(state.range(0))));
  }
  std::string out;
  for (auto _ : state) {
    out.clear();
    bitmap.SerializeTo(&out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_BitmapSerialize)->Arg(10000)->Arg(1000000);

/// The encoded body and chunk map of a read-path-sized chunk: 40 sub-chunks
/// of five ~1 KB JSON records each (member m deltas against member m - 1),
/// over 85 versions. Member m of a sub-chunk is created at a version in
/// [17m, 17m + 17) and belongs to every version up to its successor's.
struct EncodedChunk {
  std::string body;
  std::string map;
};

constexpr VersionId kChunkVersions = 85;

const EncodedChunk& ReadPathChunk() {
  static const EncodedChunk encoded = [] {
    constexpr int kSubChunks = 40;
    constexpr int kMembers = 5;
    Random rng(11);
    workload::RecordGenerator gen(1024, 5);
    Chunk chunk(1);
    std::vector<std::vector<VersionId>> created(kSubChunks);
    for (int s = 0; s < kSubChunks; ++s) {
      const std::string key = "key" + std::to_string(s);
      std::vector<SubChunk::Member> members(kMembers);
      for (int m = 0; m < kMembers; ++m) {
        const auto version =
            static_cast<VersionId>(17 * m + static_cast<int>(rng.Uniform(17)));
        created[s].push_back(version);
        members[m].key = CompositeKey(key, version);
        members[m].parent_index = m == 0 ? 0 : static_cast<uint32_t>(m - 1);
        members[m].payload = m == 0 ? gen.Generate(key)
                                    : gen.Mutate(members[m - 1].payload, 0.05);
      }
      chunk.AddSubChunk(*SubChunk::Build(std::move(members),
                                         CompressionType::kLZ));
    }
    chunk.InitChunkMap();
    for (int s = 0; s < kSubChunks; ++s) {
      for (int m = 0; m < kMembers; ++m) {
        const VersionId end =
            m + 1 < kMembers ? created[s][m + 1] : kChunkVersions;
        for (VersionId v = created[s][m]; v < end; ++v) {
          chunk.chunk_map()->Add(v, static_cast<uint32_t>(s * kMembers + m));
        }
      }
    }
    EncodedChunk out;
    chunk.EncodeTo(&out.body);
    chunk.chunk_map()->EncodeTo(&out.map);
    return out;
  }();
  return encoded;
}

/// Decodes a fetched chunk the way the read path does: body, then map.
Status DecodeChunk(const EncodedChunk& encoded, Chunk* chunk) {
  Slice body(encoded.body);
  RSTORE_RETURN_IF_ERROR(Chunk::DecodeFrom(&body, chunk));
  ChunkMap map;
  Slice map_input(encoded.map);
  RSTORE_RETURN_IF_ERROR(ChunkMap::DecodeFrom(&map_input, &map));
  return chunk->SetChunkMap(std::move(map));
}

void BM_ChunkDecode(benchmark::State& state) {
  const EncodedChunk& encoded = ReadPathChunk();
  for (auto _ : state) {
    Chunk chunk;
    benchmark::DoNotOptimize(DecodeChunk(encoded, &chunk).ok());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          (encoded.body.size() + encoded.map.size()));
}
BENCHMARK(BM_ChunkDecode);

/// One version's records out of a decoded chunk: the chunk map lookup plus
/// the decompression and delta chain of every sub-chunk it touches.
void BM_ExtractVersion(benchmark::State& state) {
  Chunk decoded;
  if (!DecodeChunk(ReadPathChunk(), &decoded).ok()) {
    state.SkipWithError("chunk decode failed");
    return;
  }
  const Chunk& chunk = decoded;
  VersionId version = 0;
  int64_t records = 0;
  for (auto _ : state) {
    auto extracted =
        chunk.ExtractRecords(chunk.chunk_map().RecordsOf(version));
    benchmark::DoNotOptimize(extracted.ok());
    records += static_cast<int64_t>(extracted->size());
    version = (version + 1) % kChunkVersions;
  }
  state.SetItemsProcessed(records);
}
BENCHMARK(BM_ExtractVersion);

void BM_MinHashVersionSet(benchmark::State& state) {
  HashFamily family(4, 99);
  std::vector<VersionId> versions(static_cast<size_t>(state.range(0)));
  for (size_t i = 0; i < versions.size(); ++i) {
    versions[i] = static_cast<VersionId>(i * 3);
  }
  for (auto _ : state) {
    uint64_t acc = 0;
    for (uint32_t f = 0; f < 4; ++f) {
      uint64_t best = UINT64_MAX;
      for (VersionId v : versions) {
        best = std::min(best, family.Apply(f, v + 1));
      }
      acc ^= best;
    }
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_MinHashVersionSet)->Arg(16)->Arg(256);

void BM_ClusterMultiGet(benchmark::State& state) {
  ClusterOptions options;
  options.num_nodes = 8;
  options.latency = ZeroLatencyModel();  // measure real CPU cost
  Cluster cluster(options);
  (void)cluster.CreateTable("t");
  std::vector<std::string> keys;
  for (int i = 0; i < 4096; ++i) {
    std::string key = "key" + std::to_string(i);
    keys.push_back(key);
    (void)cluster.Put("t", key, std::string(256, 'v'));
  }
  std::vector<std::string> batch(keys.begin(),
                                 keys.begin() + state.range(0));
  for (auto _ : state) {
    std::map<std::string, std::string> out;
    benchmark::DoNotOptimize(cluster.MultiGet("t", batch, &out).ok());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_ClusterMultiGet)->Arg(16)->Arg(512)->Arg(4096);

void BM_Partitioner(benchmark::State& state) {
  auto config = *workload::CatalogConfig("C1");
  config.num_versions = 300;
  static workload::GeneratedDataset gen = workload::GenerateDataset(config);
  Options options;
  options.chunk_capacity_bytes = bench::ScaledChunkCapacity(gen);
  options.max_sub_chunk_records = 1;
  options.compression = CompressionType::kNone;
  RecordVersionMap rv = gen.dataset.BuildRecordVersionMap();
  auto built = BuildSubChunks(gen.dataset, gen.payloads, rv, options);
  if (!built.ok()) {
    state.SkipWithError("sub-chunking failed");
    return;
  }
  auto algorithm = static_cast<PartitionAlgorithm>(state.range(0));
  auto partitioner = CreatePartitioner(algorithm);
  PartitionInput input;
  input.dataset = &gen.dataset;
  input.items = &built->items;
  input.options = options;
  for (auto _ : state) {
    auto p = partitioner->Partition(input);
    benchmark::DoNotOptimize(p.ok());
  }
  state.SetLabel(PartitionAlgorithmName(algorithm));
}
BENCHMARK(BM_Partitioner)
    ->Arg(static_cast<int>(PartitionAlgorithm::kBottomUp))
    ->Arg(static_cast<int>(PartitionAlgorithm::kShingle))
    ->Arg(static_cast<int>(PartitionAlgorithm::kDepthFirst))
    ->Arg(static_cast<int>(PartitionAlgorithm::kBreadthFirst));

}  // namespace
}  // namespace rstore

namespace {

/// Console output plus the repo-standard flat BENCH_micro.json: one
/// "<name>_real_ns" entry per benchmark run, with the run name sanitized to
/// an identifier ("BM_LzCompressJson/256" -> "BM_LzCompressJson_256").
class FlatJsonReporter : public benchmark::ConsoleReporter {
 public:
  explicit FlatJsonReporter(rstore::bench::BenchReport* report)
      : report_(report) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      std::string name = run.benchmark_name();
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      report_->Add(name + "_real_ns", run.GetAdjustedRealTime());
    }
  }

 private:
  rstore::bench::BenchReport* report_;
};

}  // namespace

int main(int argc, char** argv) {
  // Smoke mode: cut per-benchmark measuring time so CI can validate the
  // binary and its JSON output in seconds.
  std::vector<char*> args(argv, argv + argc);
  char min_time_flag[] = "--benchmark_min_time=0.01";
  if (rstore::bench::SmokeMode()) args.push_back(min_time_flag);
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  rstore::bench::BenchReport report("micro");
  FlatJsonReporter reporter(&report);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  report.Write();
  return 0;
}
