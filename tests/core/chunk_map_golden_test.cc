// Golden test for the chunk map's wire bytes and a decoded chunk's cache
// charge.
//
// Chunk maps are stored in the index table, so their encoded bytes feed the
// simulated backend charge of every query and every ingest batch; a decoded
// chunk's ApproximateMemoryBytes() is what the chunk cache charges against
// its budget, so it decides every cache hit and miss. Both must stay the same
// across changes to the in-memory representation. This test builds seeded
// random chunks, fills their maps in five shapes, and compares a digest of
// every encoded map and of every chunk's memory charge (as built, and as
// decoded from its wire form the way the read path decodes it) with the
// values committed in chunk_map_golden.inc.
//
// To regenerate after a deliberate format or accounting change, run the test
// with RSTORE_PRINT_CHUNK_MAP_GOLDEN=1 and paste the printed table into
// chunk_map_golden.inc.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common/coding.h"
#include "common/hash.h"
#include "common/random.h"
#include "core/chunk.h"
#include "core/chunk_map.h"

namespace rstore {
namespace {

struct MapGolden {
  const char* shape;
  uint64_t chunks;
  uint64_t encoded_bytes;
  uint64_t encoded_digest;
  uint64_t memory_bytes;
  uint64_t memory_digest;
};

constexpr MapGolden kGolden[] = {
#include "chunk_map_golden.inc"
};

constexpr int kChunksPerShape = 48;

class Digest {
 public:
  void Add(Slice bytes) {
    std::string framed;
    PutVarint64(&framed, bytes.size());
    framed.append(bytes.data(), bytes.size());
    value_ = Mix64(value_ ^ Fnv1a64(Slice(framed)));
  }
  void Add(uint64_t v) {
    std::string framed;
    PutFixed64(&framed, v);
    Add(Slice(framed));
  }
  uint64_t value() const { return value_; }

 private:
  uint64_t value_ = 0;
};

std::string RandomText(Random* rng, size_t n) {
  static const char kAlphabet[] = "abcdefgh{}\":,0123456789 ";
  std::string s(n, ' ');
  for (char& c : s) c = kAlphabet[rng->Uniform(sizeof(kAlphabet) - 1)];
  return s;
}

/// A chunk of `sub_chunks` sub-chunks, each one key with 1-5 members that
/// delta against a random earlier member.
Chunk RandomChunk(Random* rng, ChunkId id, size_t sub_chunks) {
  Chunk chunk(id);
  for (size_t s = 0; s < sub_chunks; ++s) {
    const std::string key = "key" + std::to_string(rng->Uniform(100000));
    const size_t members = 1 + rng->Uniform(5);
    std::vector<SubChunk::Member> ms(members);
    for (size_t m = 0; m < members; ++m) {
      ms[m].key = CompositeKey(key, static_cast<VersionId>(m * 3 +
                                                           rng->Uniform(3)));
      ms[m].parent_index =
          m == 0 ? 0 : static_cast<uint32_t>(rng->Uniform(m));
      ms[m].payload = m == 0 ? RandomText(rng, 20 + rng->Uniform(300))
                             : ms[ms[m].parent_index].payload;
      if (m > 0) {
        ms[m].payload[rng->Uniform(ms[m].payload.size())] = '#';
      }
    }
    auto sc = SubChunk::Build(std::move(ms), CompressionType::kLZ);
    EXPECT_TRUE(sc.ok());
    chunk.AddSubChunk(*std::move(sc));
  }
  chunk.InitChunkMap();
  return chunk;
}

using Pairs = std::vector<std::pair<VersionId, uint32_t>>;

/// Membership pairs in record-major order, the order StoreCatalog adds them.
Pairs Membership(Random* rng, uint32_t records, uint32_t versions,
                 double density, bool runs) {
  std::vector<VersionId> ids(versions);
  for (uint32_t v = 0; v < versions; ++v) {
    ids[v] = static_cast<VersionId>(v * 2 + rng->Uniform(2));
  }
  // One per-version bit pattern; `runs` replaces independent bits by long
  // spans of set and clear records.
  std::vector<std::vector<bool>> member(versions,
                                        std::vector<bool>(records, false));
  for (uint32_t v = 0; v < versions; ++v) {
    if (runs) {
      bool on = rng->Bernoulli(0.5);
      uint32_t r = 0;
      while (r < records) {
        uint32_t len = 1 + static_cast<uint32_t>(rng->Uniform(150));
        for (uint32_t k = r; k < records && k < r + len; ++k) {
          member[v][k] = on || rng->Bernoulli(density);
        }
        r += len;
        on = !on;
      }
    } else {
      for (uint32_t r = 0; r < records; ++r) {
        member[v][r] = rng->Bernoulli(density);
      }
    }
  }
  Pairs pairs;
  for (uint32_t r = 0; r < records; ++r) {
    for (uint32_t v = 0; v < versions; ++v) {
      if (member[v][r]) pairs.emplace_back(ids[v], r);
    }
  }
  return pairs;
}

void Shuffle(Random* rng, Pairs* pairs) {
  for (size_t i = pairs->size(); i > 1; --i) {
    std::swap((*pairs)[i - 1], (*pairs)[rng->Uniform(i)]);
  }
}

struct Shape {
  const char* name;
  double density;
  bool runs;
  bool shuffled;
  bool odd_counts;
};

constexpr Shape kShapes[] = {
    {"sparse", 0.02, false, false, false},
    {"dense", 0.97, false, false, false},
    {"mixed", 0.3, true, false, false},
    {"odd_counts", 0.5, true, false, true},
    {"out_of_order", 0.4, true, true, false},
};

struct Actual {
  std::string shape;
  uint64_t chunks = 0;
  uint64_t encoded_bytes = 0;
  uint64_t encoded_digest = 0;
  uint64_t memory_bytes = 0;
  uint64_t memory_digest = 0;
};

std::vector<Actual> ComputeGoldens() {
  std::vector<Actual> out;
  uint64_t seed = 0xc4a9;
  for (const Shape& shape : kShapes) {
    Random rng(seed++);
    Digest encoded_digest;
    Digest memory_digest;
    Actual actual;
    actual.shape = shape.name;
    for (int c = 0; c < kChunksPerShape; ++c) {
      // odd_counts keeps record counts away from multiples of 64 by
      // building few, small sub-chunks; the other shapes span 1-40.
      const size_t sub_chunks =
          shape.odd_counts ? 1 + rng.Uniform(12) : 1 + rng.Uniform(40);
      Chunk chunk = RandomChunk(&rng, static_cast<ChunkId>(c), sub_chunks);
      const uint32_t versions = 1 + static_cast<uint32_t>(rng.Uniform(90));
      Pairs pairs = Membership(&rng, chunk.record_count(), versions,
                               shape.density, shape.runs);
      if (shape.shuffled) Shuffle(&rng, &pairs);
      for (const auto& [v, r] : pairs) chunk.chunk_map()->Add(v, r);

      std::string map_bytes;
      chunk.chunk_map()->EncodeTo(&map_bytes);
      encoded_digest.Add(Slice(map_bytes));
      actual.encoded_bytes += map_bytes.size();

      // The read path's form: body and map decoded separately, then joined.
      std::string body;
      chunk.EncodeTo(&body);
      Chunk decoded;
      Slice body_in(body);
      EXPECT_TRUE(Chunk::DecodeFrom(&body_in, &decoded).ok());
      ChunkMap map;
      Slice map_in(map_bytes);
      EXPECT_TRUE(ChunkMap::DecodeFrom(&map_in, &map).ok());
      EXPECT_TRUE(decoded.SetChunkMap(std::move(map)).ok());
      memory_digest.Add(chunk.ApproximateMemoryBytes());
      memory_digest.Add(decoded.ApproximateMemoryBytes());
      actual.memory_bytes += decoded.ApproximateMemoryBytes();
      ++actual.chunks;
    }
    actual.encoded_digest = encoded_digest.value();
    actual.memory_digest = memory_digest.value();
    out.push_back(actual);
  }
  return out;
}

TEST(ChunkMapGoldenTest, EncodingAndCacheChargeMatchCommittedValues) {
  std::vector<Actual> actual = ComputeGoldens();
  if (std::getenv("RSTORE_PRINT_CHUNK_MAP_GOLDEN") != nullptr) {
    for (const Actual& a : actual) {
      std::printf("    {\"%s\", %llu, %llu, 0x%016llxull, %llu, "
                  "0x%016llxull},\n",
                  a.shape.c_str(), static_cast<unsigned long long>(a.chunks),
                  static_cast<unsigned long long>(a.encoded_bytes),
                  static_cast<unsigned long long>(a.encoded_digest),
                  static_cast<unsigned long long>(a.memory_bytes),
                  static_cast<unsigned long long>(a.memory_digest));
    }
  }
  ASSERT_EQ(actual.size(), std::size(kGolden));
  for (size_t i = 0; i < actual.size(); ++i) {
    SCOPED_TRACE(actual[i].shape);
    EXPECT_EQ(actual[i].shape, kGolden[i].shape);
    EXPECT_EQ(actual[i].chunks, kGolden[i].chunks);
    EXPECT_EQ(actual[i].encoded_bytes, kGolden[i].encoded_bytes);
    EXPECT_EQ(actual[i].encoded_digest, kGolden[i].encoded_digest);
    EXPECT_EQ(actual[i].memory_bytes, kGolden[i].memory_bytes);
    EXPECT_EQ(actual[i].memory_digest, kGolden[i].memory_digest);
  }
}

}  // namespace
}  // namespace rstore
