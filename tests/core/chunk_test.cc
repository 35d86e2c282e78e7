#include "core/chunk.h"

#include <gtest/gtest.h>

#include "core/chunk_map.h"

namespace rstore {
namespace {

SubChunk MakeSubChunk(const std::string& key,
                      std::vector<std::pair<VersionId, std::string>> records) {
  std::vector<SubChunk::Member> members;
  for (size_t i = 0; i < records.size(); ++i) {
    SubChunk::Member m;
    m.key = CompositeKey(key, records[i].first);
    m.parent_index = i == 0 ? 0 : static_cast<uint32_t>(i - 1);
    m.payload = std::move(records[i].second);
    members.push_back(std::move(m));
  }
  auto sc = SubChunk::Build(std::move(members), CompressionType::kLZ);
  EXPECT_TRUE(sc.ok());
  return *std::move(sc);
}

TEST(ChunkMapTest, AddAndQuery) {
  ChunkMap map(4);
  map.Add(0, 0);
  map.Add(0, 1);
  map.Add(2, 1);
  map.Add(2, 3);
  EXPECT_EQ(map.Versions(), (std::vector<VersionId>{0, 2}));
  EXPECT_TRUE(map.HasVersion(0));
  EXPECT_FALSE(map.HasVersion(1));
  EXPECT_EQ(map.RecordsOf(0), (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(map.RecordsOf(2), (std::vector<uint32_t>{1, 3}));
  EXPECT_TRUE(map.RecordsOf(7).empty());
}

TEST(ChunkMapTest, EncodeDecodeRoundTrip) {
  ChunkMap map(100);
  for (uint32_t v = 0; v < 20; ++v) {
    for (uint32_t r = v; r < 100; r += 7) map.Add(v, r);
  }
  std::string buf;
  map.EncodeTo(&buf);
  Slice in(buf);
  ChunkMap decoded;
  ASSERT_TRUE(ChunkMap::DecodeFrom(&in, &decoded).ok());
  EXPECT_TRUE(in.empty());
  EXPECT_TRUE(decoded == map);
}

TEST(ChunkMapTest, DecodeRejectsSizeMismatch) {
  ChunkMap map(10);
  map.Add(1, 5);
  std::string buf;
  map.EncodeTo(&buf);
  // Tamper: claim 11 records but keep a 10-bit bitmap.
  buf[0] = 11;
  Slice in(buf);
  ChunkMap decoded;
  EXPECT_FALSE(ChunkMap::DecodeFrom(&in, &decoded).ok());
}

TEST(ChunkMapTest, VersionsAddedOutOfOrderStaySorted) {
  ChunkMap map(70);
  map.Add(9, 69);
  map.Add(3, 0);
  map.Add(9, 1);
  map.Add(5, 64);
  map.Add(3, 65);
  EXPECT_EQ(map.Versions(), (std::vector<VersionId>{3, 5, 9}));
  EXPECT_EQ(map.RecordsOf(3), (std::vector<uint32_t>{0, 65}));
  EXPECT_EQ(map.RecordsOf(5), (std::vector<uint32_t>{64}));
  EXPECT_EQ(map.RecordsOf(9), (std::vector<uint32_t>{1, 69}));
}

TEST(ChunkMapTest, DecodeRejectsUnorderedVersions) {
  ChunkMap map(3);
  map.Add(1, 0);
  map.Add(2, 1);
  std::string buf;
  map.EncodeTo(&buf);
  // Wire: record count, version count, then per version its id and bitmap
  // (size varint + one literal-word token + 8 bytes). Swap the two ids.
  ASSERT_EQ(buf[2], 1);
  ASSERT_EQ(buf[2 + 11], 2);
  std::swap(buf[2], buf[2 + 11]);
  Slice in(buf);
  ChunkMap decoded;
  EXPECT_TRUE(ChunkMap::DecodeFrom(&in, &decoded).IsCorruption());
}

TEST(ChunkTest, FlattenedRecordList) {
  Chunk chunk(7);
  EXPECT_EQ(chunk.id(), 7u);
  uint32_t first_a = chunk.AddSubChunk(
      MakeSubChunk("A", {{0, "a0"}, {2, "a2"}}));
  uint32_t first_b = chunk.AddSubChunk(MakeSubChunk("B", {{1, "b1"}}));
  EXPECT_EQ(first_a, 0u);
  EXPECT_EQ(first_b, 2u);
  EXPECT_EQ(chunk.record_count(), 3u);
  EXPECT_EQ(chunk.records()[0], CompositeKey("A", 0));
  EXPECT_EQ(chunk.records()[1], CompositeKey("A", 2));
  EXPECT_EQ(chunk.records()[2], CompositeKey("B", 1));
}

TEST(ChunkTest, ExtractPayloadAndRecords) {
  Chunk chunk(1);
  chunk.AddSubChunk(MakeSubChunk("A", {{0, "payload-a0"}, {2, "payload-a2"}}));
  chunk.AddSubChunk(MakeSubChunk("B", {{1, "payload-b1"}}));

  auto p = chunk.ExtractPayload(CompositeKey("A", 2));
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(*p, "payload-a2");
  EXPECT_TRUE(
      chunk.ExtractPayload(CompositeKey("C", 0)).status().IsNotFound());

  auto records = chunk.ExtractRecords({0, 2});
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 2u);
  EXPECT_EQ((*records)[0].first, CompositeKey("A", 0));
  EXPECT_EQ((*records)[0].second, "payload-a0");
  EXPECT_EQ((*records)[1].first, CompositeKey("B", 1));
  EXPECT_EQ((*records)[1].second, "payload-b1");

  EXPECT_FALSE(chunk.ExtractRecords({9}).ok());
}

// Indices come back in request order, and a repeated index yields its
// payload every time (a moved-from string once came back for the repeat).
TEST(ChunkTest, ExtractRecordsRepeatedAndUnorderedIndices) {
  Chunk chunk(1);
  chunk.AddSubChunk(MakeSubChunk("A", {{0, "payload-a0"}, {2, "payload-a2"}}));
  chunk.AddSubChunk(MakeSubChunk("B", {{1, "payload-b1"}}));

  auto twice = chunk.ExtractRecords({0, 0});
  ASSERT_TRUE(twice.ok());
  ASSERT_EQ(twice->size(), 2u);
  EXPECT_EQ((*twice)[0].second, "payload-a0");
  EXPECT_EQ((*twice)[1].second, "payload-a0");

  auto mixed = chunk.ExtractRecords({2, 1, 0, 1, 2});
  ASSERT_TRUE(mixed.ok());
  std::vector<std::string> payloads;
  for (const auto& [ck, payload] : mixed.value()) payloads.push_back(payload);
  EXPECT_EQ(payloads,
            (std::vector<std::string>{"payload-b1", "payload-a2", "payload-a0",
                                      "payload-a2", "payload-b1"}));
  EXPECT_EQ((*mixed)[0].first, CompositeKey("B", 1));
  EXPECT_EQ((*mixed)[1].first, CompositeKey("A", 2));
}

TEST(ChunkTest, ChunkMapIntegration) {
  Chunk chunk(3);
  chunk.AddSubChunk(MakeSubChunk("A", {{0, "a0"}}));
  chunk.AddSubChunk(MakeSubChunk("B", {{0, "b0"}, {1, "b1"}}));
  chunk.InitChunkMap();
  // A@0 and B@0 belong to V0; B@1 replaces B@0 in V1 (A@0 persists).
  chunk.chunk_map()->Add(0, 0);
  chunk.chunk_map()->Add(0, 1);
  chunk.chunk_map()->Add(1, 0);
  chunk.chunk_map()->Add(1, 2);
  auto v1 = chunk.chunk_map()->RecordsOf(1);
  EXPECT_EQ(v1, (std::vector<uint32_t>{0, 2}));
  auto extracted = chunk.ExtractRecords(v1);
  ASSERT_TRUE(extracted.ok());
  EXPECT_EQ((*extracted)[0].second, "a0");
  EXPECT_EQ((*extracted)[1].second, "b1");
  EXPECT_TRUE(chunk.Validate().ok());
}

TEST(ChunkTest, EncodeDecodeRoundTrip) {
  Chunk chunk(42);
  chunk.AddSubChunk(MakeSubChunk("A", {{0, std::string(500, 'x')}}));
  chunk.AddSubChunk(MakeSubChunk("B", {{0, "b0"}, {3, "b3"}}));
  std::string body;
  chunk.EncodeTo(&body);
  Slice in(body);
  Chunk decoded;
  ASSERT_TRUE(Chunk::DecodeFrom(&in, &decoded).ok());
  EXPECT_TRUE(in.empty());
  EXPECT_EQ(decoded.id(), 42u);
  EXPECT_EQ(decoded.record_count(), 3u);
  EXPECT_EQ(decoded.records(), chunk.records());
  EXPECT_EQ(*decoded.ExtractPayload(CompositeKey("B", 3)), "b3");
  EXPECT_TRUE(decoded.Validate().ok());
}

TEST(ChunkTest, SetChunkMapValidatesCoverage) {
  Chunk chunk(1);
  chunk.AddSubChunk(MakeSubChunk("A", {{0, "a"}}));
  ChunkMap wrong(5);
  EXPECT_TRUE(chunk.SetChunkMap(std::move(wrong)).IsCorruption());
  ChunkMap right(1);
  right.Add(0, 0);
  EXPECT_TRUE(chunk.SetChunkMap(std::move(right)).ok());
}

TEST(ChunkTest, PayloadBytesTracksSubChunkSizes) {
  Chunk chunk(1);
  EXPECT_EQ(chunk.payload_bytes(), 0u);
  SubChunk sc = MakeSubChunk("A", {{0, std::string(1000, 'q')}});
  uint64_t expected = sc.serialized_size();
  chunk.AddSubChunk(std::move(sc));
  EXPECT_EQ(chunk.payload_bytes(), expected);
}

TEST(ChunkTest, ValidateCatchesStaleChunkMap) {
  // A populated chunk map that no longer covers the chunk's records must be
  // rejected. The state is reachable without any out-of-contract call:
  // InitChunkMap snapshots the record count, so appending a sub-chunk
  // afterwards leaves the map referencing a smaller record list.
  Chunk chunk(1);
  chunk.AddSubChunk(MakeSubChunk("A", {{0, "a0"}, {1, "a1"}}));
  chunk.InitChunkMap();
  chunk.chunk_map()->Add(0, 1);
  EXPECT_TRUE(chunk.Validate().ok());
  chunk.AddSubChunk(MakeSubChunk("B", {{0, "b0"}}));
  EXPECT_TRUE(chunk.Validate().IsCorruption());
}

TEST(ChunkTest, SetChunkMapRejectsForeignMap) {
  // Maps referencing a different record universe are stopped at the door, so
  // the out-of-range branch in Validate stays defense-in-depth only.
  Chunk chunk(1);
  chunk.AddSubChunk(MakeSubChunk("A", {{0, "a0"}, {1, "a1"}}));
  ChunkMap foreign(6);
  foreign.Add(0, 5);  // valid for a 6-record chunk, not for this one
  EXPECT_TRUE(chunk.SetChunkMap(std::move(foreign)).IsCorruption());
  EXPECT_TRUE(chunk.Validate().ok());
}

TEST(ChunkKeyTest, DistinctAndStable) {
  EXPECT_EQ(ChunkKey(5), ChunkKey(5));
  EXPECT_NE(ChunkKey(5), ChunkKey(6));
  EXPECT_EQ(ChunkKey(0)[0], 'c');
}

}  // namespace
}  // namespace rstore
