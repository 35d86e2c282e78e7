#include "core/sub_chunk.h"

#include <gtest/gtest.h>

#include <map>

#include "common/coding.h"
#include "common/random.h"

namespace rstore {
namespace {

SubChunk::Member MakeMember(const std::string& key, VersionId v,
                            uint32_t parent, const std::string& payload) {
  SubChunk::Member m;
  m.key = CompositeKey(key, v);
  m.parent_index = parent;
  m.payload = payload;
  return m;
}

TEST(SubChunkTest, SingleRecordRoundTrip) {
  auto sc = SubChunk::Build({MakeMember("K1", 0, 0, "hello world payload")},
                            CompressionType::kLZ);
  ASSERT_TRUE(sc.ok());
  EXPECT_EQ(sc->num_records(), 1u);
  EXPECT_EQ(sc->id(), CompositeKey("K1", 0));
  EXPECT_TRUE(sc->Contains(CompositeKey("K1", 0)));
  EXPECT_FALSE(sc->Contains(CompositeKey("K1", 1)));
  auto payload = sc->ExtractPayload(CompositeKey("K1", 0));
  ASSERT_TRUE(payload.ok());
  EXPECT_EQ(*payload, "hello world payload");
}

TEST(SubChunkTest, MultiVersionChainRoundTrip) {
  std::string v0(2000, 'a');
  std::string v1 = v0;
  v1[500] = 'b';
  std::string v2 = v1;
  v2[1500] = 'c';
  auto sc = SubChunk::Build({MakeMember("K", 0, 0, v0),
                             MakeMember("K", 1, 0, v1),
                             MakeMember("K", 2, 1, v2)},
                            CompressionType::kLZ);
  ASSERT_TRUE(sc.ok());
  EXPECT_EQ(sc->num_records(), 3u);
  EXPECT_EQ(*sc->ExtractPayload(CompositeKey("K", 0)), v0);
  EXPECT_EQ(*sc->ExtractPayload(CompositeKey("K", 1)), v1);
  EXPECT_EQ(*sc->ExtractPayload(CompositeKey("K", 2)), v2);
}

TEST(SubChunkTest, DeltaEncodingCompressesSimilarVersions) {
  // Three near-identical 4 KB records together must be far smaller than 3x
  // one record (the whole point of sub-chunking, paper §3.4).
  std::string base;
  for (int i = 0; i < 200; ++i) {
    base += "{\"field" + std::to_string(i) + "\":" + std::to_string(i * 7) +
            "},";
  }
  std::string v1 = base;
  v1.replace(100, 5, "XXXXX");
  std::string v2 = v1;
  v2.replace(3000, 5, "YYYYY");

  auto single =
      SubChunk::Build({MakeMember("K", 0, 0, base)}, CompressionType::kLZ);
  auto grouped = SubChunk::Build({MakeMember("K", 0, 0, base),
                                  MakeMember("K", 1, 0, v1),
                                  MakeMember("K", 2, 1, v2)},
                                 CompressionType::kLZ);
  ASSERT_TRUE(single.ok());
  ASSERT_TRUE(grouped.ok());
  EXPECT_LT(grouped->serialized_size(), single->serialized_size() * 2);
  EXPECT_EQ(grouped->uncompressed_bytes(),
            base.size() + v1.size() + v2.size());
}

TEST(SubChunkTest, SiblingsDeltaAgainstCommonParent) {
  // Fig. 7 constraint: siblings delta against their common parent, so
  // grouping parent + two siblings works without sibling-to-sibling deltas.
  std::string parent(1000, 'p');
  std::string sib1 = parent;
  sib1[10] = '1';
  std::string sib2 = parent;
  sib2[900] = '2';
  auto sc = SubChunk::Build({MakeMember("K", 0, 0, parent),
                             MakeMember("K", 3, 0, sib1),
                             MakeMember("K", 5, 0, sib2)},
                            CompressionType::kLZ);
  ASSERT_TRUE(sc.ok());
  EXPECT_EQ(*sc->ExtractPayload(CompositeKey("K", 3)), sib1);
  EXPECT_EQ(*sc->ExtractPayload(CompositeKey("K", 5)), sib2);
}

TEST(SubChunkTest, BuildValidation) {
  EXPECT_TRUE(SubChunk::Build({}, CompressionType::kNone)
                  .status()
                  .IsInvalidArgument());
  // Head must be its own parent.
  EXPECT_FALSE(
      SubChunk::Build({MakeMember("K", 0, 1, "x")}, CompressionType::kNone)
          .ok());
  // Forward parent reference.
  EXPECT_FALSE(SubChunk::Build({MakeMember("K", 0, 0, "x"),
                                MakeMember("K", 1, 1, "y")},
                               CompressionType::kNone)
                   .ok());
  // Mixed primary keys.
  EXPECT_FALSE(SubChunk::Build({MakeMember("A", 0, 0, "x"),
                                MakeMember("B", 1, 0, "y")},
                               CompressionType::kNone)
                   .ok());
}

TEST(SubChunkTest, EncodeDecodeRoundTrip) {
  std::string p0 = "payload zero with some content";
  std::string p1 = "payload one with other content";
  auto sc = SubChunk::Build(
      {MakeMember("K9", 2, 0, p0), MakeMember("K9", 7, 0, p1)},
      CompressionType::kLZ);
  ASSERT_TRUE(sc.ok());
  std::string buf;
  sc->EncodeTo(&buf);
  EXPECT_EQ(buf.size(), sc->serialized_size());
  Slice in(buf);
  SubChunk decoded;
  ASSERT_TRUE(SubChunk::DecodeFrom(&in, &decoded).ok());
  EXPECT_TRUE(in.empty());
  EXPECT_EQ(decoded.keys(), sc->keys());
  EXPECT_EQ(*decoded.ExtractPayload(CompositeKey("K9", 2)), p0);
  EXPECT_EQ(*decoded.ExtractPayload(CompositeKey("K9", 7)), p1);
  EXPECT_EQ(decoded.uncompressed_bytes(), p0.size() + p1.size());
}

TEST(SubChunkTest, DecodeRejectsCorruption) {
  auto sc = SubChunk::Build({MakeMember("K", 0, 0, "data data data")},
                            CompressionType::kLZ);
  ASSERT_TRUE(sc.ok());
  std::string buf;
  sc->EncodeTo(&buf);
  for (size_t cut : {size_t{0}, size_t{1}, buf.size() / 2, buf.size() - 1}) {
    Slice in(buf.data(), cut);
    SubChunk decoded;
    EXPECT_FALSE(SubChunk::DecodeFrom(&in, &decoded).ok()) << cut;
  }
}

TEST(SubChunkTest, DecodeRejectsUnknownCompressionType) {
  auto sc = SubChunk::Build({MakeMember("K", 0, 0, "data data data data")},
                            CompressionType::kLZ);
  ASSERT_TRUE(sc.ok());
  std::string buf;
  sc->EncodeTo(&buf);
  // Member count, the head's key, its parent index, then the type byte.
  const size_t type_pos =
      VarintLength(1) + CompositeKey("K", 0).EncodedSize() + VarintLength(0);
  ASSERT_EQ(static_cast<uint8_t>(buf[type_pos]),
            static_cast<uint8_t>(CompressionType::kLZ));
  for (uint8_t bad : {uint8_t{2}, uint8_t{0x7f}, uint8_t{0xff}}) {
    std::string flipped = buf;
    flipped[type_pos] = static_cast<char>(bad);
    Slice in(flipped);
    SubChunk decoded;
    EXPECT_TRUE(SubChunk::DecodeFrom(&in, &decoded).IsCorruption())
        << int{bad};
  }
}

TEST(SubChunkTest, SerializedSizeMatchesEncodingProperty) {
  // Key lengths, versions, parent indices and payload sizes are drawn so
  // that every varint in the encoding crosses its one/two/three-byte
  // widths, with external parents mixed in.
  Random rng(7);
  for (int trial = 0; trial < 300; ++trial) {
    const std::string key(rng.Uniform(300),
                          static_cast<char>('a' + trial % 26));
    const size_t count = 1 + rng.Uniform(6);
    std::vector<SubChunk::Member> members;
    for (size_t i = 0; i < count; ++i) {
      const auto version = static_cast<VersionId>(
          rng.Bernoulli(0.5) ? rng.Uniform(200) : rng.Uniform(UINT32_MAX));
      std::string payload(rng.Uniform(rng.Bernoulli(0.2) ? 20000 : 300), 'x');
      for (char& c : payload) {
        if (rng.Bernoulli(0.3)) c = static_cast<char>(rng.Uniform(256));
      }
      SubChunk::Member m = MakeMember(
          key, version, i == 0 ? 0 : static_cast<uint32_t>(rng.Uniform(i)),
          payload);
      if (rng.Bernoulli(0.3)) {
        m.external_parent = CompositeKey(std::string(rng.Uniform(200), 'e'),
                                         static_cast<VersionId>(rng.Next()));
        m.external_parent_payload = payload.substr(0, payload.size() / 2);
      }
      members.push_back(std::move(m));
    }
    auto sc = SubChunk::Build(std::move(members),
                              rng.Bernoulli(0.5) ? CompressionType::kLZ
                                                 : CompressionType::kNone);
    ASSERT_TRUE(sc.ok()) << sc.status().ToString();
    std::string buf;
    sc->EncodeTo(&buf);
    ASSERT_EQ(sc->serialized_size(), buf.size()) << "trial " << trial;
    Slice in(buf);
    SubChunk decoded;
    ASSERT_TRUE(SubChunk::DecodeFrom(&in, &decoded).ok());
    EXPECT_EQ(decoded.serialized_size(), buf.size()) << "trial " << trial;
  }
}

TEST(SubChunkTest, ExtractMissingRecordIsNotFound) {
  auto sc =
      SubChunk::Build({MakeMember("K", 0, 0, "x")}, CompressionType::kNone);
  ASSERT_TRUE(sc.ok());
  EXPECT_TRUE(
      sc->ExtractPayload(CompositeKey("K", 9)).status().IsNotFound());
}

TEST(SubChunkTest, EmptyPayloadsSupported) {
  auto sc = SubChunk::Build(
      {MakeMember("K", 0, 0, ""), MakeMember("K", 1, 0, "")},
      CompressionType::kLZ);
  ASSERT_TRUE(sc.ok());
  EXPECT_EQ(*sc->ExtractPayload(CompositeKey("K", 0)), "");
  EXPECT_EQ(*sc->ExtractPayload(CompositeKey("K", 1)), "");
}

/// Derives a payload from `base` by a few splices, so deltas against it
/// mix COPY and ADD ops.
std::string EditOf(Random* rng, const std::string& base) {
  std::string out = base;
  for (int e = 0; e < 3; ++e) {
    const size_t pos = rng->Uniform(out.size() + 1);
    out.insert(pos, "edit" + std::to_string(rng->Uniform(1000)));
  }
  return out;
}

// ExtractMembers must return, for any wanted list (any order, repeats,
// empty), exactly the matching entries of ExtractAllPayloads — which
// rebuilds every member — over random parent trees, some members based on
// records outside the sub-chunk.
TEST(SubChunkTest, ExtractMembersMatchesExtractAllPayloadsProperty) {
  Random rng(2024);
  for (int trial = 0; trial < 200; ++trial) {
    const size_t n = 1 + rng.Uniform(12);
    std::vector<SubChunk::Member> members(n);
    std::vector<std::string> expected(n);
    std::map<CompositeKey, std::string> outside;
    for (size_t i = 0; i < n; ++i) {
      SubChunk::Member& m = members[i];
      m.key = CompositeKey("K", static_cast<VersionId>(10 * i + 10));
      if (rng.Bernoulli(0.15)) {
        CompositeKey base_key("K", static_cast<VersionId>(10 * i + 5));
        std::string base = "outside record " + std::to_string(trial * 100 + i) +
                           std::string(40 + rng.Uniform(200), 'o');
        outside[base_key] = base;
        m.external_parent = base_key;
        m.external_parent_payload = base;
        m.payload = EditOf(&rng, base);
      } else if (i == 0) {
        m.payload = "head " + std::string(rng.Uniform(300), 'h') +
                    std::to_string(trial);
      } else {
        m.parent_index = static_cast<uint32_t>(rng.Uniform(i));
        m.payload = EditOf(&rng, expected[m.parent_index]);
      }
      expected[i] = m.payload;
    }
    const CompressionType type =
        trial % 2 == 0 ? CompressionType::kLZ : CompressionType::kNone;
    auto sc = SubChunk::Build(std::move(members), type);
    ASSERT_TRUE(sc.ok()) << sc.status().ToString();
    auto resolver = [&](const CompositeKey& ck) -> Result<std::string> {
      auto it = outside.find(ck);
      if (it == outside.end()) return Status::NotFound(ck.ToString());
      return it->second;
    };
    auto all = sc->ExtractAllPayloads(resolver);
    ASSERT_TRUE(all.ok()) << all.status().ToString();
    ASSERT_EQ(all.value(), expected) << "trial " << trial;

    for (int subset = 0; subset < 8; ++subset) {
      std::vector<uint32_t> wanted(rng.Uniform(2 * n + 1));
      for (uint32_t& w : wanted) w = static_cast<uint32_t>(rng.Uniform(n));
      std::vector<std::string> out = {"kept"};
      ASSERT_TRUE(sc->ExtractMembers(wanted, resolver, &out).ok());
      ASSERT_EQ(out.size(), wanted.size() + 1);
      EXPECT_EQ(out[0], "kept");
      for (size_t k = 0; k < wanted.size(); ++k) {
        EXPECT_EQ(out[k + 1], (*all)[wanted[k]])
            << "trial " << trial << " member " << wanted[k];
      }
    }
  }
}

TEST(SubChunkTest, ExtractMembersRejectsBadIndexAndKeepsOutput) {
  auto sc = SubChunk::Build(
      {MakeMember("K", 0, 0, "zero"), MakeMember("K", 1, 0, "one")},
      CompressionType::kLZ);
  ASSERT_TRUE(sc.ok());
  std::vector<std::string> out = {"kept"};
  std::vector<uint32_t> wanted = {1, 2};
  EXPECT_TRUE(
      sc->ExtractMembers(wanted, nullptr, &out).IsInvalidArgument());
  EXPECT_EQ(out, std::vector<std::string>{"kept"});
}

}  // namespace
}  // namespace rstore
