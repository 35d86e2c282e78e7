// Golden output test for the write-side codecs.
//
// Stored bytes feed every simulated-time number (backend bytes read and
// written, chunk counts, compression ratios), so the encoders must emit the
// same bytes across refactors and speed-ups. This test compresses and
// delta-encodes a seeded corpus and compares a digest of every output with
// the digests committed in codec_golden_digests.inc. Any byte of drift in
// any output fails it.
//
// The corpus spans 256 B - 64 KB inputs plus a few tiny edge sizes, in four
// shapes: JSON-like text, uniform random bytes, long byte runs, and text
// that repeats a few 8-byte-plus tokens. Each shape also yields edited
// base/target pairs for the delta encoder; in the last shape many base
// positions share one anchor hash, so the encoder's "first base position
// wins" rule decides the COPY offsets it emits.
//
// A second test decodes the same corpus and checks that lz::Decompress and
// delta_codec::Apply invert their encoders exactly.
//
// To regenerate after a deliberate format change, run the test with
// RSTORE_PRINT_CODEC_GOLDEN=1 and paste the printed table into
// codec_golden_digests.inc.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/coding.h"
#include "common/hash.h"
#include "common/random.h"
#include "compress/delta_codec.h"
#include "compress/lz_codec.h"

namespace rstore {
namespace {

struct GoldenDigest {
  const char* corpus;
  uint64_t count;
  uint64_t total_output_bytes;
  uint64_t digest;
};

constexpr GoldenDigest kGolden[] = {
#include "codec_golden_digests.inc"
};

constexpr int kInputsPerShape = 192;
constexpr int kDeltaPairsPerShape = 192;

/// Size in [256, 64 KB): a power-of-two octave chosen uniformly, then a
/// uniform offset inside it, so small and large inputs are equally common.
/// Integer-only, so the corpus is the same on every platform.
size_t OctaveUniformSize(Random* rng) {
  const size_t octave = size_t{256} << rng->Uniform(8);
  return octave + rng->Uniform(octave);
}

std::string JsonLike(Random* rng, size_t n) {
  static const char* kFields[] = {"patient_id", "status", "ward", "dose",
                                  "updated_at", "notes", "room", "tags"};
  static const char* kValues[] = {"stable", "critical", "cardiology",
                                  "oncology", "discharged", "pending"};
  std::string s;
  while (s.size() < n) {
    s += "{\"";
    s += kFields[rng->Uniform(8)];
    s += "\":";
    if (rng->Bernoulli(0.5)) {
      s += std::to_string(rng->Uniform(100000));
    } else {
      s += "\"";
      s += kValues[rng->Uniform(6)];
      s += "\"";
    }
    s += ",\"v\":" + std::to_string(rng->Uniform(1000)) + "},";
  }
  s.resize(n);
  return s;
}

std::string RandomBytes(Random* rng, size_t n) {
  std::string s(n, '\0');
  for (char& c : s) c = static_cast<char>(rng->Uniform(256));
  return s;
}

std::string RunHeavy(Random* rng, size_t n) {
  std::string s;
  while (s.size() < n) {
    size_t run = 1 + rng->Uniform(rng->Bernoulli(0.2) ? 2000 : 40);
    s.append(run, static_cast<char>('a' + rng->Uniform(4)));
    if (rng->Bernoulli(0.3)) s += RandomBytes(rng, 1 + rng->Uniform(6));
  }
  s.resize(n);
  return s;
}

/// A base that repeats a small vocabulary of >=8-byte tokens, so many base
/// positions share one anchor hash.
std::string RepeatedAnchors(Random* rng, size_t n) {
  static const char* kTokens[] = {"ABCDEFGH", "\"status\":\"stable\",",
                                  "0123456789abcdef", "ward=cardiology;"};
  std::string s;
  while (s.size() < n) {
    s += kTokens[rng->Uniform(4)];
    if (rng->Bernoulli(0.25)) {
      s.push_back(static_cast<char>('a' + rng->Uniform(26)));
    }
  }
  s.resize(n);
  return s;
}

/// Derives a target from `base` by splice edits, byte flips and block moves.
std::string Edit(Random* rng, const std::string& base) {
  std::string t = base;
  int edits = 1 + static_cast<int>(rng->Uniform(12));
  for (int e = 0; e < edits; ++e) {
    size_t pos = rng->Uniform(t.size() + 1);
    switch (rng->Uniform(4)) {
      case 0:
        if (pos < t.size()) {
          t.erase(pos, rng->Uniform(std::min<size_t>(64, t.size() - pos) + 1));
        }
        break;
      case 1:
        t.insert(pos, RandomBytes(rng, 1 + rng->Uniform(32)));
        break;
      case 2:
        if (pos < t.size()) t[pos] = static_cast<char>(rng->Uniform(256));
        break;
      default: {
        // Move a block of the base elsewhere in the target.
        if (base.empty()) break;
        size_t from = rng->Uniform(base.size());
        size_t len =
            std::min<size_t>(base.size() - from, 1 + rng->Uniform(256));
        t.insert(pos, base, from, len);
        break;
      }
    }
  }
  return t;
}

class DigestAccumulator {
 public:
  void Add(const std::string& output) {
    ++count_;
    total_bytes_ += output.size();
    std::string framed;
    PutVarint64(&framed, output.size());
    framed += output;
    digest_ = Mix64(digest_ ^ Fnv1a64(Slice(framed)));
  }
  uint64_t count() const { return count_; }
  uint64_t total_bytes() const { return total_bytes_; }
  uint64_t digest() const { return digest_; }

 private:
  uint64_t count_ = 0;
  uint64_t total_bytes_ = 0;
  uint64_t digest_ = 0;
};

std::vector<size_t> CorpusSizes(Random* rng, int count) {
  std::vector<size_t> sizes = {0, 1, 7, 8, 9, 15, 255};
  while (static_cast<int>(sizes.size()) < count) {
    sizes.push_back(OctaveUniformSize(rng));
  }
  return sizes;
}

using Generator = std::string (*)(Random*, size_t);

struct Shape {
  const char* name;
  Generator gen;
};

constexpr Shape kShapes[] = {
    {"json", JsonLike},
    {"random", RandomBytes},
    {"runs", RunHeavy},
    {"anchors", RepeatedAnchors},
};

struct Digest {
  std::string corpus;
  uint64_t count;
  uint64_t total_output_bytes;
  uint64_t digest;
};

/// Receives the seeded corpus: every compressor input and every delta
/// (base, target) pair of one shape, then the end of that shape.
class CorpusVisitor {
 public:
  virtual ~CorpusVisitor() = default;
  virtual void Lz(const std::string& input) = 0;
  virtual void Delta(const std::string& base, const std::string& target) = 0;
  virtual void EndShape(const char* name) = 0;
};

void VisitCorpus(CorpusVisitor* visitor) {
  uint64_t seed = 0x601d;
  for (const Shape& shape : kShapes) {
    Random rng(seed++);
    for (size_t n : CorpusSizes(&rng, kInputsPerShape)) {
      visitor->Lz(shape.gen(&rng, n));
    }
    for (size_t n : CorpusSizes(&rng, kDeltaPairsPerShape)) {
      std::string base = shape.gen(&rng, n);
      std::string target = Edit(&rng, base);
      visitor->Delta(base, target);
      // The reverse direction too: the base then lacks the target's edits.
      visitor->Delta(target, base);
    }
    visitor->EndShape(shape.name);
  }
}

std::vector<Digest> ComputeDigests() {
  class Digester : public CorpusVisitor {
   public:
    void Lz(const std::string& input) override {
      lz::Compress(Slice(input), &scratch_);
      lz_.Add(scratch_);
    }
    void Delta(const std::string& base, const std::string& target) override {
      delta_codec::Encode(Slice(base), Slice(target), &scratch_);
      delta_.Add(scratch_);
    }
    void EndShape(const char* name) override {
      out.push_back({std::string("lz/") + name, lz_.count(),
                     lz_.total_bytes(), lz_.digest()});
      out.push_back({std::string("delta/") + name, delta_.count(),
                     delta_.total_bytes(), delta_.digest()});
      lz_ = DigestAccumulator();
      delta_ = DigestAccumulator();
    }
    std::vector<Digest> out;

   private:
    std::string scratch_;
    DigestAccumulator lz_;
    DigestAccumulator delta_;
  };
  Digester digester;
  VisitCorpus(&digester);
  return digester.out;
}

TEST(CodecGoldenTest, EncoderOutputMatchesCommittedDigests) {
  std::vector<Digest> actual = ComputeDigests();
  if (std::getenv("RSTORE_PRINT_CODEC_GOLDEN") != nullptr) {
    for (const Digest& d : actual) {
      std::printf("    {\"%s\", %llu, %llu, 0x%016llxull},\n",
                  d.corpus.c_str(), static_cast<unsigned long long>(d.count),
                  static_cast<unsigned long long>(d.total_output_bytes),
                  static_cast<unsigned long long>(d.digest));
    }
  }
  ASSERT_EQ(actual.size(), std::size(kGolden));
  for (size_t i = 0; i < actual.size(); ++i) {
    SCOPED_TRACE(actual[i].corpus);
    EXPECT_EQ(actual[i].corpus, kGolden[i].corpus);
    EXPECT_EQ(actual[i].count, kGolden[i].count);
    EXPECT_EQ(actual[i].total_output_bytes, kGolden[i].total_output_bytes);
    EXPECT_EQ(actual[i].digest, kGolden[i].digest);
  }
}

// The decoders invert the encoders over the same corpus. The output
// strings are reused across calls, as the read path reuses its scratch.
TEST(CodecGoldenTest, DecodersRoundTripCorpus) {
  class RoundTripper : public CorpusVisitor {
   public:
    void Lz(const std::string& input) override {
      lz::Compress(Slice(input), &encoded_);
      ASSERT_TRUE(lz::Decompress(Slice(encoded_), &decoded_).ok());
      EXPECT_EQ(decoded_, input);
      ++inputs;
    }
    void Delta(const std::string& base, const std::string& target) override {
      delta_codec::Encode(Slice(base), Slice(target), &encoded_);
      ASSERT_TRUE(
          delta_codec::Apply(Slice(base), Slice(encoded_), &decoded_).ok());
      EXPECT_EQ(decoded_, target);
      ++inputs;
    }
    void EndShape(const char*) override {}
    int inputs = 0;

   private:
    std::string encoded_;
    std::string decoded_;
  };
  RoundTripper round_tripper;
  VisitCorpus(&round_tripper);
  EXPECT_EQ(round_tripper.inputs,
            4 * (kInputsPerShape + 2 * kDeltaPairsPerShape));
}

}  // namespace
}  // namespace rstore
