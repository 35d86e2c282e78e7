#include "compress/lz_codec.h"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "common/coding.h"
#include "common/random.h"
#include "compress/compressor.h"

namespace rstore {
namespace {

std::string RoundTrip(const std::string& input) {
  std::string compressed, output;
  lz::Compress(Slice(input), &compressed);
  Status s = lz::Decompress(Slice(compressed), &output);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return output;
}

TEST(LzCodecTest, EmptyInput) {
  EXPECT_EQ(RoundTrip(""), "");
}

TEST(LzCodecTest, TinyInput) {
  EXPECT_EQ(RoundTrip("a"), "a");
  EXPECT_EQ(RoundTrip("abc"), "abc");
}

TEST(LzCodecTest, RepetitiveInputCompresses) {
  std::string input;
  for (int i = 0; i < 1000; ++i) input += "the quick brown fox ";
  std::string compressed;
  lz::Compress(Slice(input), &compressed);
  EXPECT_LT(compressed.size(), input.size() / 10);
  std::string output;
  ASSERT_TRUE(lz::Decompress(Slice(compressed), &output).ok());
  EXPECT_EQ(output, input);
}

TEST(LzCodecTest, RunLengthOverlappingMatch) {
  // distance < length exercises the overlapping-copy path.
  std::string input(10000, 'z');
  std::string compressed;
  lz::Compress(Slice(input), &compressed);
  EXPECT_LT(compressed.size(), 100u);
  EXPECT_EQ(RoundTrip(input), input);
}

TEST(LzCodecTest, JsonLikeTextCompresses) {
  std::string input;
  for (int i = 0; i < 200; ++i) {
    input += "{\"patient_id\":" + std::to_string(i) +
             ",\"status\":\"stable\",\"ward\":\"cardiology\"},";
  }
  std::string compressed;
  lz::Compress(Slice(input), &compressed);
  EXPECT_LT(compressed.size(), input.size() / 3);
  EXPECT_EQ(RoundTrip(input), input);
}

TEST(LzCodecTest, IncompressibleRandomBytes) {
  Random rng(42);
  std::string input;
  for (int i = 0; i < 10000; ++i) {
    input.push_back(static_cast<char>(rng.Uniform(256)));
  }
  std::string compressed;
  lz::Compress(Slice(input), &compressed);
  // Bounded expansion on incompressible data.
  EXPECT_LT(compressed.size(), input.size() + input.size() / 50 + 32);
  EXPECT_EQ(RoundTrip(input), input);
}

TEST(LzCodecTest, BinaryWithEmbeddedNuls) {
  std::string input = "abc";
  input.push_back('\0');
  input += "def";
  input.push_back('\0');
  input += input;
  input += input;
  EXPECT_EQ(RoundTrip(input), input);
}

TEST(LzCodecTest, PeekUncompressedSize) {
  std::string input(12345, 'x');
  std::string compressed;
  lz::Compress(Slice(input), &compressed);
  auto size = lz::PeekUncompressedSize(Slice(compressed));
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 12345u);
}

TEST(LzCodecTest, DecompressRejectsTruncation) {
  std::string input;
  for (int i = 0; i < 100; ++i) input += "repeated block data ";
  std::string compressed;
  lz::Compress(Slice(input), &compressed);
  std::string output;
  // Any strict prefix must fail, not crash.
  for (size_t cut : {size_t{0}, compressed.size() / 2, compressed.size() - 1}) {
    Status s = lz::Decompress(Slice(compressed.data(), cut), &output);
    EXPECT_FALSE(s.ok()) << "cut=" << cut;
  }
}

TEST(LzCodecTest, DecompressRejectsBadDistance) {
  // Hand-craft a frame with a match whose distance exceeds output written.
  std::string frame;
  {
    std::string tmp;
    // header: claims 8 bytes of output
    tmp.push_back(8 << 0);  // varint 8 (< 0x80)
    // match token: len=4 -> (4<<1)|1 = 9; distance = 100
    tmp.push_back(9);
    tmp.push_back(100);
    frame = tmp;
  }
  std::string output;
  EXPECT_TRUE(lz::Decompress(Slice(frame), &output).IsCorruption());
}

/// Builds a frame token by token and tracks the output it must decode to.
class FrameBuilder {
 public:
  void Literal(const std::string& bytes) {
    PutVarint64(&tokens_, bytes.size() << 1);
    tokens_ += bytes;
    output_ += bytes;
  }
  void Match(size_t len, size_t distance) {
    PutVarint64(&tokens_, (len << 1) | 1);
    PutVarint64(&tokens_, distance);
    for (size_t k = 0; k < len; ++k) {
      output_.push_back(output_[output_.size() - distance]);
    }
  }
  /// The frame, headed by the true output size or by `claimed`.
  std::string Frame() const { return Frame(output_.size()); }
  std::string Frame(uint64_t claimed) const {
    std::string frame;
    PutVarint64(&frame, claimed);
    return frame + tokens_;
  }
  const std::string& output() const { return output_; }

 private:
  std::string tokens_;
  std::string output_;
};

/// Decompresses `frame` from an exactly sized heap copy, so a read past its
/// end is an out-of-bounds access that AddressSanitizer reports.
Status DecompressExact(const std::string& frame, std::string* out) {
  auto exact = std::make_unique_for_overwrite<char[]>(frame.size());
  std::memcpy(exact.get(), frame.data(), frame.size());
  return lz::Decompress(Slice(exact.get(), frame.size()), out);
}

std::string Pattern(size_t n, char first = 'a') {
  std::string s(n, ' ');
  for (size_t i = 0; i < n; ++i) s[i] = static_cast<char>(first + i % 23);
  return s;
}

// Every match copy path: 16-byte block (len <= 16, distance >= 16), plain
// memcpy (distance >= len), 8-byte steps (8 <= distance < len) and the byte
// loop (distance < 8), each ending at the frame's end or followed by more
// output that must overwrite the copy's overshoot.
TEST(LzCodecTest, HandBuiltOverlappingMatchesEveryDistanceAndLength) {
  std::string out = "stale bytes from an earlier call";
  for (size_t distance = 1; distance <= 17; ++distance) {
    for (size_t len = 1; len <= 40; ++len) {
      for (bool tail : {false, true}) {
        FrameBuilder b;
        b.Literal(Pattern(distance));
        b.Match(len, distance);
        if (tail) b.Literal("XYZ");
        ASSERT_TRUE(DecompressExact(b.Frame(), &out).ok())
            << "distance " << distance << " len " << len;
        ASSERT_EQ(out, b.output())
            << "distance " << distance << " len " << len << " tail " << tail;
      }
    }
  }
}

// A literal run ending 0-16 bytes before the end of the input: the 16-byte
// literal copy must only happen when 16 input bytes remain.
TEST(LzCodecTest, HandBuiltLiteralRunNearEndOfInput) {
  std::string out;
  for (size_t literal = 1; literal <= 20; ++literal) {
    for (size_t remaining = 0; remaining <= 16; ++remaining) {
      FrameBuilder b;
      b.Literal(Pattern(literal, 'A'));
      // Fill `remaining` input bytes: 2-byte matches and a 1-byte empty
      // literal.
      for (size_t r = 0; r + 2 <= remaining; r += 2) b.Match(4, 1);
      if (remaining % 2 == 1) b.Literal("");
      ASSERT_TRUE(DecompressExact(b.Frame(), &out).ok())
          << "literal " << literal << " remaining " << remaining;
      ASSERT_EQ(out, b.output())
          << "literal " << literal << " remaining " << remaining;
    }
  }
}

TEST(LzCodecTest, HandBuiltMatchEndsExactlyAtExpectedSize) {
  std::string out;
  for (size_t len : {1u, 8u, 15u, 16u, 17u, 33u}) {
    FrameBuilder b;
    b.Literal(Pattern(40));
    b.Match(len, 20);  // 16-byte block or memcpy
    ASSERT_TRUE(DecompressExact(b.Frame(), &out).ok()) << len;
    EXPECT_EQ(out, b.output()) << len;
    EXPECT_EQ(out.size(), 40 + len);
  }
}

// A header claiming far more output than the tokens produce fails, and the
// buffer it sized stays bounded (at most 1 MB up front).
TEST(LzCodecTest, LyingHeaderIsRejectedWithoutHugeAllocation) {
  FrameBuilder b;
  b.Literal("abc");
  b.Match(10, 3);
  std::string out;
  EXPECT_TRUE(DecompressExact(b.Frame(uint64_t{1} << 27), &out)
                  .IsCorruption());
  EXPECT_LE(out.capacity(), (size_t{1} << 20) + 64);
  // Above the frame cap the header alone is rejected.
  std::string cap_out;
  EXPECT_TRUE(DecompressExact(b.Frame((uint64_t{1} << 28) + 1), &cap_out)
                  .IsCorruption());
  EXPECT_EQ(cap_out.capacity(), std::string().capacity());
}

TEST(LzCodecTest, EveryCorruptionCaseFires) {
  std::string out;
  auto corrupt = [&](const std::string& frame) {
    return DecompressExact(frame, &out).IsCorruption();
  };
  FrameBuilder ok;
  ok.Literal("abcdefgh");
  ok.Match(8, 8);
  ASSERT_TRUE(DecompressExact(ok.Frame(), &out).ok());

  // Distance 0, and distance beyond the output written so far.
  FrameBuilder zero;
  zero.Literal("abcd");
  std::string frame = zero.Frame(8);
  PutVarint64(&frame, (4 << 1) | 1);
  PutVarint64(&frame, 0);
  EXPECT_TRUE(corrupt(frame));
  frame = zero.Frame(8);
  PutVarint64(&frame, (4 << 1) | 1);
  PutVarint64(&frame, 5);
  EXPECT_TRUE(corrupt(frame));
  // Match and literal overrunning the declared size.
  EXPECT_TRUE(corrupt(ok.Frame(12)));
  FrameBuilder lit;
  lit.Literal("abcdefgh");
  EXPECT_TRUE(corrupt(lit.Frame(7)));
  // Truncated literal run, token and distance.
  std::string truncated = lit.Frame();
  truncated.pop_back();
  EXPECT_TRUE(corrupt(truncated));
  EXPECT_TRUE(corrupt(ok.Frame() + "\x80"));
  std::string no_distance = lit.Frame(12);
  PutVarint64(&no_distance, (4 << 1) | 1);
  EXPECT_TRUE(corrupt(no_distance));
  // Output shorter than declared.
  EXPECT_TRUE(corrupt(ok.Frame(17)));
  // Frame cap.
  EXPECT_TRUE(corrupt(ok.Frame((uint64_t{1} << 28) + 1)));
}

TEST(LzCodecTest, VariedSizesSweep) {
  Random rng(7);
  for (size_t size : {1u, 5u, 64u, 255u, 1024u, 65536u}) {
    std::string input;
    input.reserve(size);
    // Half-compressible: random vocabulary of 16 words.
    static const char* kWords[] = {"alpha", "beta", "gamma", "delta",
                                   "eps",   "zeta", "eta",   "theta"};
    while (input.size() < size) {
      input += kWords[rng.Uniform(8)];
      input.push_back(' ');
    }
    input.resize(size);
    EXPECT_EQ(RoundTrip(input), input) << size;
  }
}

TEST(CompressorTest, RegistryRoundTrip) {
  std::string input = "hello hello hello hello hello";
  for (CompressionType t : {CompressionType::kNone, CompressionType::kLZ}) {
    const Compressor* c = GetCompressor(t);
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(c->type(), t);
    std::string compressed, output;
    c->Compress(Slice(input), &compressed);
    ASSERT_TRUE(c->Decompress(Slice(compressed), &output).ok());
    EXPECT_EQ(output, input);
  }
}

TEST(CompressorTest, NoneIsIdentity) {
  const Compressor* c = GetCompressor(CompressionType::kNone);
  std::string out;
  c->Compress(Slice("abc"), &out);
  EXPECT_EQ(out, "abc");
}

}  // namespace
}  // namespace rstore
