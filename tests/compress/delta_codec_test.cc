#include "compress/delta_codec.h"

#include <gtest/gtest.h>

#include "common/coding.h"
#include "common/random.h"

namespace rstore {
namespace {

std::string ApplyOk(const std::string& base, const std::string& delta) {
  std::string target;
  Status s = delta_codec::Apply(Slice(base), Slice(delta), &target);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return target;
}

std::string EncodeApply(const std::string& base, const std::string& target) {
  std::string delta;
  delta_codec::Encode(Slice(base), Slice(target), &delta);
  return ApplyOk(base, delta);
}

TEST(DeltaCodecTest, IdenticalPayloads) {
  std::string doc(2000, 'a');
  for (size_t i = 0; i < doc.size(); i += 7) doc[i] = 'b';
  std::string delta;
  delta_codec::Encode(Slice(doc), Slice(doc), &delta);
  // Identical base/target: the delta should be a handful of bytes.
  EXPECT_LT(delta.size(), 32u);
  EXPECT_EQ(ApplyOk(doc, delta), doc);
}

TEST(DeltaCodecTest, EmptyCases) {
  EXPECT_EQ(EncodeApply("", ""), "");
  EXPECT_EQ(EncodeApply("base content here", ""), "");
  EXPECT_EQ(EncodeApply("", "fresh target"), "fresh target");
}

TEST(DeltaCodecTest, SmallEditOnLargeDocument) {
  std::string base;
  for (int i = 0; i < 100; ++i) {
    base += "{\"field" + std::to_string(i) + "\":\"value" + std::to_string(i) +
            "\"},";
  }
  std::string target = base;
  target.replace(target.find("value50"), 7, "UPDATED");
  std::string delta;
  delta_codec::Encode(Slice(base), Slice(target), &delta);
  // 1-attribute change in a multi-KB doc => delta is a small fraction.
  EXPECT_LT(delta.size(), base.size() / 10);
  EXPECT_EQ(ApplyOk(base, delta), target);
}

TEST(DeltaCodecTest, DeltaSizeTracksChangeFraction) {
  // The Fig. 10 property: a Pd-bounded change yields a ~Pd-sized delta.
  Random rng(42);
  std::string base;
  for (int i = 0; i < 500; ++i) {
    base += "record field " + std::to_string(rng.Next() % 100000) + "; ";
  }
  size_t prev_delta_size = 0;
  for (double pd : {0.01, 0.05, 0.10, 0.50}) {
    std::string target = base;
    size_t flips = static_cast<size_t>(pd * target.size());
    for (size_t f = 0; f < flips; ++f) {
      target[rng.Uniform(target.size())] =
          static_cast<char>('a' + rng.Uniform(26));
    }
    std::string delta;
    delta_codec::Encode(Slice(base), Slice(target), &delta);
    EXPECT_EQ(ApplyOk(base, delta), target);
    EXPECT_GE(delta.size(), prev_delta_size);  // monotone in Pd
    prev_delta_size = delta.size();
  }
  // At Pd=1% the delta must be far smaller than the document.
  std::string target = base;
  for (size_t f = 0; f < base.size() / 100; ++f) {
    target[rng.Uniform(target.size())] = '#';
  }
  std::string delta;
  delta_codec::Encode(Slice(base), Slice(target), &delta);
  EXPECT_LT(delta.size(), base.size() / 2);
}

TEST(DeltaCodecTest, CompletelyDifferentPayloads) {
  Random rng(1);
  std::string base, target;
  for (int i = 0; i < 5000; ++i) {
    base.push_back(static_cast<char>(rng.Uniform(256)));
    target.push_back(static_cast<char>(rng.Uniform(256)));
  }
  std::string delta;
  delta_codec::Encode(Slice(base), Slice(target), &delta);
  // Bounded expansion even with zero overlap.
  EXPECT_LT(delta.size(), target.size() + target.size() / 20 + 64);
  EXPECT_EQ(ApplyOk(base, delta), target);
}

TEST(DeltaCodecTest, InsertionsAndDeletions) {
  std::string base =
      "line one\nline two\nline three\nline four\nline five\nline six\n"
      "line seven\nline eight\nline nine\nline ten\n";
  std::string with_insert = base;
  with_insert.insert(base.find("line five"), "inserted line here\n");
  EXPECT_EQ(EncodeApply(base, with_insert), with_insert);

  std::string with_delete = base;
  size_t p = with_delete.find("line three\n");
  with_delete.erase(p, 11);
  EXPECT_EQ(EncodeApply(base, with_delete), with_delete);

  std::string reordered =
      "line ten\nline nine\nline one\nline two\nline three\nline four\n";
  EXPECT_EQ(EncodeApply(base, reordered), reordered);
}

TEST(DeltaCodecTest, ApplyRejectsCorruptDelta) {
  std::string base = "some base data that is long enough to index properly";
  std::string target = base + " plus a tail";
  std::string delta;
  delta_codec::Encode(Slice(base), Slice(target), &delta);
  std::string out;
  // Truncations fail cleanly.
  for (size_t cut : {size_t{0}, delta.size() / 2}) {
    EXPECT_FALSE(
        delta_codec::Apply(Slice(base), Slice(delta.data(), cut), &out).ok());
  }
  // COPY beyond base range fails.
  std::string bad;
  bad.push_back(4);            // target_size = 4
  bad.push_back((4 << 1) | 1); // COPY len 4
  bad.push_back(120);          // offset 120 > base.size()
  EXPECT_TRUE(
      delta_codec::Apply(Slice("short"), Slice(bad), &out).IsCorruption());
  // offset + len wraps around: COPY len 2 at offset 2^64 - 1.
  std::string wrap;
  PutVarint64(&wrap, 2);
  PutVarint64(&wrap, (2 << 1) | 1);
  PutVarint64(&wrap, UINT64_MAX);
  EXPECT_TRUE(
      delta_codec::Apply(Slice(base), Slice(wrap), &out).IsCorruption());
  // Ops that would grow the target past its declared size are rejected
  // before they append, not after the whole delta has expanded.
  std::string overrun;
  PutVarint64(&overrun, 8);  // target_size = 8
  for (int i = 0; i < 1000; ++i) {
    PutVarint64(&overrun, (base.size() << 1) | 1);  // COPY the whole base
    PutVarint64(&overrun, 0);
  }
  EXPECT_TRUE(
      delta_codec::Apply(Slice(base), Slice(overrun), &out).IsCorruption());
  EXPECT_LE(out.size(), 8u);
  std::string add_overrun;
  PutVarint64(&add_overrun, 2);           // target_size = 2
  PutVarint64(&add_overrun, (3 << 1) | 0);  // ADD 3 bytes
  add_overrun += "abc";
  EXPECT_TRUE(delta_codec::Apply(Slice(base), Slice(add_overrun), &out)
                  .IsCorruption());
}

TEST(DeltaCodecTest, RandomizedRoundTripSweep) {
  Random rng(2026);
  for (int trial = 0; trial < 50; ++trial) {
    size_t base_len = 1 + rng.Uniform(4000);
    std::string base;
    for (size_t i = 0; i < base_len; ++i) {
      base.push_back(static_cast<char>('a' + rng.Uniform(6)));
    }
    // Target = base with random splice edits.
    std::string target = base;
    int edits = 1 + static_cast<int>(rng.Uniform(5));
    for (int e = 0; e < edits; ++e) {
      size_t pos = rng.Uniform(target.size() + 1);
      if (rng.Bernoulli(0.5) && pos < target.size()) {
        target.erase(pos, rng.Uniform(std::min<size_t>(
                              20, target.size() - pos) + 1));
      } else {
        std::string ins;
        for (size_t i = 0; i < 1 + rng.Uniform(20); ++i) {
          ins.push_back(static_cast<char>('A' + rng.Uniform(26)));
        }
        target.insert(pos, ins);
      }
    }
    EXPECT_EQ(EncodeApply(base, target), target) << "trial " << trial;
  }
}

}  // namespace
}  // namespace rstore
