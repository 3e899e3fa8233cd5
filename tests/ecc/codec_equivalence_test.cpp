// Randomized differential suite: the word-parallel codecs must be
// bit-identical to the retained scalar references
// (src/ecc/scalar_reference.h) — same encode output and the same
// DecodeResult (status, corrected_bits, data) on every input, including
// error weights past the correction capability where classification, not
// correction, is the contract.
//
// This suite runs under the ASan and TSan tier-1 legs too
// (scripts/tier1.sh), so the remainder, root-finding and
// thread_local-scratch paths get sanitizer coverage at volume.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "ecc/bch.h"
#include "ecc/scalar_reference.h"
#include "ecc/secded.h"

namespace mecc::ecc {
namespace {

BitVec random_data(std::size_t n, Rng& rng) {
  BitVec d(n);
  for (std::size_t i = 0; i < n; ++i) d.set(i, rng.chance(0.5));
  return d;
}

/// Flips `weight` distinct random positions of `cw`.
void inject(BitVec& cw, std::size_t weight, Rng& rng) {
  std::vector<std::size_t> touched;
  while (touched.size() < weight) {
    const std::size_t pos = rng.next_below(cw.size());
    if (std::find(touched.begin(), touched.end(), pos) != touched.end()) {
      continue;  // re-flipping would cancel and lower the weight
    }
    touched.push_back(pos);
    cw.flip(pos);
  }
}

struct CodecPair {
  std::string label;
  std::unique_ptr<Code> vec;
  std::unique_ptr<Code> ref;
  std::size_t trials;
};

std::vector<CodecPair> make_pairs() {
  std::vector<CodecPair> pairs;
  // Trial counts chosen so every codec sees >= 10k decoded lines across
  // the weight sweep (trials * (t + 3) weights).
  pairs.push_back({"secded64", std::make_unique<Secded>(64),
                   std::make_unique<reference::ScalarSecded>(64), 4000});
  pairs.push_back({"secded512", std::make_unique<Secded>(512),
                   std::make_unique<reference::ScalarSecded>(512), 3000});
  pairs.push_back({"bch_t1", std::make_unique<Bch>(10, 1, 512),
                   std::make_unique<reference::ScalarBch>(10, 1, 512), 2500});
  pairs.push_back({"bch_t3", std::make_unique<Bch>(10, 3, 512),
                   std::make_unique<reference::ScalarBch>(10, 3, 512), 1700});
  pairs.push_back({"bch_t6", std::make_unique<Bch>(10, 6, 512),
                   std::make_unique<reference::ScalarBch>(10, 6, 512), 1200});
  // Data that is not a whole number of bytes or 64-bit words. At k = 30
  // (p = 18) the top data byte also holds two parity bits, which the
  // decoder's remainder must leave out; at k = 800 (p = 55) the received
  // parity straddles two 64-bit words.
  pairs.push_back({"bch_m6_t3_k30", std::make_unique<Bch>(6, 3, 30),
                   std::make_unique<reference::ScalarBch>(6, 3, 30), 1700});
  pairs.push_back({"bch_m11_t5_k800", std::make_unique<Bch>(11, 5, 800),
                   std::make_unique<reference::ScalarBch>(11, 5, 800),
                   1250});
  return pairs;
}

TEST(CodecEquivalence, GeometryMatchesReference) {
  for (const auto& p : make_pairs()) {
    EXPECT_EQ(p.vec->data_bits(), p.ref->data_bits()) << p.label;
    EXPECT_EQ(p.vec->parity_bits(), p.ref->parity_bits()) << p.label;
    EXPECT_EQ(p.vec->correct_capability(), p.ref->correct_capability())
        << p.label;
  }
}

TEST(CodecEquivalence, EncodeIsBitIdentical) {
  for (const auto& p : make_pairs()) {
    Rng rng(0xE0C0 + p.vec->data_bits());
    for (std::size_t trial = 0; trial < p.trials; ++trial) {
      const BitVec d = random_data(p.vec->data_bits(), rng);
      ASSERT_EQ(p.vec->encode(d), p.ref->encode(d))
          << p.label << " trial " << trial;
    }
  }
}

TEST(CodecEquivalence, DecodeIsBitIdenticalAcrossErrorWeights) {
  // Error weight sweeps 0 .. t+2: clean path, every correctable weight,
  // and two weights past capability where the reference's
  // classification (kCorrected-with-aliasing vs kUncorrectable) is the
  // behavior being locked, not "correctness".
  std::size_t lines = 0;
  for (const auto& p : make_pairs()) {
    Rng rng(0xDEC0 + p.vec->data_bits() * 31 +
            p.vec->correct_capability());
    const std::size_t t = p.vec->correct_capability();
    for (std::size_t trial = 0; trial < p.trials; ++trial) {
      const BitVec d = random_data(p.vec->data_bits(), rng);
      const BitVec cw = p.ref->encode(d);
      for (std::size_t weight = 0; weight <= t + 2; ++weight) {
        BitVec bad = cw;
        inject(bad, weight, rng);
        const DecodeResult got = p.vec->decode(bad);
        const DecodeResult want = p.ref->decode(bad);
        ASSERT_EQ(got.status, want.status)
            << p.label << " trial " << trial << " weight " << weight;
        ASSERT_EQ(got.corrected_bits, want.corrected_bits)
            << p.label << " trial " << trial << " weight " << weight;
        ASSERT_EQ(got.data, want.data)
            << p.label << " trial " << trial << " weight " << weight;
        ++lines;
      }
    }
  }
  // The differential contract is volume-based; keep the suite honest
  // about how much it actually exercised.
  EXPECT_GE(lines, 10000u * make_pairs().size());
}

TEST(CodecEquivalence, BchEncodeFallbackPathMatchesReference) {
  // m=10 t=7 has p=70 > 63, exercising the Gf2Poly::mod encode fallback
  // instead of the single-word LFSR.
  const Bch vec(10, 7, 512);
  const reference::ScalarBch ref(10, 7, 512);
  ASSERT_GT(vec.parity_bits(), 63u);
  Rng rng(77);
  for (int trial = 0; trial < 200; ++trial) {
    const BitVec d = random_data(512, rng);
    ASSERT_EQ(vec.encode(d), ref.encode(d)) << "trial " << trial;
    BitVec bad = vec.encode(d);
    inject(bad, static_cast<std::size_t>(trial % 9), rng);
    const DecodeResult got = vec.decode(bad);
    const DecodeResult want = ref.decode(bad);
    ASSERT_EQ(got.status, want.status) << "trial " << trial;
    ASSERT_EQ(got.corrected_bits, want.corrected_bits) << "trial " << trial;
    ASSERT_EQ(got.data, want.data) << "trial " << trial;
  }
}

}  // namespace
}  // namespace mecc::ecc
