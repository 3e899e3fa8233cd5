#include "ecc/bch.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "ecc/scalar_reference.h"
#include "galois/gf.h"
#include "galois/gfm_poly.h"

namespace mecc::ecc {
namespace {

BitVec random_data(std::size_t n, Rng& rng) {
  BitVec d(n);
  for (std::size_t i = 0; i < n; ++i) d.set(i, rng.chance(0.5));
  return d;
}

/// Flips `count` distinct random bits of `cw`.
BitVec corrupt(const BitVec& cw, std::size_t count, Rng& rng) {
  BitVec bad = cw;
  std::set<std::size_t> flipped;
  while (flipped.size() < count) {
    const std::size_t p = rng.next_below(cw.size());
    if (flipped.insert(p).second) bad.flip(p);
  }
  return bad;
}

TEST(Bch, Ecc6GeometryMatchesPaper) {
  // Paper S III-D: ECC-6 over a 64 B line needs 60 parity bits (t*m with
  // m = 10), fitting the 60 bits left in the (72,64) spare space.
  const Bch code(10, 6, 512);
  EXPECT_EQ(code.data_bits(), 512u);
  EXPECT_EQ(code.parity_bits(), 60u);
  EXPECT_EQ(code.correct_capability(), 6u);
}

TEST(Bch, GeneratorDividesXnMinusOne) {
  // g(x) must divide x^n - 1 for n = 2^m - 1 (defining property of a
  // cyclic code).
  const Bch code(6, 2, 20);
  galois::Gf2Poly xn1 = galois::Gf2Poly::monomial(63) +
                        galois::Gf2Poly::from_mask(1);
  EXPECT_TRUE(xn1.mod(code.generator()).is_zero());
}

TEST(Bch, CleanRoundTrip) {
  Rng rng(1);
  const Bch code(10, 6, 512);
  for (int trial = 0; trial < 20; ++trial) {
    const BitVec d = random_data(512, rng);
    const DecodeResult r = code.decode(code.encode(d));
    EXPECT_EQ(r.status, DecodeStatus::kClean);
    EXPECT_EQ(r.data, d);
  }
}

class BchCorrectsUpToT : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BchCorrectsUpToT, RandomErrorPatterns) {
  const std::size_t nerr = GetParam();
  Rng rng(100 + nerr);
  const Bch code(10, 6, 512);
  for (int trial = 0; trial < 15; ++trial) {
    const BitVec d = random_data(512, rng);
    const BitVec cw = code.encode(d);
    const BitVec bad = corrupt(cw, nerr, rng);
    const DecodeResult r = code.decode(bad);
    ASSERT_EQ(r.status,
              nerr == 0 ? DecodeStatus::kClean : DecodeStatus::kCorrected)
        << "errors=" << nerr;
    EXPECT_EQ(r.corrected_bits, nerr);
    EXPECT_EQ(r.data, d);
  }
}

INSTANTIATE_TEST_SUITE_P(ZeroToSixErrors, BchCorrectsUpToT,
                         ::testing::Range<std::size_t>(0, 7));

TEST(Bch, ErrorsInParityBitsAreAlsoCorrected) {
  Rng rng(7);
  const Bch code(10, 6, 512);
  const BitVec d = random_data(512, rng);
  const BitVec cw = code.encode(d);
  BitVec bad = cw;
  // Flip bits only inside the parity region [512, 572).
  bad.flip(512);
  bad.flip(540);
  bad.flip(571);
  const DecodeResult r = code.decode(bad);
  EXPECT_EQ(r.status, DecodeStatus::kCorrected);
  EXPECT_EQ(r.corrected_bits, 3u);
  EXPECT_EQ(r.data, d);
}

TEST(Bch, SevenErrorsNeverSilentlyCorruptToWrongCount) {
  // Beyond t errors the decoder must either flag uncorrectable or
  // miscorrect to some other codeword; it must never return the original
  // data while claiming a correction of <= t bits that didn't happen.
  Rng rng(8);
  const Bch code(10, 6, 512);
  int uncorrectable = 0;
  const int kTrials = 30;
  for (int trial = 0; trial < kTrials; ++trial) {
    const BitVec d = random_data(512, rng);
    const BitVec cw = code.encode(d);
    const BitVec bad = corrupt(cw, 7, rng);
    const DecodeResult r = code.decode(bad);
    if (r.status == DecodeStatus::kUncorrectable) {
      ++uncorrectable;
    } else {
      // A miscorrection lands on a *different* codeword.
      ASSERT_EQ(r.status, DecodeStatus::kCorrected);
      EXPECT_NE(r.data, d);
    }
  }
  // For random 7-error patterns, detection is the overwhelmingly common
  // outcome for this (572, 512) code.
  EXPECT_GT(uncorrectable, kTrials / 2);
}

TEST(Bch, SmallerTCodesWork) {
  Rng rng(9);
  for (std::size_t t = 1; t <= 4; ++t) {
    const Bch code(10, t, 512);
    EXPECT_EQ(code.parity_bits(), t * 10) << "t=" << t;
    const BitVec d = random_data(512, rng);
    const BitVec bad = corrupt(code.encode(d), t, rng);
    const DecodeResult r = code.decode(bad);
    EXPECT_EQ(r.status, DecodeStatus::kCorrected);
    EXPECT_EQ(r.data, d);
  }
}

TEST(Bch, UnshortenedSmallCode) {
  // BCH(15, 5) with t = 3: a classic textbook code (m = 4).
  Rng rng(10);
  const Bch code(4, 3, 5);
  EXPECT_EQ(code.parity_bits(), 10u);
  const BitVec d = random_data(5, rng);
  const BitVec bad = corrupt(code.encode(d), 3, rng);
  const DecodeResult r = code.decode(bad);
  EXPECT_EQ(r.status, DecodeStatus::kCorrected);
  EXPECT_EQ(r.data, d);
}

TEST(Bch, RejectsOversizedData) {
  // 2^6 - 1 = 63 total bits; t=2 needs 12 parity, so k > 51 must throw.
  EXPECT_THROW(Bch(6, 2, 52), std::invalid_argument);
  EXPECT_NO_THROW(Bch(6, 2, 51));
}

TEST(Bch, BurstOfAdjacentErrorsWithinT) {
  Rng rng(11);
  const Bch code(10, 6, 512);
  const BitVec d = random_data(512, rng);
  BitVec bad = code.encode(d);
  for (std::size_t i = 100; i < 106; ++i) bad.flip(i);  // 6 adjacent flips
  const DecodeResult r = code.decode(bad);
  EXPECT_EQ(r.status, DecodeStatus::kCorrected);
  EXPECT_EQ(r.corrected_bits, 6u);
  EXPECT_EQ(r.data, d);
}

TEST(Bch, CorrectsEveryWeightOneAndTwoPattern) {
  // Exhaustive over the line code: all 572 single-bit and all 163 306
  // two-bit error patterns take the closed-form L = 1 and L = 2 root
  // paths and must come back corrected to the exact data.
  Rng rng(12);
  const Bch code(10, 6, 512);
  const BitVec d = random_data(512, rng);
  const BitVec cw = code.encode(d);
  const std::size_t n = cw.size();
  std::size_t failures = 0;
  for (std::size_t a = 0; a < n; ++a) {
    BitVec one = cw;
    one.flip(a);
    const DecodeResult r1 = code.decode(one);
    failures += r1.status != DecodeStatus::kCorrected ||
                r1.corrected_bits != 1 || r1.data != d;
    for (std::size_t b = a + 1; b < n; ++b) {
      BitVec two = one;
      two.flip(b);
      const DecodeResult r2 = code.decode(two);
      const bool ok = r2.status == DecodeStatus::kCorrected &&
                      r2.corrected_bits == 2 && r2.data == d;
      EXPECT_TRUE(ok) << "errors at " << a << " and " << b;
      failures += !ok;
      if (failures > 10) FAIL() << "stopping after 10 failures";
    }
  }
  EXPECT_EQ(failures, 0u);
}

/// Which root-finding branch Bch::decode takes on a word, recomputed
/// independently: syndromes by direct evaluation, Berlekamp-Massey on
/// GfmPoly, and the locator evaluated at every alpha^-i of the field.
struct LocatorCensus {
  std::size_t L = 0;
  bool degree_matches = false;  // deg(lambda) == L
  galois::Elem lambda1 = 0;
  std::size_t roots = 0;        // distinct roots in the whole field
  std::size_t roots_below_n = 0;
};

LocatorCensus census(const galois::GaloisField& gf, std::size_t t,
                     std::size_t k, std::size_t p, const BitVec& word) {
  const std::uint32_t order = gf.order();
  std::vector<galois::Elem> syn(2 * t + 1, 0);
  for (std::size_t cwpos = 0; cwpos < word.size(); ++cwpos) {
    if (!word.get(cwpos)) continue;
    const std::size_t pos = cwpos < k ? p + cwpos : cwpos - k;
    for (std::size_t j = 1; j <= 2 * t; ++j) {
      syn[j] ^= gf.alpha_pow(static_cast<std::uint32_t>((pos * j) % order));
    }
  }
  galois::GfmPoly lambda(std::vector<galois::Elem>{1});
  galois::GfmPoly prev(std::vector<galois::Elem>{1});
  std::size_t L = 0;
  std::size_t shift = 1;
  galois::Elem prev_disc = 1;
  for (std::size_t it = 0; it < 2 * t; ++it) {
    galois::Elem d = syn[it + 1];
    for (std::size_t i = 1; i <= L; ++i) {
      d ^= gf.mul(lambda.coeff(i), syn[it + 1 - i]);
    }
    if (d == 0) {
      ++shift;
      continue;
    }
    const galois::GfmPoly next =
        lambda.add(prev.scale(gf, gf.div(d, prev_disc)).shift(shift));
    if (2 * L <= it) {
      L = it + 1 - L;
      prev = lambda;
      prev_disc = d;
      shift = 1;
    } else {
      ++shift;
    }
    lambda = next;
  }
  LocatorCensus c;
  c.L = L;
  c.degree_matches = static_cast<std::size_t>(lambda.degree()) == L;
  c.lambda1 = lambda.coeff(1);
  for (std::uint32_t i = 0; i < order; ++i) {
    if (lambda.eval(gf, gf.alpha_pow((order - i) % order)) == 0) {
      ++c.roots;
      c.roots_below_n += i < word.size();
    }
  }
  return c;
}

/// A codeword whose parity bits carry e(x) mod g(x) for the error
/// pattern e(x) = sum of x^i over `positions` (any i < 2^m - 1). Its
/// syndromes are e's, so the decoder sees e's locator, roots in the
/// shortened prefix included.
BitVec word_with_syndromes_of(const Bch& code, const BitVec& cw,
                              const std::vector<std::size_t>& positions,
                              std::uint32_t order) {
  BitVec e(order);
  for (const std::size_t i : positions) e.flip(i);
  const galois::Gf2Poly rem =
      galois::Gf2Poly::from_bits(e).mod(code.generator());
  BitVec word = cw;
  for (std::size_t j = 0; j < code.parity_bits(); ++j) {
    if (rem.coeff(j)) word.flip(code.data_bits() + j);
  }
  return word;
}

TEST(Bch, BeyondCapabilityMatchesScalarOnEveryRootBranch) {
  // Three kinds of word drive the locator into every root-finding
  // branch: 3..t+3 random errors; words carrying the syndromes of w <= t
  // errors anywhere in the field, so roots fall in the shortened prefix
  // (>= n); and four errors at alpha^i summing to zero, i.e.
  // lambda_1 = S_1 = 0. Every word must decode exactly as the scalar
  // reference does, and the census below must see each branch. A
  // degree-2 locator never has a double root: lambda_1 = S_1 for binary
  // codes, and L = 2 needs S_1 != 0.
  std::map<std::string, std::size_t> seen;
  for (const std::size_t t :
       {std::size_t{2}, std::size_t{3}, std::size_t{4}, std::size_t{6}}) {
    const Bch code(10, t, 512);
    const reference::ScalarBch ref(10, t, 512);
    const galois::GaloisField gf(10);
    const std::uint32_t order = gf.order();
    Rng rng(0xB0075 + t);
    std::vector<BitVec> words;
    for (std::size_t weight = 3; weight <= t + 3; ++weight) {
      for (int trial = 0; trial < 300; ++trial) {
        words.push_back(
            corrupt(code.encode(random_data(512, rng)), weight, rng));
      }
    }
    for (std::size_t weight = 3; weight <= t; ++weight) {
      for (int trial = 0; trial < 200; ++trial) {
        std::set<std::size_t> pos;
        while (pos.size() < weight) pos.insert(rng.next_below(order));
        words.push_back(word_with_syndromes_of(
            code, code.encode(random_data(512, rng)),
            {pos.begin(), pos.end()}, order));
      }
    }
    for (int trial = 0; t >= 4 && trial < 100; ++trial) {
      std::set<std::size_t> pos;
      while (pos.size() < 3) pos.insert(rng.next_below(code.codeword_bits()));
      galois::Elem sum = 0;
      for (const std::size_t i : pos) {
        sum ^= gf.alpha_pow(static_cast<std::uint32_t>(i));
      }
      if (sum == 0 || !pos.insert(gf.log(sum)).second) continue;
      words.push_back(word_with_syndromes_of(
          code, code.encode(random_data(512, rng)),
          {pos.begin(), pos.end()}, order));
    }

    for (std::size_t w = 0; w < words.size(); ++w) {
      const BitVec& bad = words[w];
      const DecodeResult got = code.decode(bad);
      const DecodeResult want = ref.decode(bad);
      ASSERT_EQ(got.status, want.status) << "t=" << t << " word " << w;
      ASSERT_EQ(got.corrected_bits, want.corrected_bits)
          << "t=" << t << " word " << w;
      ASSERT_EQ(got.data, want.data) << "t=" << t << " word " << w;

      const LocatorCensus c = census(gf, t, 512, code.parity_bits(), bad);
      if (c.L > t || !c.degree_matches || c.L == 1) continue;
      const std::string L =
          c.L >= 5 ? "L>=5" : "L=" + std::to_string(c.L);
      std::string branch;
      if (c.roots < c.L) {
        branch = c.L >= 5 ? " rejected by the split test"
                          : " fewer than L roots in the field";
      } else if (c.roots_below_n < c.L) {
        branch = " root at or beyond n";
      } else {
        branch = " all roots below n";
      }
      ++seen[L + branch];
      if (c.L == 4 && c.lambda1 == 0) ++seen["L=4 lambda_1=0"];
      if (c.L == 2) {
        EXPECT_NE(c.roots, 1u) << "t=" << t << " word " << w;
      }
      if (branch != " all roots below n") {
        EXPECT_EQ(got.status, DecodeStatus::kUncorrectable)
            << "t=" << t << " word " << w << ": " << L << branch;
      }
    }
  }
  for (const char* branch :
       {"L=2 fewer than L roots in the field", "L=2 root at or beyond n",
        "L=3 all roots below n", "L=3 root at or beyond n",
        "L=3 fewer than L roots in the field", "L=4 all roots below n",
        "L=4 root at or beyond n", "L=4 fewer than L roots in the field",
        "L=4 lambda_1=0", "L>=5 rejected by the split test",
        "L>=5 root at or beyond n", "L>=5 all roots below n"}) {
    EXPECT_GT(seen[branch], 0u) << branch;
  }
}

TEST(Bch, AllZeroDataIsACodeword) {
  const Bch code(10, 6, 512);
  BitVec zero(512);
  const BitVec cw = code.encode(zero);
  EXPECT_FALSE(cw.any());  // systematic encoding of 0 is the zero word
  EXPECT_EQ(code.decode(cw).status, DecodeStatus::kClean);
}

}  // namespace
}  // namespace mecc::ecc
