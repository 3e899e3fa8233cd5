#include "galois/gf.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>

#include "common/rng.h"

namespace mecc::galois {
namespace {

TEST(GaloisField, RejectsBadM) {
  EXPECT_THROW(GaloisField(2), std::invalid_argument);
  EXPECT_THROW(GaloisField(17), std::invalid_argument);
  EXPECT_NO_THROW(GaloisField(3));
  EXPECT_NO_THROW(GaloisField(16));
}

TEST(GaloisField, AlphaGeneratesWholeGroup) {
  const GaloisField gf(10);
  std::set<Elem> seen;
  for (std::uint32_t i = 0; i < gf.order(); ++i) {
    seen.insert(gf.alpha_pow(i));
  }
  EXPECT_EQ(seen.size(), gf.order());  // all non-zero elements hit once
  EXPECT_EQ(seen.count(0), 0u);
}

TEST(GaloisField, LogIsInverseOfAlphaPow) {
  const GaloisField gf(8);
  for (std::uint32_t i = 0; i < gf.order(); ++i) {
    EXPECT_EQ(gf.log(gf.alpha_pow(i)), i);
  }
}

TEST(GaloisField, MulDivInverse) {
  const GaloisField gf(6);
  for (Elem a = 1; a < gf.size(); ++a) {
    EXPECT_EQ(gf.mul(a, gf.inv(a)), 1u);
    for (Elem b = 1; b < gf.size(); ++b) {
      const Elem p = gf.mul(a, b);
      EXPECT_EQ(gf.div(p, b), a);
      EXPECT_EQ(gf.div(p, a), b);
    }
  }
}

TEST(GaloisField, MulByZeroIsZero) {
  const GaloisField gf(5);
  for (Elem a = 0; a < gf.size(); ++a) {
    EXPECT_EQ(gf.mul(a, 0), 0u);
    EXPECT_EQ(gf.mul(0, a), 0u);
  }
}

TEST(GaloisField, MulIsCommutativeAndAssociative) {
  const GaloisField gf(5);
  for (Elem a = 0; a < gf.size(); ++a) {
    for (Elem b = 0; b < gf.size(); ++b) {
      EXPECT_EQ(gf.mul(a, b), gf.mul(b, a));
      for (Elem c = 0; c < gf.size(); c += 7) {
        EXPECT_EQ(gf.mul(gf.mul(a, b), c), gf.mul(a, gf.mul(b, c)));
      }
    }
  }
}

TEST(GaloisField, DistributesOverAddition) {
  const GaloisField gf(6);
  for (Elem a = 0; a < gf.size(); a += 3) {
    for (Elem b = 0; b < gf.size(); b += 5) {
      for (Elem c = 0; c < gf.size(); c += 7) {
        EXPECT_EQ(gf.mul(a, GaloisField::add(b, c)),
                  GaloisField::add(gf.mul(a, b), gf.mul(a, c)));
      }
    }
  }
}

TEST(GaloisField, PowMatchesRepeatedMul) {
  const GaloisField gf(8);
  const Elem a = gf.alpha_pow(37);
  Elem acc = 1;
  for (std::uint64_t e = 0; e < 20; ++e) {
    EXPECT_EQ(gf.pow(a, e), acc);
    acc = gf.mul(acc, a);
  }
  EXPECT_EQ(gf.pow(0, 0), 1u);
  EXPECT_EQ(gf.pow(0, 5), 0u);
}

TEST(GaloisField, FermatLittleTheorem) {
  // x^(2^m - 1) == 1 for every non-zero x.
  const GaloisField gf(10);
  for (Elem x = 1; x < gf.size(); x += 13) {
    EXPECT_EQ(gf.pow(x, gf.order()), 1u);
  }
}

TEST(GaloisField, CyclotomicCosetClosedUnderDoubling) {
  const GaloisField gf(10);
  const auto coset = gf.cyclotomic_coset(5);
  std::set<std::uint32_t> s(coset.begin(), coset.end());
  for (auto e : coset) {
    EXPECT_EQ(s.count(static_cast<std::uint32_t>((2ull * e) % gf.order())),
              1u);
  }
}

TEST(GaloisField, MinimalPolyHasAlphaPowerAsRoot) {
  const GaloisField gf(10);
  for (std::uint32_t i : {1u, 3u, 5u, 7u, 9u, 11u}) {
    const std::uint64_t mp = gf.minimal_poly(i);
    // Evaluate the GF(2)-coefficient polynomial at alpha^i in GF(2^m).
    Elem acc = 0;
    for (int k = 63; k >= 0; --k) {
      acc = gf.mul(acc, gf.alpha_pow(i));
      if ((mp >> k) & 1u) acc = GaloisField::add(acc, 1);
    }
    EXPECT_EQ(acc, 0u) << "alpha^" << i << " must be a root";
  }
}

TEST(GaloisField, MinimalPolyDegreeEqualsCosetSize) {
  const GaloisField gf(10);
  for (std::uint32_t i : {1u, 3u, 5u}) {
    const std::uint64_t mp = gf.minimal_poly(i);
    int deg = 63;
    while (deg > 0 && !((mp >> deg) & 1u)) --deg;
    EXPECT_EQ(static_cast<std::size_t>(deg), gf.cyclotomic_coset(i).size());
  }
}

TEST(GaloisField, PrimitivePolyMatchesM10Reference) {
  // x^10 + x^3 + 1, the standard choice for GF(1024).
  const GaloisField gf(10);
  EXPECT_EQ(gf.primitive_poly(), 0b10000001001u);
  EXPECT_EQ(gf.size(), 1024u);
  EXPECT_EQ(gf.order(), 1023u);
}

/// a * b by shift-and-XOR, reduced modulo the primitive polynomial: the
/// field's definition, with no tables.
Elem carryless_mul(Elem a, Elem b, unsigned m, std::uint32_t poly) {
  std::uint64_t product = 0;
  for (unsigned i = 0; i < m; ++i) {
    if ((b >> i) & 1u) product ^= static_cast<std::uint64_t>(a) << i;
  }
  for (int bit = 2 * static_cast<int>(m) - 2; bit >= static_cast<int>(m);
       --bit) {
    if ((product >> bit) & 1u) {
      product ^= static_cast<std::uint64_t>(poly) << (bit - m);
    }
  }
  return static_cast<Elem>(product);
}

TEST(GaloisField, ArithmeticMatchesCarrylessReference) {
  // mul, div and inv index the antilog table without a modulo, so every
  // entry of both periods must be right: the table is checked entry by
  // entry against repeated multiplication by alpha, and the arithmetic
  // against the shift-and-XOR product, exhaustively up to m = 8 and on
  // seeded samples plus the extreme logs above that.
  for (unsigned m = 3; m <= 16; ++m) {
    const GaloisField gf(m);
    const std::uint32_t poly = gf.primitive_poly();
    const auto antilog = gf.antilog_table();
    ASSERT_EQ(antilog.size(), 2u * gf.order()) << "m=" << m;
    Elem power = 1;
    for (std::size_t i = 0; i < antilog.size(); ++i) {
      ASSERT_EQ(antilog[i], power) << "m=" << m << " alpha^" << i;
      power = carryless_mul(power, 2, m, poly);
    }

    const auto check = [&](Elem a, Elem b) {
      ASSERT_EQ(gf.mul(a, b), carryless_mul(a, b, m, poly))
          << "m=" << m << " " << a << " * " << b;
      if (b == 0) return;
      ASSERT_EQ(carryless_mul(gf.div(a, b), b, m, poly), a)
          << "m=" << m << " " << a << " / " << b;
      ASSERT_EQ(carryless_mul(gf.inv(b), b, m, poly), 1u)
          << "m=" << m << " 1 / " << b;
    };
    if (m <= 8) {
      for (Elem a = 0; a < gf.size(); ++a) {
        for (Elem b = 0; b < gf.size(); ++b) check(a, b);
      }
      continue;
    }
    const Elem extremes[] = {0, 1, 2, gf.alpha_pow(gf.order() - 1),
                             gf.alpha_pow(gf.order() - 2), gf.size() - 1};
    for (const Elem a : extremes) {
      for (const Elem b : extremes) check(a, b);
    }
    Rng rng(0x6F00 + m);
    for (int i = 0; i < 20000; ++i) {
      check(static_cast<Elem>(rng.next_below(gf.size())),
            static_cast<Elem>(rng.next_below(gf.size())));
    }
  }
}

}  // namespace
}  // namespace mecc::galois
