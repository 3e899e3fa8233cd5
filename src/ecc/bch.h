// Binary BCH code, shortened and systematic, correcting up to t errors.
//
// This is the paper's "strong ECC" (S III-E): ECC-6 over a 64-byte line is
// Bch(/*m=*/10, /*t=*/6, /*data_bits=*/512), which needs t*m = 60 parity
// bits - exactly the budget left in the (72,64) spare space after the four
// replicated ECC-mode bits (S III-D).
//
// Encoding is systematic polynomial division by the generator g(x) (the
// LCM of the minimal polynomials of alpha^1 .. alpha^2t). Decoding runs
// syndrome computation, Berlekamp-Massey, and a root search of the error
// locator lambda(x).
//
// The hot paths are table-driven (docs/PERFORMANCE.md):
//   * one division serves encode and decode: Sarwate's table-driven CRC
//     division with the remainder left-aligned in one 64-bit word, sliced
//     by eight (eight 256-entry tables fold a whole data word per step),
//     for every p <= 63 (generic Gf2Poly division only when deg g > 63,
//     e.g. t=7 at m=10). Encode writes the remainder as parity; decode
//     XORs it with the received parity, which gives r(x) mod g(x): zero
//     means a clean line, which returns after that one division;
//   * syndromes are the remainder evaluated at alpha^j (g vanishes
//     there), from per-(remainder byte, odd j) tables built at
//     construction, with even syndromes squared from odd ones
//     (S_2j = S_j^2 in characteristic 2);
//   * Berlekamp-Massey updates per-thread scratch arrays in place;
//   * no line scans all n positions for the roots of lambda, given as the
//     locator X^L + lambda_1 X^(L-1) + ... + lambda_L whose roots alpha^i
//     are the error positions i. L = 1 is log lambda_1; L = 2 solves
//     z^2 + z = c by a 2^m-entry table; L = 3 and 4 reduce to an affine
//     quartic X^4 + aX^2 + bX + c, whose roots are an m x m GF(2) linear
//     system (Berlekamp, Rumsey and Solomon, 1967); L >= 5 first checks
//     X^(2^m) == X mod the locator, which holds iff it has L distinct
//     roots in the field, then a log-domain Chien search finds and
//     divides out L - 4 roots and the quartic gives the rest.
// The retained bit-at-a-time oracle lives in ecc/scalar_reference.h; the
// differential suite keeps the two bit-identical.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "ecc/code.h"
#include "galois/gf.h"
#include "galois/gf2_poly.h"

namespace mecc::ecc {

class Bch final : public Code {
 public:
  /// GF(2^m), corrects up to `t` errors over `data_bits` data bits.
  /// Requires data_bits + parity <= 2^m - 1. Throws std::invalid_argument
  /// if the code does not fit.
  Bch(unsigned m, std::size_t t, std::size_t data_bits);

  [[nodiscard]] std::size_t data_bits() const override { return k_; }
  [[nodiscard]] std::size_t parity_bits() const override { return p_; }
  [[nodiscard]] std::size_t correct_capability() const override { return t_; }

  /// Codeword layout: bits [0, k) = data, bits [k, k+p) = parity.
  [[nodiscard]] BitVec encode(const BitVec& data) const override;
  [[nodiscard]] DecodeResult decode(const BitVec& codeword) const override;

  [[nodiscard]] std::string name() const override;

  /// The generator polynomial g(x).
  [[nodiscard]] const galois::Gf2Poly& generator() const { return gen_; }

 private:
  // (data(x) * x^p) mod g(x) for the data in bits [0, k) of `src`, which
  // may be the data alone or a whole codeword (bits from k up are
  // ignored). Bit j of the result is the coefficient of x^j; it fills
  // rem_words_ words of `rem`.
  void data_remainder(const BitVec& src, std::span<std::uint64_t> rem) const;

  // The four distinct roots of X^4 + aX^2 + bX + c in the field, or
  // false when it does not have four.
  bool affine_quartic_roots(galois::Elem a, galois::Elem b, galois::Elem c,
                            galois::Elem* roots) const;
  // The four distinct roots of X^4 + l[1] X^3 + l[2] X^2 + l[3] X + l[4],
  // or false when it does not have four.
  bool quartic_roots(const galois::Elem* l, galois::Elem* roots) const;
  // True iff X^L + l[1] X^(L-1) + ... + l[L] has L distinct roots in the
  // field, i.e. divides X^(2^m) - X.
  bool splits(const galois::Elem* l, std::size_t L) const;

  galois::GaloisField gf_;
  std::size_t t_;   // correction capability
  std::size_t k_;   // data bits
  std::size_t p_;   // parity bits = deg(g)
  std::size_t n_;   // codeword bits = k + p
  std::size_t rem_words_;  // 64-bit words holding a p-bit remainder
  galois::Gf2Poly gen_;

  // Sarwate tables, sliced by eight, valid when p_ <= 63
  // (data_remainder falls back to Gf2Poly division otherwise): entry
  // [s][v] is (v(x) * x^(8s + p)) mod g(x) left-aligned in 64 bits, the
  // register after clocking byte v and then s zero bytes from a zero
  // start.
  std::array<std::array<std::uint64_t, 256>, 8> enc_tables_{};
  // Mask of the data bits in the top data word (k mod 64 of them, or
  // all 64); in a codeword the rest of that word is parity.
  std::uint64_t top_word_mask_ = ~std::uint64_t{0};

  // Degree-2 locator solutions: entry c is some z with z^2 + z = c, or 0
  // when there is none (z = 0 solves only c = 0, which a degree-2
  // locator never asks for). The other solution is z + 1.
  std::vector<galois::Elem> quad_root_;

  // Syndrome contribution tables over the remainder's bytes. For byte B
  // and odd syndrome index oi (j = 2*oi + 1), entry [(B * t + oi) * 256
  // + v] is the sum over set bits b of v of alpha^((8B + b) * j).
  std::vector<galois::Elem> syn_tables_;
};

}  // namespace mecc::ecc
