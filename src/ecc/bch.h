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
//   * encode is Sarwate's byte-at-a-time CRC division: the remainder sits
//     left-aligned in one 64-bit word and a 256-entry table folds eight
//     data bits per step, for every p <= 63 (generic Gf2Poly division
//     only when deg g > 63, e.g. t=7 at m=10);
//   * syndromes come from per-(byte position, odd j) contribution tables
//     precomputed at construction — GF(2) linearity lets one 256-entry
//     lookup replace eight alpha_pow multiplies — with even syndromes
//     squared from odd ones (S_2j = S_j^2 in characteristic 2), so the
//     clean-codeword fast path is a table-scan of the set bytes only;
//   * Berlekamp-Massey updates per-thread scratch arrays in place;
//   * the roots of lambda come in closed form when it has degree L = 1
//     (position = log lambda_1) or L = 2 (z^2 + z = c, answered by a
//     2^m-entry solution table); for L >= 3 a log-domain Chien search
//     strides only positions < n, keeping each term as an exponent that
//     drops by its index per position: one antilog load per term, no
//     multiply and no modulo.
// The retained bit-at-a-time oracle lives in ecc/scalar_reference.h; the
// differential suite keeps the two bit-identical.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
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
  galois::GaloisField gf_;
  std::size_t t_;   // correction capability
  std::size_t k_;   // data bits
  std::size_t p_;   // parity bits = deg(g)
  std::size_t n_;   // codeword bits = k + p
  galois::Gf2Poly gen_;

  // Sarwate encode table, valid when p_ <= 63 (encode falls back to
  // Gf2Poly division otherwise): entry v is the register, left-aligned
  // in 64 bits, after clocking byte v (msb first) through the division
  // by g(x) from a zero start.
  std::array<std::uint64_t, 256> enc_table_{};

  // Degree-2 locator solutions: entry c is some z with z^2 + z = c, or 0
  // when there is none (z = 0 solves only c = 0, which a degree-2
  // locator never asks for). The other solution is z + 1.
  std::vector<galois::Elem> quad_root_;

  // Syndrome contribution tables, codeword byte layout. For byte
  // position B and odd syndrome index oi (j = 2*oi + 1), entry
  // [(B * t + oi) * 256 + v] is sum over set bits b of v of
  // alpha^(polypos(8B + b) * j), where polypos maps the external
  // codeword layout to polynomial coefficient positions (parity bits
  // are the low-order coefficients, data above them).
  std::vector<galois::Elem> syn_tables_;
};

}  // namespace mecc::ecc
