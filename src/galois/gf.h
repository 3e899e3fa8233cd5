// Finite-field arithmetic GF(2^m) via log/antilog tables.
//
// This is the arithmetic substrate of the BCH codec (src/ecc/bch.*). Field
// elements are represented as integers in [0, 2^m); 0 is the additive
// identity, alpha (the primitive element) generates the multiplicative
// group of order 2^m - 1.
//
// mul, div, inv and log are inline: the BCH decoder's Berlekamp-Massey
// loop and root finders call them per coefficient. The antilog table
// holds two periods (2 * (2^m - 1) entries), so a product or quotient
// indexes it with log a + log b or log a + order - log b directly,
// never with a modulo.
#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

namespace mecc::galois {

/// A field element. Only the low m bits are meaningful.
using Elem = std::uint32_t;

class GaloisField {
 public:
  /// Constructs GF(2^m) for m in [3, 16] using a standard primitive
  /// polynomial for that m. Throws std::invalid_argument otherwise.
  explicit GaloisField(unsigned m);

  [[nodiscard]] unsigned m() const { return m_; }
  /// Field size 2^m.
  [[nodiscard]] std::uint32_t size() const { return size_; }
  /// Multiplicative group order 2^m - 1.
  [[nodiscard]] std::uint32_t order() const { return size_ - 1; }
  /// The primitive polynomial, as a bit mask including the x^m term.
  [[nodiscard]] std::uint32_t primitive_poly() const { return prim_poly_; }

  /// alpha^i for any i.
  [[nodiscard]] Elem alpha_pow(std::uint32_t i) const {
    return antilog_[i % order()];
  }
  /// The whole antilog table: entry i is alpha^i for i in
  /// [0, 2 * order). Lets log-domain loops (the BCH Chien search and
  /// root finders) load alpha^e directly with no multiply or modulo.
  [[nodiscard]] std::span<const Elem> antilog_table() const {
    return antilog_;
  }
  /// Discrete log base alpha, in [0, order); undefined for x == 0
  /// (asserted).
  [[nodiscard]] std::uint32_t log(Elem x) const {
    assert(x != 0 && x < size_);
    return log_[x];
  }

  [[nodiscard]] static Elem add(Elem a, Elem b) { return a ^ b; }
  [[nodiscard]] Elem mul(Elem a, Elem b) const {
    if (a == 0 || b == 0) return 0;
    return antilog_[log_[a] + log_[b]];
  }
  /// a / b; b must be nonzero (asserted).
  [[nodiscard]] Elem div(Elem a, Elem b) const {
    assert(b != 0);
    if (a == 0) return 0;
    return antilog_[log_[a] + order() - log_[b]];
  }
  /// 1 / a; a must be nonzero (asserted).
  [[nodiscard]] Elem inv(Elem a) const {
    assert(a != 0);
    return antilog_[order() - log_[a]];
  }
  /// a^e with e any non-negative exponent (a may be 0: 0^0 == 1).
  [[nodiscard]] Elem pow(Elem a, std::uint64_t e) const;

  /// Minimal polynomial of alpha^i over GF(2), returned as a GF(2)
  /// coefficient bit mask (bit k = coefficient of x^k).
  [[nodiscard]] std::uint64_t minimal_poly(std::uint32_t i) const;

  /// The cyclotomic coset of i modulo 2^m - 1 (i, 2i, 4i, ... reduced).
  [[nodiscard]] std::vector<std::uint32_t> cyclotomic_coset(
      std::uint32_t i) const;

 private:
  unsigned m_;
  std::uint32_t size_;
  std::uint32_t prim_poly_;
  std::vector<Elem> antilog_;       // antilog_[i] = alpha^i, two periods
  std::vector<std::uint32_t> log_;  // log_[x] = i in [0, order), alpha^i = x
};

}  // namespace mecc::galois
