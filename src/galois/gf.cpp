#include "galois/gf.h"

#include <cassert>
#include <stdexcept>

namespace mecc::galois {

namespace {

// Standard primitive polynomials over GF(2), indexed by m. Bit k is the
// coefficient of x^k (so the x^m term is always present).
constexpr std::uint32_t kPrimitivePoly[17] = {
    0, 0, 0,
    0b1011,                // m=3 : x^3 + x + 1
    0b10011,               // m=4 : x^4 + x + 1
    0b100101,              // m=5 : x^5 + x^2 + 1
    0b1000011,             // m=6 : x^6 + x + 1
    0b10001001,            // m=7 : x^7 + x^3 + 1
    0b100011101,           // m=8 : x^8 + x^4 + x^3 + x^2 + 1
    0b1000010001,          // m=9 : x^9 + x^4 + 1
    0b10000001001,         // m=10: x^10 + x^3 + 1
    0b100000000101,        // m=11: x^11 + x^2 + 1
    0b1000001010011,       // m=12: x^12 + x^6 + x^4 + x + 1
    0b10000000011011,      // m=13: x^13 + x^4 + x^3 + x + 1
    0b100010001000011,     // m=14: x^14 + x^10 + x^6 + x + 1
    0b1000000000000011,    // m=15: x^15 + x + 1
    0b10001000000001011,   // m=16: x^16 + x^12 + x^3 + x + 1
};

}  // namespace

GaloisField::GaloisField(unsigned m) : m_(m) {
  if (m < 3 || m > 16) {
    throw std::invalid_argument("GaloisField: m must be in [3, 16]");
  }
  size_ = 1u << m;
  prim_poly_ = kPrimitivePoly[m];
  antilog_.resize(2 * order());
  log_.assign(size_, 0);

  Elem x = 1;
  for (std::uint32_t i = 0; i < order(); ++i) {
    antilog_[i] = x;
    antilog_[i + order()] = x;
    log_[x] = i;
    x <<= 1;
    if (x & size_) x ^= prim_poly_;
  }
}

Elem GaloisField::pow(Elem a, std::uint64_t e) const {
  if (a == 0) return e == 0 ? 1 : 0;
  const std::uint64_t le = (static_cast<std::uint64_t>(log_[a]) * e) % order();
  return antilog_[le];
}

std::vector<std::uint32_t> GaloisField::cyclotomic_coset(
    std::uint32_t i) const {
  std::vector<std::uint32_t> coset;
  std::uint32_t cur = i % order();
  do {
    coset.push_back(cur);
    cur = static_cast<std::uint32_t>(
        (static_cast<std::uint64_t>(cur) * 2) % order());
  } while (cur != i % order());
  return coset;
}

std::uint64_t GaloisField::minimal_poly(std::uint32_t i) const {
  // minimal poly of alpha^i = prod over coset {s} of (x - alpha^s).
  // Compute with coefficients in GF(2^m); the result has GF(2) coefficients.
  const auto coset = cyclotomic_coset(i);
  std::vector<Elem> poly = {1};  // poly[k] = coefficient of x^k, start with 1
  for (auto s : coset) {
    const Elem root = alpha_pow(s);
    std::vector<Elem> next(poly.size() + 1, 0);
    for (std::size_t k = 0; k < poly.size(); ++k) {
      next[k + 1] = add(next[k + 1], poly[k]);        // x * poly
      next[k] = add(next[k], mul(root, poly[k]));     // root * poly
    }
    poly = std::move(next);
  }
  std::uint64_t mask = 0;
  for (std::size_t k = 0; k < poly.size(); ++k) {
    assert(poly[k] == 0 || poly[k] == 1);  // must collapse to GF(2)
    if (poly[k] == 1) mask |= 1ull << k;
  }
  return mask;
}

}  // namespace mecc::galois
