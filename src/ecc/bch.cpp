#include "ecc/bch.h"

#include <bit>
#include <cassert>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

namespace mecc::ecc {

using galois::Elem;
using galois::Gf2Poly;

namespace {

/// Per-thread decode scratch: the campaign hot loop decodes millions of
/// lines, so the per-call vectors are reused instead of reallocated.
struct DecodeScratch {
  std::vector<Elem> syn_odd;
  std::vector<Elem> syn;
  // Berlekamp-Massey polynomials, coefficient k at index k.
  std::vector<Elem> lambda;
  std::vector<Elem> prev;
  std::vector<Elem> saved;
  // Log-domain Chien terms: exponent of each nonzero lambda_c and the
  // amount (c mod 2^m - 1) it drops per position.
  std::vector<std::uint32_t> chien_exps;
  std::vector<std::uint32_t> chien_steps;
  std::vector<std::size_t> error_positions;
};

DecodeScratch& scratch() {
  thread_local DecodeScratch s;
  return s;
}

}  // namespace

Bch::Bch(unsigned m, std::size_t t, std::size_t data_bits)
    : gf_(m), t_(t), k_(data_bits) {
  if (t == 0) throw std::invalid_argument("Bch: t must be >= 1");

  // g(x) = LCM of minimal polynomials of alpha^1 .. alpha^2t. Minimal
  // polynomials repeat across a cyclotomic coset, so collect the distinct
  // ones (it suffices to look at odd powers; even powers share cosets).
  std::set<std::uint64_t> distinct;
  gen_ = Gf2Poly::from_mask(1);  // the constant 1
  for (std::uint32_t i = 1; i <= 2 * t; ++i) {
    const std::uint64_t mp = gf_.minimal_poly(i);
    if (distinct.insert(mp).second) {
      gen_ = gen_ * Gf2Poly::from_mask(mp);
    }
  }
  p_ = static_cast<std::size_t>(gen_.degree());
  if (k_ + p_ > gf_.order()) {
    throw std::invalid_argument("Bch: data does not fit in 2^m - 1 bits");
  }
  n_ = k_ + p_;

  if (p_ <= 63) {
    // Non-augmented CRC division with the register left-aligned: g(x)
    // minus its x^p term sits in the top p bits, so every p takes the
    // same 8-bit step.
    std::uint64_t g = 0;
    for (std::size_t j = 0; j < p_; ++j) {
      if (gen_.coeff(j)) g |= 1ull << (64 - p_ + j);
    }
    for (unsigned v = 0; v < 256; ++v) {
      std::uint64_t r = static_cast<std::uint64_t>(v) << 56;
      for (int b = 0; b < 8; ++b) r = (r >> 63) != 0 ? (r << 1) ^ g : r << 1;
      enc_table_[v] = r;
    }
  }

  // z -> z^2 + z is GF(2)-linear and two-to-one (z and z + 1 collide),
  // so each c it reaches has exactly two solutions.
  quad_root_.assign(gf_.size(), 0);
  for (Elem z = 2; z < gf_.size(); ++z) quad_root_[gf_.mul(z, z) ^ z] = z;

  // Syndrome byte tables. polypos maps external codeword bit positions
  // (data first) to polynomial coefficient positions (parity low).
  const auto polypos = [this](std::size_t cwpos) {
    return cwpos < k_ ? p_ + cwpos : cwpos - k_;
  };
  const std::size_t n_bytes = (n_ + 7) / 8;
  syn_tables_.assign(n_bytes * t_ * 256, 0);
  for (std::size_t byte = 0; byte < n_bytes; ++byte) {
    for (std::size_t oi = 0; oi < t_; ++oi) {
      const std::size_t j = 2 * oi + 1;
      Elem basis[8] = {};
      for (unsigned b = 0; b < 8; ++b) {
        const std::size_t cwpos = byte * 8 + b;
        if (cwpos >= n_) break;  // pad bits never contribute
        basis[b] = gf_.alpha_pow(
            static_cast<std::uint32_t>((polypos(cwpos) * j) % gf_.order()));
      }
      // Subset-XOR dynamic program: each value extends the one with its
      // lowest set bit cleared.
      Elem* tbl = &syn_tables_[(byte * t_ + oi) * 256];
      for (unsigned v = 1; v < 256; ++v) {
        tbl[v] = tbl[v & (v - 1)] ^
                 basis[static_cast<unsigned>(std::countr_zero(v))];
      }
    }
  }
}

BitVec Bch::encode(const BitVec& data) const {
  assert(data.size() == k_);
  // Systematic encoding: parity(x) = (data(x) * x^p) mod g(x).
  BitVec cw(n_);
  cw.splice(0, data);
  if (p_ <= 63) {
    // Sarwate division of data(x) * x^p, highest-degree byte first. The
    // top byte's pad bits are zero and leading zeros keep the register
    // at zero, so any k takes this path.
    const auto words = data.words();
    std::uint64_t rem = 0;
    for (std::size_t byte = (k_ + 7) / 8; byte-- > 0;) {
      const auto v = static_cast<unsigned>(
          (words[byte >> 3] >> ((byte & 7) * 8)) & 0xff);
      rem = (rem << 8) ^ enc_table_[(rem >> 56) ^ v];
    }
    cw.splice(k_, BitVec::from_u64(rem >> (64 - p_), p_));
  } else {
    BitVec shifted(n_);
    shifted.splice(p_, data);
    const Gf2Poly rem = Gf2Poly::from_bits(shifted).mod(gen_);
    for (std::size_t j = 0; j < p_; ++j) {
      cw.set(k_ + j, rem.coeff(j));
    }
  }
  return cw;
}

DecodeResult Bch::decode(const BitVec& codeword) const {
  assert(codeword.size() == codeword_bits());
  DecodeResult res;
  DecodeScratch& sc = scratch();

  // Odd syndromes S_j = r(alpha^j) by table scan of the set bytes; even
  // ones by squaring (S_2j = S_j^2 for GF(2) coefficient polynomials).
  sc.syn_odd.assign(t_, 0);
  const auto words = codeword.words();
  for (std::size_t w = 0; w < words.size(); ++w) {
    std::uint64_t word = words[w];
    while (word != 0) {
      const unsigned byte_in_word =
          static_cast<unsigned>(std::countr_zero(word)) >> 3;
      const unsigned v =
          static_cast<unsigned>((word >> (byte_in_word * 8)) & 0xff);
      const Elem* tbl =
          &syn_tables_[((w * 8 + byte_in_word) * t_) * 256];
      for (std::size_t oi = 0; oi < t_; ++oi) {
        sc.syn_odd[oi] ^= tbl[oi * 256 + v];
      }
      word &= ~(0xffull << (byte_in_word * 8));
    }
  }
  sc.syn.assign(2 * t_ + 1, 0);
  bool any_syndrome = false;
  for (std::size_t j = 1; j <= 2 * t_; ++j) {
    const Elem s = (j & 1) != 0 ? sc.syn_odd[j >> 1]
                                : gf_.mul(sc.syn[j >> 1], sc.syn[j >> 1]);
    sc.syn[j] = s;
    any_syndrome |= (s != 0);
  }
  const std::vector<Elem>& syn = sc.syn;

  if (!any_syndrome) {
    res.status = DecodeStatus::kClean;
    res.data = codeword.slice(0, k_);
    return res;
  }

  // Berlekamp-Massey: find the minimal LFSR (error-locator polynomial
  // lambda) generating the syndrome sequence. Massey's invariant keeps
  // deg(x^shift * prev) <= it + 1 - L <= 2t, so the updates stay inside
  // the 2t + 1 coefficients.
  const std::size_t len = 2 * t_ + 1;
  sc.lambda.assign(len, 0);
  sc.prev.assign(len, 0);
  sc.lambda[0] = 1;
  sc.prev[0] = 1;
  std::size_t L = 0;
  std::size_t shift = 1;
  Elem prev_disc = 1;
  for (std::size_t it = 0; it < 2 * t_; ++it) {
    // Discrepancy d = S[it+1] + sum_{i=1..L} lambda_i * S[it+1-i].
    Elem d = syn[it + 1];
    for (std::size_t i = 1; i <= L; ++i) {
      d ^= gf_.mul(sc.lambda[i], syn[it + 1 - i]);
    }
    if (d == 0) {
      ++shift;
      continue;
    }
    // lambda += (d / prev_disc) * x^shift * prev.
    const bool grow = 2 * L <= it;
    if (grow) sc.saved.assign(sc.lambda.begin(), sc.lambda.end());
    const Elem scale = gf_.div(d, prev_disc);
    for (std::size_t j = 0; j + shift < len; ++j) {
      sc.lambda[j + shift] ^= gf_.mul(scale, sc.prev[j]);
    }
    if (grow) {
      L = it + 1 - L;
      std::swap(sc.prev, sc.saved);
      prev_disc = d;
      shift = 1;
    } else {
      ++shift;
    }
  }

  std::size_t degree = len - 1;
  while (sc.lambda[degree] == 0) --degree;  // lambda_0 == 1 stops it
  if (L > t_ || degree != L) {
    res.status = DecodeStatus::kUncorrectable;
    return res;
  }

  // Position i is in error iff lambda(alpha^-i) == 0, i.e. X = alpha^i
  // is a root of X^L * lambda(1/X). Only positions < n can be in error
  // (roots beyond n would land in the shortened always-zero prefix), and
  // lambda has at most L distinct roots in the whole field, so the line
  // is correctable iff exactly L distinct roots fall in [0, n).
  sc.error_positions.clear();
  if (L == 1) {
    // X + lambda_1 = 0.
    const std::size_t i = gf_.log(sc.lambda[1]);
    if (i < n_) sc.error_positions.push_back(i);
  } else if (L == 2) {
    // X^2 + lambda_1 X + lambda_2 = 0; X = lambda_1 z turns it into
    // z^2 + z = lambda_2 / lambda_1^2, whose roots are z and z + 1.
    // lambda_1 == 0 would leave one double root (uncorrectable); for a
    // binary code lambda_1 = S_1, which L = 2 needs nonzero, so the
    // guard only keeps the division defined.
    const Elem l1 = sc.lambda[1];
    if (l1 != 0) {
      const Elem z = quad_root_[gf_.div(sc.lambda[2], gf_.mul(l1, l1))];
      if (z != 0) {
        const Elem x = gf_.mul(l1, z);
        std::size_t lo = gf_.log(x);
        std::size_t hi = gf_.log(x ^ l1);
        if (lo > hi) std::swap(lo, hi);
        if (hi < n_) {
          sc.error_positions.push_back(lo);
          sc.error_positions.push_back(hi);
        }
      }
    }
  } else {
    // Log-domain Chien search: term c at position i is
    // alpha^(log lambda_c - c*i), so each position subtracts c from the
    // term's exponent with a wrap at the group order. The scan stops as
    // soon as the L-th root appears.
    const std::uint32_t order = gf_.order();
    const auto antilog = gf_.antilog_table();
    sc.chien_exps.clear();
    sc.chien_steps.clear();
    for (std::size_t c = 1; c <= L; ++c) {
      if (sc.lambda[c] == 0) continue;
      sc.chien_exps.push_back(gf_.log(sc.lambda[c]));
      sc.chien_steps.push_back(static_cast<std::uint32_t>(c % order));
    }
    std::uint32_t* exps = sc.chien_exps.data();
    const std::uint32_t* steps = sc.chien_steps.data();
    const std::size_t terms = sc.chien_exps.size();
    for (std::size_t i = 0; i < n_; ++i) {
      Elem sum = 1;  // lambda_0
      for (std::size_t c = 0; c < terms; ++c) {
        sum ^= antilog[exps[c]];
        exps[c] = exps[c] >= steps[c] ? exps[c] - steps[c]
                                      : exps[c] + order - steps[c];
      }
      if (sum == 0) {
        sc.error_positions.push_back(i);
        if (sc.error_positions.size() == L) break;
      }
    }
  }
  if (sc.error_positions.size() != L) {
    res.status = DecodeStatus::kUncorrectable;
    return res;
  }

  // Error positions are polynomial positions: [0, p) hit parity bits
  // only; [p, n) map back to data bit pos - p.
  res.status = DecodeStatus::kCorrected;
  res.corrected_bits = sc.error_positions.size();
  res.data = codeword.slice(0, k_);
  for (auto pos : sc.error_positions) {
    if (pos >= p_) res.data.flip(pos - p_);
  }
  return res;
}

std::string Bch::name() const {
  return "BCH(t=" + std::to_string(t_) + ",k=" + std::to_string(k_) +
         ",p=" + std::to_string(p_) + ")";
}

}  // namespace mecc::ecc
