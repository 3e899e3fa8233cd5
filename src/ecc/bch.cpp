#include "ecc/bch.h"

#include <algorithm>
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

/// Per-thread codec scratch: the campaign hot loop decodes millions of
/// lines, so the per-call vectors are reused instead of reallocated.
struct DecodeScratch {
  std::vector<std::uint64_t> rem;  // r(x) mod g(x), bit j = x^j
  std::vector<Elem> syn_odd;
  std::vector<Elem> syn;
  // Berlekamp-Massey polynomials, coefficient k at index k.
  std::vector<Elem> lambda;
  std::vector<Elem> prev;
  std::vector<Elem> saved;
  // Split test: a polynomial of degree < 2L - 1 in X, coefficient k at
  // index k, and the locator's coefficient logs (kNoLog for zero).
  std::vector<Elem> split_poly;
  std::vector<std::uint32_t> split_logs;
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

constexpr std::uint32_t kNoLog = ~std::uint32_t{0};

/// Bits [pos, pos + len) of a word array, len in [1, 64], as the low
/// bits of one word; the field may straddle two words.
std::uint64_t bits_at(std::span<const std::uint64_t> words, std::size_t pos,
                      std::size_t len) {
  const std::size_t w = pos >> 6;
  const unsigned sh = pos & 63;
  std::uint64_t v = words[w] >> sh;
  if (sh != 0 && w + 1 < words.size()) v |= words[w + 1] << (64 - sh);
  return len < 64 ? v & ((1ull << len) - 1) : v;
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
  rem_words_ = (p_ + 63) / 64;
  if (k_ % 64 != 0) top_word_mask_ = (1ull << (k_ % 64)) - 1;

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
      enc_tables_[0][v] = r;
    }
    for (std::size_t s = 1; s < 8; ++s) {
      for (unsigned v = 0; v < 256; ++v) {
        const std::uint64_t r = enc_tables_[s - 1][v];
        enc_tables_[s][v] = (r << 8) ^ enc_tables_[0][r >> 56];
      }
    }
  }

  // z -> z^2 + z is GF(2)-linear and two-to-one (z and z + 1 collide),
  // so each c it reaches has exactly two solutions.
  quad_root_.assign(gf_.size(), 0);
  for (Elem z = 2; z < gf_.size(); ++z) quad_root_[gf_.mul(z, z) ^ z] = z;

  // Syndrome byte tables over the remainder: bit 8B + b of the
  // remainder is the coefficient of x^(8B + b).
  const std::size_t rem_bytes = (p_ + 7) / 8;
  syn_tables_.assign(rem_bytes * t_ * 256, 0);
  for (std::size_t byte = 0; byte < rem_bytes; ++byte) {
    for (std::size_t oi = 0; oi < t_; ++oi) {
      const std::size_t j = 2 * oi + 1;
      Elem basis[8] = {};
      for (unsigned b = 0; b < 8; ++b) {
        const std::size_t pos = byte * 8 + b;
        if (pos >= p_) break;  // pad bits never contribute
        basis[b] = gf_.alpha_pow(
            static_cast<std::uint32_t>((pos * j) % gf_.order()));
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

void Bch::data_remainder(const BitVec& src,
                         std::span<std::uint64_t> rem) const {
  if (p_ <= 63) {
    // Sarwate division of data(x) * x^p, highest-degree word first. With
    // the register r left-aligned, taking in a word w gives
    // (r + w)(x) * x^p mod g(x): one table entry per byte of r ^ w. The
    // top word keeps only its data bits; leading zeros keep the
    // register at zero, so any k takes this path.
    const auto words = src.words();
    const auto fold = [this](std::uint64_t u) {
      std::uint64_t r = 0;
      for (std::size_t s = 0; s < 8; ++s) {
        r ^= enc_tables_[s][(u >> (8 * s)) & 0xff];
      }
      return r;
    };
    std::uint64_t r = 0;
    std::size_t w = (k_ + 63) / 64;
    if (w > 0) r = fold(words[--w] & top_word_mask_);
    while (w-- > 0) r = fold(r ^ words[w]);
    rem[0] = r >> (64 - p_);
    return;
  }
  BitVec shifted(n_);
  shifted.splice(p_, src.size() == k_ ? src : src.slice(0, k_));
  const Gf2Poly r = Gf2Poly::from_bits(shifted).mod(gen_);
  std::fill(rem.begin(), rem.end(), 0);
  for (std::size_t j = 0; j < p_; ++j) {
    if (r.coeff(j)) rem[j >> 6] |= 1ull << (j & 63);
  }
}

BitVec Bch::encode(const BitVec& data) const {
  assert(data.size() == k_);
  // Systematic encoding: parity(x) = (data(x) * x^p) mod g(x).
  BitVec cw(n_);
  cw.splice(0, data);
  std::vector<std::uint64_t>& rem = scratch().rem;
  rem.resize(rem_words_);
  data_remainder(data, rem);
  for (std::size_t c = 0; c < rem_words_; ++c) {
    const std::size_t len = std::min<std::size_t>(64, p_ - 64 * c);
    cw.splice(k_ + 64 * c, BitVec::from_u64(rem[c], len));
  }
  return cw;
}

bool Bch::affine_quartic_roots(Elem a, Elem b, Elem c, Elem* roots) const {
  // f(X) = X^4 + aX^2 + bX is GF(2)-linear in X, so f(X) = c is an
  // m x m linear system over the bits of X: column i is f(alpha^i), and
  // alpha^i for i < m is the element with only bit i set. Gaussian
  // elimination as an XOR basis keyed by leading bit; each pivot keeps
  // the combination of columns (as an element) that produced it.
  const auto antilog = gf_.antilog_table();
  const std::uint32_t la = a != 0 ? gf_.log(a) : kNoLog;
  const std::uint32_t lb = b != 0 ? gf_.log(b) : kNoLog;
  Elem pivot[16] = {};
  Elem combo[16] = {};
  Elem kernel[2] = {};
  unsigned nullity = 0;
  for (unsigned i = 0; i < gf_.m(); ++i) {
    Elem v = antilog[4 * i];
    if (la != kNoLog) v ^= antilog[la + 2 * i];
    if (lb != kNoLog) v ^= antilog[lb + i];
    Elem x = Elem{1} << i;
    while (v != 0) {
      const unsigned lead = static_cast<unsigned>(std::bit_width(v)) - 1;
      if (pivot[lead] == 0) {
        pivot[lead] = v;
        combo[lead] = x;
        break;
      }
      v ^= pivot[lead];
      x ^= combo[lead];
    }
    // A column that reduces to zero gives a kernel element.
    if (v == 0) {
      if (nullity == 2) return false;
      kernel[nullity++] = x;
    }
  }
  if (nullity != 2) return false;
  Elem v = c;
  Elem x = 0;
  while (v != 0) {
    const unsigned lead = static_cast<unsigned>(std::bit_width(v)) - 1;
    if (pivot[lead] == 0) return false;  // c is not in f's image
    v ^= pivot[lead];
    x ^= combo[lead];
  }
  roots[0] = x;
  roots[1] = x ^ kernel[0];
  roots[2] = x ^ kernel[1];
  roots[3] = x ^ kernel[0] ^ kernel[1];
  return true;
}

bool Bch::quartic_roots(const Elem* l, Elem* roots) const {
  if (l[1] == 0) return affine_quartic_roots(l[2], l[3], l[4], roots);
  // X = Z + e with l1 e^2 = l3 removes the Z term:
  // Z^4 + l1 Z^3 + (l1 e + l2) Z^2 + d, with d the quartic at e. d = 0
  // makes Z = 0 a double root. Otherwise Y = 1/Z gives the affine
  // Y^4 + ((l1 e + l2)/d) Y^2 + (l1/d) Y + 1/d.
  const auto antilog = gf_.antilog_table();
  Elem e = 0;
  if (l[3] != 0) {
    // Square root: halve the log modulo the odd group order.
    const std::uint32_t le = gf_.log(gf_.div(l[3], l[1]));
    e = antilog[(le & 1) != 0 ? (le + gf_.order()) / 2 : le / 2];
  }
  const Elem e2 = gf_.mul(e, e);
  const Elem d = gf_.mul(e2, e2) ^ gf_.mul(l[1], gf_.mul(e2, e)) ^
                 gf_.mul(l[2], e2) ^ gf_.mul(l[3], e) ^ l[4];
  if (d == 0) return false;
  const Elem d_inv = gf_.inv(d);
  if (!affine_quartic_roots(gf_.mul(gf_.mul(l[1], e) ^ l[2], d_inv),
                            gf_.mul(l[1], d_inv), d_inv, roots)) {
    return false;
  }
  for (int r = 0; r < 4; ++r) roots[r] = gf_.inv(roots[r]) ^ e;
  return true;
}

bool Bch::splits(const Elem* l, std::size_t L) const {
  // X^(2^m) mod the locator by m squarings of X. Squaring is
  // coefficient-wise in characteristic 2 (coefficient k moves to 2k);
  // each term of degree D >= L then folds down by X^L = sum over j < L
  // of l[L - j] X^j.
  DecodeScratch& sc = scratch();
  const auto antilog = gf_.antilog_table();
  std::vector<std::uint32_t>& logs = sc.split_logs;
  logs.assign(L, kNoLog);
  for (std::size_t j = 0; j < L; ++j) {
    if (l[L - j] != 0) logs[j] = gf_.log(l[L - j]);
  }
  std::vector<Elem>& r = sc.split_poly;
  r.assign(2 * L - 1, 0);
  r[1] = 1;
  for (unsigned s = 0; s < gf_.m(); ++s) {
    // Top down, so no coefficient is overwritten before it is read.
    for (std::size_t k = L - 1; k > 0; --k) {
      r[2 * k] = r[k] != 0 ? antilog[2 * gf_.log(r[k])] : 0;
      r[2 * k - 1] = 0;
    }
    if (r[0] != 0) r[0] = antilog[2 * gf_.log(r[0])];
    for (std::size_t deg = 2 * L - 2; deg >= L; --deg) {
      if (r[deg] == 0) continue;
      const std::uint32_t lq = gf_.log(r[deg]);
      r[deg] = 0;
      Elem* low = &r[deg - L];
      for (std::size_t j = 0; j < L; ++j) {
        if (logs[j] != kNoLog) low[j] ^= antilog[lq + logs[j]];
      }
    }
  }
  if (r[1] != 1) return false;
  for (std::size_t k = 0; k < L; ++k) {
    if (k != 1 && r[k] != 0) return false;
  }
  return true;
}

DecodeResult Bch::decode(const BitVec& codeword) const {
  assert(codeword.size() == codeword_bits());
  DecodeResult res;
  DecodeScratch& sc = scratch();

  // r(x) mod g(x) is the data's recomputed parity XOR the received
  // parity. It is zero iff every syndrome is: S_j = r(alpha^j) =
  // (r mod g)(alpha^j) because g(alpha^j) = 0, and a nonzero remainder
  // of degree < deg g cannot vanish at all of g's roots.
  sc.rem.resize(rem_words_);
  data_remainder(codeword, sc.rem);
  const auto words = codeword.words();
  bool any_syndrome = false;
  for (std::size_t c = 0; c < rem_words_; ++c) {
    const std::size_t len = std::min<std::size_t>(64, p_ - 64 * c);
    sc.rem[c] ^= bits_at(words, k_ + 64 * c, len);
    any_syndrome |= sc.rem[c] != 0;
  }
  if (!any_syndrome) {
    res.status = DecodeStatus::kClean;
    res.data = codeword.slice(0, k_);
    return res;
  }

  // Odd syndromes by table over the set bytes of the remainder; even
  // ones by squaring (S_2j = S_j^2 for GF(2) coefficient polynomials).
  sc.syn_odd.assign(t_, 0);
  for (std::size_t c = 0; c < rem_words_; ++c) {
    std::uint64_t word = sc.rem[c];
    while (word != 0) {
      const unsigned byte_in_word =
          static_cast<unsigned>(std::countr_zero(word)) >> 3;
      const unsigned v =
          static_cast<unsigned>((word >> (byte_in_word * 8)) & 0xff);
      const Elem* tbl = &syn_tables_[((c * 8 + byte_in_word) * t_) * 256];
      for (std::size_t oi = 0; oi < t_; ++oi) {
        sc.syn_odd[oi] ^= tbl[oi * 256 + v];
      }
      word &= ~(0xffull << (byte_in_word * 8));
    }
  }
  sc.syn.assign(2 * t_ + 1, 0);
  for (std::size_t j = 1; j <= 2 * t_; ++j) {
    sc.syn[j] = (j & 1) != 0 ? sc.syn_odd[j >> 1]
                             : gf_.mul(sc.syn[j >> 1], sc.syn[j >> 1]);
  }
  const std::vector<Elem>& syn = sc.syn;

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

  // Position i is in error iff X = alpha^i is a root of the locator
  // X^L + lambda_1 X^(L-1) + ... + lambda_L. Only positions < n can be
  // in error (roots beyond n would land in the shortened always-zero
  // prefix), so the line is correctable iff the locator has L distinct
  // roots in the field and all of them fall in [0, n).
  const Elem* lam = sc.lambda.data();
  sc.error_positions.clear();
  const auto take = [&](Elem x) {
    const std::size_t i = gf_.log(x);
    if (i >= n_) return false;
    sc.error_positions.push_back(i);
    return true;
  };
  bool found = false;
  Elem roots[4];
  if (L == 1) {
    // X + lambda_1 = 0.
    found = take(lam[1]);
  } else if (L == 2) {
    // X^2 + lambda_1 X + lambda_2 = 0; X = lambda_1 z turns it into
    // z^2 + z = lambda_2 / lambda_1^2, whose roots are z and z + 1.
    // lambda_1 == 0 would leave one double root (uncorrectable); for a
    // binary code lambda_1 = S_1, which L = 2 needs nonzero, so the
    // guard only keeps the division defined.
    const Elem l1 = lam[1];
    if (l1 != 0) {
      const Elem z = quad_root_[gf_.div(lam[2], gf_.mul(l1, l1))];
      if (z != 0) {
        const Elem x = gf_.mul(l1, z);
        found = take(x) && take(x ^ l1);
      }
    }
  } else if (L == 3) {
    // (X + l1)(X^3 + l1 X^2 + l2 X + l3)
    //   = X^4 + (l1^2 + l2) X^2 + (l1 l2 + l3) X + l1 l3:
    // four distinct roots there are l1 and three distinct roots of the
    // locator (whose roots sum to l1, so none of them is l1).
    const Elem l1 = lam[1];
    if (affine_quartic_roots(gf_.mul(l1, l1) ^ lam[2],
                             gf_.mul(l1, lam[2]) ^ lam[3],
                             gf_.mul(l1, lam[3]), roots)) {
      found = true;
      for (const Elem x : roots) {
        if (x != l1) found = found && take(x);
      }
    }
  } else if (L == 4) {
    if (quartic_roots(lam, roots)) {
      found = take(roots[0]) && take(roots[1]) && take(roots[2]) &&
              take(roots[3]);
    }
  } else if (splits(lam, L)) {
    // Log-domain Chien search for the lowest L - 4 positions: i is a
    // root iff lambda(alpha^-i) = 0, and term c there is
    // alpha^(log lambda_c - c*i), so each position subtracts c from the
    // term's exponent with a wrap at the group order. Each root found
    // is then divided out of lambda, which leaves a quartic.
    const std::uint32_t order = gf_.order();
    const auto antilog = gf_.antilog_table();
    sc.chien_exps.clear();
    sc.chien_steps.clear();
    for (std::size_t c = 1; c <= L; ++c) {
      if (lam[c] == 0) continue;
      sc.chien_exps.push_back(gf_.log(lam[c]));
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
        if (sc.error_positions.size() == L - 4) break;
      }
    }
    if (sc.error_positions.size() == L - 4) {
      // lambda(x) / (1 + alpha^i x) for each root, in place.
      std::size_t deg = L;
      for (const std::size_t i : sc.error_positions) {
        for (std::size_t c = 1; c < deg; ++c) {
          sc.lambda[c] ^= gf_.mul(antilog[i], sc.lambda[c - 1]);
        }
        --deg;
      }
      found = quartic_roots(sc.lambda.data(), roots) && take(roots[0]) &&
              take(roots[1]) && take(roots[2]) && take(roots[3]);
    }
  }
  if (!found || sc.error_positions.size() != L) {
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
