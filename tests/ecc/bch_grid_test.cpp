// Parameterized sweep of the BCH codec across field sizes, strengths and
// data lengths: encode -> corrupt with exactly t errors -> decode must
// restore the data; t+1 random errors must never be silently accepted as
// a <= t correction of the original word.
#include <gtest/gtest.h>

#include <set>
#include <tuple>
#include <type_traits>

#include "common/rng.h"
#include "ecc/bch.h"

namespace mecc::ecc {
namespace {

// No padding: gtest prints a parameter's bytes into its ctest id, and
// padding bytes hold whatever the stack held.
struct GridPoint {
  std::size_t m;
  std::size_t t;
  std::size_t k;
};
static_assert(std::has_unique_object_representations_v<GridPoint>);

class BchGrid : public ::testing::TestWithParam<GridPoint> {
 protected:
  static BitVec random_data(std::size_t n, Rng& rng) {
    BitVec d(n);
    for (std::size_t i = 0; i < n; ++i) d.set(i, rng.chance(0.5));
    return d;
  }

  static BitVec corrupt(const BitVec& cw, std::size_t count, Rng& rng) {
    BitVec bad = cw;
    std::set<std::size_t> seen;
    while (seen.size() < count) {
      const std::size_t p = rng.next_below(cw.size());
      if (seen.insert(p).second) bad.flip(p);
    }
    return bad;
  }
};

TEST_P(BchGrid, GeometryConsistent) {
  const auto [m, t, k] = GetParam();
  const Bch code(m, t, k);
  EXPECT_EQ(code.data_bits(), k);
  EXPECT_LE(code.codeword_bits(), (1u << m) - 1);
  EXPECT_EQ(code.parity_bits(),
            static_cast<std::size_t>(code.generator().degree()));
}

TEST_P(BchGrid, CorrectsExactlyTErrors) {
  const auto [m, t, k] = GetParam();
  const Bch code(m, t, k);
  Rng rng(m * 1000 + t * 10 + k);
  for (int trial = 0; trial < 10; ++trial) {
    const BitVec d = random_data(k, rng);
    const BitVec bad = corrupt(code.encode(d), t, rng);
    const DecodeResult r = code.decode(bad);
    ASSERT_EQ(r.status, DecodeStatus::kCorrected);
    EXPECT_EQ(r.corrected_bits, t);
    EXPECT_EQ(r.data, d);
  }
}

TEST_P(BchGrid, NeverReturnsWrongDataClaimingWithinT) {
  // With t+1 errors: either flagged uncorrectable or corrected to a
  // *different valid codeword* - never the original data with a bogus
  // corrected_bits count.
  const auto [m, t, k] = GetParam();
  const Bch code(m, t, k);
  Rng rng(m * 2000 + t * 20 + k);
  for (int trial = 0; trial < 10; ++trial) {
    const BitVec d = random_data(k, rng);
    const BitVec bad = corrupt(code.encode(d), t + 1, rng);
    const DecodeResult r = code.decode(bad);
    if (r.status == DecodeStatus::kCorrected) {
      EXPECT_NE(r.data, d);
      EXPECT_LE(r.corrected_bits, t);
    } else {
      EXPECT_EQ(r.status, DecodeStatus::kUncorrectable);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, BchGrid,
    ::testing::Values(GridPoint{6, 1, 40}, GridPoint{6, 3, 30},
                      GridPoint{8, 2, 128}, GridPoint{8, 4, 64},
                      GridPoint{10, 2, 512}, GridPoint{10, 4, 256},
                      GridPoint{10, 6, 512}, GridPoint{10, 7, 512},
                      GridPoint{12, 3, 1024}, GridPoint{11, 5, 800}),
    [](const ::testing::TestParamInfo<GridPoint>& info) {
      return "m" + std::to_string(info.param.m) + "_t" +
             std::to_string(info.param.t) + "_k" +
             std::to_string(info.param.k);
    });

}  // namespace
}  // namespace mecc::ecc
