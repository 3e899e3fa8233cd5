#include "mecc/mode_store.h"

#include <gtest/gtest.h>

#include <array>
#include <set>

#include "common/rng.h"

namespace mecc::morph {
namespace {

TEST(ModeStore, StartsAllStrongAfterIdle) {
  ModeStore s(1000);
  EXPECT_TRUE(s.all_strong());
  EXPECT_EQ(s.weak_lines(), 0u);
  EXPECT_EQ(s.mode_of(0), LineMode::kStrong);
  EXPECT_EQ(s.mode_of(999 * 64), LineMode::kStrong);
}

TEST(ModeStore, DowngradeAndUpgradeSingleLine) {
  ModeStore s(1000);
  s.set_mode(64 * 5, LineMode::kWeak);
  EXPECT_EQ(s.mode_of(64 * 5), LineMode::kWeak);
  EXPECT_EQ(s.mode_of(64 * 6), LineMode::kStrong);
  EXPECT_EQ(s.weak_lines(), 1u);
  s.set_mode(64 * 5, LineMode::kStrong);
  EXPECT_EQ(s.weak_lines(), 0u);
}

TEST(ModeStore, RedundantSetsDoNotDoubleCount) {
  ModeStore s(100);
  s.set_mode(0, LineMode::kWeak);
  s.set_mode(0, LineMode::kWeak);
  EXPECT_EQ(s.weak_lines(), 1u);
  s.set_mode(0, LineMode::kStrong);
  s.set_mode(0, LineMode::kStrong);
  EXPECT_EQ(s.weak_lines(), 0u);
}

TEST(ModeStore, SetAllFlipsEverything) {
  ModeStore s(130);  // not a multiple of 64: exercises the tail word
  for (std::uint64_t i = 0; i < 130; ++i) s.set_mode(i * 64, LineMode::kWeak);
  EXPECT_EQ(s.weak_lines(), 130u);
  for (std::uint64_t i = 0; i < 130; ++i) {
    EXPECT_EQ(s.mode_of(i * 64), LineMode::kWeak);
  }
  s.reset();
  EXPECT_TRUE(s.all_strong());
  for (std::uint64_t i = 0; i < 130; ++i) {
    EXPECT_EQ(s.mode_of(i * 64), LineMode::kStrong);
  }
}

TEST(ModeStore, SubLineAddressesShareALine) {
  ModeStore s(100);
  s.set_mode(64 * 3 + 17, LineMode::kWeak);
  EXPECT_EQ(s.mode_of(64 * 3), LineMode::kWeak);
  EXPECT_EQ(s.mode_of(64 * 3 + 63), LineMode::kWeak);
}

TEST(ModeStore, FullMemoryScale) {
  // The real configuration: 16 M lines in 1 GB - must construct fast and
  // count correctly.
  ModeStore s(kMemoryLines);
  EXPECT_EQ(s.num_lines(), 16u * 1024 * 1024);
  s.set_mode(kMemoryBytes - 64, LineMode::kWeak);
  EXPECT_EQ(s.weak_lines(), 1u);
  s.reset();
  EXPECT_TRUE(s.all_strong());
}

// Drives seeded random set_mode / reset / mode_of sequences against a
// std::set of weak line indices, checking weak_lines() after every
// operation. Lines cluster around the start, the page boundaries, the
// middle and the tail, or fall anywhere; addresses reach three times the
// capacity, so they alias through the modulo.
void expect_matches_reference(std::uint64_t num_lines, std::uint64_t seed) {
  ModeStore s(num_lines);
  std::set<std::uint64_t> weak;
  Rng rng(seed);
  const std::uint64_t page = ModeStore::kLinesPerPage;
  const std::array<std::uint64_t, 5> hot = {0, page, 2 * page, num_lines / 2,
                                            num_lines - 1};
  const auto pick_line = [&] {
    if (rng.chance(0.3)) return rng.next_below(num_lines);
    const std::uint64_t center = hot[rng.next_below(hot.size())];
    return (center % num_lines + num_lines - 128 + rng.next_below(256)) %
           num_lines;
  };
  const auto address_of = [&](std::uint64_t line) -> Address {
    return (line + rng.next_below(3) * num_lines) * kLineBytes +
           rng.next_below(kLineBytes);
  };
  const auto expected = [&](std::uint64_t line) {
    return weak.count(line) != 0 ? LineMode::kWeak : LineMode::kStrong;
  };

  for (int op = 0; op < 20'000; ++op) {
    const std::uint64_t line = pick_line();
    const Address addr = address_of(line);
    const std::uint64_t roll = rng.next_below(100);
    if (roll == 0) {
      s.reset();
      weak.clear();
    } else if (roll < 55) {
      s.set_mode(addr, LineMode::kWeak);
      weak.insert(line);
    } else if (roll < 85) {
      s.set_mode(addr, LineMode::kStrong);
      weak.erase(line);
    }
    ASSERT_EQ(s.mode_of(addr), expected(line)) << "op " << op;
    const std::uint64_t other = pick_line();
    ASSERT_EQ(s.mode_of(address_of(other)), expected(other)) << "op " << op;
    ASSERT_EQ(s.weak_lines(), weak.size()) << "op " << op;
    ASSERT_EQ(s.all_strong(), weak.empty()) << "op " << op;
  }
  ASSERT_FALSE(weak.empty());
  for (const std::uint64_t line : weak) {
    ASSERT_EQ(s.mode_of(line * kLineBytes), LineMode::kWeak) << line;
  }
  if (num_lines <= 4 * page) {
    for (std::uint64_t line = 0; line < num_lines; ++line) {
      ASSERT_EQ(s.mode_of(line * kLineBytes), expected(line)) << line;
    }
  }
}

TEST(ModeStore, MatchesReferenceOnTailWord) {
  expect_matches_reference(130, 1);
}

TEST(ModeStore, MatchesReferenceAcrossPageBoundaries) {
  expect_matches_reference(2 * ModeStore::kLinesPerPage + 70, 2);
}

TEST(ModeStore, MatchesReferenceAt8Channels2Ranks) {
  expect_matches_reference(std::uint64_t{1} << 28, 3);
}

}  // namespace
}  // namespace mecc::morph
