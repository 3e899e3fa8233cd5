// Fuzz / property test of the memory controller: random mixed traffic
// must never lose or duplicate a read, reads must complete in bounded
// time, and the controller must drain to idle. The read-loss fuzzes
// elide ticks the way System does and check the exported queue-depth
// histograms against per-cycle reference samples. The per-bank fuzzes
// additionally pin the refresh invariants (docs/SCHEDULING.md): every
// bank keeps its retention-window coverage, postponement never exceeds
// max_postponed_refreshes, and refresh debt is conserved across
// refresh-divider moves and power-down entries/exits.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <type_traits>
#include <vector>

#include "common/rng.h"
#include "dram/timing_checker.h"
#include "memctrl/controller.h"

namespace mecc::memctrl {
namespace {

// Reference queue-occupancy histograms: one sample of each queue's depth
// per memory cycle, recorded just before that cycle's tick or skip, as
// the controller's own histograms are defined (docs/STATS.md).
struct DepthOracle {
  Distribution read;
  Distribution write;

  void sample(const Controller& ctl) {
    read.record(static_cast<double>(ctl.read_queue_depth()));
    write.record(static_cast<double>(ctl.write_queue_depth()));
  }
  void expect_exported_by(const Controller& ctl) const {
    StatSet s;
    ctl.export_stats(s);
    const auto expect_same = [](const Distribution& got,
                                const Distribution& want, const char* name) {
      EXPECT_EQ(got.count, want.count) << name;
      EXPECT_EQ(got.sum, want.sum) << name;
      EXPECT_EQ(got.min, want.min) << name;
      EXPECT_EQ(got.max, want.max) << name;
    };
    expect_same(s.dist("read_queue_depth"), read, "read_queue_depth");
    expect_same(s.dist("write_queue_depth"), write, "write_queue_depth");
  }
};

class ControllerFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ControllerFuzz, NoReadLostNoReadDuplicated) {
  const dram::Geometry geo;
  const dram::Timing timing;
  dram::Device dev(geo, timing);
  ControllerConfig cfg;
  Controller ctl(dev, cfg);
  Rng rng(GetParam());

  std::map<std::uint64_t, dram::MemCycle> outstanding;  // id -> enqueue time
  std::set<std::uint64_t> completed;
  std::uint64_t next_id = 1;
  std::uint64_t enqueued_reads = 0;
  std::uint64_t enqueued_writes = 0;

  // Ticks are elided as System elides them: a cycle ticks only if it
  // tried to enqueue or reached the wake-up time of the last executed
  // tick; skip_ticks(1) stands in for any other.
  DepthOracle depths;
  dram::MemCycle wake = 0;
  std::uint64_t skipped = 0;

  const dram::MemCycle kTrafficCycles = 30'000;
  const dram::MemCycle kDrainCycles = 20'000;
  for (dram::MemCycle now = 0; now < kTrafficCycles + kDrainCycles; ++now) {
    // Bursty random traffic while in the traffic window.
    const bool enqueues = now < kTrafficCycles && rng.chance(0.15);
    if (enqueues) {
      const Address addr =
          rng.next_below(1 << 16) * kLineBytes;  // 4 MB hot region
      if (rng.chance(0.65)) {
        if (ctl.enqueue_read(addr, next_id, now)) {
          outstanding.emplace(next_id, now);
          ++next_id;
          ++enqueued_reads;
        }
      } else {
        if (ctl.enqueue_write(addr, now)) ++enqueued_writes;
      }
    }
    depths.sample(ctl);
    if (!enqueues && now < wake) {
      ctl.skip_ticks(1);
      ++skipped;
      continue;
    }
    ctl.tick(now);
    for (const auto& c : ctl.collect_completions(now)) {
      // Exactly-once completion.
      ASSERT_TRUE(outstanding.count(c.id)) << "unknown/duplicate id";
      ASSERT_FALSE(completed.count(c.id)) << "duplicated completion";
      // Bounded latency: generous cap of 4000 memory cycles covers queue
      // backlog + refresh interference.
      EXPECT_LE(c.done - outstanding[c.id], 4000u);
      EXPECT_GE(c.done, outstanding[c.id]);
      completed.insert(c.id);
      outstanding.erase(c.id);
    }
    wake = ctl.next_wake(now);
  }

  EXPECT_GT(enqueued_reads, 500u);  // the fuzz actually exercised traffic
  EXPECT_GT(enqueued_writes, 200u);
  EXPECT_TRUE(outstanding.empty()) << outstanding.size() << " reads lost";
  EXPECT_EQ(completed.size(), enqueued_reads);
  EXPECT_TRUE(ctl.idle());
  // Refresh kept running under load.
  EXPECT_GT(ctl.stats().counter("refreshes"), 20u);
  depths.expect_exported_by(ctl);
  EXPECT_GT(skipped, 10'000u);  // ~20 k of the 50 k cycles skip
}

INSTANTIATE_TEST_SUITE_P(Seeds, ControllerFuzz,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

TEST(ControllerStress, SaturatingReadStreamDrains) {
  const dram::Geometry geo;
  const dram::Timing timing;
  dram::Device dev(geo, timing);
  ControllerConfig cfg;
  Controller ctl(dev, cfg);
  Rng rng(99);

  std::uint64_t enq = 0;
  std::uint64_t done = 0;
  std::uint64_t id = 1;
  for (dram::MemCycle now = 0; now < 100'000; ++now) {
    // Saturate: always try to enqueue.
    if (now < 80'000 &&
        ctl.enqueue_read(rng.next_below(1 << 20) * kLineBytes, id, now)) {
      ++id;
      ++enq;
    }
    ctl.tick(now);
    done += ctl.collect_completions(now).size();
  }
  EXPECT_EQ(done, enq);
  EXPECT_TRUE(ctl.idle());
  // Sustained random-access throughput: every read needs ACT+RD+PRE; the
  // device must stay well above 1 read per 100 cycles.
  EXPECT_GT(done, 2000u);
}

// Per-bank refresh fuzz: random mixed traffic with quiet stretches
// (power-down entries/exits) under each per-bank policy. Invariants,
// sampled every cycle:
//   * no bank's debt ever exceeds max_postponed_refreshes (the tREFW
//     guarantee: a bank is never more than the postpone budget behind
//     its schedule);
//   * the total debt is exactly the sum of the per-bank debts.
// And from the command log at the end: every bank received at least
// (elapsed/tREFI - budget - 1) REFpb commands — the per-bank coverage
// an all-bank REF per tREFI would have provided, minus the allowed
// postponement.
//
// Every byte of a parameter is defined (the name is held inline; no
// pointer, no padding): gtest prints a parameter's bytes into its ctest
// id, and a pointer's bytes change from run to run.
struct PerBankFuzzParam {
  char name[14];
  bool darp;
  bool sarp;
};
static_assert(std::has_unique_object_representations_v<PerBankFuzzParam>);

class PerBankRefreshFuzz : public ::testing::TestWithParam<PerBankFuzzParam> {
};

TEST_P(PerBankRefreshFuzz, CoverageAndDebtInvariantsHold) {
  const dram::Geometry geo;
  const dram::Timing timing;
  dram::Device dev(geo, timing);
  std::vector<dram::Command> log;
  dev.set_command_log(&log);
  ControllerConfig cfg;
  cfg.refresh_granularity = RefreshGranularity::kPerBank;
  cfg.darp = GetParam().darp;
  cfg.sarp = GetParam().sarp;
  Controller ctl(dev, cfg);
  Rng rng(123);

  std::uint64_t id = 1;
  const dram::MemCycle span = timing.tREFI * 30;
  for (dram::MemCycle now = 0; now < span; ++now) {
    // Alternate busy and quiet stretches so power-down entries and
    // refresh-while-sleeping wakeups both happen.
    const bool quiet = (now / (timing.tREFI / 2)) % 3 == 2;
    if (!quiet && rng.chance(0.25)) {
      // Whole-device traffic so SARP's subarray-overlap rules fire (a
      // small hot region keeps every row in the refresh pointer's own
      // subarray, where overlap is never legal).
      (void)ctl.enqueue_read(rng.next_below(geo.total_lines()) * kLineBytes,
                             id++, now);
    }
    ctl.tick(now);
    (void)ctl.collect_completions(now);

    std::uint32_t total = 0;
    for (std::uint32_t b = 0; b < geo.banks; ++b) {
      ASSERT_LE(ctl.refresh_debt(b), cfg.max_postponed_refreshes)
          << "bank " << b << " over-postponed at cycle " << now;
      total += ctl.refresh_debt(b);
    }
    ASSERT_EQ(total, ctl.pending_refresh_debt())
        << "debt not conserved at cycle " << now;
  }

  std::vector<std::uint64_t> refb_per_bank(geo.banks, 0);
  for (const auto& c : log) {
    if (c.type == dram::CmdType::kRefreshBank) ++refb_per_bank[c.bank];
  }
  const std::uint64_t required =
      span / timing.tREFI - cfg.max_postponed_refreshes - 1;
  for (std::uint32_t b = 0; b < geo.banks; ++b) {
    EXPECT_GE(refb_per_bank[b], required)
        << "bank " << b << " lost retention-window coverage";
  }
  const dram::TimingChecker checker(timing);
  const auto violations = checker.check(log, geo.banks, cfg.sarp);
  EXPECT_TRUE(violations.empty())
      << (violations.empty() ? "" : violations.front().to_string());
}

INSTANTIATE_TEST_SUITE_P(
    Policies, PerBankRefreshFuzz,
    ::testing::Values(PerBankFuzzParam{"strict", false, false},
                      PerBankFuzzParam{"darp", true, false},
                      PerBankFuzzParam{"darp_sarp", true, true}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(PerBankRefreshFuzz, DebtConservedAcrossDividerMoves) {
  // Flip the refresh divider between 1 and 2 at random points while
  // traffic runs: debt must stay the sum of the per-bank debts, never
  // exceed the cap, and drain to zero once traffic stops (no debt is
  // created or lost by a divider move).
  const dram::Geometry geo;
  const dram::Timing timing;
  dram::Device dev(geo, timing);
  ControllerConfig cfg;
  cfg.refresh_granularity = RefreshGranularity::kPerBank;
  Controller ctl(dev, cfg);
  Rng rng(321);

  std::uint64_t id = 1;
  const dram::MemCycle busy = timing.tREFI * 24;
  for (dram::MemCycle now = 0; now < busy; ++now) {
    if (rng.chance(0.001)) {
      ctl.set_refresh_divider(rng.chance(0.5) ? 1 : 2);
    }
    if (rng.chance(0.2)) {
      (void)ctl.enqueue_read(rng.next_below(1 << 14) * kLineBytes, id++,
                             now);
    }
    ctl.tick(now);
    (void)ctl.collect_completions(now);
    std::uint32_t total = 0;
    for (std::uint32_t b = 0; b < geo.banks; ++b) {
      ASSERT_LE(ctl.refresh_debt(b), cfg.max_postponed_refreshes);
      total += ctl.refresh_debt(b);
    }
    ASSERT_EQ(total, ctl.pending_refresh_debt());
  }
  // Quiesce: strict per-bank refresh drains all debt promptly (well
  // within half an interval even at the worst-case tRFCpb cadence).
  for (dram::MemCycle now = busy; now < busy + timing.tREFI / 2; ++now) {
    ctl.tick(now);
    (void)ctl.collect_completions(now);
  }
  EXPECT_EQ(ctl.pending_refresh_debt(), 0u);
  EXPECT_GT(ctl.stats().counter("refreshes_pb"), 0u);
}

// ---- multi-rank geometry (docs/SCALING.md) ----

TEST(ControllerFuzzMultiRank, NoReadLostAcrossRanks) {
  // Same exactly-once / bounded-latency / drain invariants as the
  // single-rank fuzz, but with two ranks sharing the channel bus and
  // per-rank power-down racing the traffic.
  dram::Geometry geo;
  geo.ranks = 2;
  const dram::Timing timing;
  dram::Device dev(geo, timing);
  ControllerConfig cfg;
  Controller ctl(dev, cfg);
  Rng rng(77);

  std::map<std::uint64_t, dram::MemCycle> outstanding;
  std::set<std::uint64_t> completed;
  std::uint64_t next_id = 1;
  std::uint64_t enqueued_reads = 0;

  // Ticks elided as in the single-rank fuzz.
  DepthOracle depths;
  dram::MemCycle wake = 0;
  std::uint64_t skipped = 0;

  const dram::MemCycle kTrafficCycles = 30'000;
  const dram::MemCycle kDrainCycles = 20'000;
  for (dram::MemCycle now = 0; now < kTrafficCycles + kDrainCycles; ++now) {
    const bool enqueues = now < kTrafficCycles && rng.chance(0.15);
    if (enqueues) {
      // Whole-device addresses so both ranks see traffic.
      const Address addr = rng.next_below(geo.total_lines()) * kLineBytes;
      if (rng.chance(0.65)) {
        if (ctl.enqueue_read(addr, next_id, now)) {
          outstanding.emplace(next_id, now);
          ++next_id;
          ++enqueued_reads;
        }
      } else {
        (void)ctl.enqueue_write(addr, now);
      }
    }
    depths.sample(ctl);
    if (!enqueues && now < wake) {
      ctl.skip_ticks(1);
      ++skipped;
      continue;
    }
    ctl.tick(now);
    for (const auto& c : ctl.collect_completions(now)) {
      ASSERT_TRUE(outstanding.count(c.id)) << "unknown/duplicate id";
      ASSERT_FALSE(completed.count(c.id)) << "duplicated completion";
      EXPECT_LE(c.done - outstanding[c.id], 4000u);
      completed.insert(c.id);
      outstanding.erase(c.id);
    }
    wake = ctl.next_wake(now);
  }

  EXPECT_GT(enqueued_reads, 500u);
  EXPECT_TRUE(outstanding.empty()) << outstanding.size() << " reads lost";
  EXPECT_EQ(completed.size(), enqueued_reads);
  EXPECT_TRUE(ctl.idle());
  EXPECT_GT(ctl.stats().counter("refreshes"), 20u);
  depths.expect_exported_by(ctl);
  EXPECT_GT(skipped, 10'000u);  // ~20 k of the 50 k cycles skip
}

class PerBankRefreshFuzzMultiRank
    : public ::testing::TestWithParam<PerBankFuzzParam> {};

TEST_P(PerBankRefreshFuzzMultiRank, CoverageAndDebtInvariantsHold) {
  // The PR 7 leftover: the per-bank debt/coverage invariants must hold
  // bank-by-bank across BOTH ranks — debt indexed by global bank id,
  // every one of the ranks x banks banks keeping its retention window.
  dram::Geometry geo;
  geo.ranks = 2;
  const dram::Timing timing;
  dram::Device dev(geo, timing);
  const std::uint32_t total_banks = geo.banks * geo.ranks;
  std::vector<dram::Command> log;
  dev.set_command_log(&log);
  ControllerConfig cfg;
  cfg.refresh_granularity = RefreshGranularity::kPerBank;
  cfg.darp = GetParam().darp;
  cfg.sarp = GetParam().sarp;
  Controller ctl(dev, cfg);
  Rng rng(456);

  std::uint64_t id = 1;
  const dram::MemCycle span = timing.tREFI * 30;
  for (dram::MemCycle now = 0; now < span; ++now) {
    const bool quiet = (now / (timing.tREFI / 2)) % 3 == 2;
    if (!quiet && rng.chance(0.25)) {
      (void)ctl.enqueue_read(rng.next_below(geo.total_lines()) * kLineBytes,
                             id++, now);
    }
    ctl.tick(now);
    (void)ctl.collect_completions(now);

    std::uint32_t total = 0;
    for (std::uint32_t b = 0; b < total_banks; ++b) {
      ASSERT_LE(ctl.refresh_debt(b), cfg.max_postponed_refreshes)
          << "bank " << b << " over-postponed at cycle " << now;
      total += ctl.refresh_debt(b);
    }
    ASSERT_EQ(total, ctl.pending_refresh_debt())
        << "debt not conserved at cycle " << now;
  }

  std::vector<std::uint64_t> refb_per_bank(total_banks, 0);
  for (const auto& c : log) {
    if (c.type == dram::CmdType::kRefreshBank) ++refb_per_bank[c.bank];
  }
  const std::uint64_t required =
      span / timing.tREFI - cfg.max_postponed_refreshes - 1;
  for (std::uint32_t b = 0; b < total_banks; ++b) {
    EXPECT_GE(refb_per_bank[b], required)
        << "bank " << b << " lost retention-window coverage";
  }
  const dram::TimingChecker checker(timing);
  const auto violations =
      checker.check(log, total_banks, cfg.sarp, geo.banks);
  EXPECT_TRUE(violations.empty())
      << (violations.empty() ? "" : violations.front().to_string());
}

INSTANTIATE_TEST_SUITE_P(
    Policies, PerBankRefreshFuzzMultiRank,
    ::testing::Values(PerBankFuzzParam{"strict", false, false},
                      PerBankFuzzParam{"darp", true, false},
                      PerBankFuzzParam{"darp_sarp", true, true}),
    [](const auto& info) { return std::string(info.param.name); });

}  // namespace
}  // namespace mecc::memctrl
