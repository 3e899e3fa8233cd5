// Fast-forward equivalence suite (docs/PERFORMANCE.md): the event-driven
// skip engine (SystemConfig::fast_forward = true, the default) must be
// bit-identical to the per-cycle reference loop for every simulated
// field, across every ECC policy, across active/idle lifecycles, with
// the fault campaign attached, and with SMD enabled. Plus property tests
// that the component next_event bounds never overshoot a real event and
// that InOrderCore::advance_gap matches the per-cycle tick sequence.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "common/rng.h"
#include "cpu/core.h"
#include "memctrl/controller.h"
#include "sim/experiment.h"
#include "sim/system.h"
#include "trace/benchmarks.h"
#include "trace/trace_source.h"

namespace mecc::sim {
namespace {

SystemConfig base_config(EccPolicy policy) {
  SystemConfig c;
  c.policy = policy;
  c.instructions = 300'000;
  c.seed = 7;
  return c;
}

RunResult run_once(const trace::BenchmarkProfile& profile, SystemConfig cfg,
                   bool fast_forward) {
  cfg.fast_forward = fast_forward;
  System sys(profile, cfg);
  return sys.run();
}

void expect_idle_reports_equal(const IdleReport& a, const IdleReport& b) {
  EXPECT_EQ(a.lines_upgraded, b.lines_upgraded);
  EXPECT_EQ(a.upgrade_seconds, b.upgrade_seconds);
  EXPECT_EQ(a.idle_seconds, b.idle_seconds);
  EXPECT_EQ(a.idle_energy_mj, b.idle_energy_mj);
  EXPECT_EQ(a.refresh_pulses, b.refresh_pulses);
  EXPECT_EQ(a.refresh_period_s, b.refresh_period_s);
  EXPECT_EQ(a.injected_bits, b.injected_bits);
  EXPECT_EQ(a.injected_ber, b.injected_ber);
}

class FastForwardPolicy : public ::testing::TestWithParam<EccPolicy> {};

TEST_P(FastForwardPolicy, BitIdenticalToPerCycleLoop) {
  // Two memory-intensity extremes so both the mostly-idle skip path and
  // the saturated always-busy path are exercised.
  for (const char* name : {"povray", "lbm"}) {
    const auto& b = trace::benchmark(name);
    SystemConfig cfg = base_config(GetParam());
    cfg.checkpoint_insts = {100'000, 200'000};  // crossings stay per-cycle
    const RunResult on = run_once(b, cfg, true);
    const RunResult off = run_once(b, cfg, false);
    EXPECT_TRUE(same_simulated_result(on, off)) << name;
    ASSERT_EQ(on.checkpoints.size(), off.checkpoints.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Policies, FastForwardPolicy,
                         ::testing::Values(EccPolicy::kNoEcc,
                                           EccPolicy::kSecded,
                                           EccPolicy::kEcc6,
                                           EccPolicy::kMecc),
                         [](const auto& info) {
                           switch (info.param) {
                             case EccPolicy::kNoEcc: return "NoEcc";
                             case EccPolicy::kSecded: return "Secded";
                             case EccPolicy::kEcc6: return "Ecc6";
                             case EccPolicy::kMecc: return "Mecc";
                           }
                           return "Unknown";
                         });

// Refresh scheduling policies (docs/SCHEDULING.md): the skip engine
// must stay bit-identical under per-bank refresh, DARP's out-of-order
// pull-in/postpone machinery, and SARP's subarray overlap — their
// per-bank due times and pull-in horizons are new next_event sources.
//
// Every byte of a case is defined (the name is held inline; no pointer,
// no padding): gtest prints a parameter's bytes into its ctest id, and
// a pointer's bytes change from run to run.
enum RefreshSetting : std::uint8_t {
  kPerBank = 1 << 0,
  kDarp = 1 << 1,
  kSarp = 1 << 2,
  kElastic = 1 << 3,
};

struct RefreshPolicyCase {
  char name[15];
  std::uint8_t settings;  // RefreshSetting bits
};
static_assert(std::has_unique_object_representations_v<RefreshPolicyCase>);

constexpr RefreshPolicyCase kRefreshPolicyCases[] = {
    {"AllBank", 0},
    {"PerBank", kPerBank},
    {"PerBankElastic", kPerBank | kElastic},
    {"Darp", kPerBank | kDarp},
    {"DarpSarp", kPerBank | kDarp | kSarp},
};

void apply_case(const RefreshPolicyCase& c, memctrl::ControllerConfig& cfg) {
  cfg.refresh_granularity = (c.settings & kPerBank) != 0
                                ? memctrl::RefreshGranularity::kPerBank
                                : memctrl::RefreshGranularity::kAllBank;
  cfg.darp = (c.settings & kDarp) != 0;
  cfg.sarp = (c.settings & kSarp) != 0;
  cfg.elastic_refresh = (c.settings & kElastic) != 0;
}

std::string case_name(
    const ::testing::TestParamInfo<RefreshPolicyCase>& info) {
  return info.param.name;
}

class FastForwardRefreshPolicy
    : public ::testing::TestWithParam<RefreshPolicyCase> {};

TEST_P(FastForwardRefreshPolicy, BitIdenticalToPerCycleLoop) {
  for (const char* name : {"povray", "lbm"}) {
    const auto& b = trace::benchmark(name);
    SystemConfig cfg = base_config(EccPolicy::kNoEcc);
    apply_case(GetParam(), cfg.controller);
    const RunResult on = run_once(b, cfg, true);
    const RunResult off = run_once(b, cfg, false);
    EXPECT_TRUE(same_simulated_result(on, off)) << name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, FastForwardRefreshPolicy,
    ::testing::ValuesIn(kRefreshPolicyCases), case_name);

// Multi-channel x multi-rank geometry (docs/SCALING.md): the per-channel
// fast-forward fold — each channel contributing its own refresh /
// power-down / completion horizons, per-rank refresh state per
// controller — must stay bit-identical under every refresh policy.
class FastForwardGeometryRefreshPolicy
    : public ::testing::TestWithParam<RefreshPolicyCase> {};

TEST_P(FastForwardGeometryRefreshPolicy, BitIdenticalAt2x2) {
  for (const char* name : {"povray", "lbm"}) {
    const auto& b = trace::benchmark(name);
    SystemConfig cfg = base_config(EccPolicy::kNoEcc);
    cfg.geometry.channels = 2;
    cfg.geometry.ranks = 2;
    apply_case(GetParam(), cfg.controller);
    const RunResult on = run_once(b, cfg, true);
    const RunResult off = run_once(b, cfg, false);
    EXPECT_TRUE(same_simulated_result(on, off)) << name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, FastForwardGeometryRefreshPolicy,
    ::testing::ValuesIn(kRefreshPolicyCases), case_name);

TEST(FastForward, GeometryInterleaveAndStreamsBitIdentical) {
  // Every interleave mode and a multi-stream contention mix at
  // 2ch x 2rank: the joint multi-core skip (per-core gap bounds folded
  // into one shared-clock advance) must match the per-cycle loop.
  for (const memctrl::Interleave mode :
       {memctrl::Interleave::kLine, memctrl::Interleave::kRow,
        memctrl::Interleave::kBankXor}) {
    for (const std::uint32_t streams : {1u, 2u, 4u}) {
      const auto& b = trace::benchmark("astar");
      SystemConfig cfg = base_config(EccPolicy::kMecc);
      cfg.geometry.channels = 2;
      cfg.geometry.ranks = 2;
      cfg.interleave = mode;
      cfg.streams = streams;
      const RunResult on = run_once(b, cfg, true);
      const RunResult off = run_once(b, cfg, false);
      EXPECT_TRUE(same_simulated_result(on, off))
          << memctrl::interleave_name(mode) << " streams=" << streams;
    }
  }
}

TEST(FastForward, ChannelParallelBitIdenticalToSerialOrder) {
  // Channel-parallel epoch ticking (thread pool inside one run) is a
  // pure implementation detail: same simulated fields as the serial
  // single-threaded order, fast-forward on or off.
  const auto& b = trace::benchmark("lbm");
  SystemConfig cfg = base_config(EccPolicy::kNoEcc);
  cfg.geometry.channels = 4;
  cfg.geometry.ranks = 2;
  cfg.streams = 4;
  const RunResult serial = run_once(b, cfg, true);
  cfg.channel_threads = 4;
  const RunResult parallel = run_once(b, cfg, true);
  EXPECT_TRUE(same_simulated_result(serial, parallel));
  cfg.fast_forward = false;
  System sys(b, cfg);
  const RunResult percycle = sys.run();
  EXPECT_TRUE(same_simulated_result(serial, percycle));
}

TEST(FastForward, PerBankLifecycleBitIdentical) {
  // Active -> self-refresh idle -> active under DARP+SARP: the idle
  // transition exercises resync_refresh's per-bank reset, and the warm
  // re-entry the per-bank due-time bounds.
  const auto& b = trace::benchmark("astar");
  SystemConfig cfg = base_config(EccPolicy::kMecc);
  cfg.controller.refresh_granularity = memctrl::RefreshGranularity::kPerBank;
  cfg.controller.darp = true;
  cfg.controller.sarp = true;
  cfg.fast_forward = true;
  System on(b, cfg);
  cfg.fast_forward = false;
  System off(b, cfg);

  for (int cycle = 0; cycle < 3; ++cycle) {
    const RunResult a = on.run_period(150'000);
    const RunResult r = off.run_period(150'000);
    EXPECT_TRUE(same_simulated_result(a, r)) << "period " << cycle;
    if (cycle == 2) break;
    const IdleReport ia = on.idle_period(0.5);
    const IdleReport ib = off.idle_period(0.5);
    expect_idle_reports_equal(ia, ib);
  }
}

TEST(FastForward, LifecycleBitIdentical) {
  // Fig. 4 lifecycle: active -> idle -> active -> idle -> active, on two
  // Systems differing only in the fast_forward flag. Every period and
  // every idle report must match exactly (the idle drain and the warm
  // re-entry both run through the skip engine).
  const auto& b = trace::benchmark("astar");
  SystemConfig cfg = base_config(EccPolicy::kMecc);
  cfg.fast_forward = true;
  System on(b, cfg);
  cfg.fast_forward = false;
  System off(b, cfg);

  for (int cycle = 0; cycle < 3; ++cycle) {
    const RunResult a = on.run_period(150'000);
    const RunResult r = off.run_period(150'000);
    EXPECT_TRUE(same_simulated_result(a, r)) << "period " << cycle;
    if (cycle == 2) break;
    const IdleReport ia = on.idle_period(0.5);
    const IdleReport ib = off.idle_period(0.5);
    expect_idle_reports_equal(ia, ib);
  }
}

TEST(FastForward, FaultCampaignBitIdentical) {
  // With the functional shadow attached and real retention errors
  // injected during the idle period, the post-wake period (DUE ladder
  // included) must still be bit-identical.
  // MECC: the only policy that sleeps at a slowed refresh period, which
  // is what triggers retention-error injection.
  const auto& b = trace::benchmark("soplex");
  SystemConfig cfg = base_config(EccPolicy::kMecc);
  cfg.instructions = 200'000;
  cfg.fault.enabled = true;
  cfg.fault.shadow_lines = 1024;
  cfg.fault.ber_override = 3e-3;  // high enough to hit the shadow set

  cfg.fast_forward = true;
  System on(b, cfg);
  cfg.fast_forward = false;
  System off(b, cfg);

  EXPECT_TRUE(same_simulated_result(on.run(), off.run()));
  const IdleReport ia = on.idle_period(1.0);
  const IdleReport ib = off.idle_period(1.0);
  expect_idle_reports_equal(ia, ib);
  EXPECT_GT(ia.injected_bits, 0u);
  EXPECT_TRUE(same_simulated_result(on.run_period(200'000),
                                    off.run_period(200'000)));
}

TEST(FastForward, SmdBitIdentical) {
  // SMD's MPKC quantum boundaries are absolute-cycle events the skip
  // engine must not jump across.
  const auto& b = trace::benchmark("omnetpp");
  SystemConfig cfg = base_config(EccPolicy::kMecc);
  cfg.mecc_use_smd = true;
  cfg.smd_quantum_cycles = 50'000;
  const RunResult on = run_once(b, cfg, true);
  const RunResult off = run_once(b, cfg, false);
  EXPECT_TRUE(same_simulated_result(on, off));
  EXPECT_GT(on.frac_downgrade_disabled, 0.0);  // SMD actually engaged
}

class ControllerNextEventProperty
    : public ::testing::TestWithParam<RefreshPolicyCase> {};

TEST_P(ControllerNextEventProperty, NeverOvershoots) {
  // Property: whenever next_event(now) returns a bound b, every tick in
  // (now, b) is a pure no-op — no counter moves — and no completion
  // becomes ready before next_completion_ready(). The bound is only
  // valid until the next external input, so it is recomputed after every
  // enqueue. Runs once per refresh policy: the per-bank due times and
  // DARP pull-in horizon are each their own bound source.
  const dram::Geometry geo;
  const dram::Timing timing;
  dram::Device dev(geo, timing);
  memctrl::ControllerConfig cfg;
  apply_case(GetParam(), cfg);
  memctrl::Controller ctl(dev, cfg);
  Rng rng(42);

  dram::MemCycle bound = 0;  // no-op window: cycles strictly below this
  dram::MemCycle completion_bound = 0;
  std::uint64_t next_id = 1;
  std::uint64_t checked_noop_ticks = 0;

  for (dram::MemCycle now = 0; now < 60'000; ++now) {
    // Bursty traffic with long quiet stretches so refresh and power-down
    // events dominate some windows and queue activity others.
    const bool quiet = (now / 8'000) % 2 == 1;
    if (!quiet && rng.chance(0.1)) {
      const Address addr = rng.next_below(1 << 14) * kLineBytes;
      const bool accepted = rng.chance(0.6)
                                ? ctl.enqueue_read(addr, next_id++, now)
                                : ctl.enqueue_write(addr, now);
      (void)accepted;
      // External input invalidates the standing bounds.
      bound = 0;
      completion_bound = 0;
    }

    const bool expect_noop = now < bound;
    StatSet before;
    if (expect_noop) before = ctl.stats();
    ctl.tick(now);
    const auto& done = ctl.collect_completions(now);
    if (expect_noop) {
      EXPECT_EQ(before, ctl.stats()) << "tick acted before bound at " << now;
      ++checked_noop_ticks;
    }
    if (now < completion_bound) {
      EXPECT_TRUE(done.empty())
          << "completion before next_completion_ready at " << now;
    }

    const dram::MemCycle b = ctl.next_event(now);
    ASSERT_GT(b, now) << "bound must be strictly in the future";
    bound = b;
    const dram::MemCycle c = ctl.next_completion_ready();
    completion_bound = c == memctrl::kNoMemEvent ? 0 : c;
  }
  // The property actually bit on a meaningful share of the run.
  EXPECT_GT(checked_noop_ticks, 10'000u);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, ControllerNextEventProperty,
    ::testing::ValuesIn(kRefreshPolicyCases), case_name);

TEST(FastForward, AdvanceGapMatchesPerCycleTicks) {
  // Two cores over identical trace streams and always-accepting memory
  // callbacks: one stepped cycle by cycle, one using advance_gap
  // whenever it is in a pure gap. Retire/cycle/issue accounting must
  // match exactly at every comparison point.
  const auto& b = trace::benchmark("gcc");
  trace::GeneratorConfig gcfg;
  gcfg.seed = 11;
  trace::GeneratorSource src_a(b, gcfg);
  trace::GeneratorSource src_b(b, gcfg);

  cpu::CoreConfig ccfg;
  ccfg.base_ipc = 1.37;  // non-dyadic: exercises the Q32 quantization
  // Reads are accepted instantly and their data returns right after the
  // issuing tick (a 1-cycle memory), identically for both cores.
  std::vector<std::uint64_t> tags_a;
  std::vector<std::uint64_t> tags_b;
  auto accept_write = [](Address) { return true; };
  cpu::InOrderCore per_cycle(
      ccfg, src_a,
      [&tags_a](Address, std::uint64_t tag) {
        tags_a.push_back(tag);
        return true;
      },
      accept_write);
  cpu::InOrderCore bulk(
      ccfg, src_b,
      [&tags_b](Address, std::uint64_t tag) {
        tags_b.push_back(tag);
        return true;
      },
      accept_write);

  Cycle bulk_cycles = 0;
  const Cycle kTotal = 200'000;
  for (Cycle now = 0; now < kTotal; ++now) {
    per_cycle.tick();
    for (const std::uint64_t tag : tags_a) per_cycle.on_read_data(tag);
    tags_a.clear();
  }
  while (bulk_cycles < kTotal) {
    if (bulk.in_pure_gap()) {
      const Cycle advanced = bulk.advance_gap(
          kTotal - bulk_cycles, std::numeric_limits<InstCount>::max());
      bulk_cycles += advanced;
      if (advanced > 0) continue;
    }
    bulk.tick();
    for (const std::uint64_t tag : tags_b) bulk.on_read_data(tag);
    tags_b.clear();
    ++bulk_cycles;
  }

  EXPECT_EQ(per_cycle.retired(), bulk.retired());
  EXPECT_EQ(per_cycle.cycles(), bulk.cycles());
  EXPECT_EQ(per_cycle.stall_cycles(), bulk.stall_cycles());
  EXPECT_EQ(per_cycle.reads_issued(), bulk.reads_issued());
  EXPECT_EQ(per_cycle.writes_issued(), bulk.writes_issued());
  EXPECT_GT(bulk.retired(), 100'000u);  // the comparison covered real work
}

}  // namespace
}  // namespace mecc::sim
