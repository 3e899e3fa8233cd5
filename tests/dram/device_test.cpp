#include "dram/device.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace mecc::dram {
namespace {

class DeviceTest : public ::testing::Test {
 protected:
  Geometry geo_;
  Timing t_;
  Device dev_{geo_, t_};
};

TEST_F(DeviceTest, GeometryMatchesTable2) {
  // Table II: 1 GB, 1 channel, 1 rank, 4 banks, 16K rows.
  EXPECT_EQ(geo_.capacity_bytes(), 1ull << 30);
  EXPECT_EQ(geo_.banks, 4u);
  EXPECT_EQ(geo_.rows_per_bank, 16u * 1024);
  EXPECT_EQ(geo_.total_lines(), kMemoryLines);
}

TEST_F(DeviceTest, ReadAfterActivate) {
  ASSERT_TRUE(dev_.can_activate(0, 0));
  dev_.activate(0, 123, 0);
  EXPECT_FALSE(dev_.can_read(0, 123, t_.tRCD - 1));
  ASSERT_TRUE(dev_.can_read(0, 123, t_.tRCD));
  EXPECT_FALSE(dev_.can_read(0, 999, t_.tRCD));  // wrong row
  const MemCycle done = dev_.read(0, t_.tRCD);
  EXPECT_EQ(done, t_.tRCD + t_.tCL + t_.tBURST);
}

TEST_F(DeviceTest, TrrdSpacesActivates) {
  dev_.activate(0, 1, 0);
  EXPECT_FALSE(dev_.can_activate(1, t_.tRRD - 1));
  EXPECT_TRUE(dev_.can_activate(1, t_.tRRD));
}

TEST_F(DeviceTest, TfawLimitsFourActivatesPerWindow) {
  // Use a wide tFAW so the four-activate window outlives tRAS + tRP.
  Timing t = t_;
  t.tFAW = 30;
  Device dev(geo_, t);
  dev.activate(0, 1, 0);
  dev.activate(1, 1, t.tRRD);
  dev.activate(2, 1, 2 * t.tRRD);
  dev.activate(3, 1, 3 * t.tRRD);
  // All four banks activated; a fifth ACT cannot happen before tFAW,
  // even if a bank is free again (re-activate bank 0 after precharge).
  dev.precharge(0, t.tRAS);
  const MemCycle after_pre = t.tRAS + t.tRP;
  ASSERT_LT(after_pre, static_cast<MemCycle>(t.tFAW));
  EXPECT_FALSE(dev.can_activate(0, after_pre));
  EXPECT_TRUE(dev.can_activate(0, t.tFAW));
}

TEST_F(DeviceTest, TfawDoesNotBindBeforeFourActivates) {
  // A fresh device must allow its very first ACT at time 0.
  EXPECT_TRUE(dev_.can_activate(0, 0));
}

TEST_F(DeviceTest, SharedDataBusSpacesColumns) {
  dev_.activate(0, 1, 0);
  dev_.activate(1, 2, t_.tRRD);
  const MemCycle rd = t_.tRCD;
  (void)dev_.read(0, rd);
  // Bank 1's row is open by rd + tBURST, but the data bus is busy.
  EXPECT_FALSE(dev_.can_read(1, 2, rd + t_.tBURST - 1));
  EXPECT_TRUE(dev_.can_read(1, 2, rd + t_.tBURST));
}

TEST_F(DeviceTest, WriteToReadTurnaround) {
  dev_.activate(0, 1, 0);
  (void)dev_.write(0, t_.tRCD);
  const MemCycle bus_free = t_.tRCD + t_.tBURST;
  EXPECT_FALSE(dev_.can_read(0, 1, bus_free + t_.tWTR - 1));
  EXPECT_TRUE(dev_.can_read(0, 1, bus_free + t_.tWTR));
}

TEST_F(DeviceTest, RefreshRequiresAllBanksPrecharged) {
  dev_.activate(0, 1, 0);
  EXPECT_FALSE(dev_.can_refresh(t_.tRAS));
  dev_.precharge(0, t_.tRAS);
  const MemCycle idle = t_.tRAS + t_.tRP;
  ASSERT_TRUE(dev_.can_refresh(idle));
  dev_.refresh(idle);
  // Banks blocked for tRFC.
  EXPECT_FALSE(dev_.can_activate(0, idle + t_.tRFC - 1));
  EXPECT_TRUE(dev_.can_activate(0, idle + t_.tRFC));
}

TEST_F(DeviceTest, PowerDownBlocksCommands) {
  dev_.enter_power_down(0);
  EXPECT_TRUE(dev_.in_power_down());
  EXPECT_EQ(dev_.power_state(), PowerState::kPrechargePowerDown);
  EXPECT_FALSE(dev_.can_activate(0, 100));
  dev_.exit_power_down(100);
  EXPECT_FALSE(dev_.can_activate(0, 100 + t_.tXP - 1));
  EXPECT_TRUE(dev_.can_activate(0, 100 + t_.tXP));
}

TEST_F(DeviceTest, ActivePowerDownState) {
  dev_.activate(0, 1, 0);
  dev_.enter_power_down(5);
  EXPECT_EQ(dev_.power_state(), PowerState::kActivePowerDown);
}

TEST_F(DeviceTest, StateCyclesAccounted) {
  dev_.activate(0, 1, 0);        // active standby from 0
  dev_.precharge(0, t_.tRAS);    // precharge standby from tRAS
  dev_.enter_power_down(20);     // pd from 20
  const auto& c = dev_.counters(100);
  EXPECT_EQ(c.state_cycles[static_cast<std::size_t>(
                PowerState::kActiveStandby)],
            static_cast<MemCycle>(t_.tRAS));
  EXPECT_EQ(c.state_cycles[static_cast<std::size_t>(
                PowerState::kPrechargeStandby)],
            20u - t_.tRAS);
  EXPECT_EQ(c.state_cycles[static_cast<std::size_t>(
                PowerState::kPrechargePowerDown)],
            80u);
  EXPECT_EQ(c.activates, 1u);
  EXPECT_EQ(c.precharges, 1u);
}

TEST_F(DeviceTest, SelfRefreshCreditsInternalPulses) {
  dev_.enter_self_refresh(0, /*refresh_divider=*/1);
  EXPECT_TRUE(dev_.in_self_refresh());
  EXPECT_EQ(dev_.power_state(), PowerState::kSelfRefresh);
  const MemCycle stay = static_cast<MemCycle>(t_.tREFI) * 100;
  dev_.exit_self_refresh(stay);
  const auto& c = dev_.counters(stay);
  EXPECT_EQ(c.self_refresh_pulses, 100u);
}

TEST_F(DeviceTest, SlowSelfRefreshDividesPulses16x) {
  // The paper's 4-bit counter: divider 16 -> 16x fewer refresh pulses.
  dev_.enter_self_refresh(0, /*refresh_divider=*/16);
  const MemCycle stay = static_cast<MemCycle>(t_.tREFI) * 1600;
  dev_.exit_self_refresh(stay);
  EXPECT_EQ(dev_.counters(stay).self_refresh_pulses, 100u);
}

TEST_F(DeviceTest, SelfRefreshExitEnforcesTxsr) {
  dev_.enter_self_refresh(0, 16);
  dev_.exit_self_refresh(1000);
  EXPECT_FALSE(dev_.can_activate(0, 1000 + t_.tXSR - 1));
  EXPECT_TRUE(dev_.can_activate(0, 1000 + t_.tXSR));
}

TEST_F(DeviceTest, CountersTallyCommands) {
  dev_.activate(0, 1, 0);
  (void)dev_.read(0, t_.tRCD);
  (void)dev_.write(0, t_.tRCD + t_.tBURST);
  const auto& c = dev_.counters(50);
  EXPECT_EQ(c.activates, 1u);
  EXPECT_EQ(c.reads, 1u);
  EXPECT_EQ(c.writes, 1u);
}

TEST(DeviceGeometry, RejectsGeometriesBeyondTheBankMaskWidth) {
  // One bit per global bank in 32-bit masks: checked in every build,
  // including the 64-bit product (2^16 x 2^16 wraps to 0 in 32 bits).
  const Timing t;
  const auto make = [&t](std::uint32_t ranks, std::uint32_t banks) {
    Geometry g;
    g.ranks = ranks;
    g.banks = banks;
    return Device(g, t);
  };
  EXPECT_THROW((void)make(0, 4), std::invalid_argument);
  EXPECT_THROW((void)make(1, 0), std::invalid_argument);
  EXPECT_THROW((void)make(8, 8), std::invalid_argument);
  EXPECT_THROW((void)make(1u << 16, 1u << 16), std::invalid_argument);
  EXPECT_NO_THROW((void)make(8, 4));

  // The widest legal rank fills the word: bank 31's row is tracked.
  Device wide = make(1, 32);
  EXPECT_EQ(wide.rank_bank_mask(0), ~0u);
  wide.activate(31, 7, 0);
  EXPECT_EQ(wide.open_banks(), 1u << 31);
  EXPECT_FALSE(wide.rank_banks_precharged(0));
  EXPECT_EQ(make(4, 8).rank_bank_mask(3), 0xFF000000u);
}

}  // namespace
}  // namespace mecc::dram
