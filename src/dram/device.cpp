#include "dram/device.h"

#include <bit>
#include <cassert>
#include <stdexcept>
#include <string>

namespace mecc::dram {

const char* power_state_name(PowerState s) {
  switch (s) {
    case PowerState::kPrechargeStandby:
      return "precharge_standby";
    case PowerState::kActiveStandby:
      return "active_standby";
    case PowerState::kPrechargePowerDown:
      return "precharge_power_down";
    case PowerState::kActivePowerDown:
      return "active_power_down";
    case PowerState::kSelfRefresh:
      return "self_refresh";
  }
  return "?";
}

namespace {

void export_counters(const ActivityCounters& c, const std::string& prefix,
                     StatSet& out) {
  out.add(prefix + "activates", c.activates);
  out.add(prefix + "precharges", c.precharges);
  out.add(prefix + "reads", c.reads);
  out.add(prefix + "writes", c.writes);
  out.add(prefix + "refreshes", c.refreshes);
  // Emitted only when per-bank refresh ran: all-bank configurations keep
  // their historical key set (and committed reference JSONs) unchanged.
  if (c.refreshes_pb != 0) {
    out.add(prefix + "refreshes_pb", c.refreshes_pb);
  }
  out.add(prefix + "self_refresh_pulses", c.self_refresh_pulses);
  for (std::size_t i = 0; i < kNumPowerStates; ++i) {
    out.add(prefix + "state_cycles." +
                power_state_name(static_cast<PowerState>(i)),
            c.state_cycles[i]);
  }
}

}  // namespace

void Device::export_stats(StatSet& out) const {
  export_counters(counters_, "", out);
  if (geo_.ranks > 1) {
    for (std::uint32_t r = 0; r < geo_.ranks; ++r) {
      export_counters(rank_counters_[r], "r" + std::to_string(r) + ".", out);
    }
  }
}

Device::Device(const Geometry& geo, const Timing& timing)
    : geo_(geo), timing_(timing) {
  // The flattened bank array is addressed through 32-bit open/refresh
  // masks throughout the controller; the rank power-down mask likewise.
  // Checked in every build: a wider geometry would shift past bit 31.
  if (geo_.ranks == 0 || geo_.banks == 0 ||
      static_cast<std::uint64_t>(geo_.ranks) * geo_.banks > 32) {
    throw std::invalid_argument(
        "dram::Device: geometry needs 1 <= ranks, 1 <= banks and "
        "ranks * banks <= 32, got " + std::to_string(geo_.ranks) +
        " ranks x " + std::to_string(geo_.banks) + " banks");
  }
  const std::uint32_t total = total_banks();
  banks_.reserve(total);
  for (std::uint32_t i = 0; i < total; ++i) banks_.emplace_back(timing_);
  bank_act_cycle_.assign(total, 0);
  ref_row_.assign(total, 0);
  rank_next_act_allowed_.assign(geo_.ranks, 0);
  rank_act_.assign(static_cast<std::size_t>(geo_.ranks) * kFawWindow, 0);
  act_idx_.assign(geo_.ranks, 0);
  act_count_.assign(geo_.ranks, 0);
  rank_wakeup_ready_.assign(geo_.ranks, 0);
  rank_state_.assign(geo_.ranks, PowerState::kPrechargeStandby);
  rank_counters_.assign(geo_.ranks, ActivityCounters{});
}

namespace {

// Static-lifetime command names (TraceEvent stores const char*; the
// cmd_name() helper returns std::string and cannot back a POD event).
const char* trace_cmd_name(CmdType t) {
  switch (t) {
    case CmdType::kActivate:
      return "ACT";
    case CmdType::kRead:
      return "RD";
    case CmdType::kWrite:
      return "WR";
    case CmdType::kPrecharge:
      return "PRE";
    case CmdType::kRefresh:
      return "REF";
    case CmdType::kPowerDownEnter:
      return "PDE";
    case CmdType::kPowerDownExit:
      return "PDX";
    case CmdType::kSelfRefreshEnter:
      return "SRE";
    case CmdType::kSelfRefreshExit:
      return "SRX";
    case CmdType::kRefreshBank:
      return "REFB";
  }
  return "?";
}

// Static-lifetime power-state names for span events.
const char* trace_state_name(PowerState s) { return power_state_name(s); }

constexpr Cycle to_cpu(MemCycle m) {
  return static_cast<Cycle>(m) * kCpuCyclesPerMemCycle;
}

}  // namespace

void Device::trace_command(CmdType type, std::uint32_t bank,
                           std::uint32_t row, MemCycle now) {
  tracer_->instant(tracing::Category::kDram, tracing::kTrackDramCmd,
                   trace_cmd_name(type), to_cpu(now), "bank", bank, "row",
                   row);
}

void Device::flush_trace(MemCycle now) {
  if (tracer_ == nullptr) return;
  // Close row-open spans for banks still open at end of run.
  std::uint32_t open = open_mask_;
  while (open != 0) {
    const std::uint32_t bank =
        static_cast<std::uint32_t>(std::countr_zero(open));
    open &= open - 1;
    const MemCycle opened = bank_act_cycle_[bank];
    tracer_->complete(
        tracing::Category::kBank,
        static_cast<std::uint8_t>(tracing::kTrackBankBase + bank), "row_open",
        to_cpu(opened), to_cpu(now - opened), "row",
        static_cast<std::uint64_t>(banks_[bank].open_row()));
  }
  // Close the in-flight power-state residency span.
  if (now > trace_state_entered_) {
    tracer_->complete(tracing::Category::kPower, tracing::kTrackPower,
                      trace_state_name(state_), to_cpu(trace_state_entered_),
                      to_cpu(now - trace_state_entered_));
    trace_state_entered_ = now;
  }
}

PowerState Device::compute_rank_state(std::uint32_t rank) const {
  if (in_self_refresh_) return PowerState::kSelfRefresh;
  const bool precharged = rank_open_mask(rank) == 0;
  if (rank_powered_down(rank)) {
    return precharged ? PowerState::kPrechargePowerDown
                      : PowerState::kActivePowerDown;
  }
  return precharged ? PowerState::kPrechargeStandby
                    : PowerState::kActiveStandby;
}

PowerState Device::compute_state() const {
  // Channel-level view for the trace span: powered-down only when every
  // rank is (at ranks=1 this is exactly the rank's own state).
  if (in_self_refresh_) return PowerState::kSelfRefresh;
  const auto all =
      static_cast<std::uint32_t>((std::uint64_t{1} << geo_.ranks) - 1u);
  if (pd_mask_ == all) {
    return all_banks_precharged() ? PowerState::kPrechargePowerDown
                                  : PowerState::kActivePowerDown;
  }
  return all_banks_precharged() ? PowerState::kPrechargeStandby
                                : PowerState::kActiveStandby;
}

void Device::account_to(MemCycle now) {
  assert(now >= state_since_);
  const MemCycle d = now - state_since_;
  if (d != 0) {
    for (std::uint32_t r = 0; r < geo_.ranks; ++r) {
      const auto s = static_cast<std::size_t>(rank_state_[r]);
      counters_.state_cycles[s] += d;
      rank_counters_[r].state_cycles[s] += d;
    }
  }
  state_since_ = now;
}

void Device::refresh_state(MemCycle now) {
  account_to(now);
  for (std::uint32_t r = 0; r < geo_.ranks; ++r) {
    rank_state_[r] = compute_rank_state(r);
  }
  const PowerState next = compute_state();
  if (tracer_ != nullptr && next != state_) {
    // Residency span for the state being left (zero-length stays are
    // elided: several commands in one cycle can bounce the state).
    if (now > trace_state_entered_) {
      tracer_->complete(tracing::Category::kPower, tracing::kTrackPower,
                        trace_state_name(state_),
                        to_cpu(trace_state_entered_),
                        to_cpu(now - trace_state_entered_));
    }
    trace_state_entered_ = now;
  }
  state_ = next;
}

bool Device::can_activate(std::uint32_t bank, MemCycle now) const {
  const std::uint32_t rank = rank_of(bank);
  if (rank_powered_down(rank) || in_self_refresh_ ||
      now < rank_wakeup_ready_[rank]) {
    return false;
  }
  if (!banks_[bank].can_activate(now)) return false;
  if (now < rank_next_act_allowed_[rank]) return false;
  // tFAW: this would be the fifth ACT within the rank's window.
  if (act_count_[rank] < kFawWindow) return true;
  const MemCycle oldest = rank_act_[rank * kFawWindow + act_idx_[rank]];
  return now >= oldest + timing_.tFAW;
}

bool Device::can_activate(std::uint32_t bank, std::uint32_t row,
                          MemCycle now) const {
  if (!can_activate(bank, now)) return false;
  // SARP overlap: the refreshing subarray stays off-limits until the
  // per-bank refresh window closes. (Without SARP block_until already
  // blocks the whole bank, so this check never fires.)
  const Bank& b = banks_[bank];
  return now >= b.ref_until() || subarray_of_row(row) != b.ref_subarray();
}

void Device::activate(std::uint32_t bank, std::uint32_t row, MemCycle now) {
  assert(can_activate(bank, row, now));
  const std::uint32_t rank = rank_of(bank);
  record(CmdType::kActivate, bank, row, now);
  banks_[bank].activate(now, row);
  open_mask_ |= 1u << bank;
  if (tracer_ != nullptr) bank_act_cycle_[bank] = now;
  rank_next_act_allowed_[rank] = now + timing_.tRRD;
  rank_act_[rank * kFawWindow + act_idx_[rank]] = now;
  act_idx_[rank] = (act_idx_[rank] + 1) % kFawWindow;
  ++act_count_[rank];
  ++counters_.activates;
  ++rank_counters_[rank].activates;
  refresh_state(now);
}

bool Device::can_read(std::uint32_t bank, std::uint32_t row,
                      MemCycle now) const {
  const std::uint32_t rank = rank_of(bank);
  if (rank_powered_down(rank) || in_self_refresh_ ||
      now < rank_wakeup_ready_[rank]) {
    return false;
  }
  const Bank& b = banks_[bank];
  if (!b.can_column(now) || b.open_row() != static_cast<std::int64_t>(row)) {
    return false;
  }
  MemCycle bus_ok = bus_ready_;
  if (last_col_was_write_) bus_ok += timing_.tWTR;
  return now >= bus_ok;
}

MemCycle Device::read(std::uint32_t bank, MemCycle now) {
  record(CmdType::kRead, bank, 0, now);
  const MemCycle done = banks_[bank].read(now);
  bus_ready_ = now + timing_.tBURST;
  last_col_was_write_ = false;
  ++counters_.reads;
  ++rank_counters_[rank_of(bank)].reads;
  refresh_state(now);
  return done;
}

bool Device::can_write(std::uint32_t bank, std::uint32_t row,
                       MemCycle now) const {
  const std::uint32_t rank = rank_of(bank);
  if (rank_powered_down(rank) || in_self_refresh_ ||
      now < rank_wakeup_ready_[rank]) {
    return false;
  }
  const Bank& b = banks_[bank];
  if (!b.can_column(now) || b.open_row() != static_cast<std::int64_t>(row)) {
    return false;
  }
  return now >= bus_ready_;
}

MemCycle Device::write(std::uint32_t bank, MemCycle now) {
  record(CmdType::kWrite, bank, 0, now);
  const MemCycle done = banks_[bank].write(now);
  bus_ready_ = now + timing_.tBURST;
  last_col_was_write_ = true;
  ++counters_.writes;
  ++rank_counters_[rank_of(bank)].writes;
  refresh_state(now);
  return done;
}

bool Device::can_precharge(std::uint32_t bank, MemCycle now) const {
  const std::uint32_t rank = rank_of(bank);
  if (rank_powered_down(rank) || in_self_refresh_ ||
      now < rank_wakeup_ready_[rank]) {
    return false;
  }
  return banks_[bank].can_precharge(now);
}

void Device::precharge(std::uint32_t bank, MemCycle now) {
  assert(can_precharge(bank, now));
  record(CmdType::kPrecharge, bank, 0, now);
  if (tracer_ != nullptr && (open_mask_ & (1u << bank)) != 0) {
    const MemCycle opened = bank_act_cycle_[bank];
    tracer_->complete(
        tracing::Category::kBank,
        static_cast<std::uint8_t>(tracing::kTrackBankBase + bank), "row_open",
        to_cpu(opened), to_cpu(now - opened), "row",
        static_cast<std::uint64_t>(banks_[bank].open_row()));
  }
  banks_[bank].precharge(now);
  open_mask_ &= ~(1u << bank);
  ++counters_.precharges;
  ++rank_counters_[rank_of(bank)].precharges;
  refresh_state(now);
}

bool Device::can_refresh(MemCycle now, std::uint32_t rank) const {
  if (rank_powered_down(rank) || in_self_refresh_ ||
      now < rank_wakeup_ready_[rank]) {
    return false;
  }
  if (rank_open_mask(rank) != 0) return false;
  const std::uint32_t base = rank * geo_.banks;
  for (std::uint32_t i = 0; i < geo_.banks; ++i) {
    const Bank& b = banks_[base + i];
    if (now < b.ready_act()) return false;
    if (now < b.ref_until()) return false;  // REFpb window (SARP) open
  }
  return true;
}

void Device::refresh(MemCycle now, std::uint32_t rank) {
  assert(can_refresh(now, rank));
  record(CmdType::kRefresh, rank * geo_.banks, 0, now);
  const std::uint32_t base = rank * geo_.banks;
  for (std::uint32_t i = 0; i < geo_.banks; ++i) {
    banks_[base + i].block_until(now + timing_.tRFC);
  }
  ++counters_.refreshes;
  ++rank_counters_[rank].refreshes;
  refresh_state(now);
}

bool Device::can_refresh_bank(std::uint32_t bank, MemCycle now) const {
  const std::uint32_t rank = rank_of(bank);
  if (rank_powered_down(rank) || in_self_refresh_ ||
      now < rank_wakeup_ready_[rank]) {
    return false;
  }
  const Bank& b = banks_[bank];
  if (now < b.ref_until()) return false;  // previous REFpb still running
  if (!b.row_open()) return now >= b.ready_act();  // precharged, past tRP
  // Row open: legal only under SARP, into a different subarray than the
  // one the open row occupies.
  if (!sarp_overlap_) return false;
  return refresh_subarray(bank) !=
         subarray_of_row(static_cast<std::uint32_t>(b.open_row()));
}

void Device::refresh_bank(std::uint32_t bank, MemCycle now) {
  assert(can_refresh_bank(bank, now));
  record(CmdType::kRefreshBank, bank, ref_row_[bank], now);
  Bank& b = banks_[bank];
  const MemCycle until = now + timing_.tRFCpb;
  b.set_refresh_window(until, refresh_subarray(bank));
  // SARP keeps the rest of the bank usable (the window above holds off
  // activates into the refreshing subarray); otherwise the whole bank is
  // busy for tRFCpb, exactly like the all-bank REF.
  if (!sarp_overlap_) b.block_until(until);
  ref_row_[bank] = (ref_row_[bank] + kRowsPerRefreshCommand) %
                   geo_.rows_per_bank;
  ++counters_.refreshes_pb;
  ++rank_counters_[rank_of(bank)].refreshes_pb;
  refresh_state(now);
}

void Device::enter_power_down(MemCycle now, std::uint32_t rank) {
  assert(!rank_powered_down(rank) && !in_self_refresh_);
  record(CmdType::kPowerDownEnter, rank * geo_.banks, 0, now);
  pd_mask_ |= 1u << rank;
  refresh_state(now);
}

void Device::exit_power_down(MemCycle now, std::uint32_t rank) {
  assert(rank_powered_down(rank));
  record(CmdType::kPowerDownExit, rank * geo_.banks, 0, now);
  pd_mask_ &= ~(1u << rank);
  rank_wakeup_ready_[rank] = now + timing_.tXP;
  refresh_state(now);
}

void Device::enter_self_refresh(MemCycle now, std::uint32_t refresh_divider) {
  assert(pd_mask_ == 0 && !in_self_refresh_);
  assert(all_banks_precharged());
  assert(refresh_divider >= 1);
  record(CmdType::kSelfRefreshEnter, 0, 0, now);
  in_self_refresh_ = true;
  sr_divider_ = refresh_divider;
  sr_entry_time_ = now;
  refresh_state(now);
}

void Device::exit_self_refresh(MemCycle now) {
  assert(in_self_refresh_);
  // Credit the internal refresh pulses performed while asleep: one pulse
  // per (tREFI * divider), in every rank (each refreshes itself).
  const MemCycle stay = now - sr_entry_time_;
  const std::uint64_t pulses =
      stay / (static_cast<MemCycle>(timing_.tREFI) * sr_divider_);
  counters_.self_refresh_pulses += pulses * geo_.ranks;
  for (std::uint32_t r = 0; r < geo_.ranks; ++r) {
    rank_counters_[r].self_refresh_pulses += pulses;
  }
  record(CmdType::kSelfRefreshExit, 0, 0, now);
  in_self_refresh_ = false;
  for (std::uint32_t r = 0; r < geo_.ranks; ++r) {
    rank_wakeup_ready_[r] = now + timing_.tXSR;
  }
  refresh_state(now);
}

MemCycle Device::next_event(MemCycle now) const {
  // Min over every per-bank ready time that is still in the future, plus
  // the per-rank wake-up bounds. A lower bound only: whether anything
  // actually happens then depends on what the controller has queued.
  MemCycle e = static_cast<MemCycle>(-1);
  auto consider = [&](MemCycle t) {
    if (t > now && t < e) e = t;
  };
  for (const auto& b : banks_) {
    consider(b.ready_act());
    consider(b.ready_col());
    consider(b.ready_pre());
  }
  for (std::uint32_t r = 0; r < geo_.ranks; ++r) {
    consider(rank_wakeup_ready_[r]);
  }
  return e <= now ? now + 1 : e;
}

const ActivityCounters& Device::counters(MemCycle now) {
  account_to(now);
  return counters_;
}

}  // namespace mecc::dram
