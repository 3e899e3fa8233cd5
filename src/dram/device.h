// The DRAM device side of one channel: M ranks x B banks behind a
// shared data bus, rank-scoped timing constraints (tRRD, tFAW, CKE),
// refresh, power-mode transitions, and the activity / state-residency
// accounting consumed by the power model.
//
// Banks are flattened to one array of ranks*banks entries; the global
// bank index is rank * banks_per_rank + bank (docs/SCALING.md). At
// ranks=1 every per-rank structure degenerates to the historical
// single-rank device bit for bit.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/stats.h"
#include "common/trace.h"
#include "dram/bank.h"
#include "dram/dram_params.h"
#include "dram/timing_checker.h"

namespace mecc::dram {

/// Power-relevant device states (per Micron TN-46-12 categories).
enum class PowerState : std::uint8_t {
  kPrechargeStandby,    // all banks idle, clock running (IDD2N)
  kActiveStandby,       // some bank open, clock running (IDD3N)
  kPrechargePowerDown,  // CKE low, all banks idle (IDD2P)
  kActivePowerDown,     // CKE low, bank open (IDD3P)
  kSelfRefresh,         // self-refresh mode (IDD8-class)
};
inline constexpr std::size_t kNumPowerStates = 5;

/// Short snake_case name for a power state (stats keys, docs/STATS.md).
[[nodiscard]] const char* power_state_name(PowerState s);

/// Event counters the power model turns into energy. In a multi-rank
/// channel `state_cycles` sums the per-rank residencies (each rank is a
/// physical device drawing its own background current), so background
/// energy stays linear in ranks without the power model knowing the
/// geometry.
struct ActivityCounters {
  std::uint64_t activates = 0;
  std::uint64_t precharges = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t refreshes = 0;           // all-bank auto-refresh commands
  std::uint64_t refreshes_pb = 0;        // per-bank refresh (REFpb) commands
  std::uint64_t self_refresh_pulses = 0; // internal refreshes while in SR
  std::array<std::uint64_t, kNumPowerStates> state_cycles{};  // mem cycles

  /// Counter delta (this - earlier): per-period accounting when one
  /// device lives across several active/idle periods.
  [[nodiscard]] ActivityCounters since(const ActivityCounters& earlier) const {
    ActivityCounters d;
    d.activates = activates - earlier.activates;
    d.precharges = precharges - earlier.precharges;
    d.reads = reads - earlier.reads;
    d.writes = writes - earlier.writes;
    d.refreshes = refreshes - earlier.refreshes;
    d.refreshes_pb = refreshes_pb - earlier.refreshes_pb;
    d.self_refresh_pulses = self_refresh_pulses - earlier.self_refresh_pulses;
    for (std::size_t i = 0; i < kNumPowerStates; ++i) {
      d.state_cycles[i] = state_cycles[i] - earlier.state_cycles[i];
    }
    return d;
  }

  /// Element-wise sum (accumulating per-channel counters system-side).
  void accumulate(const ActivityCounters& o) {
    activates += o.activates;
    precharges += o.precharges;
    reads += o.reads;
    writes += o.writes;
    refreshes += o.refreshes;
    refreshes_pb += o.refreshes_pb;
    self_refresh_pulses += o.self_refresh_pulses;
    for (std::size_t i = 0; i < kNumPowerStates; ++i) {
      state_cycles[i] += o.state_cycles[i];
    }
  }
};

class Device {
 public:
  /// Throws std::invalid_argument unless 1 <= ranks, 1 <= banks and
  /// ranks * banks <= 32: the open-row, power-down and controller bank
  /// masks hold one bit per global bank in a 32-bit word.
  Device(const Geometry& geo, const Timing& timing);

  [[nodiscard]] const Geometry& geometry() const { return geo_; }
  [[nodiscard]] const Timing& timing() const { return timing_; }

  /// Rank that global bank index `bank` belongs to.
  [[nodiscard]] std::uint32_t rank_of(std::uint32_t bank) const {
    return bank / geo_.banks;
  }
  /// Total banks across all ranks (size of the flattened bank array).
  [[nodiscard]] std::uint32_t total_banks() const {
    return geo_.ranks * geo_.banks;
  }

  // ---- command interface (active operation) ----
  // `bank` is always the global index (rank * banks_per_rank + bank).
  [[nodiscard]] bool can_activate(std::uint32_t bank, MemCycle now) const;
  /// Row-aware variant: additionally holds off activates into the
  /// subarray a per-bank refresh currently occupies (SARP overlap mode;
  /// identical to the row-blind check otherwise). The scheduler knows
  /// the target row, so it uses this one.
  [[nodiscard]] bool can_activate(std::uint32_t bank, std::uint32_t row,
                                  MemCycle now) const;
  void activate(std::uint32_t bank, std::uint32_t row, MemCycle now);

  [[nodiscard]] bool can_read(std::uint32_t bank, std::uint32_t row,
                              MemCycle now) const;
  /// Returns the cycle the last data beat is on the bus.
  MemCycle read(std::uint32_t bank, MemCycle now);

  [[nodiscard]] bool can_write(std::uint32_t bank, std::uint32_t row,
                               MemCycle now) const;
  MemCycle write(std::uint32_t bank, MemCycle now);

  [[nodiscard]] bool can_precharge(std::uint32_t bank, MemCycle now) const;
  void precharge(std::uint32_t bank, MemCycle now);

  /// All-bank auto refresh of one rank; requires every bank of the rank
  /// precharged. The rank's banks are blocked for tRFC.
  [[nodiscard]] bool can_refresh(MemCycle now, std::uint32_t rank = 0) const;
  void refresh(MemCycle now, std::uint32_t rank = 0);

  // ---- per-bank refresh (REFpb, docs/SCHEDULING.md) ----
  /// Whether a per-bank refresh can issue to `bank` now. Without the
  /// SARP overlap the bank must be precharged and past its timing
  /// blocks; with it the bank may also have a row open, provided the
  /// open row's subarray differs from the next refresh target.
  [[nodiscard]] bool can_refresh_bank(std::uint32_t bank, MemCycle now) const;
  /// Issues a per-bank refresh: the device-internal per-bank row counter
  /// advances by kRowsPerRefreshCommand and the bank is busy for tRFCpb
  /// (whole bank without SARP; just the refreshing subarray with it).
  void refresh_bank(std::uint32_t bank, MemCycle now);
  /// Enables the SARP-style subarray access/refresh overlap for REFpb.
  void set_sarp_overlap(bool on) { sarp_overlap_ = on; }
  [[nodiscard]] bool sarp_overlap() const { return sarp_overlap_; }
  /// Subarray the *next* REFpb to `bank` will occupy.
  [[nodiscard]] std::uint32_t refresh_subarray(std::uint32_t bank) const {
    return subarray_of_row(ref_row_[bank]);
  }
  [[nodiscard]] std::uint32_t subarray_of_row(std::uint32_t row) const {
    return row / geo_.rows_per_subarray();
  }

  // ---- power modes ----
  /// Precharge/active power-down entry for one rank (its CKE low). No
  /// commands to that rank until exit; other ranks keep operating.
  void enter_power_down(MemCycle now, std::uint32_t rank = 0);
  /// Exit power-down; commands to the rank legal again after tXP.
  void exit_power_down(MemCycle now, std::uint32_t rank = 0);
  /// Whether any rank is powered down (ranks=1: the historical meaning).
  [[nodiscard]] bool in_power_down() const { return pd_mask_ != 0; }
  [[nodiscard]] bool rank_powered_down(std::uint32_t rank) const {
    return (pd_mask_ & (1u << rank)) != 0;
  }
  /// Bit r set iff rank r is powered down.
  [[nodiscard]] std::uint32_t power_down_mask() const { return pd_mask_; }
  /// Bit i set for every global bank i of `rank` (the rank's slice of
  /// open_banks()). Computed in 64 bits: a 32-bank rank fills the word.
  [[nodiscard]] std::uint32_t rank_bank_mask(std::uint32_t rank) const {
    return static_cast<std::uint32_t>(((std::uint64_t{1} << geo_.banks) - 1u)
                                      << (rank * geo_.banks));
  }

  /// Self-refresh entry: whole-channel (every rank together; idle-mode
  /// semantics). All banks must be precharged, no rank powered down.
  /// `refresh_divider` slows the internal refresh rate (the paper's
  /// 4-bit counter: 16 -> 1 s period).
  void enter_self_refresh(MemCycle now, std::uint32_t refresh_divider = 1);
  /// Exit self refresh; commands legal after tXSR. Internal refresh pulses
  /// performed during the stay (per rank) are credited to the counters.
  void exit_self_refresh(MemCycle now);
  [[nodiscard]] bool in_self_refresh() const { return in_self_refresh_; }

  [[nodiscard]] const Bank& bank(std::uint32_t i) const { return banks_[i]; }
  /// Bit i set iff global bank i has an open row. Lets the controller's
  /// bank-scan loops (row close, refresh drain, next_event bounds) visit
  /// only open banks instead of iterating every bank.
  [[nodiscard]] std::uint32_t open_banks() const { return open_mask_; }
  [[nodiscard]] bool all_banks_precharged() const { return open_mask_ == 0; }
  [[nodiscard]] bool rank_banks_precharged(std::uint32_t rank) const {
    return rank_open_mask(rank) == 0;
  }
  /// Power state of one rank (the energy-accounting state).
  [[nodiscard]] PowerState rank_power_state(std::uint32_t rank) const {
    return rank_state_[rank];
  }
  /// Channel-level state (trace spans; ranks=1: the rank's state).
  [[nodiscard]] PowerState power_state() const { return state_; }

  // ---- timing-constraint observers (fast-forward next_event bounds) ----
  // Read-only views of the bus/rank-global constraints, so the memory
  // controller can compute a conservative lower bound on the first cycle
  // any queued command could legally issue (docs/PERFORMANCE.md). None
  // of these have side effects.
  /// Earliest cycle the (channel-wide) data bus accepts another column
  /// command.
  [[nodiscard]] MemCycle bus_ready() const { return bus_ready_; }
  /// Whether the last column command was a write (tWTR applies to reads).
  [[nodiscard]] bool last_col_was_write() const { return last_col_was_write_; }
  /// Earliest cycle tRRD allows another ACT on `rank`.
  [[nodiscard]] MemCycle next_act_allowed(std::uint32_t rank = 0) const {
    return rank_next_act_allowed_[rank];
  }
  /// Earliest cycle tFAW allows another ACT on `rank` (0 until four ACTs
  /// occurred there).
  [[nodiscard]] MemCycle act_faw_bound(std::uint32_t rank = 0) const {
    const RankWindow& w = rank_act_;
    if (act_count_[rank] < kFawWindow) return 0;
    return w[rank * kFawWindow + act_idx_[rank]] + timing_.tFAW;
  }
  /// Earliest cycle any command is legal on `rank` after a power-down /
  /// self-refresh exit (tXP / tXSR).
  [[nodiscard]] MemCycle wakeup_ready(std::uint32_t rank = 0) const {
    return rank_wakeup_ready_[rank];
  }

  /// Fast-forward contract: conservative lower bound, strictly greater
  /// than `now`, on the first cycle any bank-level timing constraint
  /// relevant to a queued command could expire. Pure; the controller
  /// refines it per request with the observers above.
  [[nodiscard]] MemCycle next_event(MemCycle now) const;

  /// Finalizes state-residency accounting up to `now` and returns the
  /// counters. Safe to call repeatedly.
  [[nodiscard]] const ActivityCounters& counters(MemCycle now);

  /// Exports the activity counters into `out` (the System registers
  /// this as the "dram" component of its StatRegistry). Counters are as
  /// of the last counters(now) call — call that first to finalize
  /// state-residency accounting. With ranks>1 additionally emits the
  /// per-rank breakdown under "rK." prefixes.
  void export_stats(StatSet& out) const;

  /// Attaches a command log; every subsequent command is appended (for
  /// the TimingChecker and debugging). Pass nullptr to detach.
  void set_command_log(std::vector<Command>* log) { cmd_log_ = log; }

  /// Attaches the observability tracer (docs/OBSERVABILITY.md): command
  /// instants (dram), power-state residency spans (power), per-bank
  /// row-open spans (bank). Pass nullptr to detach.
  void set_tracer(tracing::Tracer* tracer) { tracer_ = tracer; }

  /// Closes the in-flight power-state and row-open trace spans at `now`
  /// (end of run). No-op without a tracer.
  void flush_trace(MemCycle now);

 private:
  static constexpr std::size_t kFawWindow = 4;
  using RankWindow = std::vector<MemCycle>;  // ranks * kFawWindow ACT times

  void account_to(MemCycle now);
  void refresh_state(MemCycle now);
  [[nodiscard]] PowerState compute_state() const;
  [[nodiscard]] PowerState compute_rank_state(std::uint32_t rank) const;
  [[nodiscard]] std::uint32_t rank_open_mask(std::uint32_t rank) const {
    return open_mask_ & rank_bank_mask(rank);
  }

  Geometry geo_;
  Timing timing_;
  std::vector<Bank> banks_;      // flattened: ranks * banks entries
  std::uint32_t open_mask_ = 0;  // bit per global bank: row open

  MemCycle bus_ready_ = 0;        // next legal column command (data bus)
  bool last_col_was_write_ = false;

  // Per-rank timing/power state (index: rank).
  std::vector<MemCycle> rank_next_act_allowed_;  // tRRD
  RankWindow rank_act_;                          // last four ACTs (tFAW)
  std::vector<std::size_t> act_idx_;
  std::vector<std::uint64_t> act_count_;  // tFAW binds after four ACTs
  std::vector<MemCycle> rank_wakeup_ready_;
  std::uint32_t pd_mask_ = 0;             // bit per rank: powered down

  bool in_self_refresh_ = false;
  std::uint32_t sr_divider_ = 1;
  MemCycle sr_entry_time_ = 0;

  // Per-bank refresh state: next row each bank's REFpb pointer covers
  // (wraps mod rows_per_bank), and whether SARP overlap is in effect.
  std::vector<std::uint32_t> ref_row_;
  bool sarp_overlap_ = false;

  // Energy accounting: per-rank residency states (all brought to `now`
  // together, so one shared since-stamp suffices) summed into the
  // channel counters, plus the per-rank counter breakdown for stats.
  std::vector<PowerState> rank_state_;
  std::vector<ActivityCounters> rank_counters_;
  PowerState state_ = PowerState::kPrechargeStandby;  // trace-span state
  MemCycle state_since_ = 0;
  ActivityCounters counters_;
  std::vector<Command>* cmd_log_ = nullptr;

  tracing::Tracer* tracer_ = nullptr;
  MemCycle trace_state_entered_ = 0;      // start of current power span
  std::vector<MemCycle> bank_act_cycle_;  // row-open span starts

  void record(CmdType type, std::uint32_t bank, std::uint32_t row,
              MemCycle now) {
    if (cmd_log_ != nullptr) {
      cmd_log_->push_back(
          {.type = type, .bank = bank, .row = row, .cycle = now});
    }
    if (tracer_ != nullptr) trace_command(type, bank, row, now);
  }

  void trace_command(CmdType type, std::uint32_t bank, std::uint32_t row,
                     MemCycle now);
};

}  // namespace mecc::dram
