#include "memctrl/controller.h"

#include <cassert>
#include <algorithm>
#include <bit>

namespace {
// Ascending-bank-order iteration over the open-row bitmask: same visit
// order as the plain 0..banks loop it replaces, but only open banks.
inline std::uint32_t lowest_bank(std::uint32_t mask) {
  return static_cast<std::uint32_t>(std::countr_zero(mask));
}

inline mecc::Cycle to_cpu(mecc::dram::MemCycle m) {
  return static_cast<mecc::Cycle>(m) * mecc::kCpuCyclesPerMemCycle;
}
}  // namespace

namespace mecc::memctrl {

void Controller::trace_queue_depths(dram::MemCycle now) {
  tracer_->counter(tracing::Category::kQueue, tracing::kTrackQueues,
                   "read_q", to_cpu(now),
                   static_cast<double>(read_q_.size()));
  tracer_->counter(tracing::Category::kQueue, tracing::kTrackQueues,
                   "write_q", to_cpu(now),
                   static_cast<double>(write_q_.size()));
}

void Controller::trace_power_event(const char* name, dram::MemCycle now) {
  tracer_->instant(tracing::Category::kPower, tracing::kTrackPower, name,
                   to_cpu(now));
}

void Controller::trace_divider_change(std::uint32_t from, std::uint32_t to) {
  tracer_->instant(tracing::Category::kRefresh, tracing::kTrackRefresh,
                   "refresh_divider", tracer_->now(), "from", from, "to", to);
  tracer_->counter(tracing::Category::kRefresh, tracing::kTrackRefresh,
                   "divider", tracer_->now(), static_cast<double>(to));
}

Controller::Controller(dram::Device& device, const ControllerConfig& config)
    : device_(device), config_(config),
      map_(device.geometry(), config.interleave) {
  // DARP/SARP are per-bank refinements; they mean nothing under the
  // rank-wide REF command.
  if (config_.refresh_granularity == RefreshGranularity::kAllBank) {
    config_.darp = false;
    config_.sarp = false;
  }
  device_.set_sarp_overlap(config_.sarp);
  const std::uint32_t banks = device_.total_banks();  // global banks
  const std::uint32_t ranks = device_.geometry().ranks;
  const dram::MemCycle trefi = device_.timing().tREFI;
  // All-bank: one REF schedule per rank, staggered by tREFI/ranks so
  // the command bus sees an even cadence (rank 0 keeps the historical
  // first due time of exactly tREFI; the divider applies from the first
  // accrual on).
  rank_next_refresh_.resize(ranks);
  rank_refresh_debt_.assign(ranks, 0);
  for (std::uint32_t r = 0; r < ranks; ++r) {
    rank_next_refresh_[r] =
        trefi * static_cast<dram::MemCycle>(ranks + r) / ranks;
  }
  next_refresh_ = rank_next_refresh_[0];
  if (config_.refresh_granularity == RefreshGranularity::kPerBank) {
    // Stagger the first due times across the first tREFI so the channel
    // sees an even REFpb cadence from the start (same convention as the
    // all-bank schedule above).
    bank_next_refresh_.resize(banks);
    bank_refresh_debt_.assign(banks, 0);
    for (std::uint32_t b = 0; b < banks; ++b) {
      bank_next_refresh_[b] =
          static_cast<dram::MemCycle>(b + 1) * trefi / banks;
    }
    next_refresh_ = bank_next_refresh_[0];
  }
  // Bounded queues: reserve once so the hot path never reallocates.
  read_q_.reserve(config_.read_queue_size);
  write_q_.reserve(config_.write_queue_size);
  bank_queued_.assign(banks, 0);
  rank_queued_.assign(ranks, 0);
  open_row_demand_.assign(banks, 0);
  open_row_demand_reads_.assign(banks, 0);
  last_rank_activity_.assign(ranks, 0);
}

void Controller::resync_refresh(dram::MemCycle now) {
  refresh_urgent_mask_ = 0;
  const dram::MemCycle interval = refresh_interval();
  const std::uint32_t ranks = device_.geometry().ranks;
  for (std::uint32_t r = 0; r < ranks; ++r) {
    rank_refresh_debt_[r] = 0;
    rank_next_refresh_[r] =
        now + interval * static_cast<dram::MemCycle>(ranks + r) / ranks;
  }
  total_ab_debt_ = 0;
  if (config_.refresh_granularity == RefreshGranularity::kPerBank) {
    // The device refreshed itself during the self-refresh stay: clear
    // every bank's debt and restart the stagger from `now` (leaving the
    // old due times in place replayed the whole pre-SR schedule as an
    // immediate REFpb burst on exit).
    const std::uint32_t banks = device_.total_banks();
    for (std::uint32_t b = 0; b < banks; ++b) {
      bank_refresh_debt_[b] = 0;
      bank_next_refresh_[b] =
          now + static_cast<dram::MemCycle>(b + 1) * interval / banks;
    }
    total_refresh_debt_ = 0;
    refresh_rr_ = 0;
    refresh_block_mask_ = 0;
    next_refresh_ = bank_next_refresh_[0];
    return;
  }
  next_refresh_ = rank_next_refresh_[0];
}

void Controller::recount_open_row_demand(std::uint32_t bank,
                                         std::uint32_t row) {
  std::uint32_t reads = 0;
  std::uint32_t writes = 0;
  for (const auto& r : read_q_) {
    reads += static_cast<std::uint32_t>(r.bank == bank && r.row == row);
  }
  for (const auto& r : write_q_) {
    writes += static_cast<std::uint32_t>(r.bank == bank && r.row == row);
  }
  matched_total_ += reads + writes - open_row_demand_[bank];
  open_row_demand_[bank] = reads + writes;
  open_row_demand_reads_[bank] = reads;
}

bool Controller::enqueue_read(Address line_addr, std::uint64_t id,
                              dram::MemCycle now) {
  if (read_q_.size() >= config_.read_queue_size) return false;
  // Write-to-read forwarding: a pending write to the same line can serve
  // the read directly from the queue (via the write-line index).
  if (write_line_pending(line_addr)) {
    in_flight_.push_back({ReadCompletion{
        .id = id, .line_addr = line_addr, .done = now + 1,
        .forwarded = true}});
    ++reads_forwarded_;
    return true;
  }
  MemRequest r;
  r.type = ReqType::kRead;
  r.line_addr = line_addr;
  r.id = id;
  r.arrive = now;
  const DramCoord c = map_.decode(line_addr);
  r.bank = c.rank * device_.geometry().banks + c.bank;  // global bank
  r.row = c.row;
  r.col = c.col;
  read_q_.push_back(r);
  index_insert(r);
  ++reads_enqueued_;
  if (tracer_ != nullptr) trace_queue_depths(now);
  return true;
}

bool Controller::enqueue_write(Address line_addr, dram::MemCycle now) {
  if (write_q_.size() >= config_.write_queue_size) return false;
  // Coalesce with an existing pending write to the same line.
  if (write_line_pending(line_addr)) {
    ++writes_coalesced_;
    return true;
  }
  MemRequest r;
  r.type = ReqType::kWrite;
  r.line_addr = line_addr;
  r.arrive = now;
  const DramCoord c = map_.decode(line_addr);
  r.bank = c.rank * device_.geometry().banks + c.bank;  // global bank
  r.row = c.row;
  r.col = c.col;
  write_q_.push_back(r);
  index_insert(r);
  ++writes_enqueued_;
  if (tracer_ != nullptr) trace_queue_depths(now);
  return true;
}

void Controller::manage_refresh(dram::MemCycle now) {
  if (!config_.refresh_enabled) return;
  if (config_.refresh_granularity == RefreshGranularity::kPerBank) {
    manage_refresh_per_bank(now);
    return;
  }
  if (now < next_refresh_ && total_ab_debt_ == 0) {
    // Common case (no boundary crossed, no debt): skip the interval
    // arithmetic entirely — this runs on every memory tick.
    refresh_urgent_mask_ = 0;
    return;
  }
  const dram::MemCycle interval = refresh_interval();
  const std::uint32_t ranks = device_.geometry().ranks;
  // Accrue each rank's refresh debt for every interval boundary passed,
  // and refresh the cached minimum due time.
  if (now >= next_refresh_) {
    dram::MemCycle min_due = kNoMemEvent;
    for (std::uint32_t r = 0; r < ranks; ++r) {
      while (now >= rank_next_refresh_[r]) {
        ++rank_refresh_debt_[r];
        ++total_ab_debt_;
        rank_next_refresh_[r] += interval;
      }
      min_due = std::min(min_due, rank_next_refresh_[r]);
    }
    next_refresh_ = min_due;
  }
  if (total_ab_debt_ == 0) {
    refresh_urgent_mask_ = 0;
    return;
  }

  // Elastic refresh: while demand traffic is pending and a rank's
  // postpone budget isn't exhausted, let reads/writes go first. Ranks
  // with an unpostponed REF due outrank demand: the scheduler must stop
  // opening new rows there so the banks drain to all-precharged. One
  // refresh action (PD exit / REF / drain precharge) per tick, lowest
  // owing rank first — the command bus carries one command per cycle.
  const bool demand_pending = !read_q_.empty() || !write_q_.empty();
  refresh_urgent_mask_ = 0;
  int act_rank = -1;
  for (std::uint32_t r = 0; r < ranks; ++r) {
    if (rank_refresh_debt_[r] == 0) continue;
    if (config_.elastic_refresh &&
        rank_refresh_debt_[r] < config_.max_postponed_refreshes &&
        demand_pending) {
      continue;  // postponed
    }
    refresh_urgent_mask_ |= 1u << r;
    if (act_rank < 0) act_rank = static_cast<int>(r);
  }
  if (act_rank < 0) return;
  const std::uint32_t r = static_cast<std::uint32_t>(act_rank);

  // Refresh is due: get the rank out of power-down, close its open rows
  // and issue the REF command with priority over regular traffic.
  if (device_.rank_powered_down(r)) {
    device_.exit_power_down(now, r);
    ++pd_exits_for_refresh_;
    if (tracer_ != nullptr) trace_power_event("pd_exit_refresh", now);
    return;
  }
  if (device_.can_refresh(now, r)) {
    device_.refresh(now, r);
    ++refreshes_;
    --rank_refresh_debt_[r];
    --total_ab_debt_;
    if (rank_refresh_debt_[r] == 0) refresh_urgent_mask_ &= ~(1u << r);
    return;
  }
  const std::uint32_t rank_open =
      device_.open_banks() & device_.rank_bank_mask(r);
  for (std::uint32_t m = rank_open; m != 0; m &= m - 1) {
    const std::uint32_t b = lowest_bank(m);
    if (device_.can_precharge(b, now)) {
      device_.precharge(b, now);
      clear_open_row_demand(b);
      ++precharges_for_refresh_;
      return;
    }
  }
}

int Controller::pull_in_candidate(dram::MemCycle now) const {
  // A pull-in spends future budget, so it is only legal with zero debt
  // outstanding anywhere (otherwise it would reorder past due work).
  if (!config_.darp || total_refresh_debt_ != 0) return -1;
  if (device_.in_self_refresh()) return -1;
  const dram::MemCycle horizon =
      now + static_cast<dram::MemCycle>(config_.max_postponed_refreshes) *
                refresh_interval();
  // Banks with no queued demand, minus those of powered-down ranks,
  // walked in round-robin order from refresh_rr_: the bits at or above
  // the cursor first, then the ones below it — the same first match as
  // a modular scan (refresh_rr_ + i) % banks.
  std::uint32_t idle = static_cast<std::uint32_t>(
                           (std::uint64_t{1} << device_.total_banks()) - 1u) &
                       ~queued_mask_;
  for (std::uint32_t pd = device_.power_down_mask(); pd != 0; pd &= pd - 1) {
    idle &= ~device_.rank_bank_mask(
        static_cast<std::uint32_t>(std::countr_zero(pd)));
  }
  const std::uint32_t from_rr = idle & (~0u << refresh_rr_);
  for (const std::uint32_t part : {from_rr, idle & ~from_rr}) {
    for (std::uint32_t m = part; m != 0; m &= m - 1) {
      const std::uint32_t b = lowest_bank(m);
      if (bank_next_refresh_[b] > horizon) continue;  // budget exhausted
      if (!device_.can_refresh_bank(b, now)) continue;
      return static_cast<int>(b);
    }
  }
  return -1;
}

int Controller::pull_in_candidate_rank(std::uint32_t rank,
                                       dram::MemCycle now) const {
  if (!config_.darp || total_refresh_debt_ != 0) return -1;
  if (device_.in_self_refresh() || device_.rank_powered_down(rank)) return -1;
  const dram::MemCycle horizon =
      now + static_cast<dram::MemCycle>(config_.max_postponed_refreshes) *
                refresh_interval();
  for (std::uint32_t m = device_.rank_bank_mask(rank) & ~queued_mask_; m != 0;
       m &= m - 1) {
    const std::uint32_t b = lowest_bank(m);
    if (bank_next_refresh_[b] > horizon) continue;
    if (!device_.can_refresh_bank(b, now)) continue;
    return static_cast<int>(b);
  }
  return -1;
}

std::uint32_t Controller::rank_pb_debt(std::uint32_t rank) const {
  const std::uint32_t banks = device_.geometry().banks;
  std::uint32_t d = 0;
  for (std::uint32_t i = 0; i < banks; ++i) {
    d += bank_refresh_debt_[rank * banks + i];
  }
  return d;
}

dram::MemCycle Controller::rank_pb_next_refresh(std::uint32_t rank) const {
  const std::uint32_t banks = device_.geometry().banks;
  dram::MemCycle m = kNoMemEvent;
  for (std::uint32_t i = 0; i < banks; ++i) {
    m = std::min(m, bank_next_refresh_[rank * banks + i]);
  }
  return m;
}

void Controller::issue_bank_refresh(std::uint32_t bank, dram::MemCycle now,
                                    bool pull_in) {
  const bool row_was_open = device_.bank(bank).row_open();
  device_.refresh_bank(bank, now);
  ++refreshes_pb_;
  if (row_was_open) ++sarp_overlap_refreshes_;
  if (pull_in) {
    // Ahead-of-schedule refresh: no debt to settle; the bank's next due
    // time simply moves out one period.
    ++refresh_pull_ins_;
    bank_next_refresh_[bank] += refresh_interval();
    recompute_next_refresh();
    if (tracer_ != nullptr) {
      tracer_->instant(tracing::Category::kRefresh, tracing::kTrackRefresh,
                       "refresh_pull_in", to_cpu(now), "bank", bank);
    }
    return;
  }
  --bank_refresh_debt_[bank];
  --total_refresh_debt_;
  refresh_rr_ = (bank + 1) % device_.total_banks();
}

void Controller::manage_refresh_per_bank(dram::MemCycle now) {
  refresh_block_mask_ = 0;
  if (now < next_refresh_ && total_refresh_debt_ == 0) {
    // Nothing due. DARP may still pull a refresh into an idle bank of
    // an awake rank ahead of schedule (one per cycle), banking budget
    // for later.
    if (config_.darp && !device_.in_self_refresh()) {
      const int b = pull_in_candidate(now);
      if (b >= 0) {
        issue_bank_refresh(static_cast<std::uint32_t>(b), now,
                           /*pull_in=*/true);
      }
    }
    return;
  }

  // Accrue per-bank debt for every per-bank period boundary passed. A
  // boundary crossed while the bank still owes a refresh is a postpone
  // (DARP and elastic deliberately let these happen, bounded below).
  const std::uint32_t banks = device_.total_banks();
  const dram::MemCycle interval = refresh_interval();
  if (now >= next_refresh_) {
    for (std::uint32_t b = 0; b < banks; ++b) {
      while (now >= bank_next_refresh_[b]) {
        if (bank_refresh_debt_[b] > 0) ++refresh_postpones_;
        ++bank_refresh_debt_[b];
        ++total_refresh_debt_;
        bank_next_refresh_[b] += interval;
      }
    }
    recompute_next_refresh();
  }

  // Pick the target bank under the configured policy.
  const bool demand_pending = !read_q_.empty() || !write_q_.empty();
  int target = -1;
  if (config_.darp) {
    // DARP: a bank at the postpone cap must refresh first (its budget
    // is gone); otherwise refresh out of round-robin order into a bank
    // demand is not waiting on.
    for (std::uint32_t i = 0; i < banks && target < 0; ++i) {
      const std::uint32_t b = (refresh_rr_ + i) % banks;
      if (bank_refresh_debt_[b] >= config_.max_postponed_refreshes) {
        target = static_cast<int>(b);
      }
    }
    for (std::uint32_t i = 0; i < banks && target < 0; ++i) {
      const std::uint32_t b = (refresh_rr_ + i) % banks;
      if (bank_refresh_debt_[b] > 0 && bank_queued_[b] == 0) {
        target = static_cast<int>(b);
      }
    }
  } else if (config_.elastic_refresh && demand_pending) {
    // Elastic x per-bank: postpone everything while demand is pending,
    // unless some bank has exhausted its postpone budget.
    for (std::uint32_t i = 0; i < banks && target < 0; ++i) {
      const std::uint32_t b = (refresh_rr_ + i) % banks;
      if (bank_refresh_debt_[b] >= config_.max_postponed_refreshes) {
        target = static_cast<int>(b);
      }
    }
  } else {
    // Strict: oldest-due bank in round-robin order.
    for (std::uint32_t i = 0; i < banks && target < 0; ++i) {
      const std::uint32_t b = (refresh_rr_ + i) % banks;
      if (bank_refresh_debt_[b] > 0) target = static_cast<int>(b);
    }
  }
  if (target < 0) return;  // every debt is postponable right now
  const std::uint32_t b = static_cast<std::uint32_t>(target);

  // The target's REFpb outranks demand to that bank (only): hold off
  // new ACTs into it, wake its rank, drain its row, issue.
  refresh_block_mask_ = 1u << b;
  const std::uint32_t target_rank = device_.rank_of(b);
  if (device_.rank_powered_down(target_rank)) {
    device_.exit_power_down(now, target_rank);
    ++pd_exits_for_refresh_;
    if (tracer_ != nullptr) trace_power_event("pd_exit_refresh", now);
    return;
  }
  if (device_.can_refresh_bank(b, now)) {
    issue_bank_refresh(b, now, /*pull_in=*/false);
    refresh_block_mask_ = 0;
    return;
  }
  const dram::Bank& bank = device_.bank(b);
  if (bank.row_open() && now >= bank.ref_until() &&
      device_.can_precharge(b, now)) {
    device_.precharge(b, now);
    clear_open_row_demand(b);
    ++precharges_for_refresh_;
  }
}

bool Controller::row_still_needed(std::uint32_t bank, std::int64_t row) const {
  if (row < 0) return false;
  // Callers only ever ask about the bank's currently open row, which is
  // exactly what open_row_demand_ tracks.
  assert(row == device_.bank(bank).open_row());
  return open_row_demand_[bank] != 0;
}

bool Controller::try_issue_column(std::vector<MemRequest>& q,
                                  dram::MemCycle now) {
  // FR-FCFS stage 1: oldest request whose row is open and can issue now.
  for (auto it = q.begin(); it != q.end(); ++it) {
    if (it->type == ReqType::kRead) {
      if (device_.can_read(it->bank, it->row, now)) {
        const dram::MemCycle done = device_.read(it->bank, now);
        in_flight_.push_back({ReadCompletion{
            .id = it->id, .line_addr = it->line_addr, .done = done,
            .forwarded = false}});
        ++row_hits_;
        read_latency_mem_cycles_ += done - it->arrive;
        work_rank_ = static_cast<int>(device_.rank_of(it->bank));
        index_erase(*it);
        q.erase(it);
        if (tracer_ != nullptr) trace_queue_depths(now);
        return true;
      }
    } else {
      if (device_.can_write(it->bank, it->row, now)) {
        device_.write(it->bank, now);
        ++row_hits_;
        work_rank_ = static_cast<int>(device_.rank_of(it->bank));
        index_erase(*it);
        q.erase(it);
        if (tracer_ != nullptr) trace_queue_depths(now);
        return true;
      }
    }
  }
  return false;
}

bool Controller::try_prepare_row(std::vector<MemRequest>& q,
                                 dram::MemCycle now) {
  // FR-FCFS stage 2: for the oldest request whose row is not open,
  // precharge a conflicting row or activate the needed one.
  for (auto& r : q) {
    const dram::Bank& bank = device_.bank(r.bank);
    if (bank.row_open() &&
        bank.open_row() != static_cast<std::int64_t>(r.row)) {
      // Oldest-first: close the conflicting row unless an *older* request
      // (already scanned without issuing) still wants it, in which case
      // stage 1 will reach it once the bank timing allows.
      if (!row_still_needed(r.bank, bank.open_row()) &&
          device_.can_precharge(r.bank, now)) {
        device_.precharge(r.bank, now);
        clear_open_row_demand(r.bank);
        ++row_conflicts_;
        work_rank_ = static_cast<int>(device_.rank_of(r.bank));
        return true;
      }
      continue;  // bank busy or row still wanted; look at other requests
    }
    if (!bank.row_open() &&
        (refresh_urgent_mask_ & (1u << device_.rank_of(r.bank))) == 0 &&
        (refresh_block_mask_ & (1u << r.bank)) == 0 &&
        device_.can_activate(r.bank, r.row, now)) {
      device_.activate(r.bank, r.row, now);
      recount_open_row_demand(r.bank, r.row);
      ++row_misses_;
      work_rank_ = static_cast<int>(device_.rank_of(r.bank));
      return true;
    }
  }
  return false;
}

void Controller::manage_power_down(dram::MemCycle now, bool did_work) {
  // Per rank: a rank is busy when it issued this tick's command or has
  // demand queued; busy ranks stay awake (activity stamp refreshed),
  // idle ranks walk the entry ladder independently — other ranks'
  // traffic no longer keeps an idle rank out of power-down.
  const std::uint32_t ranks = device_.geometry().ranks;
  const bool per_bank =
      config_.refresh_granularity == RefreshGranularity::kPerBank;
  for (std::uint32_t r = 0; r < ranks; ++r) {
    const bool busy =
        (did_work && work_rank_ == static_cast<int>(r)) ||
        rank_queued_[r] != 0;
    if (busy) {
      last_rank_activity_[r] = now;
      if (device_.rank_powered_down(r)) {
        device_.exit_power_down(now, r);
        ++pd_exits_;
        if (tracer_ != nullptr) trace_power_event("pd_exit", now);
      }
      continue;
    }
    if (device_.rank_powered_down(r) || device_.in_self_refresh()) continue;
    if (now - last_rank_activity_[r] < config_.power_down_idle_threshold) {
      continue;
    }
    // Aggressive power-down: close the rank's open rows first so it
    // lands in the deeper precharge power-down state.
    const std::uint32_t open = device_.open_banks() & device_.rank_bank_mask(r);
    if (open != 0) {
      const std::uint32_t b = lowest_bank(open);
      if (device_.can_precharge(b, now)) {
        device_.precharge(b, now);
        clear_open_row_demand(b);
      }
      continue;  // try again next cycle
    }
    // Leave headroom for the rank's pending or imminent refresh so we
    // don't thrash.
    if (config_.refresh_enabled) {
      const std::uint32_t debt =
          per_bank ? rank_pb_debt(r) : rank_refresh_debt_[r];
      const dram::MemCycle due =
          per_bank ? rank_pb_next_refresh(r) : rank_next_refresh_[r];
      if (debt > 0 || due <= now + device_.timing().tXP) continue;
    }
    // DARP banks refresh budget while idle: stay awake while a pull-in
    // into this rank is still possible, then power down for the periods
    // just covered.
    if (config_.darp && pull_in_candidate_rank(r, now) >= 0) continue;
    device_.enter_power_down(now, r);
    ++pd_entries_;
    if (tracer_ != nullptr) trace_power_event("pd_enter", now);
  }
}

void Controller::schedule(dram::MemCycle now) {
  // Write drain hysteresis.
  if (write_q_.size() >= config_.write_drain_high) draining_writes_ = true;
  if (write_q_.size() <= config_.write_drain_low) draining_writes_ = false;

  // No queued request targets any open row: stage 1 cannot issue a
  // column, so skip its queue scans outright (common while rows are
  // closed after power-down or a conflict chain).
  const bool col_possible = matched_total_ != 0;
  const bool prefer_writes = draining_writes_ || read_q_.empty();
  bool did_work = false;
  if (prefer_writes) {
    did_work = (col_possible && (try_issue_column(write_q_, now) ||
                                 try_issue_column(read_q_, now))) ||
               try_prepare_row(write_q_, now) ||
               try_prepare_row(read_q_, now);
  } else {
    did_work = (col_possible && try_issue_column(read_q_, now)) ||
               try_prepare_row(read_q_, now) ||
               (col_possible && try_issue_column(write_q_, now));
  }
  if (!did_work) did_work = try_close_unneeded_row(now);
  manage_power_down(now, did_work);
}

bool Controller::try_close_unneeded_row(dram::MemCycle now) {
  // Closed-page: proactively close rows nobody queued for, so the next
  // miss to the bank skips the conflict precharge. Banks of powered-down
  // ranks keep no rows open, and can_precharge rejects them anyway.
  if (config_.page_policy != PagePolicy::kClosed) return false;
  if (device_.in_self_refresh()) return false;
  for (std::uint32_t m = device_.open_banks(); m != 0; m &= m - 1) {
    const std::uint32_t b = lowest_bank(m);
    if (device_.rank_powered_down(device_.rank_of(b))) continue;
    const dram::Bank& bank = device_.bank(b);
    if (!row_still_needed(b, bank.open_row()) &&
        device_.can_precharge(b, now)) {
      device_.precharge(b, now);
      clear_open_row_demand(b);
      ++closed_page_precharges_;
      work_rank_ = static_cast<int>(device_.rank_of(b));
      return true;
    }
  }
  return false;
}

void Controller::tick(dram::MemCycle now) {
  // Per-cycle queue-occupancy integral (members, not StatSet lookups:
  // this runs every memory cycle).
  read_q_depth_.record(static_cast<double>(read_q_.size()));
  write_q_depth_.record(static_cast<double>(write_q_.size()));
  work_rank_ = -1;
  manage_refresh(now);
  if ((read_q_.empty() && write_q_.empty())) {
    const bool closed = try_close_unneeded_row(now);
    manage_power_down(now, closed);
    return;
  }
  // Wake one powered-down rank with queued demand per tick (lowest
  // first); scheduling resumes once every demanded rank is awake.
  for (std::uint32_t r = 0; r < device_.geometry().ranks; ++r) {
    if (rank_queued_[r] != 0 && device_.rank_powered_down(r)) {
      device_.exit_power_down(now, r);
      ++pd_exits_;
      if (tracer_ != nullptr) trace_power_event("pd_exit", now);
      return;
    }
  }
  schedule(now);
}

dram::MemCycle Controller::earliest_issue_bound() const {
  // For every queued request, the earliest cycle its next-step command
  // (column, conflict precharge, or activate) could clear the DRAM
  // timing constraints. Scheduling order, refresh urgency, and
  // row_still_needed holds can only push the real issue *later*, so the
  // minimum over requests is a valid lower bound.
  //
  // A request's bound depends only on its bank's state, whether its row
  // matches that bank's open row, and read-vs-write (tWTR) — all of
  // which the per-bank demand counters track — so the minimum is taken
  // bankwise in O(banks) instead of rescanning both queues. This runs
  // on nearly every fast-forward attempt (docs/PERFORMANCE.md).
  dram::MemCycle e = kNoMemEvent;
  const dram::Timing& t = device_.timing();
  const dram::MemCycle bus = device_.bus_ready();
  const dram::MemCycle read_bus =
      device_.last_col_was_write() ? bus + t.tWTR : bus;
  const std::uint32_t total = device_.total_banks();
  for (std::uint32_t b = 0; b < total; ++b) {
    if (bank_queued_[b] == 0) continue;
    const std::uint32_t rank = device_.rank_of(b);
    const dram::Bank& bank = device_.bank(b);
    dram::MemCycle c;
    if (bank.row_open()) {
      const std::uint32_t matched = open_row_demand_[b];
      const std::uint32_t matched_reads = open_row_demand_reads_[b];
      c = kNoMemEvent;
      if (matched_reads != 0) {
        c = std::max(bank.ready_col(), read_bus);
      }
      if (matched != matched_reads) {  // matched writes
        c = std::min(c, std::max(bank.ready_col(), bus));
      }
      if (matched != bank_queued_[b]) {  // conflicts: precharge next
        c = std::min(c, bank.ready_pre());
      }
    } else {
      c = std::max(bank.ready_act(),
                   std::max(device_.next_act_allowed(rank),
                            device_.act_faw_bound(rank)));
    }
    c = std::max(c, device_.wakeup_ready(rank));
    if (c < e) e = c;
  }
  if (config_.page_policy == PagePolicy::kClosed) {
    // Closed-page also proactively precharges rows nobody queued for.
    for (std::uint32_t m = device_.open_banks(); m != 0; m &= m - 1) {
      const std::uint32_t b = lowest_bank(m);
      const dram::Bank& bank = device_.bank(b);
      e = std::min(e, std::max(bank.ready_pre(),
                               device_.wakeup_ready(device_.rank_of(b))));
    }
  }
  return e;
}

dram::MemCycle Controller::next_event(dram::MemCycle now) const {
  dram::MemCycle e = kNoMemEvent;
  const bool queues_empty = read_q_.empty() && write_q_.empty();
  if (config_.refresh_enabled &&
      config_.refresh_granularity == RefreshGranularity::kPerBank) {
    const std::uint32_t total = device_.total_banks();
    if (total_refresh_debt_ > 0) {
      // Actionable iff manage_refresh_per_bank would pick a target (the
      // conditions below are exactly its selection criteria); then it
      // drives work tick by tick until the debt postpones or clears.
      bool actionable;
      if (config_.darp) {
        actionable = false;
        for (std::uint32_t b = 0; b < total && !actionable; ++b) {
          actionable = bank_refresh_debt_[b] > 0 &&
                       (bank_queued_[b] == 0 ||
                        bank_refresh_debt_[b] >=
                            config_.max_postponed_refreshes);
        }
      } else if (config_.elastic_refresh && !queues_empty) {
        actionable = false;
        for (std::uint32_t b = 0; b < total && !actionable; ++b) {
          actionable =
              bank_refresh_debt_[b] >= config_.max_postponed_refreshes;
        }
      } else {
        actionable = true;
      }
      if (actionable) return now + 1;
    }
    e = std::min(e, next_refresh_);  // earliest per-bank accrual boundary
    if (config_.darp && total_refresh_debt_ == 0 &&
        !device_.in_self_refresh()) {
      // Pull-in eligibility: idle bank b becomes a candidate once it is
      // inside the pull-in horizon (due_b - cap*interval) *and*
      // Device::can_refresh_bank can hold for it, i.e. past tRP
      // (ready_act), past a running REFpb (ref_until) and past its
      // rank's wake-up (tXP). A bank whose open row blocks REFpb (any
      // open row without SARP, one in the refreshing subarray with it)
      // is left out: the PRE that unblocks it is an event of its own,
      // after which the bound is recomputed. Banks of powered-down ranks
      // are skipped by the pull-in pass until demand or debt wakes the
      // rank, both of which are bounded elsewhere.
      const dram::MemCycle span =
          static_cast<dram::MemCycle>(config_.max_postponed_refreshes) *
          refresh_interval();
      for (std::uint32_t r = 0; r < device_.geometry().ranks; ++r) {
        if (device_.rank_powered_down(r)) continue;
        const dram::MemCycle awake = device_.wakeup_ready(r);
        for (std::uint32_t m = device_.rank_bank_mask(r) & ~queued_mask_;
             m != 0; m &= m - 1) {
          const std::uint32_t b = lowest_bank(m);
          const dram::Bank& bank = device_.bank(b);
          dram::MemCycle ready = std::max(bank.ref_until(), awake);
          if (!bank.row_open()) {
            ready = std::max(ready, bank.ready_act());
          } else if (!device_.sarp_overlap() ||
                     device_.refresh_subarray(b) ==
                         device_.subarray_of_row(
                             static_cast<std::uint32_t>(bank.open_row()))) {
            continue;  // the open row blocks REFpb until a PRE
          }
          const dram::MemCycle due = bank_next_refresh_[b];
          e = std::min(e, std::max(ready, due > span ? due - span : 0));
        }
      }
    }
  } else if (config_.refresh_enabled) {
    for (std::uint32_t r = 0; r < device_.geometry().ranks; ++r) {
      if (rank_refresh_debt_[r] == 0) continue;
      const bool postponed =
          config_.elastic_refresh &&
          rank_refresh_debt_[r] < config_.max_postponed_refreshes &&
          !queues_empty;
      // Unpostponed refresh debt drives work (power-down exits,
      // precharges, the REF itself) tick by tick until it clears.
      if (!postponed) return now + 1;
    }
    e = std::min(e, next_refresh_);  // next debt accrual boundary (any rank)
  }
  const bool per_bank =
      config_.refresh_granularity == RefreshGranularity::kPerBank;
  for (std::uint32_t r = 0; r < device_.geometry().ranks; ++r) {
    if (rank_queued_[r] != 0) {
      if (device_.rank_powered_down(r)) return now + 1;  // tick wakes it
      continue;  // demand: earliest_issue_bound below covers it
    }
    if (device_.rank_powered_down(r) || device_.in_self_refresh()) continue;
    // Idle-rank machinery: close the rank's open rows, then enter
    // power-down (other ranks may be serving demand meanwhile).
    const std::uint32_t open = device_.open_banks() & device_.rank_bank_mask(r);
    const dram::MemCycle awake = device_.wakeup_ready(r);
    if (open != 0 && config_.page_policy == PagePolicy::kClosed) {
      // try_close_unneeded_row may close any of the rank's rows.
      for (std::uint32_t m = open; m != 0; m &= m - 1) {
        const dram::Bank& bank = device_.bank(lowest_bank(m));
        e = std::min(e, std::max(bank.ready_pre(), awake));
      }
    } else if (open != 0) {
      // Open page: only manage_power_down closes an idle rank's rows —
      // the lowest open bank first, once the rank has idled for the
      // power-down threshold.
      const dram::Bank& bank = device_.bank(lowest_bank(open));
      e = std::min(e, std::max({bank.ready_pre(), awake,
                                last_rank_activity_[r] +
                                    config_.power_down_idle_threshold}));
    } else {
      const dram::MemCycle entry =
          std::max(now + 1,
                   last_rank_activity_[r] + config_.power_down_idle_threshold);
      if (!config_.refresh_enabled) {
        e = std::min(e, entry);
      } else if ((per_bank ? rank_pb_debt(r) : rank_refresh_debt_[r]) == 0) {
        // Power-down entry leaves headroom for the rank's imminent
        // refresh: blocked at cycle t when its next due <= t + tXP.
        // With debt outstanding the rank stays awake until it clears,
        // which the refresh/issue bounds above already cover.
        const dram::MemCycle due =
            per_bank ? rank_pb_next_refresh(r) : rank_next_refresh_[r];
        const dram::MemCycle xp = device_.timing().tXP;
        const dram::MemCycle cutoff = due > xp ? due - xp : 0;
        if (entry < cutoff) e = std::min(e, entry);
        // Otherwise entry stays blocked until after the refresh, whose
        // boundary is already in e.
      }
    }
  }
  if (!queues_empty) e = std::min(e, earliest_issue_bound());
  return e == kNoMemEvent ? e : std::max(e, now + 1);
}

const std::vector<ReadCompletion>& Controller::collect_completions(
    dram::MemCycle now) {
  completed_.clear();
  auto it = in_flight_.begin();
  while (it != in_flight_.end()) {
    if (it->completion.done <= now) {
      completed_.push_back(it->completion);
      it = in_flight_.erase(it);
    } else {
      ++it;
    }
  }
  if (completed_.size() > 1) {
    std::sort(completed_.begin(), completed_.end(),
              [](const ReadCompletion& a, const ReadCompletion& b) {
                return a.done < b.done;
              });
  }
  return completed_;
}

void Controller::export_counters(StatSet& out) const {
  // Each key appears only when its event happened at least once — the
  // same presence the old first-increment StatSet insertion produced
  // (every site incremented by a nonzero delta: read_latency_mem_cycles
  // accrues alongside a row_hit with done > arrive).
  const auto put = [&out](const char* name, std::uint64_t v) {
    if (v != 0) out.add(name, v);
  };
  put("reads_enqueued", reads_enqueued_);
  put("reads_forwarded", reads_forwarded_);
  put("writes_enqueued", writes_enqueued_);
  put("writes_coalesced", writes_coalesced_);
  put("row_hits", row_hits_);
  put("row_misses", row_misses_);
  put("row_conflicts", row_conflicts_);
  put("read_latency_mem_cycles", read_latency_mem_cycles_);
  put("refreshes", refreshes_);
  put("refreshes_pb", refreshes_pb_);
  put("refresh_pull_ins", refresh_pull_ins_);
  put("refresh_postpones", refresh_postpones_);
  put("sarp_overlap_refreshes", sarp_overlap_refreshes_);
  put("precharges_for_refresh", precharges_for_refresh_);
  put("closed_page_precharges", closed_page_precharges_);
  put("pd_entries", pd_entries_);
  put("pd_exits", pd_exits_);
  put("pd_exits_for_refresh", pd_exits_for_refresh_);
}

}  // namespace mecc::memctrl
