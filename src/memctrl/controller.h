// The memory controller: read/write transaction queues, FR-FCFS command
// scheduling, distributed auto-refresh, write-to-read forwarding, and the
// aggressive power-down policy the paper's baseline uses ("the scheduler
// issues a power-down command whenever it is possible", S IV-A).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/stats.h"
#include "common/trace.h"
#include "dram/device.h"
#include "memctrl/address_map.h"
#include "memctrl/request.h"

namespace mecc::memctrl {

/// "No event pending" sentinel for the fast-forward next_event bounds.
inline constexpr dram::MemCycle kNoMemEvent = static_cast<dram::MemCycle>(-1);

/// Row-buffer management policy.
enum class PagePolicy : std::uint8_t {
  kOpen,    // leave rows open for locality (default; Table II workloads)
  kClosed,  // precharge as soon as no queued request wants the row
};

/// Refresh command granularity (docs/SCHEDULING.md). All-bank is the
/// paper's baseline (one REF blocks the whole rank for tRFC); per-bank
/// issues staggered REFpb commands, one bank at a time, each blocking
/// only that bank for tRFCpb.
enum class RefreshGranularity : std::uint8_t {
  kAllBank,
  kPerBank,
};

struct ControllerConfig {
  PagePolicy page_policy = PagePolicy::kOpen;
  std::size_t read_queue_size = 32;
  std::size_t write_queue_size = 32;
  // Write drain hysteresis: start draining when the write queue reaches
  // the high watermark, stop at the low one.
  std::size_t write_drain_high = 24;
  std::size_t write_drain_low = 8;
  // Enter power-down after this many idle memory cycles (aggressive).
  dram::MemCycle power_down_idle_threshold = 4;
  // Auto-refresh enable and rate divider (1 = 64 ms retention; MECC's SMD
  // mode keeps the divider at 16 even while active).
  bool refresh_enabled = true;
  std::uint32_t refresh_divider = 1;
  // Elastic refresh: postpone due REF commands while demand traffic is
  // pending, up to the JEDEC limit of 8 outstanding, and catch up when
  // the bus quiets down. Off by default (the paper's baseline refreshes
  // strictly on schedule).
  bool elastic_refresh = false;
  std::uint32_t max_postponed_refreshes = 8;
  // Per-bank refresh and its scheduling refinements (docs/SCHEDULING.md).
  // DARP-style dynamic scheduling refreshes banks out of round-robin
  // order into banks with no queued demand, postpones a busy bank's
  // refresh up to max_postponed_refreshes periods, and pulls refreshes
  // in ahead of schedule (same budget) while a bank idles. SARP-style
  // overlap additionally lets demand to the non-refreshing subarrays of
  // a bank proceed during tRFCpb. Both imply per-bank granularity; the
  // constructor drops them when refresh_granularity is all-bank.
  RefreshGranularity refresh_granularity = RefreshGranularity::kAllBank;
  bool darp = false;
  bool sarp = false;
  // Address interleave mode for the controller's internal decode; must
  // match the system-level routing map (docs/SCALING.md).
  Interleave interleave = Interleave::kLine;
};

class Controller {
 public:
  Controller(dram::Device& device, const ControllerConfig& config);

  /// Enqueues a line-granularity read; false when the queue is full.
  [[nodiscard]] bool enqueue_read(Address line_addr, std::uint64_t id,
                                  dram::MemCycle now);
  /// Enqueues a line-granularity write (write-back or ECC re-encode
  /// traffic); false when the queue is full.
  [[nodiscard]] bool enqueue_write(Address line_addr, dram::MemCycle now);

  /// Advances the controller by one memory cycle.
  void tick(dram::MemCycle now);

  // ---- fast-forward (docs/PERFORMANCE.md) ----

  /// Conservative lower bound, strictly greater than `now`, on the first
  /// memory cycle at which tick() could do anything beyond counting its
  /// queue-depth sample (which skip_ticks() also does). kNoMemEvent
  /// when the controller is fully quiescent (empty queues, no refresh).
  /// No side effects; landing on a cycle where nothing issues after all
  /// is harmless — the caller just recomputes the bound.
  [[nodiscard]] dram::MemCycle next_event(dram::MemCycle now) const;

  /// Earliest `done` cycle among in-flight reads (kNoMemEvent if none):
  /// the System must not skip past it, or completions would be collected
  /// — and their ECC decode timed — later than in the per-cycle loop.
  /// Inline: the fast-forward fold queries it once per channel on every
  /// executed cycle, and in_flight_ holds at most a handful of entries.
  [[nodiscard]] dram::MemCycle next_completion_ready() const {
    dram::MemCycle e = kNoMemEvent;
    for (const auto& f : in_flight_) e = std::min(e, f.completion.done);
    return e;
  }

  /// The channel's wake-up time: min(next_event(now), the earliest
  /// in-flight completion, but no earlier than now + 1) — the first
  /// memory cycle at which tick() or collect_completions() could act.
  /// Every tick strictly before it is a state no-op until the next
  /// external input (an enqueue or a refresh-schedule change).
  [[nodiscard]] dram::MemCycle next_wake(dram::MemCycle now) const {
    const dram::MemCycle e = next_event(now);
    const dram::MemCycle done = next_completion_ready();
    return done == kNoMemEvent ? e : std::min(e, std::max(done, now + 1));
  }

  /// Stands in for `n` skipped no-op ticks. Their only side effect is
  /// one queue-depth sample each, and the queue sizes cannot change
  /// during a skip, so they just add to the pending sample count.
  void skip_ticks(dram::MemCycle n) { pending_depth_samples_ += n; }

  /// Whether any issued read is still in flight; callers use this to
  /// skip collect_completions() on the (common) ticks with nothing to
  /// drain.
  [[nodiscard]] bool has_in_flight() const { return !in_flight_.empty(); }

  /// Drains and returns reads completed up to now. The returned
  /// reference stays valid until the next call (reused buffer: this runs
  /// on every executed memory tick).
  [[nodiscard]] const std::vector<ReadCompletion>& collect_completions(
      dram::MemCycle now);

  [[nodiscard]] std::size_t read_queue_depth() const {
    return read_q_.size();
  }
  [[nodiscard]] std::size_t write_queue_depth() const {
    return write_q_.size();
  }
  [[nodiscard]] bool idle() const {
    return read_q_.empty() && write_q_.empty() && in_flight_.empty();
  }

  /// Called from the System's per-cycle loop: the no-change early-out
  /// keeps it a compare per cycle, and the trace emission stays
  /// out-of-line so the hot loop body does not grow.
  void set_refresh_divider(std::uint32_t divider) {
    if (divider == config_.refresh_divider) return;
    if (tracer_ != nullptr) {
      trace_divider_change(config_.refresh_divider, divider);
    }
    config_.refresh_divider = divider;
  }
  void set_refresh_enabled(bool enabled) {
    if (tracer_ != nullptr && enabled != config_.refresh_enabled) {
      tracer_->instant(tracing::Category::kRefresh, tracing::kTrackRefresh,
                       enabled ? "refresh_enabled" : "refresh_disabled",
                       tracer_->now());
    }
    config_.refresh_enabled = enabled;
  }

  /// Attaches the observability tracer (docs/OBSERVABILITY.md):
  /// refresh-rate transitions (refresh), power-down entry/exit instants
  /// (power), queue-occupancy counters on every enqueue/issue edge
  /// (queue). Pass nullptr to detach.
  void set_tracer(tracing::Tracer* tracer) { tracer_ = tracer; }

  /// Re-aligns the refresh schedule after a self-refresh stay (the
  /// device refreshed itself; accumulated debt — all-bank *and*
  /// per-bank — does not apply, and the per-bank stagger restarts from
  /// `now`).
  void resync_refresh(dram::MemCycle now);

  // ---- refresh-schedule observers (tests/memctrl) ----
  /// Outstanding refresh debt across the channel: per-(global-)bank
  /// total in per-bank mode, the summed per-rank all-bank debt
  /// otherwise.
  [[nodiscard]] std::uint32_t pending_refresh_debt() const {
    return config_.refresh_granularity == RefreshGranularity::kPerBank
               ? total_refresh_debt_
               : total_ab_debt_;
  }
  [[nodiscard]] std::uint32_t refresh_debt(std::uint32_t bank) const {
    return bank_refresh_debt_[bank];
  }
  [[nodiscard]] dram::MemCycle bank_next_refresh(std::uint32_t bank) const {
    return bank_next_refresh_[bank];
  }
  /// All-bank mode: rank r's next REF due time.
  [[nodiscard]] dram::MemCycle rank_next_refresh(std::uint32_t rank) const {
    return rank_next_refresh_[rank];
  }

  /// Conservative lower bound on the `done` cycle of any read column
  /// that has NOT yet issued: future scheduling cannot create a
  /// completion earlier than this. kNoMemEvent when no read is queued
  /// (nothing new can complete until another enqueue). Used to size
  /// channel-parallel execution spans (docs/SCALING.md).
  [[nodiscard]] dram::MemCycle earliest_new_completion_bound() const {
    if (read_q_.empty()) return kNoMemEvent;
    const dram::MemCycle b = earliest_issue_bound();
    if (b == kNoMemEvent) return kNoMemEvent;
    return b + device_.timing().tCL + device_.timing().tBURST;
  }

  /// Counter view (tests). Rebuilt on demand: the counters themselves
  /// live in plain members because a string-keyed map lookup per DRAM
  /// command dominated the scheduler hot path.
  [[nodiscard]] const StatSet& stats() const {
    stats_cache_.reset();
    export_counters(stats_cache_);
    return stats_cache_;
  }
  [[nodiscard]] const ControllerConfig& config() const { return config_; }

  /// Exports counters (FR-FCFS decisions, refresh activity, queue
  /// events) plus the per-tick queue-occupancy distributions, pending
  /// samples included; the System registers this as the "memctrl"
  /// StatRegistry component.
  void export_stats(StatSet& out) const {
    export_counters(out);
    Distribution read = read_q_depth_;
    Distribution write = write_q_depth_;
    record_pending_depths(read, write);
    out.put_dist("read_queue_depth", read);
    out.put_dist("write_queue_depth", write);
  }

 private:
  struct InFlight {
    ReadCompletion completion;
  };

  /// True if any queued request targets this bank's open row.
  void schedule(dram::MemCycle now);
  [[nodiscard]] bool try_issue_column(std::vector<MemRequest>& q,
                                      dram::MemCycle now);
  [[nodiscard]] bool try_prepare_row(std::vector<MemRequest>& q,
                                     dram::MemCycle now);
  void manage_power_down(dram::MemCycle now, bool did_work);
  void manage_refresh(dram::MemCycle now);
  /// Per-bank refresh pass: accrues per-bank debt at each bank's own
  /// period boundary, picks a target bank per the configured policy
  /// (strict round-robin / elastic / DARP), and issues REFpb with
  /// priority over demand to that bank. Also drives DARP pull-ins.
  void manage_refresh_per_bank(dram::MemCycle now);
  /// Bank a DARP pull-in could refresh right now (-1 if none): no
  /// outstanding debt anywhere, the bank has no queued demand, its next
  /// due time is within max_postponed_refreshes periods, its rank is
  /// awake, and the device accepts a REFpb to it. Banks are tried in
  /// round-robin order from refresh_rr_.
  [[nodiscard]] int pull_in_candidate(dram::MemCycle now) const;
  /// Same, restricted to `rank`'s banks (per-rank power-down decisions).
  [[nodiscard]] int pull_in_candidate_rank(std::uint32_t rank,
                                           dram::MemCycle now) const;
  /// Per-bank mode: rank r's outstanding debt / earliest due time
  /// across its banks (per-rank power-down headroom checks).
  [[nodiscard]] std::uint32_t rank_pb_debt(std::uint32_t rank) const;
  [[nodiscard]] dram::MemCycle rank_pb_next_refresh(std::uint32_t rank) const;
  /// Issues the REFpb to `bank` and settles the schedule: debt-- (or,
  /// for a pull-in, due time += one period) and counters.
  void issue_bank_refresh(std::uint32_t bank, dram::MemCycle now,
                          bool pull_in);
  [[nodiscard]] dram::MemCycle refresh_interval() const {
    return static_cast<dram::MemCycle>(device_.timing().tREFI) *
           config_.refresh_divider;
  }
  /// next_refresh_ caches the earliest per-bank due time in per-bank
  /// mode; recompute after any due-time move.
  void recompute_next_refresh() {
    dram::MemCycle m = bank_next_refresh_[0];
    for (const dram::MemCycle d : bank_next_refresh_) m = std::min(m, d);
    next_refresh_ = m;
  }
  /// Out-of-line trace emission for refresh-divider moves (cold path;
  /// see set_refresh_divider).
  void trace_divider_change(std::uint32_t from, std::uint32_t to);
  [[nodiscard]] bool try_close_unneeded_row(dram::MemCycle now);
  [[nodiscard]] bool row_still_needed(std::uint32_t bank,
                                      std::int64_t row) const;

  /// Conservative earliest cycle any queued request could issue a
  /// column, precharge, or activate (see next_event).
  [[nodiscard]] dram::MemCycle earliest_issue_bound() const;

  /// Folds the member counters into `out` under the historical StatSet
  /// names, preserving key presence (a key exists iff its event ever
  /// happened, exactly as first-increment insertion behaved).
  void export_counters(StatSet& out) const;

  // Demand index so row_still_needed is O(1) instead of re-scanning both
  // queues per scheduling decision, and earliest_issue_bound walks the
  // queued banks instead of the queued requests. The scheduler only ever
  // asks about a bank's *currently open* row, so per-bank counters
  // suffice: they are kept exact by the enqueue/dequeue hooks below plus
  // a recount on ACT (recount_open_row_demand) and a reset on every PRE
  // (clear_open_row_demand). Reads are counted separately because their
  // issue bound differs from writes' (tWTR after a write burst).
  void index_insert(const MemRequest& r) {
    if (bank_queued_[r.bank]++ == 0) queued_mask_ |= 1u << r.bank;
    ++rank_queued_[device_.rank_of(r.bank)];
    const dram::Bank& b = device_.bank(r.bank);
    if (b.open_row() == static_cast<std::int64_t>(r.row)) {
      ++open_row_demand_[r.bank];
      ++matched_total_;
      if (r.type == ReqType::kRead) ++open_row_demand_reads_[r.bank];
    }
    if (r.type == ReqType::kWrite) write_lines_.push_back(r.line_addr);
  }
  void index_erase(const MemRequest& r) {
    if (--bank_queued_[r.bank] == 0) queued_mask_ &= ~(1u << r.bank);
    --rank_queued_[device_.rank_of(r.bank)];
    const dram::Bank& b = device_.bank(r.bank);
    if (b.open_row() == static_cast<std::int64_t>(r.row)) {
      --open_row_demand_[r.bank];
      --matched_total_;
      if (r.type == ReqType::kRead) --open_row_demand_reads_[r.bank];
    }
    if (r.type == ReqType::kWrite) {
      for (auto& a : write_lines_) {
        if (a == r.line_addr) {
          a = write_lines_.back();
          write_lines_.pop_back();
          break;
        }
      }
    }
  }
  [[nodiscard]] bool write_line_pending(Address line_addr) const {
    for (const Address a : write_lines_) {
      if (a == line_addr) return true;
    }
    return false;
  }
  /// Rebuilds the open-row demand counters for `bank` after an ACT
  /// opened `row` (O(queued requests), and ACTs are far rarer than
  /// lookups).
  void recount_open_row_demand(std::uint32_t bank, std::uint32_t row);
  /// Drops `bank`'s open-row demand after a PRE closed its row.
  void clear_open_row_demand(std::uint32_t bank) {
    matched_total_ -= open_row_demand_[bank];
    open_row_demand_[bank] = 0;
    open_row_demand_reads_[bank] = 0;
  }

  dram::Device& device_;
  ControllerConfig config_;
  AddressMap map_;

  std::vector<MemRequest> read_q_;
  std::vector<MemRequest> write_q_;
  std::vector<InFlight> in_flight_;
  // Queue indexes (only ever used for point lookups, so their layout
  // cannot perturb determinism). write_lines_ mirrors the write queue's
  // line addresses (coalescing keeps it duplicate-free) for the
  // forwarding/coalescing lookups; it is a flat unsorted vector rather
  // than a hash set because the queue is bounded at ~32 entries — a
  // contiguous scan beats hashing plus a node malloc/free per write.
  // open_row_demand_ counts queued requests per bank targeting that
  // bank's open row, for O(1) row_still_needed without any scan.
  std::vector<Address> write_lines_;
  // Per-(global-)bank / per-rank demand counters.
  std::vector<std::uint32_t> bank_queued_;           // queued reqs per bank
  std::uint32_t queued_mask_ = 0;  // bit per bank: bank_queued_ != 0
  std::vector<std::uint32_t> rank_queued_;           // ...summed per rank
  std::vector<std::uint32_t> open_row_demand_;       // ...targeting open row
  std::vector<std::uint32_t> open_row_demand_reads_; // ...that are reads
  std::uint32_t matched_total_ = 0;  // sum of open_row_demand_

  bool draining_writes_ = false;
  // All-bank refresh schedule, one per rank (each rank takes its own
  // REF command, staggered by interval/ranks). next_refresh_ caches the
  // minimum due time across ranks (per-bank: across banks) for the
  // per-tick early-out. refresh_urgent_mask_ holds one bit per rank:
  // new ACTs into a rank owing an unpostponed REF are held off until
  // its banks drain.
  dram::MemCycle next_refresh_ = 0;
  std::vector<dram::MemCycle> rank_next_refresh_;
  std::vector<std::uint32_t> rank_refresh_debt_;
  std::uint32_t total_ab_debt_ = 0;        // sum of rank_refresh_debt_
  std::uint32_t refresh_urgent_mask_ = 0;  // bit per rank
  // Per-bank refresh schedule (refresh_granularity == kPerBank): each
  // global bank's next due time (staggered by tREFI*divider/G so the
  // channel sees one REFpb per tREFI/G on average, G = ranks*banks),
  // its outstanding debt, and the round-robin cursor.
  // refresh_block_mask_ plays refresh_urgent_mask_'s role bankwise:
  // while the pass is draining one bank for its REFpb, only ACTs into
  // *that* bank are held off.
  std::vector<dram::MemCycle> bank_next_refresh_;
  std::vector<std::uint32_t> bank_refresh_debt_;
  std::uint32_t total_refresh_debt_ = 0;  // sum of bank_refresh_debt_
  std::uint32_t refresh_rr_ = 0;          // round-robin start bank
  std::uint32_t refresh_block_mask_ = 0;  // bit per global bank
  // Power-down bookkeeping, per rank: last cycle the rank did work or
  // had demand queued, and the rank that issued this tick's command
  // (-1 if none) so manage_power_down only refreshes that rank's
  // activity stamp.
  std::vector<dram::MemCycle> last_rank_activity_;
  int work_rank_ = -1;

  // Hot-path event counters (see stats()/export_counters).
  std::uint64_t reads_enqueued_ = 0;
  std::uint64_t reads_forwarded_ = 0;
  std::uint64_t writes_enqueued_ = 0;
  std::uint64_t writes_coalesced_ = 0;
  std::uint64_t row_hits_ = 0;
  std::uint64_t row_misses_ = 0;
  std::uint64_t row_conflicts_ = 0;
  std::uint64_t read_latency_mem_cycles_ = 0;
  std::uint64_t refreshes_ = 0;
  std::uint64_t refreshes_pb_ = 0;
  std::uint64_t refresh_pull_ins_ = 0;
  std::uint64_t refresh_postpones_ = 0;
  std::uint64_t sarp_overlap_refreshes_ = 0;
  std::uint64_t precharges_for_refresh_ = 0;
  std::uint64_t closed_page_precharges_ = 0;
  std::uint64_t pd_entries_ = 0;
  std::uint64_t pd_exits_ = 0;
  std::uint64_t pd_exits_for_refresh_ = 0;

  mutable StatSet stats_cache_;  // materialized by stats()
  std::vector<ReadCompletion> completed_;  // collect_completions buffer
  // Queue occupancy, one sample per tick (executed or skipped). A tick
  // only counts its sample; the count is flushed into both histograms
  // just before a queue size changes, as that many samples of the
  // current depths. record_n is exact for integer samples, so the
  // histograms keep the bits per-tick recording would give them.
  Distribution read_q_depth_;
  Distribution write_q_depth_;
  std::uint64_t pending_depth_samples_ = 0;
  void record_pending_depths(Distribution& read, Distribution& write) const {
    read.record_n(static_cast<double>(read_q_.size()), pending_depth_samples_);
    write.record_n(static_cast<double>(write_q_.size()),
                   pending_depth_samples_);
  }
  void flush_depth_samples() {
    record_pending_depths(read_q_depth_, write_q_depth_);
    pending_depth_samples_ = 0;
  }

  tracing::Tracer* tracer_ = nullptr;
  /// Queue-depth counter samples on enqueue/issue edges (depths only
  /// change on those events, so edge sampling loses nothing and stays
  /// identical across fast-forward modes).
  void trace_queue_depths(dram::MemCycle now);
  void trace_power_event(const char* name, dram::MemCycle now);
};

}  // namespace mecc::memctrl
