// The Morphable-ECC policy engine (paper S III, S VI).
//
// Sits beside the memory controller and decides, per access, which
// decoder a line needs and whether the line undergoes ECC-Downgrade; on
// idle entry it drives ECC-Upgrade (optionally narrowed by MDT) and the
// switch to the 1 s self-refresh interval.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>

#include "common/stats.h"
#include "common/trace.h"
#include "common/types.h"
#include "mecc/mdt.h"
#include "mecc/mode_store.h"
#include "mecc/smd.h"

namespace mecc::morph {

struct EngineConfig {
  std::uint64_t memory_lines = kMemoryLines;
  std::uint64_t memory_bytes = kMemoryBytes;

  bool use_mdt = true;
  std::size_t mdt_entries = 1024;

  bool use_smd = false;
  double smd_mpkc_threshold = 2.0;
  Cycle smd_quantum_cycles = 102'400'000;  // 64 ms at 1.6 GHz

  // Idle refresh period = 64 ms * divider (the paper's 4-bit counter: 16).
  std::uint32_t idle_refresh_divider = 16;

  // ECC-Upgrade walk rate: cycles per line converted. The paper's 400 ms
  // for 16 M lines at 1.6 GHz works out to 40 CPU cycles per line.
  Cycle upgrade_cycles_per_line = 40;
};

/// What the memory side must do for one read that just returned.
struct ReadDecision {
  LineMode decode_mode = LineMode::kWeak;  // which decoder the data needs
  bool downgrade = false;  // re-encode weak + write back (off critical path)
};

struct UpgradeReport {
  std::uint64_t lines_upgraded = 0;
  Cycle upgrade_cycles = 0;   // CPU cycles spent converting
  double upgrade_seconds = 0.0;
};

class Engine {
 public:
  explicit Engine(const EngineConfig& config)
      : config_(config),
        modes_(config.memory_lines),
        mdt_(config.memory_bytes, config.mdt_entries),
        smd_(config.smd_quantum_cycles, config.smd_mpkc_threshold) {}

  /// Per-CPU-cycle housekeeping (SMD quantum checks).
  void tick(Cycle now) {
    if (!config_.use_smd) return;
    if (tracer_ == nullptr) {
      smd_.tick(now);
      return;
    }
    // A quantum check runs exactly when downgrade is off and the check
    // boundary arrives (smd.h); bracket it to trace the decision. The
    // fast-forward bound (next_event) guarantees the boundary cycle is
    // executed in both modes, so the event lands identically.
    const bool check_due = !smd_.downgrade_enabled() && now >= smd_.next_check();
    smd_.tick(now);
    if (check_due) {
      tracer_->instant(tracing::Category::kSmd, tracing::kTrackSmd,
                       smd_.downgrade_enabled() ? "smd_downgrade_on"
                                                : "smd_quantum",
                       now);
    }
  }

  /// Fast-forward contract (docs/PERFORMANCE.md): a conservative lower
  /// bound, strictly greater than `now`, on the first cycle at which
  /// tick() could do anything. No side effects. Cycle(-1) = never: the
  /// engine only acts again in response to accesses or lifecycle calls.
  [[nodiscard]] Cycle next_event(Cycle now) const {
    if (!config_.use_smd || smd_.downgrade_enabled()) {
      return static_cast<Cycle>(-1);
    }
    return std::max(now + 1, smd_.next_check());
  }

  /// A read's data arrived from DRAM: which decoder does it need, and
  /// does the line get downgraded?
  [[nodiscard]] ReadDecision on_read(Address line_addr) {
    if (config_.use_smd) smd_.record_access();
    ReadDecision d;
    d.decode_mode = modes_.mode_of(line_addr);
    ++(d.decode_mode == LineMode::kStrong ? reads_strong_ : reads_weak_);
    if (d.decode_mode == LineMode::kStrong && downgrade_enabled()) {
      d.downgrade = true;
      modes_.set_mode(line_addr, LineMode::kWeak);
      mdt_.mark(line_addr);
      ++downgrades_;
      if (tracer_ != nullptr) {
        tracer_->instant(tracing::Category::kMorph, tracing::kTrackMorph,
                         "downgrade", tracer_->now(), "line", line_addr);
      }
    }
    return d;
  }

  /// A write is being sent to DRAM. With downgrade enabled the line is
  /// encoded weak (one-cycle encoder); otherwise it is re-encoded with
  /// strong ECC so the 1 s refresh stays safe.
  void on_write(Address line_addr) {
    if (config_.use_smd) smd_.record_access();
    if (downgrade_enabled()) {
      if (modes_.mode_of(line_addr) == LineMode::kStrong) {
        mdt_.mark(line_addr);
        ++downgrades_on_write_;
        if (tracer_ != nullptr) {
          tracer_->instant(tracing::Category::kMorph, tracing::kTrackMorph,
                           "downgrade_on_write", tracer_->now(), "line",
                           line_addr);
        }
      }
      modes_.set_mode(line_addr, LineMode::kWeak);
    } else {
      modes_.set_mode(line_addr, LineMode::kStrong);
    }
  }

  /// Idle entry: ECC-Upgrade everything MDT says was downgraded (or the
  /// whole memory without MDT), then the DRAM can drop to the 1 s rate.
  UpgradeReport enter_idle() {
    UpgradeReport r;
    r.lines_upgraded = config_.use_mdt
                           ? mdt_.lines_to_upgrade()
                           : config_.memory_lines;
    r.upgrade_cycles = r.lines_upgraded * config_.upgrade_cycles_per_line;
    r.upgrade_seconds = cycles_to_seconds(r.upgrade_cycles);
    modes_.reset();
    mdt_.reset();
    ++idle_entries_;
    lines_upgraded_ += r.lines_upgraded;
    if (tracer_ != nullptr) {
      // The upgrade walk as a span starting at idle entry.
      tracer_->complete(tracing::Category::kMorph, tracing::kTrackMorph,
                        "ecc_upgrade", tracer_->now(), r.upgrade_cycles,
                        "lines", r.lines_upgraded);
    }
    return r;
  }

  /// Wake from idle: with SMD, downgrade starts disabled and must earn
  /// its way on via the traffic check.
  void wake(Cycle now) {
    if (config_.use_smd) smd_.reset(now);
    ++wakeups_;
    if (tracer_ != nullptr) {
      tracer_->instant(tracing::Category::kMorph, tracing::kTrackMorph,
                       "wake", now);
    }
  }

  /// DUE ladder rung 2 (memctrl/due_policy.h): immediately re-protect
  /// every line with strong ECC and clear the MDT, exactly like an idle
  /// entry but driven by the error handler rather than the lifecycle.
  void force_upgrade() {
    modes_.reset();
    mdt_.reset();
    ++forced_upgrades_;
    if (tracer_ != nullptr) {
      tracer_->instant(tracing::Category::kMorph, tracing::kTrackMorph,
                       "force_upgrade", tracer_->now());
    }
  }

  /// DUE ladder rung 3: latch (or clear) the refresh fallback. While
  /// degraded both the active and the idle refresh divider pin to 1
  /// (the JEDEC 64 ms rate) — the paper's refresh savings are abandoned
  /// so reliability never depends on ECC strength again. Downgrade
  /// itself may continue: weak ECC at 64 ms is the safe baseline.
  void set_degraded(bool degraded) {
    if (degraded && !degraded_) {
      ++degraded_latches_;
      if (tracer_ != nullptr) {
        tracer_->instant(tracing::Category::kMorph, tracing::kTrackMorph,
                         "degraded_latch", tracer_->now());
      }
    }
    degraded_ = degraded;
  }
  [[nodiscard]] bool degraded() const { return degraded_; }

  /// Refresh divider to use while asleep: the configured idle divider,
  /// unless the DUE ladder latched the 64 ms fallback.
  [[nodiscard]] std::uint32_t idle_refresh_divider() const {
    return degraded_ ? 1 : config_.idle_refresh_divider;
  }

  /// ECC-Downgrade is active (always, unless SMD is holding it off).
  [[nodiscard]] bool downgrade_enabled() const {
    return !config_.use_smd || smd_.downgrade_enabled();
  }

  /// Refresh divider the memory controller should run with right now:
  /// 1 (64 ms) in normal active mode, the idle divider while SMD keeps
  /// the memory fully ECC-6 protected.
  [[nodiscard]] std::uint32_t active_refresh_divider() const {
    if (degraded_) return 1;
    return downgrade_enabled() ? 1 : config_.idle_refresh_divider;
  }

  [[nodiscard]] const ModeStore& modes() const { return modes_; }
  [[nodiscard]] const Mdt& mdt() const { return mdt_; }
  [[nodiscard]] const Smd& smd() const { return smd_; }
  /// Counter view (tests). Rebuilt on demand: the counters live in
  /// plain members because the per-access string-keyed map lookups were
  /// hot under fast-forward (on_read/on_write run once per memory
  /// access).
  [[nodiscard]] const StatSet& stats() const {
    stats_cache_.reset();
    export_stats(stats_cache_);
    return stats_cache_;
  }

  /// Folds the member counters into `out` under the historical StatSet
  /// names; a key exists iff its event ever happened, exactly as
  /// first-increment insertion behaved (lines_upgraded is emitted with
  /// every idle entry, even when the MDT had nothing to upgrade).
  void export_stats(StatSet& out) const {
    const auto put = [&out](const char* name, std::uint64_t v) {
      if (v != 0) out.add(name, v);
    };
    put("reads_strong", reads_strong_);
    put("reads_weak", reads_weak_);
    put("downgrades", downgrades_);
    put("downgrades_on_write", downgrades_on_write_);
    if (idle_entries_ != 0) {
      out.add("idle_entries", idle_entries_);
      out.add("lines_upgraded", lines_upgraded_);
    }
    put("wakeups", wakeups_);
    put("forced_upgrades", forced_upgrades_);
    put("degraded_latches", degraded_latches_);
  }

  [[nodiscard]] const EngineConfig& config() const { return config_; }

  /// Attaches the observability tracer (docs/OBSERVABILITY.md): morph
  /// events (downgrades, upgrade walks, forced upgrades, degraded latch)
  /// and SMD quantum decisions. Pass nullptr to detach.
  void set_tracer(tracing::Tracer* tracer) { tracer_ = tracer; }

 private:
  EngineConfig config_;
  tracing::Tracer* tracer_ = nullptr;
  ModeStore modes_;
  Mdt mdt_;
  Smd smd_;
  std::uint64_t reads_strong_ = 0;
  std::uint64_t reads_weak_ = 0;
  std::uint64_t downgrades_ = 0;
  std::uint64_t downgrades_on_write_ = 0;
  std::uint64_t idle_entries_ = 0;
  std::uint64_t lines_upgraded_ = 0;
  std::uint64_t wakeups_ = 0;
  std::uint64_t forced_upgrades_ = 0;
  std::uint64_t degraded_latches_ = 0;
  mutable StatSet stats_cache_;  // materialized by stats()
  bool degraded_ = false;  // DUE ladder refresh fallback latch
};

}  // namespace mecc::morph
